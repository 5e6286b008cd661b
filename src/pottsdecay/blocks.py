"""Permissive blocks: closure computation, feasible configurations, sparsity checks.

A vertex set B (disjoint from the pinned set) is permissive when every
unpinned vertex just outside B is low-degree. The minimal permissive block
B(S) containing a seed set S is obtained by repeatedly absorbing unpinned
high-degree boundary vertices; the result is independent of absorption order,
and we process the lowest-numbered candidate first so intermediate states are
reproducible too.

The exhaustive sparsity scan takes its walks from saw._saws, which keeps its
own stack, so l_max is not bounded by Python's recursion limit, and grows
each walk's closure from its parent walk's instead of from scratch.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetError, ParseError
from .model import Instance, _check_seed
from .saw import _saws

DEFAULT_BLOCK_BUDGET = 64
DEFAULT_CONFIG_BUDGET = 10**6


class Block:
    """A permissive vertex set with its ordered boundary edges.

    boundary_edges lists (u, v) pairs with u in the block and v outside,
    sorted lexicographically; this fixed order is what the recursion's
    one-edge-at-a-time telescoping refers to.
    """

    __slots__ = ("vertices", "boundary_edges")

    def __init__(self, vertices, boundary_edges):
        self.vertices = tuple(sorted(vertices))
        self.boundary_edges = tuple(boundary_edges)

    @property
    def m(self):
        return len(self.boundary_edges)

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and self.vertices == other.vertices
            and self.boundary_edges == other.boundary_edges
        )

    def __hash__(self):
        return hash((self.vertices, self.boundary_edges))

    def __repr__(self):
        return f"Block(vertices={self.vertices}, m={self.m})"


def _boundary_edges(graph, inside):
    out = []
    for u in sorted(inside):
        for w in graph.adjacency[u]:
            if w not in inside:
                out.append((u, w))
    return out


def minimal_permissive_block(instance, seeds, block_budget=DEFAULT_BLOCK_BUDGET):
    """Close a seed set under absorption of high-degree unpinned boundary vertices.

    Raises BudgetError when the closure grows past block_budget vertices.
    """
    graph = instance.graph
    params = instance.params
    pinned = instance.pinned
    seeds = sorted(set(seeds))
    if not seeds:
        raise ParseError("block seed set must be non-empty")
    for s in seeds:
        if not (0 <= s < graph.n):
            raise ParseError(f"seed vertex {s} out of range")
        if s in pinned:
            raise ParseError(f"seed vertex {s} is pinned")
    inside = set(seeds)
    if len(inside) > block_budget:
        raise BudgetError(f"block budget {block_budget} exceeded by seed set")
    candidates = set()

    def scan(u):
        for w in graph.adjacency[u]:
            if w in inside or w in pinned:
                continue
            if not params.is_low_degree(graph.degree(w)):
                candidates.add(w)

    for s in seeds:
        scan(s)
    while candidates:
        w = min(candidates)
        candidates.discard(w)
        inside.add(w)
        if len(inside) > block_budget:
            raise BudgetError(
                f"block budget {block_budget} exceeded growing from seeds {seeds}"
            )
        scan(w)
    return Block(inside, _boundary_edges(graph, inside))


def _backtrack_proper(instance, verts, config_budget, first_only=False):
    """Proper colorings of the induced subgraph on verts, consistent with pins.

    Colors are constrained away from pinned neighbors (anywhere in the graph)
    and from already-assigned earlier vertices inside verts. Output tuples are
    aligned with `verts` and produced in lexicographic order; no vertices
    give the one empty coloring.

    Each position's palette minus its pinned neighbours' colours is listed
    once; entering a position filters that list by the colours of its
    earlier neighbours into the position's candidates, ascending. The last
    position emits all its candidates in one pass, so a singleton block
    costs one pass over the palette. More than config_budget colorings
    raise BudgetError.
    """
    graph = instance.graph
    q = instance.params.q
    pinned = instance.pinned
    k = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    earlier = []
    allowed = []
    for i, v in enumerate(verts):
        eh = []
        bn = set()
        for w in graph.adjacency[v]:
            j = pos.get(w)
            if j is not None and j < i:
                eh.append(j)
            elif w in pinned:
                bn.add(pinned[w])
        earlier.append(eh)
        allowed.append([c for c in range(1, q + 1) if c not in bn])
    if not k:
        out = [()]
    else:
        out = []
        last = k - 1
        colors = [0] * last
        cands = [None] * k
        nxt = [0] * k
        cands[0] = allowed[0]
        idx = 0
        while idx >= 0:
            if idx < last:
                j = nxt[idx]
                if j == len(cands[idx]):
                    idx -= 1
                    continue
                colors[idx] = cands[idx][j]
                nxt[idx] = j + 1
                idx += 1
                used = {colors[e] for e in earlier[idx]}
                cands[idx] = [c for c in allowed[idx] if c not in used]
                nxt[idx] = 0
                continue
            if cands[idx]:
                prefix = tuple(colors)
                if first_only:
                    return [(*prefix, cands[idx][0])]
                out.extend([(*prefix, c) for c in cands[idx]])
                if len(out) > config_budget:
                    break
            idx -= 1
    if out and len(out) > config_budget:
        raise BudgetError(f"feasible-configuration budget {config_budget} exceeded")
    return out


def feasible_tuples(instance, verts, config_budget=DEFAULT_CONFIG_BUDGET):
    """Feasible block configurations as color tuples aligned with sorted verts.

    beta > 0: every configuration in [q]^B, lexicographic. beta = 0: proper
    colorings of the induced subgraph that avoid all pinned neighbor colors.
    """
    verts = tuple(sorted(verts))
    q = instance.params.q
    if instance.params.beta_positive:
        if q ** len(verts) > config_budget:
            raise BudgetError(
                f"feasible-configuration budget {config_budget} exceeded: "
                f"q^|B| = {q}^{len(verts)}"
            )
        return list(itertools.product(range(1, q + 1), repeat=len(verts)))
    return _backtrack_proper(instance, verts, config_budget)


def first_feasible_tuple(instance, verts):
    """First feasible configuration in lexicographic order, or None."""
    verts = tuple(sorted(verts))
    if instance.params.beta > 0:
        return tuple(1 for _ in verts)
    out = _backtrack_proper(instance, verts, config_budget=1, first_only=True)
    return out[0] if out else None


def _closure_sizes(adj, high, v, l_max):
    """Yield (walk, size of its block closure) for each walk of saw._saws.

    The closure is taken with an empty pinning, high[u] telling whether u
    is high-degree. It is grown one vertex at a time along the depth-first
    scan and undone on backtrack (added[j] lists what walk[j] added), which
    is exact because cl(cl(S) | {w}) = cl(S | {w}): the closure of S is the
    least set holding S and every high-degree neighbour of its members. On
    a sparse graph each step costs O(1) amortised, not O(walk length). The
    yielded walk is saw._saws' walk in progress: copy it to keep it.
    """
    closure = set()
    added = []
    for walk in _saws(adj, v, l_max):
        while len(added) >= len(walk):
            closure.difference_update(added.pop())
        new = []
        w = walk[-1]
        if w not in closure:
            closure.add(w)
            new.append(w)
            stack = [w]
            while stack:
                for x in adj[stack.pop()]:
                    if high[x] and x not in closure:
                        closure.add(x)
                        new.append(x)
                        stack.append(x)
        added.append(new)
        yield walk, len(closure)


def verify_locally_sparse(
    graph,
    params,
    l_max,
    mode="exhaustive",
    trials=500,
    seed=0,
    walk_budget=10**6,
):
    """Measure how much block closures inflate walks: max |B(P)| / |P|.

    Closures are computed with an empty pinning. Exhaustive mode scans every
    self-avoiding walk of length 0..l_max from every vertex (BudgetError past
    walk_budget walks; switch to sampled mode for large graphs). Sampled mode
    grows `trials` (at least 1) random self-avoiding walks from a Philox
    stream keyed by the seed, so it needs at least one vertex to start from.
    """
    if l_max < 0:
        raise ParseError(f"l_max must be >= 0, got {l_max}")
    if mode not in ("exhaustive", "sampled"):
        raise ParseError(f"unknown mode {mode!r}")
    if mode == "sampled":
        if trials < 1:
            raise ParseError(f"trials must be >= 1 in sampled mode, got {trials}")
        if graph.n == 0:
            raise ParseError("sampled mode needs a graph with at least one vertex")
        _check_seed(seed)
    worst_ratio = 0.0
    worst_path = ()
    worst_block = 0
    checked = 0

    def consider(walk, size):
        nonlocal worst_ratio, worst_path, worst_block, checked
        checked += 1
        ratio = size / len(walk)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_path = tuple(walk)
            worst_block = size

    if mode == "exhaustive":
        adj = graph.adjacency
        high = [not params.is_low_degree(len(row)) for row in adj]
        for v in range(graph.n):
            for walk, size in _closure_sizes(adj, high, v, l_max):
                consider(walk, size)
                if checked > walk_budget:
                    raise BudgetError(
                        f"walk budget {walk_budget} exceeded; use sampled mode"
                    )
    else:
        bare = Instance(graph, params, {})
        rng = np.random.Generator(np.random.Philox(key=seed))
        for _ in range(trials):
            v = int(rng.integers(graph.n))
            walk = [v]
            visited = {v}
            while len(walk) - 1 < l_max:
                options = [w for w in graph.adjacency[walk[-1]] if w not in visited]
                if not options:
                    break
                w = options[int(rng.integers(len(options)))]
                walk.append(w)
                visited.add(w)
            # Closures may legitimately swallow the whole graph.
            block = minimal_permissive_block(bare, set(walk), graph.n)
            consider(walk, len(block.vertices))

    return {
        "mode": mode,
        "l_max": l_max,
        "paths_checked": checked,
        "worst_ratio": worst_ratio,
        "worst_path": list(worst_path),
        "worst_block_size": worst_block,
    }
