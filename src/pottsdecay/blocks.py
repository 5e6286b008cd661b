"""Permissive blocks: closure computation, feasible configurations, sparsity checks.

A vertex set B (disjoint from the pinned set) is permissive when every
unpinned vertex just outside B is low-degree. The minimal permissive block
B(S) containing a seed set S is obtained by repeatedly absorbing unpinned
high-degree boundary vertices; the result is independent of absorption order.

Every closure grows through _absorb. minimal_permissive_block grows from
empty by one _absorb call per seed under the instance's pins, capped at its
budget, and raises BudgetError as soon as the closure passes the budget.
Both sparsity-scan modes grow a walk's closure one walk vertex at a time,
under an empty pinning and with no cap: the exhaustive scan from its parent
walk's closure, the sampled scan from empty along each trial's walk. The
exhaustive scan takes its walks from saw._saws, which keeps its own stack,
so l_max is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetError, ParseError
from .graph import _check_graph
from .model import Instance, _check_instance, _check_int, _check_params, _check_seed, _check_vertex
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

    The closure grows through _absorb, one call per seed, capped at
    block_budget: BudgetError as soon as the closure holds more than
    block_budget vertices, so a call that raises it absorbs at most
    block_budget + 1. The budget must be an integer >= 0, and every seed
    is checked before the seed set is sorted (ParseError).
    """
    if not isinstance(instance, Instance):  # inline: the recursion calls this per node
        _check_instance(instance)
    _check_int(block_budget, "block_budget", 0)
    graph = instance.graph
    pinned = instance.pinned
    seeds = tuple(seeds)
    for s in seeds:
        _check_vertex(graph, s)
    seeds = sorted(set(seeds))
    if not seeds:
        raise ParseError("block seed set must be non-empty")
    for s in seeds:
        if s in pinned:
            raise ParseError(f"seed vertex {s} is pinned")
    if len(seeds) > block_budget:
        raise BudgetError(f"block budget {block_budget} exceeded by seed set")
    inside = set()
    for s in seeds:
        _absorb(graph.adjacency, instance.params.max_low_degree, pinned, inside, s, block_budget)
        if len(inside) > block_budget:
            raise BudgetError(
                f"block budget {block_budget} exceeded growing from seeds {seeds}"
            )
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
    More than config_budget of them raise BudgetError; config_budget must be
    an integer >= 0 (ParseError).
    """
    if not isinstance(instance, Instance):  # inline: the recursion calls this per node
        _check_instance(instance)
    _check_int(config_budget, "config_budget", 0)
    verts = tuple(sorted(verts))
    for v in verts:
        _check_vertex(instance.graph, v)
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
    _check_instance(instance)
    verts = tuple(sorted(verts))
    for v in verts:
        _check_vertex(instance.graph, v)
    if instance.params.beta > 0:
        return tuple(1 for _ in verts)
    out = _backtrack_proper(instance, verts, config_budget=1, first_only=True)
    return out[0] if out else None


def _absorb(adj, max_low, pinned, closure, w, cap=float("inf")):
    """Grow a block closure by the vertex w.

    Adds w and every high-degree vertex (degree above max_low) outside
    `pinned` that is reachable from w through such vertices, and returns the
    added vertices in a list, empty when w was already inside. `pinned` is
    any container of vertices never absorbed: an instance's pin dict, or ()
    for the empty pinning of the sparsity scans. This is exact because
    cl(cl(S) | {w}) = cl(S | {w}): the closure of S is the least set holding
    S and every unpinned high-degree neighbour of its members. The growth
    stops as soon as the closure holds more than `cap` vertices, leaving it
    partial; minimal_permissive_block passes its budget, and the sparsity
    scans pass no cap.
    """
    if w in closure:
        return []
    closure.add(w)
    new = [w]
    for u in new:  # new grows while the loop reads it
        for x in adj[u]:
            if x not in closure and x not in pinned and len(adj[x]) > max_low:
                closure.add(x)
                new.append(x)
                if len(closure) > cap:
                    return new
    return new


def _closure_sizes(adj, max_low, v, l_max):
    """Yield (walk, size of its block closure) for each walk of saw._saws.

    The closure is grown by _absorb one vertex at a time along the
    depth-first scan and undone on backtrack (added[j] lists what walk[j]
    added). On a sparse graph each step costs O(1) amortised, not O(walk
    length). The yielded walk is saw._saws' walk in progress: copy it to
    keep it.
    """
    closure = set()
    added = []
    for walk in _saws(adj, v, l_max):
        while len(added) >= len(walk):
            closure.difference_update(added.pop())
        added.append(_absorb(adj, max_low, (), closure, walk[-1]))
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
    _check_graph(graph)
    _check_params(params)
    _check_int(l_max, "l_max", 0)
    _check_int(walk_budget, "walk_budget", 0)
    if mode not in ("exhaustive", "sampled"):
        raise ParseError(f"unknown mode {mode!r}")
    if mode == "sampled":
        _check_int(trials, "trials", 1)
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

    adj = graph.adjacency
    max_low = params.max_low_degree
    if mode == "exhaustive":
        for v in range(graph.n):
            for walk, size in _closure_sizes(adj, max_low, v, l_max):
                consider(walk, size)
                if checked > walk_budget:
                    raise BudgetError(
                        f"walk budget {walk_budget} exceeded; use sampled mode"
                    )
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        for _ in range(trials):
            v = int(rng.integers(graph.n))
            walk = [v]
            visited = {v}
            while len(walk) - 1 < l_max:
                options = [w for w in adj[walk[-1]] if w not in visited]
                if not options:
                    break
                w = options[int(rng.integers(len(options)))]
                walk.append(w)
                visited.add(w)
            closure = set()
            for w in walk:
                _absorb(adj, max_low, (), closure, w)
            consider(walk, len(closure))

    return {
        "mode": mode,
        "l_max": l_max,
        "paths_checked": checked,
        "worst_ratio": worst_ratio,
        "worst_path": list(worst_path),
        "worst_block_size": worst_block,
    }
