"""Brute-force oracles: exact partition functions, marginals, and the Gibbs law.

Everything here enumerates configurations, so it only runs on small problems;
the point is to be an independent ground truth for the estimator. There are
two enumerators, each metered against a budget. At beta = 0 a backtracking
walk counts proper colorings; it spends one budget unit per completed
coloring and one per dead-ended prefix. Otherwise a chunked numpy sweep
(_sweep) runs over all q^k colorings of k vertices; q^k is checked against
the budget before it starts. It weighs each configuration as model.weight
does, beta**m for its m monochromatic edges, read from a table of Python
floats. The beta > 0 oracles sum its weights, and the Gibbs table, at every
beta, keeps its nonzero ones. Unpinned isolated vertices are factored out
analytically (each contributes a factor q to every configuration class), so
derived instances whose interiors were edge-stripped cost nothing extra.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, InfeasibleError, ParseError, _check_int
from .model import Configuration, _check_instance, _check_vertex

DEFAULT_BUDGET = 10**7
_CHUNK = 1 << 16


def _base_state(instance):
    """Split vertices and classify edges relative to the pinning.

    Returns (active, iso_count, mono_base) where active are unpinned vertices
    with at least one edge, iso_count the number of unpinned isolated
    vertices, and mono_base the monochromatic count among pinned-pinned edges.
    """
    graph = instance.graph
    pinned = instance.pinned
    active = []
    iso = 0
    for v in range(graph.n):
        if v in pinned:
            continue
        if graph.degree(v) == 0:
            iso += 1
        else:
            active.append(v)
    mono_base = sum(
        1
        for u, v in graph.edges
        if u in pinned and v in pinned and pinned[u] == pinned[v]
    )
    return active, iso, mono_base


def _dfs_enumerate(instance, active, budget, root=None, first_only=False):
    """Backtracking count of the proper colorings of `active` (beta = 0).

    Returns (z, vec): z the number of proper colorings, vec the count per
    color at `root` or None. Each completed coloring and each dead-ended
    prefix costs one budget unit; the colorings that differ only at the last
    position are counted together. Every coloring weighs 1, so the counts
    are Python ints, exact as floats while below 2**53.
    """
    graph = instance.graph
    q = instance.params.q
    pinned = instance.pinned
    k = len(active)
    if k == 0:
        return 1.0, None
    pos = {v: i for i, v in enumerate(active)}
    earlier = []
    pinc = []
    for i, v in enumerate(active):
        eh = []
        pc = []
        for w in graph.adjacency[v]:
            j = pos.get(w)
            if j is not None and j < i:
                eh.append(j)
            elif w in pinned:
                pc.append(pinned[w])
        earlier.append(eh)
        pinc.append(pc)
    root_pos = pos[root] if root is not None else None
    vec = [0] * q if root is not None else None
    palette = range(q, 0, -1)  # popped from the end: ascending color order
    colors = [0] * k
    z = 0
    leaves = 0
    stack = []  # per open position, the colors still to try there
    idx = 0  # the position to enter next
    while True:
        banned = {colors[j] for j in earlier[idx]}
        banned.update(pinc[idx])
        opts = [c for c in palette if c not in banned]
        if not opts:
            leaves += 1  # dead-ended prefix: costs one budget unit
        elif idx < k - 1:
            stack.append(opts)
        else:
            # every color left at the last position completes a coloring
            width = 1 if first_only else len(opts)
            leaves += width
            z += width
            if root_pos == idx:
                for c in opts:
                    vec[c - 1] += 1
            elif vec is not None:
                vec[colors[root_pos] - 1] += width
        if leaves > budget:
            raise BudgetError(f"enumeration budget {budget} exceeded")
        if first_only and z:
            break
        while stack and not stack[-1]:
            stack.pop()
        if not stack:
            break
        idx = len(stack)
        colors[idx - 1] = stack[-1].pop()
    return float(z), None if vec is None else [float(x) for x in vec]


def _sweep(instance, verts):
    """Yield (digits, weights) per _CHUNK of the q^k colorings of `verts`.

    A coloring's code has the color minus 1 of verts[i] as its base-q digit
    i, most significant first, and the codes run in ascending order:
    digits[i] is the array of verts[i]'s digits over the chunk's codes. A
    weight is beta**m, read from a table of Python floats, where m counts
    the monochromatic edges with an endpoint in `verts` and the
    monochromatic pinned-pinned edges. When every other vertex with an edge
    is pinned, that is the float model.weight gives the configuration.
    """
    graph = instance.graph
    q = instance.params.q
    beta = instance.params.beta_float
    pinned = instance.pinned
    k = len(verts)
    total = q**k
    pos = {v: i for i, v in enumerate(verts)}
    table = np.array([beta**m for m in range(graph.m + 1)])
    base = 0
    vv_edges = []
    vp_edges = []
    for u, v in graph.edges:
        iu, iv = pos.get(u), pos.get(v)
        if iu is not None and iv is not None:
            vv_edges.append((iu, iv))
        elif iu is not None:
            vp_edges.append((iu, pinned[v] - 1))
        elif iv is not None:
            vp_edges.append((iv, pinned[u] - 1))
        elif u in pinned and v in pinned and pinned[u] == pinned[v]:
            base += 1
    for lo in range(0, total, _CHUNK):
        rest = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        digits = [None] * k
        for i in range(k - 1, -1, -1):
            rest, digits[i] = np.divmod(rest, q)
        mono = np.full(rest.size, base, dtype=np.int64)
        for i, j in vv_edges:
            mono += digits[i] == digits[j]
        for i, c in vp_edges:
            mono += digits[i] == c
        yield digits, table[mono]


def _enumerate(instance, budget, root=None, first_only=False):
    """Exact (z, vec, iso): a backtracking count at beta = 0, a numpy sweep at beta > 0.

    z and vec exclude the factor q^iso of the unpinned isolated vertices.
    first_only, read at beta = 0 only, stops at the first proper coloring.
    The caller checks budget.
    """
    active, iso, mono_base = _base_state(instance)
    q = instance.params.q
    if instance.params.beta == 0:
        if mono_base > 0:
            return 0.0, [0.0] * q if root is not None else None, iso
        z, vec = _dfs_enumerate(instance, active, budget, root, first_only)
        return z, vec, iso
    k = len(active)
    if q**k > budget:
        raise BudgetError(f"enumeration budget {budget} exceeded: q^k = {q}^{k}")
    root_pos = active.index(root) if root is not None else None
    z_parts = []
    vec_parts = []
    for digits, w in _sweep(instance, active):
        z_parts.append(float(w.sum()))
        if root_pos is not None:
            vec_parts.append(np.bincount(digits[root_pos], weights=w, minlength=q))
    vec = None
    if root_pos is not None:
        vec = [math.fsum(p[c] for p in vec_parts) for c in range(q)]
    return math.fsum(z_parts), vec, iso


def exact_partition(instance, budget=DEFAULT_BUDGET):
    """Exact partition function (0.0 when no positive-weight configuration exists)."""
    _check_instance(instance)
    _check_int(budget, "budget", 0)
    z, _, iso = _enumerate(instance, budget)
    return z * instance.params.q**iso


def exact_marginal_vector(instance, v, budget=DEFAULT_BUDGET):
    """Exact per-color conditional marginal vector of v given the pinning.

    A pinned v yields its indicator vector. Raises InfeasibleError when the
    instance has no positive-weight configuration at all.
    """
    _check_instance(instance)
    graph = instance.graph
    params = instance.params
    _check_vertex(graph, v)
    _check_int(budget, "budget", 0)
    pin = instance.pinned.get(v)
    if pin is not None:
        out = [0.0] * params.q
        out[pin - 1] = 1.0
        return out
    if graph.degree(v) == 0:
        if not is_feasible(instance, budget):
            raise InfeasibleError("no positive-weight configuration exists")
        return [1.0 / params.q] * params.q
    z, vec, _ = _enumerate(instance, budget, root=v)
    if z <= 0.0:
        raise InfeasibleError("no positive-weight configuration exists")
    return [x / z for x in vec]


def exact_block_marginal(instance, block, pi, budget=DEFAULT_BUDGET):
    """Exact probability that a whole vertex set takes the joint coloring pi.

    Every block vertex is checked before the block is sorted.
    """
    _check_instance(instance)
    verts = tuple(block.vertices if hasattr(block, "vertices") else block)
    for v in verts:
        _check_vertex(instance.graph, v)
    verts = sorted(verts)
    pi = Configuration(pi)
    missing = [v for v in verts if v not in pi]
    if missing:
        raise ParseError(f"pi leaves block vertices {missing} uncolored")
    z_den = exact_partition(instance, budget)
    if z_den <= 0.0:
        raise InfeasibleError("no positive-weight configuration exists")
    pinned = instance.with_pins({v: pi[v] for v in verts})
    z_num = exact_partition(pinned, budget)
    return z_num / z_den


def is_feasible(instance, budget=DEFAULT_BUDGET):
    """Whether any configuration of positive weight extends the pinning."""
    _check_instance(instance)
    _check_int(budget, "budget", 0)
    if instance.params.beta > 0:
        return True
    z, _, _ = _enumerate(instance, budget, first_only=True)
    return z > 0.0


def exact_gibbs_table(instance, budget=10**6):
    """The Gibbs law as {color tuple over vertices 0..n-1: probability}.

    Sweeps every total configuration extending the pinning; zero-weight ones
    are omitted, so the keys are exactly the Gibbs support. Raises
    InfeasibleError when the total weight is 0.
    """
    _check_instance(instance)
    _check_int(budget, "budget", 0)
    graph = instance.graph
    params = instance.params
    unp = instance.unpinned()
    total = params.q ** len(unp)
    if total > budget:
        raise BudgetError(
            f"Gibbs table budget {budget} exceeded: q^unpinned = {params.q}^{len(unp)}"
        )
    row = np.array([instance.pinned.get(v, 0) for v in range(graph.n)], dtype=np.int64)
    law = {}
    for digits, w in _sweep(instance, unp):
        keep = np.flatnonzero(w)
        colors = np.tile(row, (keep.size, 1))
        for v, d in zip(unp, digits):
            colors[:, v] = d[keep] + 1
        law.update(zip(map(tuple, colors.tolist()), w[keep].tolist()))
    if not law:
        raise InfeasibleError("Gibbs table has zero total weight")
    z = math.fsum(law.values())
    for key, w in law.items():
        law[key] = w / z
    return law
