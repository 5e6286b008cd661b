"""Self-avoiding walk enumeration and contraction diagnostics.

The central quantity is the delta-weighted walk sum E(v, l): the sum over all
self-avoiding walks of length l starting at v of the product of per-vertex
coefficients delta(deg(u)) over the walk's vertices, excluding the start.
Exponential decay of max_v E(v, l) in l is the contraction property the
estimator's error analysis rests on; with constant delta = 1/D the sums
reduce to SAW counts over D^l, the connective-constant normalization.

The public entries are enumerate_saws (the walks themselves),
e_delta_profile (E(v, l) for every l = 0..l_max in one pass) and
verify_contraction (the worst profile over all start vertices, with a fitted
decay rate). The walk counts are e_delta_profile(graph, v, l_max, 1): with
delta = 1 every walk's product is 1.0, so each sum is its count, exact as a
float while below 2**53.

Walk scans keep explicit stacks, not Python recursion, so walk length has no
recursion limit: _walk_sums sums products per length in one pass, and _saws
yields the walks for enumerate_saws and blocks.verify_locally_sparse.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import BudgetError, ParseError, _check_int, _is_real
from .graph import _check_graph
from .model import PottsParams, _check_vertex

log = logging.getLogger(__name__)

DEFAULT_EXTENSION_BUDGET = 10**8


def _delta_by_vertex(graph, delta):
    """Normalize a delta argument (PottsParams or constant) to per-vertex values."""
    if isinstance(delta, PottsParams):
        return [delta.delta(graph.degree(v)) for v in range(graph.n)]
    if not _is_real(delta):
        raise ParseError(f"delta must be PottsParams or a real number, got {delta!r}")
    c = float(delta)
    return [c] * graph.n


def _walk_sums(adj, values, v, l_max, budget=None):
    """One DFS pass collecting sum-of-products per walk length 0..l_max.

    Returns (sums, extensions, exhausted). `values[w]` multiplies into the
    product when the walk steps onto w; the start vertex contributes nothing.
    """
    sums = [0.0] * (l_max + 1)
    sums[0] = 1.0
    if l_max == 0:
        return sums, 0, False
    n = len(adj)
    on_path = bytearray(n)
    on_path[v] = 1
    path = [v]
    prods = [1.0]
    iters = [iter(adj[v])]
    extensions = 0
    exhausted = False
    while iters:
        advanced = False
        for w in iters[-1]:
            if on_path[w]:
                continue
            if budget is not None and extensions >= budget:
                exhausted = True
                break
            extensions += 1
            p = prods[-1] * values[w]
            depth = len(path)
            sums[depth] += p
            if depth < l_max:
                on_path[w] = 1
                path.append(w)
                prods.append(p)
                iters.append(iter(adj[w]))
                advanced = True
                break
        if exhausted:
            break
        if not advanced:
            on_path[path.pop()] = 0
            prods.pop()
            iters.pop()
    return sums, extensions, exhausted


def _saws(adj, v, l_max):
    """Yield every self-avoiding walk of 0..l_max edges from v, depth first.

    Each walk comes before its extensions, and walks come out in
    lexicographic order of their vertex sequences. The scan keeps its own
    stack, so walk length is not limited by Python's recursion limit. The
    yielded list is the walk in progress: copy it to keep it.
    """
    on_path = bytearray(len(adj))
    on_path[v] = 1
    path = [v]
    yield path
    iters = [iter(adj[v])] if l_max > 0 else []
    while iters:
        for w in iters[-1]:
            if on_path[w]:
                continue
            path.append(w)
            yield path
            if len(path) <= l_max:
                on_path[w] = 1
                iters.append(iter(adj[w]))
                break
            path.pop()
        else:
            iters.pop()
            on_path[path.pop()] = 0


def enumerate_saws(graph, v, length):
    """A generator of every self-avoiding walk of exactly `length` edges from v.

    The arguments are checked at the call, before the generator is made.
    Walks come out in lexicographic order of their vertex sequences; length 0
    yields the single walk (v,).
    """
    _check_graph(graph)
    _check_vertex(graph, v)
    _check_int(length, "length", 0)
    return (tuple(path) for path in _saws(graph.adjacency, v, length) if len(path) == length + 1)


def e_delta_profile(graph, v, l_max, delta, extension_budget=None):
    """Delta-weighted SAW sums for all lengths 0..l_max in one pass."""
    _check_graph(graph)
    _check_vertex(graph, v)
    _check_int(l_max, "l_max", 0)
    if extension_budget is not None:
        _check_int(extension_budget, "extension_budget", 0)
    values = _delta_by_vertex(graph, delta)
    sums, _, exhausted = _walk_sums(graph.adjacency, values, v, l_max, extension_budget)
    if exhausted:
        raise BudgetError(
            f"SAW extension budget {extension_budget} exceeded at vertex {v}"
        )
    return sums


def _fit_decay_rate(lengths, maxima):
    """Geometric decay rate from a log-linear fit over the upper half of lengths."""
    lo = max(1, math.ceil(lengths[-1] / 2))
    hi = lengths[-1]
    pts = [(l, m) for l, m in zip(lengths, maxima) if lo <= l <= hi and m > 0.0]
    if len(pts) < 2:
        # Walk sums died out inside the fit window: trivially contracting.
        return 0.0, lo, hi
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log(np.array([p[1] for p in pts], dtype=float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return math.exp(slope), lo, hi


def verify_contraction(graph, delta, l_max, extension_budget=DEFAULT_EXTENSION_BUDGET):
    """Scan all vertices for the worst delta-weighted walk sums per length.

    Returns a report dict with per-length maxima, the fitted geometric rate
    gamma, and a contracting verdict (gamma < 1). A graph whose walk counts
    blow past `extension_budget` gets a truncated scan, a warning, and
    budget_exhausted=true in the report; a truncated scan certifies nothing,
    so its verdict is contracting=false whatever its gamma.
    """
    _check_graph(graph)
    _check_int(l_max, "l_max", 1)
    _check_int(extension_budget, "extension_budget", 0)
    values = _delta_by_vertex(graph, delta)
    maxima = [0.0] * (l_max + 1)
    spent = 0
    exhausted = False
    scanned = 0
    for v in range(graph.n):
        sums, ext, exh = _walk_sums(
            graph.adjacency, values, v, l_max, extension_budget - spent
        )
        spent += ext
        for l in range(l_max + 1):
            if sums[l] > maxima[l]:
                maxima[l] = sums[l]
        if exh:
            exhausted = True
            log.warning(
                "SAW extension budget %d exhausted after vertex %d of %d; "
                "contraction report is partial",
                extension_budget,
                v,
                graph.n,
            )
            break
        scanned += 1
    lengths = list(range(1, l_max + 1))
    gamma, fit_lo, fit_hi = _fit_decay_rate(lengths, maxima[1:])
    return {
        "l": lengths,
        "max_e_delta": maxima[1:],
        "gamma": gamma,
        "contracting": not exhausted and gamma < 1.0 - 1e-9,
        "l_fit_lo": fit_lo,
        "l_fit_hi": fit_hi,
        "vertices_scanned": scanned,
        "extensions": spent,
        "budget_exhausted": exhausted,
    }
