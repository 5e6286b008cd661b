"""Property test: region-scoped conditionals in estimate_partition.

Each telescoping step hands its conditional only the pins of its
decay.read_region. The result must equal, with ==, a reference loop that
hands every conditional all earlier pins: log Z, every per-vertex marginal
and the naive counters, or the same error.
Needs Hypothesis (in the `test` extras); the module skips without it.
"""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pottsdecay import (  # noqa: E402
    Graph,
    Instance,
    InfeasibleError,
    PottsError,
    PottsParams,
    RecursionLimits,
    estimate_partition,
    find_feasible_config,
    generate,
    marg,
    marg_coloring,
)
from pottsdecay.model import monochromatic_edges  # noqa: E402

SUMMED = ("recursive_calls", "termination_events", "infeasible_events")
MAXED = ("max_block_size", "max_f_size")


def _limits():
    return RecursionLimits(max_calls=20_000)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["random", "path", "star", "cycle"]))
    if kind == "path":
        g = generate("path", n=draw(st.integers(2, 8)))
    elif kind == "star":
        g = generate("star", k=draw(st.integers(2, 6)))
    elif kind == "cycle":
        g = generate("cycle", n=draw(st.integers(3, 8)))
    else:
        n = draw(st.integers(2, 8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if draw(st.integers(0, 2)) == 0])
    q = draw(st.integers(3, 6))
    beta = draw(st.sampled_from(["0", "0.25", "0.5"]))
    pins = draw(st.dictionaries(st.integers(0, g.n - 1), st.integers(1, q), max_size=g.n - 1))
    L = draw(st.sampled_from([0, 1, 2, g.n]))
    order_seed = draw(st.sampled_from([None, 0, 1, 2]))
    return g, PottsParams(q, beta), pins, L, order_seed


def _error(err):
    # A max_calls abort reports the terminations counted so far, which
    # depend on where the colour memo hit; that part is dropped.
    return type(err).__name__, re.sub(r" \(termination_events=\d+\)", "", str(err))


def _reference(graph, params, pins, L, order_seed):
    """estimate_partition's loop with every earlier pin passed on."""
    instance = Instance(graph, params, pins)
    anchor = find_feasible_config(instance)
    mono = monochromatic_edges(graph, {v: anchor[v] for v in range(graph.n)})
    if params.beta == 0:
        if mono:
            raise InfeasibleError("anchor configuration is not proper")
        log_z = 0.0
    else:
        log_z = mono * math.log(params.beta_float)
    order = instance.unpinned()
    if order_seed is not None:
        rng = np.random.Generator(np.random.Philox(key=order_seed))
        order = [order[i] for i in rng.permutation(len(order))]
    estimate = marg if params.beta > 0 else marg_coloring
    fixed = dict(pins)
    per_vertex = []
    counters = dict.fromkeys(SUMMED + MAXED, 0)
    for v in order:
        p, diag = estimate(Instance(graph, params, fixed), v, anchor[v], L, limits=_limits())
        for name in SUMMED:
            counters[name] += getattr(diag, name)
        for name in MAXED:
            counters[name] = max(counters[name], getattr(diag, name))
        if p <= 0.0:
            raise InfeasibleError(
                f"conditional marginal vanished at vertex {v} under truncation"
            )
        log_z -= math.log(p)
        per_vertex.append((v, anchor[v], p))
        fixed[v] = anchor[v]
    return log_z, per_vertex, counters


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_region_scoped_steps_equal_full_prefix_steps(case):
    graph, params, pins, L, order_seed = case
    try:
        want = _reference(graph, params, pins, L, order_seed)
    except PottsError as err:
        want = _error(err)
    try:
        est = estimate_partition(
            graph, params, L, pinned=pins, order_seed=order_seed, limits=_limits()
        )
    except PottsError as err:
        got = _error(err)
    else:
        diag = est.diagnostics
        got = est.log_z, est.per_vertex, {name: getattr(diag, name) for name in SUMMED + MAXED}
        assert est.exact == (diag.termination_events == 0)
        assert diag.evaluations <= diag.recursive_calls
    assert got == want
