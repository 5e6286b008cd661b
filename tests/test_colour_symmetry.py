"""Property tests: the recursion is colour-equivariant, its colour-class
memo returns exactly what the schedule without the memo returns, and at full
depth the estimate does not depend on how the vertices are numbered.

Needs Hypothesis (in the `test` extras); the module skips without it, so the
other decay tests do not depend on it.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pottsdecay import (  # noqa: E402
    Graph,
    Instance,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    marginal_vector,
)

COUNTERS = ("recursive_calls", "termination_events", "infeasible_events", "max_block_size",
            "max_f_size")


@st.composite
def _instance_and_query(draw):
    n = draw(st.integers(2, 7))
    q = draw(st.integers(3, 5))
    beta = draw(st.sampled_from(["0", "0.25", "0.5", "0.9"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q), max_size=n - 1))
    unpinned = [u for u in range(n) if u not in pins]
    v = draw(st.sampled_from(unpinned))
    # Full depth (exact) or truncated at 0..2.
    ell = draw(st.sampled_from([n, 0, 1, 2]))
    inst = Instance(Graph(n, edges), PottsParams(q, beta), pins)
    return inst, v, ell


def _run(inst, v, ell):
    """(vector, counters) or the error's type name and message."""
    try:
        vec, diag = marginal_vector(inst, v, ell, RecursionLimits(max_calls=20_000))
    except PottsError as err:
        return type(err).__name__, str(err)
    return vec, tuple(getattr(diag, name) for name in COUNTERS)


@settings(max_examples=150, deadline=None)
@given(_instance_and_query(), st.randoms(use_true_random=False))
def test_colour_permutation_permutes_marginals(case, rnd):
    inst, v, ell = case
    q = inst.params.q
    sigma = list(range(1, q + 1))
    rnd.shuffle(sigma)
    relabelled = Instance(
        inst.graph, inst.params, {u: sigma[c - 1] for u, c in inst.pinned.items()}
    )
    base = _run(inst, v, ell)
    moved = _run(relabelled, v, ell)
    if isinstance(base[0], str):
        assert moved == base
        return
    vec, counts = base
    assert moved[1] == counts
    assert moved[0] == [vec[sigma.index(y)] for y in range(1, q + 1)]


@settings(max_examples=150, deadline=None)
@given(_instance_and_query())
def test_memo_matches_schedule_without_it(case):
    # With the identity for _canonical only equal kept patterns share a
    # child. Children that keep no prefix position share one child either
    # way; tests/test_region_key.py compares those with the schedule
    # without the memo. The reference runs singleton blocks through
    # _block_terms too, where _canonical is called.
    inst, v, ell = case
    with mock.patch.object(decay, "_lean_vector", lambda *args: None):
        with mock.patch.object(decay, "_canonical", lambda pat, held, free: (pat, ())):
            naive = _run(inst, v, ell)
    assert _run(inst, v, ell) == naive


@settings(max_examples=150, deadline=None)
@given(_instance_and_query(), st.randoms(use_true_random=False))
def test_vertex_relabel_keeps_full_depth_marginals(case, rnd):
    # Block closure, boundary-edge order and the enumeration of F all follow
    # vertex ids, so a relabelling changes the schedule; an exact estimate
    # (no termination event) must still move with its vertex.
    inst, v, _ = case
    n = inst.graph.n
    tau = list(range(n))
    rnd.shuffle(tau)
    relabelled = Instance(
        Graph(n, [(tau[a], tau[b]) for a, b in inst.graph.edges]),
        inst.params,
        {tau[u]: c for u, c in inst.pinned.items()},
    )
    limits = RecursionLimits(max_calls=20_000)
    try:
        vec, diag = marginal_vector(inst, v, n, limits)
        moved, moved_diag = marginal_vector(relabelled, tau[v], n, limits)
    except PottsError:
        assume(False)
    assert diag.termination_events == moved_diag.termination_events == 0
    assert moved == pytest.approx(vec, rel=0, abs=1e-12)
