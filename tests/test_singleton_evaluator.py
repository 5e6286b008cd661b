"""Differential and edge-case tests of `decay._singleton_vector`, the
evaluator `_block_vector` tries first at a node whose block is its vertex
alone (see "Singleton blocks" in `decay`'s docstring).

The general path is forced by patching the evaluator to return None. Both
paths must return the same vector and every `MargDiagnostics` field with
`==`, raise the same error with the same message and the same partial
diagnostics, and give the same partition estimates and samples.

The property tests need Hypothesis (in the `test` extras) and skip without
it; the edge-case tests run without it.
"""

from dataclasses import asdict
from unittest import mock

import pytest

from pottsdecay import (
    BudgetError,
    Graph,
    InfeasibleError,
    Instance,
    MargDiagnostics,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    estimate_partition,
    generate,
    marginal_vector,
    sample_batch,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property tests skip
    given = None


def _general():
    """Context in which every node takes the general path."""
    return mock.patch.object(decay, "_singleton_vector", lambda *args: None)


def _outcome(call):
    """call()'s result, or the error's type name, message and partial diagnostics."""
    try:
        return call()
    except PottsError as err:
        partial = getattr(err, "diagnostics", None)
        return type(err).__name__, str(err), partial and asdict(partial)


def _marginal(inst, v, ell, limits):
    def call():
        vec, diag = marginal_vector(inst, v, ell, limits)
        return vec, asdict(diag)

    return _outcome(call)


def _both(run, *args):
    with _general():
        general = run(*args)
    return run(*args), general


def _served(inst, v, ell, limits=None):
    """marginal_vector's result and how many nodes the evaluator served."""
    served = []
    real = decay._singleton_vector

    def counted(*args):
        out = real(*args)
        served.append(out is not None)
        return out

    with mock.patch.object(decay, "_singleton_vector", counted):
        vec, diag = marginal_vector(inst, v, ell, limits)
    return vec, diag, served


# ------------------------------------------------------------ property tests

if given is not None:
    _BETAS = ["0", "0", "0.25", "0.5"]
    _CAPS = [20_000, 20_000, 20_000, 3, 10, 50, 300]

    @st.composite
    def _graph(draw):
        kind = draw(st.sampled_from(["cycle", "path", "gnp", "hubs"]))
        if kind == "cycle":
            return generate("cycle", n=draw(st.integers(3, 9)))
        if kind == "path":
            return generate("path", n=draw(st.integers(2, 9)))
        if kind == "gnp":
            n = draw(st.integers(4, 10))
            d = draw(st.sampled_from([1, 1.5, 2]))
            return generate("gnp", n=n, d=d, seed=draw(st.integers(0, 2**16)))
        # Hubs 0..h-1 with connectors that each join two distinct hubs: a
        # hub of degree >= q - 3 (beta = 0) is high-degree, so a connector's
        # block holds its hubs and the general path runs under the evaluator.
        hubs = draw(st.integers(2, 3))
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, hubs - 1), st.integers(0, hubs - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                min_size=2,
                max_size=6,
            )
        )
        edges = []
        for c, (a, b) in enumerate(pairs):
            edges += [(a, hubs + c), (b, hubs + c)]
        return Graph(hubs + len(pairs), edges)

    @st.composite
    def _case(draw):
        graph = draw(_graph())
        n = graph.n
        q = draw(st.integers(3, 7))
        beta = draw(st.sampled_from(_BETAS))
        pins = draw(
            st.one_of(
                st.just({}),
                st.dictionaries(st.integers(0, n - 1), st.integers(1, q), max_size=n - 1),
            )
        )
        return Instance(graph, PottsParams(q, beta), pins)

    @st.composite
    def _query(draw):
        inst = draw(_case())
        v = draw(st.sampled_from([u for u in range(inst.graph.n) if u not in inst.pinned]))
        ell = draw(st.integers(0, 6))
        return inst, v, ell, RecursionLimits(max_calls=draw(st.sampled_from(_CAPS)))

    @settings(max_examples=300, deadline=None)
    @given(_query())
    def test_evaluator_matches_general_path(case):
        out, general = _both(_marginal, *case)
        assert out == general

    def _partition(inst, ell, order_seed):
        def call():
            est = estimate_partition(
                inst.graph,
                inst.params,
                ell,
                inst.pinned,
                order_seed,
                RecursionLimits(max_calls=20_000),
            )
            return est.log_z, est.per_vertex, asdict(est.diagnostics)

        return _outcome(call)

    @settings(max_examples=60, deadline=None)
    @given(_case(), st.integers(0, 4), st.integers(0, 2**16))
    def test_partition_estimate_matches_general_path(inst, ell, order_seed):
        out, general = _both(_partition, inst, ell, order_seed)
        assert out == general

    def _samples(inst, ell, seed):
        def call():
            batch = sample_batch(inst, ell, 3, seed, limits=RecursionLimits(max_calls=20_000))
            return (
                batch.configurations,
                batch.log_proposals,
                batch.conditionals_evaluated,
                batch.termination_events,
            )

        return _outcome(call)

    @settings(max_examples=60, deadline=None)
    @given(_case(), st.integers(0, 4), st.integers(0, 2**16))
    def test_sample_batch_matches_general_path(inst, ell, seed):
        out, general = _both(_samples, inst, ell, seed)
        assert out == general


# ---------------------------------------------------------- which nodes serve


def test_every_node_on_a_cycle_is_served():
    # cycle(12), q = 4, beta 0.5 (partition-cycle's regime): every block is
    # one vertex, so the evaluator serves every node the recursion reaches.
    inst = Instance(generate("cycle", n=12), PottsParams(4, "0.5"), {5: 2})
    vec, diag, served = _served(inst, 0, 6)
    assert served and all(served)
    assert (vec, diag) == marginal_vector(inst, 0, 6)


@pytest.mark.parametrize("ell", [0, -1])
def test_beta_zero_node_at_depth_0_takes_the_general_path(ell):
    # A beta = 0 node at ell <= 0 is a feasibility cut-off or has cut-off
    # children, which keep the whole-prefix key on the general path.
    inst = Instance(generate("cycle", n=6), PottsParams(6, "0"))
    diag = MargDiagnostics()
    assert decay._singleton_vector(inst, 0, ell, diag, RecursionLimits()) is None
    assert diag == MargDiagnostics()
    _, _, served = _served(inst, 0, 1)
    assert served[-1] and not any(served[:-1])  # the root returns last


def test_unpinned_high_degree_neighbour_takes_the_general_path():
    # Star centre 0 has degree 5, high at q = 7; a leaf's block absorbs it.
    # Pinned, the centre is not absorbed and the leaf's block is the leaf.
    star = generate("star", k=5)
    diag = MargDiagnostics()
    limits = RecursionLimits()
    assert decay._singleton_vector(Instance(star, PottsParams(7, "0")), 1, 3, diag, limits) is None
    assert diag == MargDiagnostics()
    pinned = Instance(star, PottsParams(7, "0"), {0: 2})
    vec = decay._singleton_vector(pinned, 1, 3, diag, limits)
    assert vec is not None and vec[1] == 0.0
    assert (diag.max_block_size, diag.max_f_size) == (1, 6)


# ----------------------------------------------------------------- edge cases


def _error_both(inst, v, ell, limits):
    out, general = _both(_marginal, inst, v, ell, limits)
    assert out == general
    return out


def test_block_budget_0_raises_the_general_paths_error():
    inst = Instance(generate("cycle", n=6), PottsParams(4, "0.5"))
    name, message, _ = _error_both(inst, 0, 3, RecursionLimits(block_budget=0))
    assert name == BudgetError.__name__
    assert message == "block budget 0 exceeded by seed set"


def test_config_budget_below_q_at_beta_positive_raises_the_general_paths_error():
    inst = Instance(generate("cycle", n=6), PottsParams(4, "0.5"))
    name, message, _ = _error_both(inst, 0, 3, RecursionLimits(config_budget=3))
    assert name == BudgetError.__name__
    assert message == "feasible-configuration budget 3 exceeded: q^|B| = 4^1"
    vec, _, served = _served(inst, 0, 3, RecursionLimits(config_budget=4))
    assert all(served)


def test_config_budget_below_beta_zero_f_raises_the_general_paths_error():
    # Vertex 0 of cycle(6) at q = 6 has neighbours 1 and 5, pinned to 2 and
    # 3, so its F holds 4 colours.
    inst = Instance(generate("cycle", n=6), PottsParams(6, "0"), {1: 2, 5: 3})
    name, message, diag = _error_both(inst, 0, 3, RecursionLimits(config_budget=3))
    assert name == BudgetError.__name__
    assert message == "feasible-configuration budget 3 exceeded"
    assert diag["max_block_size"] == 1 and diag["max_f_size"] == 0
    diag = MargDiagnostics()
    assert decay._singleton_vector(inst, 0, 3, diag, RecursionLimits(config_budget=3)) is None
    assert diag == MargDiagnostics()
    assert decay._singleton_vector(inst, 0, 3, diag, RecursionLimits(config_budget=4)) is not None


def test_singleton_with_no_feasible_colour_raises_the_general_paths_error():
    # Vertex 0's three neighbours hold every colour of q = 3.
    inst = Instance(generate("star", k=3), PottsParams(3, "0"), {1: 1, 2: 2, 3: 3})
    name, message, _ = _error_both(inst, 0, 2, RecursionLimits())
    assert name == InfeasibleError.__name__
    assert message == "no feasible block configuration around vertex 0"
    with pytest.raises(InfeasibleError):
        decay._singleton_vector(inst, 0, 2, MargDiagnostics(), RecursionLimits())
