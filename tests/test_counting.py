"""Tests for anchor construction and telescoped partition estimation."""

import math

import pytest

from pottsdecay import (
    BudgetError,
    InfeasibleError,
    Instance,
    ParseError,
    PottsParams,
    RecursionLimits,
    default_depth,
    estimate_partition,
    exact_partition,
    find_feasible_config,
    generate,
    monochromatic_edges,
)


# ------------------------------------------------------------ anchor configs


def test_anchor_beta_positive_is_all_ones():
    g = generate("gnp", n=12, d=3, seed=4)
    inst = Instance(g, PottsParams(5, "0.5"), {3: 4})
    cfg = find_feasible_config(inst)
    assert cfg[3] == 4
    assert all(cfg[v] == 1 for v in range(12) if v != 3)


def test_anchor_beta_zero_is_proper():
    for fam, kw in [
        ("path", dict(n=9)),
        ("cycle", dict(n=8)),
        ("complete", dict(n=5)),
        ("gnp", dict(n=20, d=3, seed=9)),
    ]:
        g = generate(fam, **kw)
        inst = Instance(g, PottsParams(5, "0"), {})
        cfg = find_feasible_config(inst)
        full = {v: cfg[v] for v in range(g.n)}
        assert monochromatic_edges(g, full) == 0


def test_anchor_extends_pins():
    g = generate("cycle", n=6)
    inst = Instance(g, PottsParams(3, "0"), {0: 2, 3: 2})
    cfg = find_feasible_config(inst)
    assert cfg[0] == 2 and cfg[3] == 2
    assert monochromatic_edges(g, {v: cfg[v] for v in range(6)}) == 0


def test_anchor_infeasible_cases():
    k4 = generate("complete", n=4)
    with pytest.raises(InfeasibleError):
        find_feasible_config(Instance(k4, PottsParams(3, "0"), {}))
    # clashing pins have no positive-weight extension at beta = 0
    edge = generate("path", n=2)
    with pytest.raises(InfeasibleError, match="pinned endpoints"):
        find_feasible_config(Instance(edge, PottsParams(3, "0"), {0: 1, 1: 1}))
    # but at beta > 0 every total configuration has positive weight
    cfg = find_feasible_config(Instance(edge, PottsParams(3, "0.5"), {0: 1, 1: 1}))
    assert cfg[0] == cfg[1] == 1


def test_anchor_requires_q_at_least_three():
    g = generate("path", n=3)
    with pytest.raises(ParseError, match="q >= 3"):
        find_feasible_config(Instance(g, PottsParams(2, "0.5"), {}))


# ------------------------------------------------------- partition estimation


def test_partition_cycle4_exact():
    g = generate("cycle", n=4)
    est = estimate_partition(g, PottsParams(3, "0"), L=8)
    assert math.isclose(est.z, 18.0, rel_tol=1e-10)
    assert est.anchor_log_weight == 0.0
    assert est.depth_used == 8


def test_partition_path3_beta_half():
    g = generate("path", n=3)
    est = estimate_partition(g, PottsParams(3, "0.5"), L=8)
    assert math.isclose(est.z, 18.75, rel_tol=1e-10)


def test_partition_matches_oracle_on_corpus(corpus200):
    lim = RecursionLimits(config_budget=2**22)
    for inst in corpus200[::40]:
        est = estimate_partition(
            inst.graph, inst.params, L=inst.graph.n, pinned=inst.pinned, limits=lim
        )
        z = exact_partition(inst)
        assert math.isclose(est.z, z, rel_tol=1e-8)


def test_partition_cycle_closed_form():
    # proper colorings of an n-cycle: (q-1)^n + (-1)^n (q-1)
    g = generate("cycle", n=30)
    est = estimate_partition(g, PottsParams(7, "0"), L=12)
    want = math.log(6**30 + 6)
    assert abs(est.log_z - want) < 1e-9


def test_partition_order_invariance_at_full_depth():
    g = generate("cycle", n=12)
    params = PottsParams(7, "0")
    base = estimate_partition(g, params, L=14)
    for seed in (3, 19):
        other = estimate_partition(g, params, L=14, order_seed=seed)
        assert abs(base.log_z - other.log_z) < 1e-9
        # a different order really was used
        assert [v for v, _, _ in other.per_vertex] != [
            v for v, _, _ in base.per_vertex
        ]


def test_partition_order_seed_range():
    # Philox keys lie in [0, 2**128); outside it the seed is a ParseError.
    g = generate("cycle", n=5)
    params = PottsParams(4, "0")
    assert estimate_partition(g, params, L=2, order_seed=2**128 - 1).log_z > 0
    for bad in (-1, 2**128, "1"):
        with pytest.raises(ParseError, match="order_seed"):
            estimate_partition(g, params, L=2, order_seed=bad)


def test_partition_order_self_consistency_truncated():
    # shallow depth on a sparse random graph: orders agree to the decay scale
    g = generate("gnp", n=30, d=2, seed=11)
    params = PottsParams(12, "0")
    a = estimate_partition(g, params, L=2)
    b = estimate_partition(g, params, L=2, order_seed=1)
    assert abs(a.log_z - b.log_z) < 1e-3
    assert abs(a.log_z - b.log_z) > 0.0


def test_partition_pinned():
    g = generate("cycle", n=5)
    params = PottsParams(4, "0.25")
    est = estimate_partition(g, params, L=10, pinned={0: 2})
    z = exact_partition(Instance(g, params, {0: 2}))
    assert math.isclose(est.log_z, math.log(z), abs_tol=1e-12)
    assert est.anchor[0] == 2
    assert len(est.per_vertex) == 4
    assert all(v != 0 for v, _, _ in est.per_vertex)


def test_partition_anchor_weight_beta_positive():
    # all-ones anchor on a single edge has one monochromatic edge
    g = generate("path", n=2)
    est = estimate_partition(g, PottsParams(3, "0.5"), L=6)
    assert math.isclose(est.anchor_log_weight, math.log(0.5), rel_tol=1e-15)
    assert math.isclose(est.z, 6.0 + 3 * 0.5, rel_tol=1e-10)


def test_partition_telescoping_identity():
    g = generate("cycle", n=8)
    est = estimate_partition(g, PottsParams(5, "0"), L=10)
    rebuilt = est.anchor_log_weight - math.fsum(
        math.log(p) for _, _, p in est.per_vertex
    )
    assert math.isclose(est.log_z, rebuilt, abs_tol=1e-12)
    assert [v for v, _, _ in est.per_vertex] == list(range(8))
    assert all(x == est.anchor[v] for v, x, _ in est.per_vertex)


def test_partition_default_depth():
    g = generate("cycle", n=8)
    est = estimate_partition(g, PottsParams(5, "0"))
    assert est.depth_used == default_depth(8)


def test_partition_infeasible_graph():
    g = generate("complete", n=4)
    with pytest.raises(InfeasibleError):
        estimate_partition(g, PottsParams(3, "0"), L=4)


def test_partition_z_property():
    g = generate("path", n=4)
    est = estimate_partition(g, PottsParams(3, "0"), L=8)
    assert est.z == math.exp(est.log_z)
    assert math.isclose(est.z, 24.0, rel_tol=1e-10)


def test_partition_anchor_search_honours_block_budget(forced_caterpillar):
    # limits.block_budget bounds the anchor search's blocks too
    g, pins = forced_caterpillar
    params = PottsParams(3, 0)
    limits = RecursionLimits(block_budget=100)
    est = estimate_partition(g, params, 2, pinned=pins, limits=limits)
    assert est.log_z == 0.0 and est.exact
    assert est.diagnostics.max_block_size == 70
    with pytest.raises(BudgetError, match="block budget 64"):
        estimate_partition(g, params, 2, pinned=pins)
