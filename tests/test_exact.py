import itertools
import math
import random

import pytest

from pottsdecay import (
    BudgetError,
    Configuration,
    Graph,
    InfeasibleError,
    Instance,
    ParseError,
    PottsParams,
    empirical_tv,
    exact_block_marginal,
    exact_gibbs_table,
    exact_marginal,
    exact_marginal_vector,
    exact_partition,
    generate_complete,
    generate_cycle,
    generate_path,
    is_feasible,
    minimal_permissive_block,
    sample_batch,
)


def _brute_z(instance):
    """Independent reference: sum beta^mono over all q^n total assignments."""
    g = instance.graph
    q = instance.params.q
    beta = float(instance.params.beta)
    total = 0.0
    for colors in itertools.product(range(1, q + 1), repeat=g.n):
        if any(colors[v] != c for v, c in instance.pinned.items()):
            continue
        mono = sum(1 for u, v in g.edges if colors[u] == colors[v])
        total += beta**mono if mono else 1.0
    return total


def test_partition_edge():
    inst = Instance(Graph(2, [(0, 1)]), PottsParams(3, 0))
    assert exact_partition(inst) == 6.0
    inst2 = Instance(Graph(2, [(0, 1)]), PottsParams(2, "0.5"))
    assert exact_partition(inst2) == pytest.approx(3.0, rel=1e-12)


def test_partition_cycle4():
    inst = Instance(generate_cycle(4), PottsParams(3, 0))
    assert exact_partition(inst) == pytest.approx(18.0, rel=1e-12)


def test_partition_infeasible_zero():
    inst = Instance(generate_complete(4), PottsParams(3, 0))
    assert exact_partition(inst) == 0.0
    assert not is_feasible(inst)


def test_partition_isolated_factor():
    g = Graph(5, [(0, 1)])
    inst = Instance(g, PottsParams(3, 0))
    assert exact_partition(inst) == pytest.approx(6 * 27, rel=1e-12)
    pinned = Instance(g, PottsParams(3, 0), {4: 2})
    assert exact_partition(pinned) == pytest.approx(6 * 9, rel=1e-12)


def test_partition_matches_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        q = rng.choice([2, 3, 4])
        beta = rng.choice(["0", "0.25", "0.9"])
        pins = {v: rng.randint(1, q) for v in range(n) if rng.random() < 0.3}
        inst = Instance(Graph(n, edges), PottsParams(q, beta), pins)
        assert exact_partition(inst) == pytest.approx(_brute_z(inst), rel=1e-10, abs=1e-12)


def test_partition_beta_positive_large_sweep():
    # 3^14 > 2^22 colorings: the sweep's chunks keep its memory bounded
    n, q, b = 14, 3, 0.3
    inst = Instance(generate_cycle(n), PottsParams(q, "0.3"))
    closed = (q - 1 + b) ** n + (q - 1) * (b - 1) ** n
    assert exact_partition(inst) == pytest.approx(closed, rel=1e-12)


def test_partition_proper_count_exact():
    # chromatic polynomial of C_n at q: (q-1)^n + (-1)^n (q-1)
    inst = Instance(generate_cycle(12), PottsParams(4, 0))
    assert exact_partition(inst) == 3**12 + 3


def test_partition_budget_error():
    # at beta > 0 the q^k size check fires before any enumeration
    inst = Instance(generate_complete(12), PottsParams(5, "0.5"))
    with pytest.raises(BudgetError, match=r"q\^k"):
        exact_partition(inst, budget=1000)


def test_beta0_budget_errors():
    # at beta = 0 the backtracking count meters colorings as it goes, and the
    # Gibbs table checks q^unpinned before its sweep
    inst = Instance(generate_cycle(12), PottsParams(3, 0))
    with pytest.raises(BudgetError, match="enumeration budget 5 exceeded"):
        exact_partition(inst, budget=5)
    with pytest.raises(BudgetError, match="Gibbs table budget 5 exceeded"):
        exact_gibbs_table(inst, budget=5)


def test_budget_must_be_a_nonnegative_integer():
    # A budget of 0 is checked against the work as before; a budget that is
    # not an integer >= 0 is a ParseError before any work.
    inst = Instance(generate_cycle(6), PottsParams(4, "0.5"))
    batch = sample_batch(inst, 2, 1, seed=1)
    for call in (
        lambda b: exact_partition(inst, budget=b),
        lambda b: exact_marginal_vector(inst, 0, budget=b),
        lambda b: exact_gibbs_table(inst, budget=b),
        lambda b: empirical_tv(batch, inst, budget=b),
    ):
        for bad in ("5", "x", 5.0, None, True):
            with pytest.raises(ParseError, match="budget must be an integer"):
                call(bad)
        with pytest.raises(ParseError, match="budget must be >= 0, got -1"):
            call(-1)
        with pytest.raises(BudgetError, match="budget 0 exceeded"):
            call(0)


def test_marginals_path3_pinned():
    inst = Instance(generate_path(3), PottsParams(3, 0), {0: 1})
    assert exact_marginal(inst, 2, 1) == pytest.approx(0.5, abs=1e-12)
    assert exact_marginal(inst, 1, 1) == 0.0
    vec = exact_marginal_vector(inst, 1)
    assert vec == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert math.fsum(vec) == pytest.approx(1.0, abs=1e-12)


def test_marginals_complete3():
    inst = Instance(generate_complete(3), PottsParams(3, 0))
    assert exact_marginal_vector(inst, 0) == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_marginal_pinned_vertex_indicator():
    inst = Instance(generate_path(3), PottsParams(3, 0), {0: 2})
    assert exact_marginal_vector(inst, 0) == [0.0, 1.0, 0.0]


def test_marginal_isolated_uniform():
    g = Graph(3, [(0, 1)])
    inst = Instance(g, PottsParams(4, 0))
    assert exact_marginal_vector(inst, 2) == pytest.approx([0.25] * 4, abs=1e-15)


def test_marginal_isolated_beta_positive_needs_no_sweep():
    # Every beta > 0 instance is feasible, so the 4^12 sweep over the cycle,
    # above the default budget, is never run.
    inst = Instance(Graph(13, generate_cycle(12).edges), PottsParams(4, "0.5"))
    assert exact_marginal_vector(inst, 12) == [0.25] * 4


def test_marginal_isolated_beta_zero():
    inst = Instance(Graph(13, generate_cycle(12).edges), PottsParams(4, 0))
    assert exact_marginal_vector(inst, 12) == [0.25] * 4
    inst = Instance(Graph(5, generate_complete(4).edges), PottsParams(3, 0))
    with pytest.raises(InfeasibleError):
        exact_marginal_vector(inst, 4)


def test_marginal_infeasible_raises():
    inst = Instance(generate_complete(4), PottsParams(3, 0))
    with pytest.raises(InfeasibleError):
        exact_marginal_vector(inst, 0)


def test_marginal_validates_color():
    inst = Instance(generate_path(2), PottsParams(3, 0))
    with pytest.raises(ParseError):
        exact_marginal(inst, 0, 4)
    with pytest.raises(ParseError):
        exact_marginal(inst, 5, 1)


def test_marginal_matches_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        q = rng.choice([3, 4])
        beta = rng.choice(["0", "0.5"])
        pins = {v: rng.randint(1, q) for v in range(n) if rng.random() < 0.25}
        inst = Instance(Graph(n, edges), PottsParams(q, beta), pins)
        z = _brute_z(inst)
        if z == 0.0 or not inst.unpinned():
            continue
        v = rng.choice(inst.unpinned())
        for x in range(1, q + 1):
            num = _brute_z(inst.with_pins({v: x}))
            assert exact_marginal(inst, v, x) == pytest.approx(num / z, abs=1e-11)


def test_block_marginal_singleton_is_vertex_marginal():
    # q=5 keeps degree-1 vertices low, so the block around 0 stays {0}
    inst = Instance(Graph(2, [(0, 1)]), PottsParams(5, 0))
    b = minimal_permissive_block(inst, [0])
    assert b.vertices == (0,)
    p = exact_block_marginal(inst, b, Configuration({0: 1}))
    assert p == pytest.approx(1 / 5, abs=1e-12)


def test_block_marginal_pair_uniform():
    from pottsdecay import generate_star

    inst = Instance(generate_star(5), PottsParams(7, 0))
    b = minimal_permissive_block(inst, [1])
    pi = Configuration({0: 1, 1: 2})
    assert exact_block_marginal(inst, b, pi) == pytest.approx(1 / 42, rel=1e-12)


def test_block_marginal_requires_coverage():
    inst = Instance(generate_path(3), PottsParams(3, 0))
    b = minimal_permissive_block(inst, [0, 1])
    with pytest.raises(ParseError):
        exact_block_marginal(inst, b, Configuration({0: 1}))


def test_gibbs_table_triangle():
    inst = Instance(generate_complete(3), PottsParams(3, 0))
    probs = exact_gibbs_table(inst)
    assert len(probs) == 6
    for p in probs.values():
        assert p == pytest.approx(1 / 6, rel=1e-12)
    assert set(probs) == set(itertools.permutations((1, 2, 3)))


def test_gibbs_table_weights_beta():
    inst = Instance(generate_path(2), PottsParams(2, "0.5"))
    probs = exact_gibbs_table(inst)
    assert probs[(1, 2)] == pytest.approx(1 / 3, rel=1e-12)
    assert probs[(1, 1)] == pytest.approx(1 / 6, rel=1e-12)


def test_gibbs_table_infeasible():
    inst = Instance(generate_complete(4), PottsParams(3, 0))
    with pytest.raises(InfeasibleError):
        exact_gibbs_table(inst)
