"""Tests for the sequential approximate Gibbs sampler."""

import math

import pytest

from pottsdecay import (
    Configuration,
    InfeasibleError,
    Instance,
    ParseError,
    PottsParams,
    SampleBatch,
    empirical_tv,
    generate,
    marginal_distribution,
    monochromatic_edges,
    sample_batch,
    sampling,
    weight,
)


def _triangle():
    return Instance(generate("complete", n=3), PottsParams(3, "0"), {})


def _as_tuple(cfg, n):
    return tuple(cfg[v] for v in range(n))


# -------------------------------------------------------------- determinism


def test_same_seed_same_batch():
    inst = _triangle()
    a = sample_batch(inst, 6, 25, seed=11)
    b = sample_batch(inst, 6, 25, seed=11)
    assert [_as_tuple(c, 3) for c in a.configurations] == [
        _as_tuple(c, 3) for c in b.configurations
    ]
    assert a.log_proposals == b.log_proposals
    assert a.seed == 11 and a.depth == 6 and len(a) == 25


def test_different_seeds_differ():
    inst = _triangle()
    a = sample_batch(inst, 6, 40, seed=1)
    b = sample_batch(inst, 6, 40, seed=2)
    assert [_as_tuple(c, 3) for c in a.configurations] != [
        _as_tuple(c, 3) for c in b.configurations
    ]


def test_per_sample_streams_prefix_stable():
    # sample i depends only on (seed, i), not on the batch size
    inst = _triangle()
    big = sample_batch(inst, 6, 10, seed=9)
    small = sample_batch(inst, 6, 4, seed=9)
    assert [_as_tuple(c, 3) for c in big.configurations[:4]] == [
        _as_tuple(c, 3) for c in small.configurations
    ]


# ----------------------------------------------------------- reach cache


def _uncached_batch(inst, depth, n_samples, seed):
    """The sequential schedule with no cache: every conditional is computed
    on the instance pinned to the whole sampled prefix."""
    configs, logps, terminations = [], [], 0
    for i in range(n_samples):
        rng = sampling._rng_for(seed, i)
        pins = dict(inst.pinned)
        logp = 0.0
        for v in inst.unpinned():
            step = Instance(inst.graph, inst.params, pins)
            vec, diag = marginal_distribution(step, v, depth)
            c = sampling._draw(vec, rng)
            logp += math.log(vec[c - 1])
            terminations += diag.termination_events
            pins[v] = c
        configs.append(pins)
        logps.append(logp)
    return configs, logps, terminations


REACH_CASES = {
    # low-degree cycle: singleton blocks, regions a ball around v
    "cycle12-q6-b0": (generate("cycle", n=12), PottsParams(6, "0"), {}, 3),
    # q >= 256: keys are tuples, not bytes
    "cycle6-q300-b0": (generate("cycle", n=6), PottsParams(300, "0"), {2: 299}, 2),
    # centre of degree 7 > 2 is high-degree at q = 6: multi-vertex blocks
    "star7-q6-b0": (generate("star", k=7), PottsParams(6, "0"), {3: 2}, 2),
    "star5-q4-b0.4": (generate("star", k=5), PottsParams(4, "0.4"), {}, 2),
    # spine vertices of degree 3-4 are high-degree at q = 5, beta = 0.3
    "caterpillar-q5-b0.3": (generate("caterpillar", n=3, k=2), PottsParams(5, "0.3"), {}, 2),
    "caterpillar-q6-b0": (generate("caterpillar", n=4, k=1), PottsParams(6, "0"), {5: 1}, 3),
    "gnp10-q5-b0": (generate("gnp", n=10, d=3, seed=2), PottsParams(5, "0"), {0: 4}, 2),
    "gnp10-q4-b0.5": (generate("gnp", n=10, d=2.5, seed=5), PottsParams(4, "0.5"), {}, 1),
}


# threads=1 is the keyword's one accepted value, passed as the benchmark
# workload passes it; the parameter goes when sample_batch drops the keyword.
@pytest.mark.parametrize("threads", [1])
@pytest.mark.parametrize("case", sorted(REACH_CASES))
def test_reach_cache_matches_uncached_schedule(case, threads):
    g, params, pins, depth = REACH_CASES[case]
    inst = Instance(g, params, pins)
    n_samples = 6
    configs, logps, terminations = _uncached_batch(inst, depth, n_samples, seed=17)
    batch = sample_batch(inst, depth, n_samples, seed=17, threads=threads)
    assert [c.assignment for c in batch.configurations] == configs
    assert batch.log_proposals == logps
    assert batch.termination_events == terminations
    requested = n_samples * len(inst.unpinned())
    assert 1 <= batch.conditionals_evaluated <= requested


def test_conditionals_evaluated_on_cycle40():
    # The sample-cycle benchmark op: 5 samples x 40 vertices = 200 requests.
    inst = Instance(generate("cycle", n=40), PottsParams(6, "0"), {})
    batch = sample_batch(inst, 4, 5, seed=1)
    assert batch.conditionals_evaluated == 43
    assert batch.termination_events == 885


# ------------------------------------------------------------------ validity


def test_beta_zero_samples_are_proper():
    g = generate("gnp", n=12, d=2, seed=3)
    inst = Instance(g, PottsParams(5, "0"), {0: 2})
    batch = sample_batch(inst, 8, 100, seed=1)
    for cfg in batch.configurations:
        full = {v: cfg[v] for v in range(12)}
        assert monochromatic_edges(g, full) == 0
        assert cfg[0] == 2
    for lp in batch.log_proposals:
        assert math.isfinite(lp) and lp <= 0.0


def test_beta_positive_samples_cover_monochromatic():
    inst = Instance(generate("path", n=2), PottsParams(3, "0.5"), {})
    batch = sample_batch(inst, 6, 400, seed=13)
    mono = sum(
        1 for c in batch.configurations if c[0] == c[1]
    )
    # Pr[monochromatic] = 1.5/7.5 = 0.2; 400 draws stay well inside (0, 0.4)
    assert 0 < mono < 160
    for cfg in batch.configurations:
        assert weight(inst, cfg) > 0.0


def test_sampler_validation():
    inst = _triangle()
    with pytest.raises(ParseError, match="n_samples"):
        sample_batch(inst, 6, 0, seed=1)
    with pytest.raises(ParseError, match="seed"):
        sample_batch(inst, 6, 1, seed=-4)
    with pytest.raises(ParseError, match="seed"):
        sample_batch(inst, 6, 1, seed="one")
    # The Philox key is seed * 2**64 + i and must stay below 2**128.
    with pytest.raises(ParseError, match="seed"):
        sample_batch(inst, 6, 1, seed=2**64)
    assert len(sample_batch(inst, 6, 2, seed=2**64 - 1)) == 2
    with pytest.raises(ParseError, match="q >= 3"):
        sample_batch(Instance(generate("path", n=2), PottsParams(2, "0.5"), {}), 4, 1, 1)


def test_sampler_rejects_threads_other_than_one():
    with pytest.raises(ParseError, match="runs on one thread"):
        sample_batch(_triangle(), 6, 2, seed=1, threads=2)


def test_sampler_infeasible_instance():
    inst = Instance(generate("complete", n=4), PottsParams(3, "0"), {})
    with pytest.raises(InfeasibleError):
        sample_batch(inst, 4, 1, seed=0)


# ------------------------------------------------------- distributional sanity


def test_triangle_tv_small_at_exact_depth():
    # depth 6 conditionals are exact here, so TV is pure sampling noise
    inst = _triangle()
    batch = sample_batch(inst, 6, 6000, seed=42)
    assert empirical_tv(batch, inst) < 0.03


def test_beta_positive_tv_small_at_exact_depth():
    inst = Instance(generate("path", n=4), PottsParams(3, "0.5"), {})
    batch = sample_batch(inst, 8, 2000, seed=5)
    assert empirical_tv(batch, inst) < 0.15


# -------------------------------------------------------------- empirical_tv


def test_empirical_tv_point_mass_vs_uniform():
    # a batch stuck on one of six equiprobable colorings sits at TV 5/6
    inst = _triangle()
    cfg = Configuration({0: 1, 1: 2, 2: 3})
    batch = SampleBatch(configurations=[cfg] * 50, seed=0, depth=0)
    assert math.isclose(empirical_tv(batch, inst), 5.0 / 6.0, rel_tol=1e-12)


def test_empirical_tv_mass_off_support():
    # an improper configuration carries all its mass outside the Gibbs law
    inst = _triangle()
    bad = Configuration({0: 1, 1: 1, 2: 2})
    batch = SampleBatch(configurations=[bad] * 10, seed=0, depth=0)
    assert math.isclose(empirical_tv(batch, inst), 1.0, rel_tol=1e-12)


def test_empirical_tv_exact_match_is_zero():
    # a batch that enumerates the support uniformly has TV exactly 0
    inst = _triangle()
    configs = [
        Configuration({0: a, 1: b, 2: c})
        for a in (1, 2, 3)
        for b in (1, 2, 3)
        for c in (1, 2, 3)
        if len({a, b, c}) == 3
    ]
    assert len(configs) == 6
    batch = SampleBatch(configurations=configs, seed=0, depth=0)
    assert empirical_tv(batch, inst) == 0.0
