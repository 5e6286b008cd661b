"""Tests for binomial contraction averages and the censored growth walk."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pottsdecay
from pottsdecay import (
    ParseError,
    PottsParams,
    expected_contraction,
    randstats,
    simulate_block_growth,
    verify_gnp_properties,
)


# ------------------------------------------------------------- lazy scipy


def test_import_leaves_scipy_unloaded():
    # scipy costs most of the package's import time; only
    # expected_contraction needs it, and imports it on first use.
    src = str(Path(pottsdecay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, pottsdecay; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_wilson_z_is_scipy_normal_quantile():
    stats = pytest.importorskip("scipy.stats")
    assert randstats._Z95 == float(stats.norm.ppf(0.975))


# ------------------------------------------------------- expected contraction


def test_expected_contraction_reference_point():
    # q = 3d + 2 at d = 5: the average sits below 1/d despite heavy tails
    val = expected_contraction(10**4, 5, 17)
    assert math.isclose(val, 0.1918746959168885, rel_tol=1e-12)
    assert val < 1.0 / 5.0


def test_expected_contraction_large_q():
    val = expected_contraction(10**4, 2, 200)
    assert math.isclose(val, 0.010152810101625066, rel_tol=1e-12)
    assert val < (2.0 / 199.0) * 1.1


def test_expected_contraction_degenerate_binomial():
    # n = 1 with degree 1 pins X at 1, so the average is delta(1) itself
    assert math.isclose(
        expected_contraction(1, 1, 17), PottsParams(17, "0").delta(1), rel_tol=1e-15
    )


def test_expected_contraction_monotone_in_q():
    lo = expected_contraction(1000, 5, 30)
    hi = expected_contraction(1000, 5, 17)
    assert 0 < lo < hi <= 1.0


def test_expected_contraction_beta():
    val = expected_contraction(100, 3, 12, "0.5")
    assert 0 < val <= 1.0
    # 2(1-beta) shrinks faster than the denominator: milder beta contracts harder
    assert val < expected_contraction(100, 3, 12)


def test_expected_contraction_validation():
    with pytest.raises(ParseError):
        expected_contraction(0, 1, 17)
    with pytest.raises(ParseError):
        expected_contraction(10, 0, 17)
    with pytest.raises(ParseError):
        expected_contraction(10, 11, 17)
    for bad in ("x", True, None):
        with pytest.raises(ParseError, match="real number"):
            expected_contraction(10, bad, 5)


# ------------------------------------------------------------- growth walk


def test_growth_walk_no_offspring():
    # d = 0: the walk marches straight down, dying exactly at t = L + 1
    rep = simulate_block_growth(L=3, n=100, d=0, q=7, t_max=8, trials=50, seed=1)
    assert rep.tail_estimates == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert rep.t_values == list(range(1, 9))
    assert rep.slope is None
    assert rep.ci_high[0] == 1.0 and rep.ci_low[-1] == 0.0


def test_growth_walk_reproducible():
    kw = dict(L=6, n=10**4, d=4, q=40, t_max=20, trials=500, seed=9)
    a = simulate_block_growth(**kw)
    b = simulate_block_growth(**kw)
    assert a.tail_estimates == b.tail_estimates
    assert a.slope == b.slope
    c = simulate_block_growth(**{**kw, "seed": 10})
    assert a.tail_estimates != c.tail_estimates


def test_growth_walk_subcritical_decays():
    # q = 40 censors anything below 18 offspring: extinction wins
    rep = simulate_block_growth(L=6, n=10**4, d=4, q=40, t_max=40, trials=4000, seed=3)
    assert rep.slope is not None and rep.slope < -0.02
    assert rep.tail_estimates[-1] < 0.5
    assert rep.tail_estimates[5] == 1.0  # t <= L is never censored


def test_growth_walk_supercritical_persists():
    # q = 17 censors only below 6, and Bin(1e4, 4e-4) clears that too often
    rep = simulate_block_growth(L=6, n=10**4, d=4, q=17, t_max=40, trials=2000, seed=3)
    assert rep.tail_estimates[-1] > 0.9


def test_growth_walk_confidence_intervals():
    rep = simulate_block_growth(L=4, n=1000, d=3, q=40, t_max=30, trials=800, seed=5)
    for lo, est, hi in zip(rep.ci_low, rep.tail_estimates, rep.ci_high):
        assert 0.0 <= lo <= est <= hi <= 1.0
    d = rep.as_dict()
    assert set(d) == {
        "L",
        "t_values",
        "tail_estimates",
        "ci_low",
        "ci_high",
        "trials",
        "seed",
        "slope",
    }
    assert d["trials"] == 800 and d["seed"] == 5


def test_growth_walk_single_trial():
    rep = simulate_block_growth(L=2, n=500, d=2, q=40, t_max=10, trials=1, seed=0)
    assert all(est in (0.0, 1.0) for est in rep.tail_estimates)


def test_growth_walk_validation():
    good = dict(L=2, n=100, d=2, q=7, t_max=5, trials=10, seed=0)
    for key, bad in [
        ("L", -1),
        ("t_max", 0),
        ("trials", 0),
        ("q", 5),
        ("d", -0.5),
        ("d", 101),
        ("d", "x"),
        ("d", True),
        ("seed", -3),
        ("seed", 1.5),
        ("seed", 2**128),
    ]:
        with pytest.raises(ParseError):
            simulate_block_growth(**{**good, key: bad})


# --------------------------------------------------------- gnp property scan


def test_gnp_properties_contracting_regime():
    rep = verify_gnp_properties(200, 4, 17, seed=17, l_max=5)
    assert rep["edges"] == 415
    assert rep["contracting"] is True
    assert rep["colorable"] is True
    assert rep["beta"] == 0.0
    assert rep["locally_sparse"]["worst_ratio"] <= 1.0
    assert rep["contraction"]["gamma"] < 1.0
    assert set(rep) == {
        "n",
        "d",
        "q",
        "beta",
        "seed",
        "edges",
        "contracting",
        "contraction",
        "locally_sparse",
        "colorable",
    }


def test_gnp_properties_non_contracting_regime():
    rep = verify_gnp_properties(200, 4, 5, seed=17, l_max=5)
    assert rep["contracting"] is False
    assert rep["contraction"]["gamma"] > 1.0


def test_gnp_properties_beta_positive_skips_colorability():
    rep = verify_gnp_properties(100, 3, 12, beta="0.25", seed=2, l_max=4, trials=100)
    assert rep["colorable"] is None
    assert rep["beta"] == 0.25
