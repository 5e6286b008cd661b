import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pottsdecay import (
    BudgetError,
    Graph,
    ParseError,
    PottsParams,
    e_delta_profile,
    enumerate_saws,
    generate_caterpillar,
    generate_complete,
    generate_cycle,
    generate_gnp,
    generate_path,
    generate_star,
    verify_contraction,
)


def test_enumerate_saws_path():
    g = generate_path(4)
    assert list(enumerate_saws(g, 0, 0)) == [(0,)]
    assert list(enumerate_saws(g, 1, 1)) == [(1, 0), (1, 2)]
    assert list(enumerate_saws(g, 0, 3)) == [(0, 1, 2, 3)]
    assert list(enumerate_saws(g, 0, 4)) == []


def test_enumerate_saws_long_path():
    # deeper than Python's default recursion limit
    assert list(enumerate_saws(generate_path(1200), 0, 1100)) == [tuple(range(1101))]


def test_enumerate_saws_lexicographic():
    g = generate_complete(4)
    walks = list(enumerate_saws(g, 2, 2))
    assert walks == sorted(walks)
    assert len(walks) == 6


def test_saw_counts_complete4():
    g = generate_complete(4)
    assert e_delta_profile(g, 0, 3, 1) == [1, 3, 6, 6]


def test_saw_counts_star():
    g = generate_star(5)
    assert e_delta_profile(g, 1, 2, 1)[2] == 4  # leaf -> center -> other leaf
    assert e_delta_profile(g, 1, 3, 1)[3] == 0
    assert e_delta_profile(g, 0, 1, 1)[1] == 5


def test_saw_count_matches_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        v = rng.randrange(n)
        for length in range(4):
            assert e_delta_profile(g, v, length, 1)[length] == len(list(enumerate_saws(g, v, length)))


def test_e_delta_path3():
    g = generate_path(3)
    params = PottsParams(7, 0)
    assert e_delta_profile(g, 0, 2, params)[2] == pytest.approx(0.2, abs=1e-15)
    assert e_delta_profile(g, 0, 3, params)[3] == 0.0
    prof = e_delta_profile(g, 0, 3, params)
    assert prof[0] == 1.0
    assert prof[2] == pytest.approx(0.2, abs=1e-15)


def test_e_delta_constant_matches_counts():
    g = generate_gnp(30, 3, seed=2)
    for v in (0, 7):
        prof = e_delta_profile(g, v, 5, 0.5)
        counts = e_delta_profile(g, v, 5, 1)
        for l in range(6):
            assert prof[l] == pytest.approx(counts[l] * 0.5**l, rel=1e-12)


@pytest.mark.parametrize("delta", ["x", "0.5", None, True, [0.5], 1j])
def test_delta_must_be_params_or_real(delta):
    # float() would read "0.5" as 0.5 and True as 1.0, and fail on "x" or
    # None with a bare ValueError or TypeError.
    g = generate_path(3)
    with pytest.raises(ParseError, match="delta must be PottsParams or a real number"):
        e_delta_profile(g, 0, 2, delta)
    with pytest.raises(ParseError, match="delta must be PottsParams or a real number"):
        verify_contraction(g, delta, 2)


def test_delta_accepts_any_real():
    g = generate_path(3)
    for delta in (1, 0.5, np.float64(0.5), np.int64(1), Fraction(1, 2)):
        assert e_delta_profile(g, 0, 2, delta) == [1.0, float(delta), float(delta) ** 2]


def test_e_delta_budget():
    g = generate_complete(9)
    with pytest.raises(BudgetError):
        e_delta_profile(g, 0, 8, 1.0, extension_budget=100)


def test_verify_contraction_cycle():
    # cycle: every delta = 1/2, two walks per length, so max E = 2 * 2^-l
    g = generate_cycle(20)
    rep = verify_contraction(g, 0.5, 8)
    assert rep["l"] == list(range(1, 9))
    for l, m in zip(rep["l"], rep["max_e_delta"]):
        assert m == pytest.approx(2 * 0.5**l, rel=1e-12)
    assert rep["contracting"]
    assert rep["gamma"] == pytest.approx(0.5, abs=1e-9)
    assert not rep["budget_exhausted"]


def test_verify_contraction_path50_q7():
    g = generate_path(50)
    rep = verify_contraction(g, PottsParams(7, 0), 10)
    assert rep["contracting"]
    assert rep["gamma"] <= 0.5 + 1e-9


def test_verify_contraction_caterpillar_q5():
    # spine degree 5 >= threshold 2 at q=5: delta saturates at 1 and walk
    # sums along the spine do not decay
    g = generate_caterpillar(50, 3)
    rep = verify_contraction(g, PottsParams(5, 0), 10)
    assert not rep["contracting"]
    assert rep["gamma"] >= 1 - 1e-9


def test_verify_contraction_budget_partial(caplog):
    g = generate_complete(10)
    rep = verify_contraction(g, 1.0, 9, extension_budget=1000)
    assert rep["budget_exhausted"]
    assert rep["vertices_scanned"] < g.n
    assert any("partial" in r.message for r in caplog.records)


def test_verify_contraction_partial_scan_is_not_contracting():
    # The budget runs out inside the first vertex's walks: the maxima seen so
    # far fit gamma 0, but only the full scan shows K8 at q=3 blows up.
    g = generate_complete(8)
    params = PottsParams(3, 0)
    partial = verify_contraction(g, params, 3, extension_budget=1)
    assert partial["budget_exhausted"] and partial["vertices_scanned"] == 0
    assert partial["extensions"] == 1
    assert partial["gamma"] == 0.0
    assert partial["contracting"] is False
    full = verify_contraction(g, params, 3)
    assert not full["budget_exhausted"] and full["vertices_scanned"] == 8
    assert math.isclose(full["gamma"], 5.0) and full["contracting"] is False
    # A contracting graph's partial scan is no certificate either.
    rep = verify_contraction(generate_path(50), PottsParams(7, 0), 10, extension_budget=5)
    assert rep["budget_exhausted"] and rep["contracting"] is False
    assert rep["extensions"] == 5


def test_verify_contraction_fit_window():
    g = generate_path(30)
    rep = verify_contraction(g, PottsParams(7, 0), 8)
    assert rep["l_fit_lo"] == 4
    assert rep["l_fit_hi"] == 8
