"""Random-graph statistics: the binomial contraction expectation and the
censored block-growth walk.

expected_contraction evaluates E[delta(X)] for X ~ Bin(n, D/n) exactly; the
interesting regime is q around 3(1-beta)D + 2, where the expectation drops
below 1/D and sparse random graphs contract on average despite unbounded
degrees. simulate_block_growth runs the idealized branching walk whose
extinction tail mirrors how often block closures around a long path stay
small.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .counting import find_feasible_config
from .blocks import verify_locally_sparse
from .errors import BudgetError, InfeasibleError, ParseError, _check_int, _check_seed, _is_real
from .graph import generate_gnp
from .model import Instance, PottsParams
from .saw import verify_contraction

# float(scipy.stats.norm.ppf(0.975)), written out so that importing the
# package does not import scipy; statistics.NormalDist().inv_cdf(0.975)
# rounds to a different float.
_Z95 = 1.959963984540054


@dataclass
class GrowthProcessReport:
    """Tail estimates of the censored growth walk, with Wilson 95% intervals."""

    L: int
    t_values: list = field(default_factory=list)
    tail_estimates: list = field(default_factory=list)
    ci_low: list = field(default_factory=list)
    ci_high: list = field(default_factory=list)
    trials: int = 0
    seed: int = 0
    slope: float | None = None

    def as_dict(self):
        return asdict(self)


def expected_contraction(n, degree, q, beta=0):
    """Exact E[delta(X)] for X ~ Bin(n, degree/n), binomials in log space."""
    _check_int(n, "n", 1)
    if not (_is_real(degree) and 0 < degree <= n):
        raise ParseError(f"mean degree must be a real number with 0 < degree <= n, got {degree!r}")
    from scipy import stats  # imported here: it dominates the package's import time

    params = PottsParams(q, beta)
    ks = np.arange(n + 1)
    logpmf = stats.binom.logpmf(ks, n, degree / n)
    pmf = np.exp(logpmf)
    f = [params.delta(int(k)) for k in ks]
    return math.fsum(p * fv for p, fv in zip(pmf, f))


def _wilson(k, n, z=_Z95):
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    # the interval contains p mathematically; rounding can leave dust at k=0
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def simulate_block_growth(L, n, d, q, t_max, trials, seed):
    """Monte-Carlo of the censored growth walk Y_t = Y_{t-1} + X_t - 1.

    Y_0 = L; for t <= L the increment X_t is Bin(n, d/n); past L the
    increment is censored to 0 whenever X < (q-5)/2 (the walk only keeps
    growing when it runs into an unusually dense neighborhood). Reports
    Pr[Y_t >= 0] per t with Wilson intervals and the fitted log-tail slope
    beyond t = L.
    """
    _check_int(L, "L", 0)
    _check_int(n, "n", 1)
    _check_int(q, "q", 6)
    _check_int(t_max, "t_max", 1)
    _check_int(trials, "trials", 1)
    if not (_is_real(d) and 0 <= d <= n):
        raise ParseError(f"d must be a real number with 0 <= d <= n, got {d!r}")
    _check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = np.full(trials, L, dtype=np.int64)
    p = d / n
    censor = q - 5  # keep X only when 2X >= q-5, exact in integers
    t_values = list(range(1, t_max + 1))
    tail = []
    ci_lo = []
    ci_hi = []
    for t in t_values:
        x = rng.binomial(n, p, size=trials)
        if t > L:
            x = np.where(2 * x < censor, 0, x)
        y += x - 1
        k = int(np.count_nonzero(y >= 0))
        tail.append(k / trials)
        lo, hi = _wilson(k, trials)
        ci_lo.append(lo)
        ci_hi.append(hi)
    pts = [(t, math.log(est)) for t, est in zip(t_values, tail) if t > L and est > 0.0]
    slope = None
    if len(pts) >= 2:
        xs = np.array([p_[0] for p_ in pts], dtype=float)
        ys = np.array([p_[1] for p_ in pts], dtype=float)
        slope = float(np.polyfit(xs, ys, 1)[0])
    return GrowthProcessReport(
        L=L,
        t_values=t_values,
        tail_estimates=tail,
        ci_low=ci_lo,
        ci_high=ci_hi,
        trials=trials,
        seed=seed,
        slope=slope,
    )


def verify_gnp_properties(n, d, q, beta=0, seed=0, l_max=6, trials=500):
    """Generate one gnp graph and check contraction, local sparsity, colorability.

    The sparsity scan runs in sampled mode (same seed); the colorability
    witness (beta = 0 only) is the greedy block coloring, reported as true,
    false, or null when skipped for beta > 0.
    """
    graph = generate_gnp(n, d, seed)
    params = PottsParams(q, beta)
    contraction = verify_contraction(graph, params, l_max)
    sparse = verify_locally_sparse(
        graph, params, l_max, mode="sampled", trials=trials, seed=seed
    )
    colorable = None
    if params.beta == 0:
        try:
            find_feasible_config(Instance(graph, params), block_budget=graph.n)
            colorable = True
        except (InfeasibleError, BudgetError):
            colorable = False
    return {
        "n": n,
        "d": d,
        "q": q,
        "beta": float(params.beta),
        "seed": seed,
        "edges": graph.m,
        "contracting": contraction["contracting"],
        "contraction": contraction,
        "locally_sparse": sparse,
        "colorable": colorable,
    }
