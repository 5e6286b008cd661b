"""Shared fixtures: the seeded random-instance corpus used by the
recursion-identity, exactness, and bound acceptance checks, and a pinned
caterpillar whose one block outgrows the default block budget.

Instances are drawn deterministically. A capped probe evaluation filters out
draws whose full-depth recursion would be too expensive to finish inside the
suite's runtime budget; the probe looks only at cost (call counts), never at
computed values, so it shapes the instance distribution without touching any
asserted property.
"""

import random

import pytest

from pottsdecay import (
    BudgetError,
    Graph,
    InfeasibleError,
    Instance,
    PottsParams,
    RecursionLimits,
    generate_caterpillar,
    is_feasible,
    marginal_vector,
)

CORPUS_SEED = 20260816
BETAS = ("0", "0.25", "0.5", "0.9")
QS = (3, 4, 5)
PROBE_CALL_CAP = 20_000


def corpus_limits():
    # q=5 whole-graph blocks need 5^9 < 2^22 feasible-tuple slots
    return RecursionLimits(config_budget=2**22)


def _probe_ok(instance):
    """True when a full-depth evaluation at the busiest vertex stays cheap."""
    unpinned = instance.unpinned()
    v = max(unpinned, key=lambda u: (instance.graph.degree(u), -u))
    limits = corpus_limits()
    limits.max_calls = PROBE_CALL_CAP
    try:
        marginal_vector(instance, v, instance.graph.n, limits=limits)
    except BudgetError:
        return False
    except InfeasibleError:
        return True
    return True


def draw_corpus(count=200, seed=CORPUS_SEED):
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("corpus generation is rejecting too many draws")
        n = rng.randint(2, 9)
        q = QS[(len(out) + attempts) % len(QS)]
        beta = BETAS[len(out) % len(BETAS)]
        p = rng.uniform(0.15, 0.55)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        graph = Graph(n, edges)
        params = PottsParams(q, beta)
        pins = {
            v: rng.randint(1, q) for v in range(n) if rng.random() < 0.25
        }
        try:
            instance = Instance(graph, params, pins)
        except Exception:
            continue
        if not instance.unpinned():
            continue
        if not is_feasible(instance):
            continue
        if not _probe_ok(instance):
            continue
        out.append(instance)
    return out


@pytest.fixture(scope="session")
def corpus200():
    return draw_corpus(200)


@pytest.fixture
def forced_caterpillar():
    """(graph, pins): caterpillar(70, 2), q = 3, beta = 0, one proper coloring.

    The two bristles of spine vertex i are pinned to the two colors other
    than 1 + (i mod 2), which forces the spine's colors. At q = 3, beta = 0
    no degree is low, so the unpinned spine is one permissive block of 70
    vertices: past the default block budget of 64.
    """
    n = 70
    pins = {}
    for i in range(n):
        others = [c for c in (1, 2, 3) if c != 1 + i % 2]
        pins[n + 2 * i] = others[0]
        pins[n + 2 * i + 1] = others[1]
    return generate_caterpillar(n, 2), pins
