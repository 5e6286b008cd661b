"""find_feasible_config against the per-block anchor loop it replaced.

The reference builds a fresh Instance of every pin placed so far for each
block and takes the lowest uncolored vertex with min(). The production
search builds one Instance and grows its pins in place, walking the
unpinned vertices in id order, so it must return the same Configuration,
or raise the same error, on every instance.
"""

import random
from collections import Counter
from unittest import mock

import pytest

from pottsdecay import (
    BudgetError,
    Configuration,
    Graph,
    InfeasibleError,
    Instance,
    PottsError,
    PottsParams,
    counting,
    find_feasible_config,
    first_feasible_tuple,
    generate_gnp,
    minimal_permissive_block,
)
from pottsdecay.blocks import DEFAULT_BLOCK_BUDGET


def _reference_anchor(instance, block_budget=DEFAULT_BLOCK_BUDGET):
    """The beta = 0 anchor search with one Instance per block."""
    for a, b in instance.graph.edges:
        ca = instance.pinned.get(a)
        if ca is not None and ca == instance.pinned.get(b):
            raise InfeasibleError(f"pinned endpoints of edge ({a}, {b}) share color {ca}")
    coloring = dict(instance.pinned)
    remaining = set(instance.unpinned())
    while remaining:
        v = min(remaining)
        current = Instance(instance.graph, instance.params, coloring)
        block = minimal_permissive_block(current, (v,), block_budget)
        tup = first_feasible_tuple(current, block.vertices)
        if tup is None:
            raise InfeasibleError(
                f"no proper coloring of the block around vertex {v} "
                "is consistent with its surroundings"
            )
        coloring.update(zip(block.vertices, tup))
        remaining.difference_update(block.vertices)
    return Configuration(coloring)


def _hub_connector(rng, hubs, connectors):
    """Hubs 0..hubs-1; each connector joins two distinct random hubs."""
    edges = []
    for c in range(connectors):
        a, b = rng.sample(range(hubs), 2)
        edges += [(a, hubs + c), (b, hubs + c)]
    return Graph(hubs + connectors, edges)


def _draw(rng, family, pinned):
    if family == "gnp":
        n = rng.randint(2, 30)
        graph = generate_gnp(n, min(n - 1, rng.choice([2, 3, 4, 6])), seed=rng.randrange(2**16))
    else:
        hubs = rng.randint(2, 8)
        graph = _hub_connector(rng, hubs, rng.randint(1, 4 * hubs))
    params = PottsParams(rng.randint(3, 7), 0)
    pins = {}
    if pinned:
        for v in rng.sample(range(graph.n), rng.randint(1, max(1, graph.n // 4))):
            pins[v] = rng.randint(1, params.q)
    return Instance(graph, params, pins)


def _outcome(search, instance, budget):
    try:
        return search(instance, budget)
    except PottsError as err:
        return type(err), str(err)


def test_anchor_matches_per_block_reference():
    rng = random.Random(20261019)
    configs = Counter()
    errors = set()
    for family in ("gnp", "hubs"):
        for pinned in (False, True):
            for i in range(60):
                instance = _draw(rng, family, pinned)
                budget = (DEFAULT_BLOCK_BUDGET, instance.graph.n, 3)[i % 3]
                got = _outcome(find_feasible_config, instance, budget)
                assert got == _outcome(_reference_anchor, instance, budget)
                if isinstance(got, Configuration):
                    configs[family, pinned, i % 3] += 1
                else:
                    errors.add(got[0])
    # every graph family, pinning and budget kind yields anchors to compare
    assert len(configs) == 12 and sum(configs.values()) >= 50
    assert errors == {InfeasibleError, BudgetError}


@pytest.mark.parametrize("pinned", [False, True])
def test_anchor_search_builds_one_instance(pinned):
    graph = generate_gnp(300, 4, seed=1)
    pins = {v: 1 + v % 5 for v in range(0, 300, 37)} if pinned else {}
    instance = Instance(graph, PottsParams(17, 0), pins)
    with mock.patch.object(counting, "Instance", wraps=Instance) as built:
        anchor = find_feasible_config(instance)
    assert built.call_count == 1
    assert anchor == _reference_anchor(instance)
    assert instance.pinned == pins
