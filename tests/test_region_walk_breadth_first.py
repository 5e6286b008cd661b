"""Differential tests of `decay._read_region`'s breadth-first walk against the
heap walk it replaced.

The replaced walk is kept below as `_reference_read_region`, line for line:
states (u, e) popped deepest first from a heap, with a `best` map of the
deepest depth pushed per vertex. `_read_region` walks breadth first, one
level per unit of depth, with the region as its visited set, while every
vertex it expands has only low-degree unpinned neighbours; at the first
vertex that has another, it starts `decay._heap_region` from v. Both must
return the same set with `==`, on root graphs and on views with removed
edges, at every depth from -2 to 8, at beta 0 and 0.5.

A counted check shows which phase runs: on cycle(200) at q = 4 and
beta = 0.5 (every vertex low-degree) no walk of a telescoped estimate
reaches the heap walk, and on a hub/connector graph at q = 6 a walk from a
connector does.

The property test needs Hypothesis (in the `test` extras) and skips
without it; the seeded tests run without it.
"""

import heapq
import random
from unittest import mock

import pytest

from pottsdecay import (
    Graph,
    PottsParams,
    decay,
    estimate_partition,
    generate_caterpillar,
    generate_cycle,
    generate_gnp,
    generate_path,
)
from pottsdecay.graph import _view

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property test skips
    given = None


def _reference_read_region(graph, params, pinned, v, ell):
    """The heap walk before the breadth-first phase, line for line."""
    adj = graph.adjacency
    max_low = params.max_low_degree
    beta_positive = params.beta_positive
    region = set()
    best = {v: ell}
    heap = [(-ell, v)]
    while heap:
        neg_e, u = heapq.heappop(heap)
        e = -neg_e
        if best[u] != e:
            continue
        region.add(u)
        if u in pinned or (beta_positive and e < 0):
            continue
        row = adj[u]
        for w in row:
            if w not in pinned and len(adj[w]) > max_low:
                break
        else:
            region.update(row)
            if e >= 0:
                ex = e - 1
                for x in row:
                    if ex > best.get(x, ex - 1):
                        best[x] = ex
                        heapq.heappush(heap, (-ex, x))
            continue
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                d = dist[a] + 1
                for w in adj[a]:
                    if w not in dist:
                        dist[w] = d
                        if w not in pinned and len(adj[w]) > max_low:
                            nxt.append(w)
            frontier = nxt
        region.update(dist)
        if e < 0:
            continue
        for x, d in dist.items():
            ex = e - d
            if x != u and ex > best.get(x, ex - 1):
                best[x] = ex
                heapq.heappush(heap, (-ex, x))
    return region


def _hub_connector(pairs, hubs):
    """Hubs 0..hubs-1 and one connector per pair, joined to both its hubs."""
    edges = []
    for c, (a, b) in enumerate(pairs):
        edges += [(a, hubs + c), (b, hubs + c)]
    return Graph(hubs + len(pairs), edges)


def _random_graph(rng):
    kind = rng.choice(["cycle", "path", "gnp", "caterpillar", "hubs"])
    if kind == "cycle":
        return generate_cycle(rng.randint(3, 30))
    if kind == "path":
        return generate_path(rng.randint(1, 30))
    if kind == "gnp":
        n = rng.randint(4, 30)
        return generate_gnp(n, rng.choice([1, 2, 3, 4]), rng.randrange(2**16))
    if kind == "caterpillar":
        return generate_caterpillar(rng.randint(1, 8), rng.randint(0, 3))
    hubs = rng.randint(2, 6)
    pairs = [tuple(rng.sample(range(hubs), 2)) for _ in range(rng.randint(1, 3 * hubs))]
    return _hub_connector(pairs, hubs)


def _random_walk(rng):
    g = _random_graph(rng)
    if g.m and rng.random() < 0.5:
        # A view, as the recursion's children walk on.
        g = _view(g, frozenset(rng.sample(g.edges, rng.randint(1, min(4, g.m)))))
    params = PottsParams(rng.randint(3, 7), rng.choice(["0", "0.5"]))
    pinned = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    if rng.random() < 0.5:
        pinned = {u: 1 for u in pinned}  # a pin dict, as read_region passes
    return g, params, pinned, rng.randrange(g.n), rng.randint(-2, 8)


def test_breadth_first_walk_matches_heap_walk_seeded():
    rng = random.Random(20261021)
    handed_over = 0
    for _ in range(3000):
        g, params, pinned, v, ell = _random_walk(rng)
        with mock.patch.object(decay, "_heap_region", wraps=decay._heap_region) as heap:
            region = decay._read_region(g, params, pinned, v, ell)
        assert region == _reference_read_region(g, params, pinned, v, ell)
        handed_over += heap.call_count
    # Both phases ran: some walks stayed breadth first, some were handed over.
    assert 300 <= handed_over <= 2700


if given is not None:

    @st.composite
    def _graph(draw):
        kind = draw(st.sampled_from(["cycle", "path", "gnp", "caterpillar", "hubs"]))
        if kind == "cycle":
            return generate_cycle(draw(st.integers(3, 30)))
        if kind == "path":
            return generate_path(draw(st.integers(1, 30)))
        if kind == "gnp":
            n, d = draw(st.integers(4, 30)), draw(st.sampled_from([1, 2, 3, 4]))
            return generate_gnp(n, d, draw(st.integers(0, 2**16)))
        if kind == "caterpillar":
            return generate_caterpillar(draw(st.integers(1, 8)), draw(st.integers(0, 3)))
        hubs = draw(st.integers(2, 6))
        pair = st.tuples(st.integers(0, hubs - 1), st.integers(0, hubs - 1))
        pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), min_size=1, max_size=3 * hubs))
        return _hub_connector(pairs, hubs)

    @st.composite
    def _walk(draw):
        g = draw(_graph())
        if g.m and draw(st.booleans()):
            removed = draw(st.sets(st.sampled_from(g.edges), min_size=1, max_size=4))
            g = _view(g, frozenset(removed))
        params = PottsParams(draw(st.integers(3, 7)), draw(st.sampled_from(["0", "0.5"])))
        pinned = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        v = draw(st.integers(0, g.n - 1))
        return g, params, pinned, v, draw(st.integers(-2, 8))

    @settings(max_examples=300, deadline=None)
    @given(_walk())
    def test_breadth_first_walk_matches_heap_walk(walk):
        g, params, pinned, v, ell = walk
        assert decay._read_region(g, params, pinned, v, ell) == _reference_read_region(
            g, params, pinned, v, ell
        )

else:  # pragma: no cover

    @pytest.mark.skip(reason="needs hypothesis")
    def test_breadth_first_walk_matches_heap_walk():
        pass


def test_low_degree_cycle_walks_never_reach_the_heap_walk():
    # q = 4, beta = 0.5: the largest low degree is 3, so every vertex of a
    # cycle is low-degree and every walk stays breadth first.
    graph, params = generate_cycle(200), PottsParams(4, "0.5")
    with mock.patch.object(decay, "_read_region", wraps=decay._read_region) as walks:
        with mock.patch.object(decay, "_heap_region", wraps=decay._heap_region) as heap:
            estimate_partition(graph, params, L=8, order_seed=1)
    assert walks.call_count >= 200  # one per telescoping step, and more
    assert heap.call_count == 0


def test_hub_walk_reaches_the_heap_walk():
    # q = 6, beta = 0: a hub of degree 3 is high-degree (the largest low
    # degree is 2), so a walk from a connector hands over at its first step.
    graph = _hub_connector([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)], 4)
    params = PottsParams(6, 0)
    with mock.patch.object(decay, "_heap_region", wraps=decay._heap_region) as heap:
        region = decay._read_region(graph, params, set(), 4, 3)
    assert heap.call_count == 1
    assert region == _reference_read_region(graph, params, set(), 4, 3)
    assert region == set(range(graph.n))
