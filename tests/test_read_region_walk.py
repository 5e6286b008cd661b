"""Differential test: `decay._read_region`'s one-hop steps against the walk
that runs a breadth-first search over B*(u) at every expanded state.

A state u whose unpinned neighbours are all low-degree has B*(u) = {u} and
d* = 1 on u's row, so `_read_region`'s breadth-first phase adds the row and
goes on at e - 1 without a search. The returned set must be `==` to the
search-only walk's, and the walk must read the same adjacency rows: a pinned
vertex's row is never read by either. `decay._heap_region`, which
`_read_region` hands a walk that meets a high-degree neighbour, is now
`_search_only_read_region` line for line: it searches at every expanded
state, and starts its region as {v} in place of adding each popped state.

Needs Hypothesis (in the `test` extras); the module skips without it.
"""

import heapq

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pottsdecay import Graph, PottsParams, decay, generate  # noqa: E402


def _search_only_read_region(graph, params, pinned, v, ell):
    """Reference: the walk with a breadth-first search at every expanded state."""
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
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                d = dist[a] + 1
                for w in adj[a]:
                    if w not in dist:
                        dist[w] = d
                        if w not in pinned and graph.degree(w) > max_low:
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


class _Rows:
    """A graph's adjacency that records which rows are read."""

    def __init__(self, adjacency):
        self.adjacency = adjacency
        self.read = set()

    def __getitem__(self, u):
        self.read.add(u)
        return self.adjacency[u]


class _Recorded:
    """The graph interface _read_region uses, with its row reads recorded."""

    def __init__(self, graph):
        self.n = graph.n
        self.adjacency = _Rows(graph.adjacency)

    def degree(self, u):
        return len(self.adjacency[u])


@st.composite
def _graph(draw):
    kind = draw(st.sampled_from(["cycle", "path", "gnp", "hubs"]))
    if kind == "cycle":
        g = generate("cycle", n=draw(st.integers(3, 10)))
    elif kind == "path":
        g = generate("path", n=draw(st.integers(2, 10)))
    elif kind == "gnp":
        n = draw(st.integers(4, 12))
        d = draw(st.sampled_from([1, 2, 3]))
        g = generate("gnp", n=n, d=d, seed=draw(st.integers(0, 2**16)))
    else:
        # Hubs 0..h-1 with connectors that each join two distinct hubs, as
        # in test_singleton_evaluator: hubs are high-degree at small q, so
        # B*(u) of a connector holds its hubs.
        hubs = draw(st.integers(2, 4))
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, hubs - 1), st.integers(0, hubs - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                min_size=2,
                max_size=8,
            )
        )
        edges = []
        for c, (a, b) in enumerate(pairs):
            edges += [(a, hubs + c), (b, hubs + c)]
        g = Graph(hubs + len(pairs), edges)
    if g.m and draw(st.booleans()):
        # A derived graph, as the recursion's children walk on.
        g = g.remove_edges(draw(st.lists(st.sampled_from(g.edges), max_size=3)))
    return g


@st.composite
def _walk(draw):
    g = draw(_graph())
    params = PottsParams(draw(st.integers(3, 7)), draw(st.sampled_from(["0", "0.25", "0.5"])))
    pinned = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    v = draw(st.integers(0, g.n - 1))
    ell = draw(st.integers(-2, 6))
    return g, params, pinned, v, ell


@settings(max_examples=400, deadline=None)
@given(_walk())
def test_one_hop_walk_matches_search_only_walk(walk):
    g, params, pinned, v, ell = walk
    ours, ref = _Recorded(g), _Recorded(g)
    region = decay._read_region(ours, params, pinned, v, ell)
    assert region == _search_only_read_region(ref, params, pinned, v, ell)
    assert region == decay._read_region(g, params, pinned, v, ell)
    assert ours.adjacency.read == ref.adjacency.read
    assert not ours.adjacency.read & pinned


def test_hub_neighbour_takes_the_search():
    # Connector 2 joins hubs 0 and 1 (degree 3 each, high at q = 4,
    # beta = 0); its B* holds both hubs, so the walk reaches the other
    # connectors at depth e - 2, as the search does.
    g = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    params = PottsParams(4, "0")
    for ell in range(-2, 4):
        expected = _search_only_read_region(g, params, set(), 2, ell)
        assert decay._read_region(g, params, set(), 2, ell) == expected
    assert decay._read_region(g, params, set(), 2, 0) == {0, 1, 2, 3, 4}
    assert decay._read_region(g, params, {0}, 2, 0) == {0, 1, 2, 3, 4}
