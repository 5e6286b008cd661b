"""Differential test: graph views against graphs built from the kept edges.

Needs Hypothesis (in the `test` extras); the module skips without it, so the
other graph tests do not depend on it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pottsdecay import Graph, generate_cycle, generate_gnp  # noqa: E402


@st.composite
def _graph_and_drop_chain(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        d = draw(st.floats(0.0, min(n, 6.0)))
        g = generate_gnp(n, d, seed=draw(st.integers(0, 2**40)))
    else:
        g = generate_cycle(draw(st.integers(3, 30)))
    vertex = st.integers(0, g.n - 1)
    pair = st.tuples(vertex, vertex)
    if g.m:
        # Edges in either orientation, mixed with pairs that are not edges.
        edge = st.sampled_from(g.edges).flatmap(
            lambda e: st.sampled_from([e, (e[1], e[0])])
        )
        pair = st.one_of(edge, edge, pair)
    chain = draw(st.lists(st.lists(pair, max_size=8), min_size=1, max_size=4))
    # Vertex sets for induced_edges may hold ids outside 0..n-1.
    ids = st.integers(-2, g.n + 1)
    subsets = draw(st.lists(st.sets(ids, max_size=g.n + 4), min_size=1, max_size=4))
    return g, chain, subsets


@settings(max_examples=200, deadline=None)
@given(_graph_and_drop_chain())
def test_views_match_fresh_graphs(case):
    g, chain, subsets = case
    root_edges = g.edges
    kept = set(g.edges)
    view = g
    for drop in chain:
        view = view.remove_edges(drop)
        kept -= {(min(u, v), max(u, v)) for u, v in drop}
        fresh = Graph(g.n, kept)
        # Lazy rows and m first, before anything materialises the edge tuple.
        assert view.n == fresh.n
        assert view.m == fresh.m
        for v in range(g.n):
            assert view.adjacency[v] == fresh.adjacency[v]
            assert view.degree(v) == fresh.degree(v)
        for v in (-1, g.n):
            with pytest.raises(IndexError):
                view.adjacency[v]
        assert len(view.adjacency) == g.n
        assert list(view.adjacency) == list(fresh.adjacency)
        for vertices in subsets:
            inside = set(vertices)
            expect = [e for e in fresh.edges if e[0] in inside and e[1] in inside]
            assert view.induced_edges(vertices) == expect
            assert fresh.induced_edges(vertices) == expect
        assert view.edges == fresh.edges
        assert view == fresh and fresh == view
        assert hash(view) == hash(fresh)
        assert (view == g) == (kept == set(root_edges))
        removed = set(root_edges) - kept
        twin = g.remove_edges(removed)
        assert twin == view and hash(twin) == hash(view)
        if kept and removed:
            # Same root and same m, one edge swapped: not equal.
            swapped = g.remove_edges(removed - {min(removed)} | {min(kept)})
            assert swapped != view
    assert g.edges == root_edges
