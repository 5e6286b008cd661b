import random

import numpy as np
import pytest

from pottsdecay import (
    Graph,
    ParseError,
    generate,
    generate_caterpillar,
    generate_complete,
    generate_cycle,
    generate_gnp,
    generate_path,
    generate_star,
    load_graph,
    serialize_graph,
)


def test_edges_canonicalized():
    g = Graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.adjacency[2] == (0, 1)
    assert g.degree(2) == 2
    assert 3 in g.adjacency[1] and 1 in g.adjacency[3]
    assert 3 not in g.adjacency[0]


def test_bad_edges_rejected():
    with pytest.raises(ParseError):
        Graph(3, [(0, 0)])
    with pytest.raises(ParseError):
        Graph(3, [(0, 3)])
    with pytest.raises(ParseError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ParseError):
        Graph(-1)


def test_remove_edges_keeps_vertex_count():
    g = generate_star(3)
    h = g.remove_edges([(0, 1), (0, 2), (0, 3)])
    assert h.n == 4
    assert h.edges == ()
    assert g.edges == ((0, 1), (0, 2), (0, 3))  # original untouched
    assert h != g
    assert h == Graph(4)


def test_induced_edges():
    g = generate_cycle(5)
    assert g.induced_edges([0, 1, 2]) == [(0, 1), (1, 2)]
    assert g.induced_edges([0]) == []


def test_view_of_view_flattens_onto_root():
    g = generate_cycle(6)
    h = g.remove_edges([(1, 0)]).remove_edges([(3, 2), (0, 1), (0, 3)])
    assert h._root is g
    assert h._removed == {(0, 1), (2, 3)}
    assert h.m == 4
    assert h == g.remove_edges([(2, 3), (0, 1)])
    assert (h.root, h.removed) == (g, frozenset({(0, 1), (2, 3)})) and h.root is g
    assert g.root is g and g.removed == frozenset()


def test_view_rejects_ids_outside_vertex_range():
    g = generate_cycle(6)
    view = g.remove_edges([(0, 5)])
    for v in (-1, -6, 6):
        with pytest.raises(IndexError):
            view.adjacency[v]
        with pytest.raises(IndexError):
            view.degree(v)
    # Ids that are not vertices select no edges, on a view and on a root graph.
    assert view.induced_edges([-1, 0, 4, 6]) == []
    assert view.induced_edges([-1, 4, 5]) == [(4, 5)]
    assert g.induced_edges([-1, 0, 4, 6]) == []


def test_path_cycle_complete_star_shapes():
    assert generate_path(3).edges == ((0, 1), (1, 2))
    assert generate_cycle(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert generate_complete(4).m == 6
    s = generate_star(5)
    assert s.degree(0) == 5
    assert all(s.degree(i) == 1 for i in range(1, 6))
    with pytest.raises(ParseError):
        generate_cycle(2)


def test_caterpillar_shape():
    g = generate_caterpillar(6, 3)
    assert g.n == 24
    assert g.m == 23
    # interior spine degree k+2, endpoints k+1, bristles 1
    assert g.degree(0) == 4 and g.degree(5) == 4
    assert g.degree(2) == 5
    assert g.degree(6 + 2 * 3 + 1) == 1
    # bristle j of spine i attaches to i
    assert g.adjacency[6 + 2 * 3 + 1] == (2,)


def test_gnp_reproducible_and_in_range():
    g1 = generate_gnp(100, 5, seed=7)
    g2 = generate_gnp(100, 5, seed=7)
    assert g1.edges == g2.edges
    assert 150 <= g1.m <= 350
    g3 = generate_gnp(100, 5, seed=8)
    assert g3.edges != g1.edges


def test_gnp_seed_range():
    # Philox keys lie in [0, 2**128); outside it the seed is a ParseError.
    assert generate_gnp(10, 2, seed=2**128 - 1).n == 10
    for bad in (-1, 2**128, 1.5):
        with pytest.raises(ParseError, match="seed"):
            generate_gnp(10, 2, seed=bad)


def _gnp_edges_all_pairs(n, d, seed):
    # One draw over all C(n, 2) pairs at once: the stream order generate_gnp
    # must reproduce row by row.
    iu, iv = np.triu_indices(n, k=1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    mask = rng.random(iu.size) < (d / n)
    return tuple((int(u), int(v)) for u, v in zip(iu[mask], iv[mask]))


@pytest.mark.parametrize("n,d", [(1, 0), (2, 2), (60, 3), (500, 4)])
@pytest.mark.parametrize("seed", [0, 1, 7, 3 * 2**32 + 7])
def test_gnp_rows_match_one_draw_over_all_pairs(n, d, seed):
    assert generate_gnp(n, d, seed).edges == _gnp_edges_all_pairs(n, d, seed)


def test_gnp_edge_count_mean():
    # E[m] = C(100,2) * 5/100 = 247.5; average over seeds lands within 5%
    total = 0
    seeds = 400
    for s in range(seeds):
        total += generate_gnp(100, 5, seed=s).m
    mean = total / seeds
    assert abs(mean - 247.5) <= 0.05 * 247.5


def test_generate_dispatch():
    g = generate("cycle", n=5)
    assert g.m == 5
    with pytest.raises(ParseError):
        generate("tree", n=5)
    with pytest.raises(ParseError):
        generate("path", k=5)


def test_serialize_load_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 12)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        pins = {v: rng.randint(1, 5) for v in range(n) if rng.random() < 0.3}
        g = Graph(n, edges)
        text = serialize_graph(g, pins)
        g2, pins2 = load_graph(text)
        assert g2 == g
        assert pins2 == pins


def test_load_graph_accepts_comments_and_blanks():
    g, pins = load_graph("# c\n\ngraph 3\nedge 0 1  # tail comment\n\npin 2 4\n")
    assert g.edges == ((0, 1),)
    assert pins == {2: 4}


@pytest.mark.parametrize(
    "text,needle",
    [
        ("edge 0 1\n", "missing graph header"),
        ("graph 3\ngraph 3\n", "duplicate graph header at line 2"),
        ("graph 3\nedge 0\n", "malformed edge at line 2"),
        ("graph 3\nedge 0 x\n", "malformed edge at line 2"),
        ("graph 3\nedge 1 1\n", "self-loop at line 2"),
        ("graph 3\nedge 0 5\n", "vertex id out of range at line 2"),
        ("graph 3\nedge 0 1\nedge 1 0\n", "duplicate edge at line 3"),
        ("graph 3\npin 0\n", "malformed pin at line 2"),
        ("graph 3\npin 0 0\n", "pin color out of range at line 2"),
        ("graph 3\npin 0 1\npin 0 2\n", "duplicate pin at line 3"),
        ("graph 3\nvertex 0\n", "at line 2"),
    ],
)
def test_load_graph_errors(text, needle):
    with pytest.raises(ParseError) as err:
        load_graph(text)
    assert needle in str(err.value)
