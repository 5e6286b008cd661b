"""Tests for the truncated block recursion and its support machinery."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from pottsdecay import (
    Block,
    BudgetError,
    Graph,
    InfeasibleError,
    Instance,
    ParseError,
    PottsParams,
    RecursionLimits,
    decay,
    default_depth,
    error_bound,
    escape_paths,
    estimate_partition,
    exact_marginal_vector,
    e_delta_profile,
    feasible_tuples,
    generate,
    marg,
    marg_block,
    marg_coloring,
    marginal_distribution,
    marginal_vector,
    minimal_permissive_block,
    sample_batch,
)


def _inst(graph, q, beta="0", pins=None):
    return Instance(graph, PottsParams(q, beta), pins or {})


# ---------------------------------------------------------------- escape paths


def test_escape_paths_star_leaf_block():
    # center absorbed into the leaf's block; every escape runs through it
    g = generate("star", k=5)
    inst = _inst(g, 7)
    block = minimal_permissive_block(inst, (1,))
    assert block.vertices == (0, 1)
    # one length per boundary edge: the hop 1 -> 0, then the hop outside
    assert escape_paths(g, block, 1) == [2, 2, 2, 2]


def test_escape_paths_singleton_block():
    g = generate("star", k=5)
    inst = _inst(g, 7)
    block = minimal_permissive_block(inst, (0,))
    assert block.vertices == (0,)
    assert escape_paths(g, block, 0) == [1, 1, 1, 1, 1]


def test_escape_paths_lex_tiebreak():
    # diamond 0-1-3, 0-2-3 plus tail 3-4: two shortest routes of one length
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    block = Block((0, 1, 2, 3), ((3, 4),))
    assert escape_paths(g, block, 0) == [3]


def test_escape_paths_shortest():
    # ladder rung: direct hop beats the long way around
    g = generate("cycle", n=6)
    block = Block((0, 1, 2, 3), ((0, 5), (3, 4)))
    assert escape_paths(g, block, 1) == [2, 3]


def test_escape_paths_anchor_must_be_inside():
    g = generate("star", k=5)
    block = Block((0, 1), ((0, 2), (0, 3)))
    with pytest.raises(ParseError):
        escape_paths(g, block, 4)


def test_escape_paths_unreachable_anchor():
    # block containing two vertices with no internal route between them
    g = Graph(4, [(0, 1), (2, 3)])
    block = Block((0, 2), ((0, 1),))
    with pytest.raises(ParseError):
        escape_paths(g, block, 2)


# ------------------------------------------------- children per boundary index


@pytest.fixture
def made(monkeypatch):
    """Record the (graph, params, pins) of every Instance the recursion builds."""
    made = []

    class Recorded(Instance):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(decay, "Instance", Recorded)
    return made


@pytest.fixture
def children(monkeypatch):
    """Record the (vertex, kept edges, pins) of every call of the recursion.

    Every call, the root's and each leaf child's included, enters
    decay._node_vector as the root graph, the removed edges and the pins,
    with no graph view or Instance, and is recorded there. A leaf child
    reads only its pin and gets no removed set; its kept edges are None.
    """
    children = []
    real = decay._node_vector

    def recorded(root, removed, params, pinned, v, ell, diag, limits):
        kept = None if removed is None else tuple(e for e in root.edges if e not in removed)
        children.append((v, kept, dict(pinned)))
        return real(root, removed, params, pinned, v, ell, diag, limits)

    monkeypatch.setattr(decay, "_node_vector", recorded)
    return children


def test_children_per_boundary_index_star_leaf(made):
    # Star centre 0 is high-degree at q = 7, so vertex 1's block is {0, 1}
    # with boundary edges (0, 2) .. (0, 5), and the root builds its own
    # Instance on the whole star. Child i is built once: it keeps the
    # boundary edges [:i], and its leaf lost its only edge, so its read
    # region is the leaf alone and the centre's prefix pin is dropped.
    g = generate("star", k=5)
    inst = _inst(g, 7)
    block = minimal_permissive_block(inst, (1,))
    assert block.vertices == (0, 1)
    bedges = block.boundary_edges
    marginal_vector(inst, 1, 2)
    assert [graph.edges for graph, _, _ in made] == [g.edges] + [
        tuple(bedges[:i]) for i in range(4)
    ]
    assert [pins for _, _, pins in made] == [{}, {}, {}, {}, {}]
    # parent untouched
    assert inst.pinned == {}
    assert g.edges == tuple(sorted((0, k) for k in range(1, 6)))


def test_children_per_boundary_index_keep_parent_pins(made, children):
    # Path 0-1-2-3 with pin {3: 6}: vertex 1's block is {1}, with boundary
    # edges (1, 0) and (1, 2); edge (2, 3) lies outside it and stays. The
    # child at (1, 2) keeps (0, 1), so vertex 2 cannot reach vertex 1: one
    # child serves every prefix colour, without vertex 1's pin. Every child
    # keeps the parent's pin. Both children are singleton nodes too, so no
    # Instance is built; the child at 2 has one child, the pinned leaf 3.
    g = generate("path", n=4)
    inst = _inst(g, 7, pins={3: 6})
    marginal_vector(inst, 1, 2)
    kept = ((0, 1), (2, 3))
    assert [(v, edges) for v, edges, _ in children] == [
        (1, g.edges), (0, ((2, 3),)), (2, kept), (3, None)
    ]
    assert [pins for _, _, pins in children] == [{3: 6}] * 4
    assert made == []
    assert inst.pinned == {3: 6}
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_children_per_boundary_index_keep_readable_prefix_pins(made):
    # Triangle 0-1-2 with tail (2, 3) and pin {3: 6}, beta = 0: after the
    # root's own Instance, the child at (1, 2) reaches vertex 1 through 0 at
    # the feasibility cut-off, so it pins vertex 1 once per colour class, to
    # the canonical free colour 1 and the held colour 6; each such child
    # builds one grandchild at 0.
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    inst = _inst(g, 7, pins={3: 6})
    marginal_vector(inst, 1, 1)
    child = ((0, 1), (0, 2), (2, 3))
    assert [graph.edges for graph, _, _ in made] == [
        g.edges, ((0, 2), (2, 3)), ((2, 3),), child, ((0, 1),), child, ((0, 1),)
    ]
    assert [pins for _, _, pins in made] == [
        {3: 6}, {3: 6}, {3: 6}, {3: 6, 1: 1}, {3: 6, 1: 1}, {3: 6, 1: 6}, {3: 6, 1: 6}
    ]


def test_cut_off_children_keep_every_prefix_pin(made):
    # The path of test_children_per_boundary_index_keep_parent_pins at depth
    # 0, beta = 0: the child at (1, 2) is a feasibility cut-off. Vertex 2
    # cannot reach vertex 1 there, yet the cut-off keys on the whole prefix,
    # so vertex 1 is pinned once per colour class (canonical free colour 1
    # and the held colour 6). The root builds its own Instance first.
    g = generate("path", n=4)
    inst = _inst(g, 7, pins={3: 6})
    marginal_vector(inst, 1, 0)
    kept = ((0, 1), (2, 3))
    assert [graph.edges for graph, _, _ in made] == [g.edges, ((2, 3),), kept, kept]
    assert [pins for _, _, pins in made] == [{3: 6}, {3: 6}, {3: 6, 1: 1}, {3: 6, 1: 6}]


# ------------------------------------------------------- depth and work guards


def test_depth_budget_for_graph():
    assert default_depth(2) == math.ceil(3.0 * math.log(2))
    assert default_depth(100) == math.ceil(3.0 * math.log(100))
    assert default_depth(1) >= 1
    assert default_depth(2, coeff=0.01) == 1
    assert default_depth(50, coeff=5.0) == math.ceil(5 * math.log(50))
    for coeff in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParseError, match="depth coefficient must be finite"):
            default_depth(50, coeff)
    # True would read as 1.0, and a string or None would fail as a bare
    # TypeError.
    for coeff in ("3", None, True):
        with pytest.raises(ParseError, match="depth coefficient must be a real number"):
            default_depth(10, coeff)
    assert default_depth(10, 3) == default_depth(10, 3.0) == default_depth(10, np.float64(3.0))
    # n is a vertex count: a string would fail as a bare TypeError, and True
    # would read as 1.
    for n in ("10", None, True, 10.0):
        with pytest.raises(ParseError, match="n must be an integer"):
            default_depth(n)
    with pytest.raises(ParseError, match="n must be >= 0"):
        default_depth(-1)
    assert default_depth(0) == default_depth(1) == default_depth(2)


def test_depth_argument_forms():
    g = generate("path", n=3)
    inst = _inst(g, 7)
    value, _ = marg_coloring(inst, 0, 1, 6)
    assert 0.0 < value <= 1.0
    for bad in (True, 2.5, 6.0, "6", None):
        with pytest.raises(ParseError):
            marg_coloring(inst, 0, 1, bad)


def test_max_calls_guard():
    g = generate("cycle", n=12)
    inst = _inst(g, 7)
    with pytest.raises(BudgetError, match="call budget"):
        marginal_vector(inst, 0, 14, RecursionLimits(max_calls=5))
    # generous cap leaves the answer untouched
    vec, diag = marginal_vector(inst, 0, 14, RecursionLimits(max_calls=10**6))
    assert diag.recursive_calls > 64
    assert math.isclose(sum(vec), 1.0, rel_tol=1e-9)


def test_deadline_guard():
    g = generate("cycle", n=12)
    inst = _inst(g, 7)
    limits = RecursionLimits(deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetError, match="deadline"):
        marginal_vector(inst, 0, 14, limits)
    # a far-future deadline never fires
    relaxed = RecursionLimits(deadline=time.monotonic() + 3600.0)
    vec, _ = marginal_vector(inst, 0, 14, relaxed)
    assert math.isclose(sum(vec), 1.0, rel_tol=1e-9)


def test_deadline_checked_on_first_call():
    # A one-call estimate past its deadline aborts instead of returning.
    inst = _inst(generate("path", n=3), 5)
    limits = RecursionLimits(deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetError, match="deadline") as err:
        marginal_vector(inst, 1, 0, limits)
    assert err.value.diagnostics.recursive_calls == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("block_budget", None),
        ("block_budget", "64"),
        ("block_budget", -1),
        ("block_budget", True),
        ("block_budget", 64.0),
        ("config_budget", None),
        ("config_budget", "64"),
        ("config_budget", -1),
        ("config_budget", False),
        ("max_calls", "5"),
        ("max_calls", -1),
        ("max_calls", True),
        ("max_calls", 5.0),
        ("deadline", "x"),
        ("deadline", True),
        ("deadline", math.nan),
        ("deadline", math.inf),
        ("deadline", -math.inf),
        ("deadline", 1j),
    ],
)
def test_recursion_limits_reject_bad_fields(field, value):
    with pytest.raises(ParseError, match=field):
        RecursionLimits(**{field: value})


def test_recursion_limits_accept_their_ranges():
    for kwargs in (
        {"block_budget": 0, "config_budget": 0, "max_calls": 0, "deadline": 0},
        {"max_calls": None, "deadline": None},
        {"deadline": -1.5},
        {"deadline": Fraction(1, 3)},
    ):
        RecursionLimits(**kwargs)
    inst = _inst(generate("path", n=3), 5)
    limits = RecursionLimits(max_calls=100, deadline=time.monotonic() + 60)
    vec, _ = marginal_vector(inst, 1, 0, limits)
    assert math.isclose(sum(vec), 1.0, rel_tol=1e-9)


@pytest.mark.parametrize("limits", [5, 0, {}, "x", [], RecursionLimits])
def test_limits_must_be_recursion_limits(limits):
    # Every entry that takes limits reads them through decay._limits: None
    # means the defaults, and anything but a RecursionLimits is an error,
    # a falsy one included.
    inst = _inst(generate("cycle", n=6), 4, "0.5")
    block = minimal_permissive_block(inst, (0,))
    calls = [
        lambda: marginal_vector(inst, 0, 2, limits=limits),
        lambda: marg_block(inst, block, {0: 1}, 2, limits=limits),
        lambda: estimate_partition(inst.graph, inst.params, 2, limits=limits),
        lambda: sample_batch(inst, 2, 1, 1, limits=limits),
    ]
    for call in calls:
        with pytest.raises(ParseError, match="limits must be None or a RecursionLimits"):
            call()
    vec, _ = marginal_vector(inst, 0, 2, limits=None)
    assert vec == marginal_vector(inst, 0, 2, limits=RecursionLimits())[0]


def test_abort_keeps_partial_diagnostics():
    g = generate("cycle", n=12)
    limits = RecursionLimits(max_calls=5)
    for fn, beta in ((marginal_vector, "0"), (marg_coloring, "0"), (marg, "0.5")):
        args = (1,) if fn is not marginal_vector else ()
        with pytest.raises(BudgetError, match="call budget") as err:
            fn(_inst(g, 7, beta), 0, *args, 14, limits)
        diag = err.value.diagnostics
        assert diag.recursive_calls == 6
        assert diag.max_block_size == 1 and diag.max_f_size > 0


def test_stack_overflow_is_budget_error():
    # Each level nests two Python frames, so depth 1200 (or 600 from an end
    # vertex) on a long path runs past the default recursion limit.
    g = generate("path", n=1200)
    for q, beta, v, depth in ((6, "0", 600, 1200), (4, "0.5", 0, 600)):
        with pytest.raises(BudgetError, match=f"depth {depth}") as err:
            marginal_vector(_inst(g, q, beta), v, depth)
        msg = str(err.value)
        assert "nested deeper than the Python stack" in msg
        assert f"recursion limit {sys.getrecursionlimit()}" in msg
        assert err.value.diagnostics.recursive_calls > 100


# ---------------------------------------------------------- colour-class memo


def test_naive_counts_on_gnp200():
    # Counters keep the values of the schedule without the memo.
    inst = _inst(generate("gnp", n=200, d=4, seed=1), 17)
    _, diag = marginal_vector(inst, 0, 2)
    assert diag.recursive_calls == 55_169
    assert diag.termination_events == 54_486
    assert diag.cache_hits > 0
    assert diag.evaluations < diag.recursive_calls // 100


def test_naive_counts_on_criterion_9_graph():
    inst = _inst(generate("gnp", n=2000, d=4, seed=1), 17)
    _, diag = marginal_vector(inst, 0, 3)
    assert diag.recursive_calls == 12_883_455
    assert diag.termination_events == 12_602_934


def test_region_scoped_held_on_criterion_9_graph():
    # A walked index holds only the colours of the parent's pins inside its
    # region, so more prefix patterns share a colour class: evaluations fall
    # from 693 and 3 403 (every pin colour held) to 669 and 2 852, and the
    # counters of the schedule without the memo stay.
    inst = _inst(generate("gnp", n=2000, d=4, seed=1), 17)
    for ell, calls, terminations, evaluations in (
        (3, 12_883_455, 12_602_934, 669),
        (4, 664_589_710, 651_460_605, 2_852),
    ):
        vec, diag = marginal_vector(inst, 0, ell)
        assert vec == [0.0588235294117647] * 17
        assert diag.recursive_calls == calls
        assert diag.termination_events == terminations
        assert diag.evaluations == evaluations


def test_memo_evaluates_one_child_per_colour_class():
    # Path 1 - 0 - 2 - 3 at q = 6: the root block {0} has boundary edges
    # (0, 1) and (0, 2). Index 1 evaluates one child; index 2's six patterns
    # (c,) form one class, so one subtree of 2 calls is run and 5 are read back.
    inst = _inst(Graph(4, [(0, 1), (0, 2), (2, 3)]), 6)
    vec, diag = marginal_vector(inst, 0, 6)
    assert diag.recursive_calls == 14 and diag.termination_events == 0
    assert diag.evaluations == 4 and diag.cache_hits == 5
    assert len(set(vec)) == 1 and vec[0] == pytest.approx(1 / 6)


def test_max_calls_crossed_on_a_memo_hit():
    inst = _inst(Graph(4, [(0, 1), (0, 2), (2, 3)]), 6)
    # Calls 1-4 run; the first hit adds its cached 2-call subtree, crossing 4.
    with pytest.raises(BudgetError, match="call budget") as err:
        marginal_vector(inst, 0, 6, RecursionLimits(max_calls=4))
    diag = err.value.diagnostics
    assert (diag.recursive_calls, diag.evaluations, diag.cache_hits) == (6, 4, 1)
    # A cap aborts exactly when the schedule without the memo would (14 calls).
    for cap in range(1, 14):
        with pytest.raises(BudgetError, match="call budget"):
            marginal_vector(inst, 0, 6, RecursionLimits(max_calls=cap))
    _, diag = marginal_vector(inst, 0, 6, RecursionLimits(max_calls=14))
    assert diag.recursive_calls == 14


def test_leaf_children_build_no_instance(made, children):
    # Cycle 0..15 with chords (0, 8) and (4, 12), q = 4, beta 0.5, three pins:
    # pinned children and depth-exhausted ones are answered in place, and a
    # child that cannot read a prefix pin serves every prefix colour. The
    # vector and the naive counters are those of the schedule that built an
    # Instance for each child (38 constructions). Six children recurse; each
    # is a singleton node, as is the root, so none of them builds an
    # Instance either. Each of the 11 calls run, the four leaf children at
    # 3, 6, 10 and 14 included, enters _node_vector once.
    g = Graph(16, [(i, (i + 1) % 16) for i in range(16)] + [(0, 8), (4, 12)])
    pins = {5: 1, 11: 1, 14: 2}
    inst = _inst(g, 4, "0.5", pins)
    vec, diag = marginal_vector(inst, 0, 2)
    assert [
        (v, None if edges is None else sorted(set(g.edges) - set(edges)))
        for v, edges, _ in children
    ] == [
        (0, []),
        (1, [(0, 1), (0, 8), (0, 15)]),
        (2, [(0, 1), (0, 8), (0, 15), (1, 2)]),
        (3, None),
        (8, [(0, 8), (0, 15)]),
        (7, [(0, 8), (0, 15), (7, 8), (8, 9)]),
        (6, None),
        (9, [(0, 8), (0, 15), (8, 9)]),
        (10, None),
        (15, [(0, 15)]),
        (14, None),
    ]
    assert [child_pins for _, _, child_pins in children] == [pins] * 11
    assert made == []
    assert vec == [
        0.24489795918367346, 0.26530612244897955, 0.24489795918367346, 0.24489795918367346
    ]
    assert (diag.recursive_calls, diag.termination_events, diag.infeasible_events) == (56, 21, 0)
    assert (diag.max_block_size, diag.max_f_size) == (1, 4)
    assert (diag.evaluations, diag.cache_hits) == (11, 9)


@pytest.mark.parametrize("pins, ell", [({1: 2}, 3), ({}, 0)])
def test_leaf_child_checks_limits(pins, ell):
    # Edge 0 - 1 at beta 0.5: the root's one child is a leaf, pinned or
    # depth-exhausted, and is the second call.
    inst = _inst(Graph(2, [(0, 1)]), 3, "0.5", pins)
    _, diag = marginal_vector(inst, 0, ell)
    assert diag.recursive_calls == 2
    with pytest.raises(BudgetError, match="call budget"):
        marginal_vector(inst, 0, ell, RecursionLimits(max_calls=1))


@pytest.mark.parametrize("x", [-math.inf, -0.0, 0.0, -3.25, 1e-300, 7.5])
def test_logsumexp_of_one_term_is_the_term(x):
    assert decay._logsumexp([x]) == x
    assert decay._logsumexp([x, -math.inf]) == x


# ------------------------------------------------------------ scalar dispatch


def test_marg_requires_positive_beta():
    g = generate("path", n=3)
    with pytest.raises(ParseError, match="marg_coloring"):
        marg(_inst(g, 7, "0"), 0, 1, 4)
    with pytest.raises(ParseError, match="marg"):
        marg_coloring(_inst(g, 7, "0.5"), 0, 1, 4)


def test_scalar_validation():
    g = generate("path", n=3)
    inst = _inst(g, 7)
    with pytest.raises(ParseError, match="q >= 3"):
        marg_coloring(_inst(g, 2, "0"), 0, 1, 4)
    with pytest.raises(ParseError, match="out of range"):
        marg_coloring(inst, 3, 1, 4)
    with pytest.raises(ParseError, match="out of range"):
        marg_coloring(inst, -1, 1, 4)
    for color in (0, 8):
        with pytest.raises(ParseError, match="color"):
            marg_coloring(inst, 0, color, 4)
    with pytest.raises(ParseError, match="color"):
        marg(_inst(g, 7, "0.5"), 0, 9, 4)


@pytest.mark.parametrize("v", [1.5, True, "0", None])
def test_vertex_must_be_an_int(v):
    # True == 1 would silently answer for vertex 1; 1.5 reached a list index.
    inst = _inst(generate("cycle", n=6), 4)
    with pytest.raises(ParseError, match="vertex must be an integer"):
        marginal_vector(inst, v, 2)
    with pytest.raises(ParseError, match="vertex must be an integer"):
        marg_coloring(inst, v, 1, 2)
    with pytest.raises(ParseError, match="vertex must be an integer"):
        decay.read_region(inst, v, 2)


# ----------------------------------------------------------- recursion values


def test_pinned_vertex_is_a_point_mass():
    g = generate("path", n=3)
    inst = _inst(g, 7, pins={1: 4})
    vec, diag = marginal_vector(inst, 1, 5)
    assert vec == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    assert diag.recursive_calls == 1


def test_path3_pinned_end_exact():
    # q=3 path 0-1-2 with c(0)=1: far end sees [1/2, 1/4, 1/4]
    g = generate("path", n=3)
    inst = _inst(g, 3, pins={0: 1})
    vec, diag = marginal_vector(inst, 2, 8)
    assert diag.termination_events == 0
    for got, want in zip(vec, (0.5, 0.25, 0.25)):
        assert math.isclose(got, want, abs_tol=1e-12)
    mid, _ = marginal_vector(inst, 1, 8)
    for got, want in zip(mid, (0.0, 0.5, 0.5)):
        assert math.isclose(got, want, abs_tol=1e-12)


def test_forced_color():
    # triangle with two pinned corners leaves one choice
    g = generate("complete", n=3)
    inst = _inst(g, 3, pins={0: 1, 1: 2})
    vec, _ = marginal_vector(inst, 2, 4)
    assert vec == [0.0, 0.0, 1.0]
    p, diag = marg_coloring(inst, 2, 3, 4)
    assert p == 1.0
    assert diag.termination_events == 0


def test_edge_with_pinned_neighbor_beta_half():
    # Pr[match the pin] = beta / (q - 1 + beta) on a single edge
    g = generate("path", n=2)
    inst = _inst(g, 3, "0.5", pins={0: 1})
    vec, _ = marginal_vector(inst, 1, 6)
    assert math.isclose(vec[0], 0.5 / 2.5, rel_tol=1e-12)
    assert math.isclose(vec[1], 1.0 / 2.5, rel_tol=1e-12)
    assert math.isclose(vec[2], 1.0 / 2.5, rel_tol=1e-12)
    p, _ = marg(inst, 1, 1, 6)
    assert math.isclose(p, 0.2, rel_tol=1e-12)


def test_path3_center_beta_half_matches_oracle():
    g = generate("path", n=3)
    inst = _inst(g, 3, "0.5")
    want = exact_marginal_vector(inst, 1)
    got, diag = marginal_vector(inst, 1, 6)
    assert diag.termination_events == 0
    for a, b in zip(got, want):
        assert math.isclose(a, b, abs_tol=1e-12)


def test_full_depth_matches_oracle_random(corpus200):
    # spot check a slice of the shared corpus at depth n (exact regime)
    rng_slice = corpus200[::40]
    assert len(rng_slice) >= 5
    for inst in rng_slice:
        n = inst.graph.n
        unpinned = [v for v in range(n) if v not in inst.pinned]
        v = unpinned[0]
        got, _ = marginal_vector(inst, v, n, RecursionLimits(config_budget=2**22))
        want = exact_marginal_vector(inst, v)
        for a, b in zip(got, want):
            assert math.isclose(a, b, abs_tol=1e-9)


# -------------------------------------------------------------- base cases


def test_beta_positive_base_case_uniform():
    g = generate("complete", n=4)
    inst = _inst(g, 5, "0.5")
    p, diag = marg(inst, 0, 2, -1)
    assert p == 0.2
    assert diag.termination_events == 1
    assert diag.recursive_calls == 1


def test_beta_zero_base_case_feasibility_indicator():
    # pinned neighbors rule out colors 1 and 2 even in the truncated base case
    g = generate("star", k=2)
    inst = _inst(g, 3, pins={1: 1, 2: 2})
    vec, diag = marginal_vector(inst, 0, -1)
    assert diag.termination_events == 1
    assert vec == [0.0, 0.0, 1.0 / 3.0]


def test_beta_zero_base_case_infeasible_block():
    g = generate("complete", n=4)
    inst = _inst(g, 3)
    vec, diag = marginal_vector(inst, 0, -1)
    assert vec == [0.0, 0.0, 0.0]
    assert diag.infeasible_events == 1
    with pytest.raises(InfeasibleError, match="all colors infeasible"):
        marginal_distribution(inst, 0, -1)


@pytest.mark.parametrize("pins", [{}, {2: 1, 3: 2}, {2: 1, 3: 2, 4: 3, 5: 4, 6: 5}])
def test_beta_zero_cut_off_counts_F_without_building_it(monkeypatch, pins):
    # Leaf 1's block is {centre 0, leaf 1} (the centre's degree 7 is high at
    # q = 6); five pinned leaves force the centre to colour 6, so leaf 1
    # cannot take it. The cut-off at ell < 0 reads |F| and leaf 1's colours
    # in F from the search, and never calls feasible_tuples.
    inst = _inst(generate("star", k=7), 6, pins=pins)
    block = minimal_permissive_block(inst, [1])
    F = feasible_tuples(inst, block.vertices)
    ok = {t[block.vertices.index(1)] for t in F}
    expect = [1.0 / 6 if x in ok else 0.0 for x in range(1, 7)]

    def no_tuples(*args):
        raise AssertionError("the cut-off built F")

    monkeypatch.setattr(decay, "feasible_tuples", no_tuples)
    vec, diag = marginal_vector(inst, 1, -1)
    assert vec == expect
    assert (diag.max_block_size, diag.max_f_size, diag.termination_events) == (2, len(F), 1)
    vec, _ = marginal_vector(inst, 1, -1, RecursionLimits(config_budget=len(F)))
    assert vec == expect
    # One configuration over the budget raises feasible_tuples' own error.
    with pytest.raises(BudgetError) as err:
        marginal_vector(inst, 1, -1, RecursionLimits(config_budget=len(F) - 1))
    assert str(err.value) == f"feasible-configuration budget {len(F) - 1} exceeded"
    assert err.value.diagnostics.max_f_size == 0


def test_infeasible_instance_raises_at_positive_depth():
    g = generate("complete", n=4)
    inst = _inst(g, 3)
    with pytest.raises(InfeasibleError):
        marg_coloring(inst, 0, 1, 3)


# ------------------------------------------------------------- distribution


def test_marginal_distribution_normalizes():
    g = generate("cycle", n=8)
    inst = _inst(g, 7)
    # shallow depth: raw entries are truncation estimates, sum drifts from 1
    vec, diag = marginal_vector(inst, 0, 1)
    dist_vec, ddiag = marginal_distribution(inst, 0, 1)
    assert math.isclose(sum(dist_vec), 1.0, rel_tol=1e-12)
    assert diag.raw_sum is not None
    for raw, normed in zip(vec, dist_vec):
        assert math.isclose(normed, raw / diag.raw_sum, rel_tol=1e-12)
    assert ddiag.raw_sum == diag.raw_sum


def test_scalar_diag_has_no_raw_sum():
    g = generate("path", n=3)
    _, diag = marg_coloring(_inst(g, 7), 0, 1, 4)
    assert diag.raw_sum is None
    assert diag.recursive_calls >= 1
    assert diag.max_block_size >= 1
    assert diag.max_f_size >= 1


def test_diagnostics_dict_round_trip():
    g = generate("path", n=4)
    vec, diag = marginal_vector(_inst(g, 7), 1, 5)
    d = diag.as_dict()
    assert set(d) == {
        "recursive_calls",
        "termination_events",
        "max_block_size",
        "max_f_size",
        "infeasible_events",
        "evaluations",
        "cache_hits",
        "raw_sum",
    }
    assert d["recursive_calls"] == diag.recursive_calls
    assert d["raw_sum"] == pytest.approx(sum(vec))


# -------------------------------------------------------------- block queries


def test_marg_block_star_pair():
    # 42 symmetric feasible configurations, deep recursion splits them evenly
    g = generate("star", k=5)
    inst = _inst(g, 7)
    block = minimal_permissive_block(inst, (1,))
    p = marg_block(inst, block, {0: 1, 1: 2}, 12, anchor=1)
    assert math.isclose(p, 1.0 / 42.0, rel_tol=1e-9)


def test_marg_block_no_boundary_is_gibbs_weight():
    # m=0 block: the estimate is exactly w(pi) / sum of w over F
    g = generate("complete", n=3)
    inst = _inst(g, 3)
    block = minimal_permissive_block(inst, (0,))
    assert block.m == 0
    p = marg_block(inst, block, {0: 1, 1: 2, 2: 3}, 5)
    assert math.isclose(p, 1.0 / 6.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "family, n, beta, ell", [("path", 3, "0.5", 2), ("cycle", 6, "0", 3)], ids=["path", "cycle"]
)
def test_marg_block_requires_q_at_least_3(family, n, beta, ell):
    # marg_block used to run at q = 2 and return 0.5 on both, where
    # marginal_vector refuses.
    inst = _inst(generate(family, n=n), 2, beta)
    block = Block([1], [(1, 0), (1, 2)])
    with pytest.raises(ParseError, match="q >= 3"):
        marg_block(inst, block, {1: 1}, ell)


def test_marg_block_rejects_partial_or_infeasible_pi():
    g = generate("star", k=5)
    inst = _inst(g, 7)
    block = minimal_permissive_block(inst, (1,))
    with pytest.raises(ParseError, match="uncolored"):
        marg_block(inst, block, {0: 1}, 6)
    with pytest.raises(ParseError, match="not a feasible"):
        marg_block(inst, block, {0: 1, 1: 1}, 6)


def test_marg_block_default_anchor_is_lowest_vertex():
    g = generate("star", k=5)
    inst = _inst(g, 7)
    block = minimal_permissive_block(inst, (1,))
    assert marg_block(inst, block, {0: 3, 1: 4}, 9) == marg_block(
        inst, block, {0: 3, 1: 4}, 9, anchor=0
    )


def test_marg_block_singleton_anchor_must_be_inside():
    inst = _inst(generate("cycle", n=6), 4, "0.5")
    block = minimal_permissive_block(inst, (0,))
    assert block.vertices == (0,)
    with pytest.raises(ParseError, match="anchor 3 is not in the block"):
        marg_block(inst, block, {0: 1}, 2, anchor=3)
    for anchor in (0.0, True):
        with pytest.raises(ParseError, match="vertex must be an integer"):
            marg_block(inst, block, {0: 1}, 2, anchor=anchor)


def test_marg_block_rejects_a_block_the_instance_does_not_have():
    # cycle(6): vertex 0's edges leave to 1 and 5. Each of these blocks
    # answered 0.25 or 0.2499... before it was checked; a pinned block
    # vertex's true answer is 0.
    inst = _inst(generate("cycle", n=6), 4, "0.5")
    with pytest.raises(ParseError, match="block vertex 0 is pinned"):
        marg_block(_inst(inst.graph, 4, "0.5", {0: 2}), Block((0,), ((0, 1), (0, 5))), {0: 1}, 3)
    wrong = [(0, 1), (0, 3)], [(0, 1)], [(0, 1), (0, 1), (0, 5)], [(1, 0), (0, 5)], [(0, 1), 5]
    for boundary in wrong:
        with pytest.raises(ParseError, match="boundary_edges must list each edge leaving"):
            marg_block(inst, Block((0,), boundary), {0: 1}, 3)
    for verts in ((6,), (-1,), (0.5,)):
        with pytest.raises(ParseError, match="vertex"):
            marg_block(inst, Block(verts, ()), {verts[0]: 1}, 3)
    with pytest.raises(ParseError, match="at least one vertex"):
        marg_block(inst, Block((), ()), {}, 3)
    good = Block((0,), [[0, 5], (0, 1)])  # any order, pairs as lists or tuples
    assert marg_block(inst, good, {0: 1}, 3) == marg_block(
        inst, minimal_permissive_block(inst, (0,)), {0: 1}, 3
    ) == 0.25


@pytest.mark.parametrize("beta", ["0", "0.5"])
def test_singleton_blocks_skip_escape_walk(beta, monkeypatch):
    # On a cycle at q = 6 every block is one vertex, and _lean_vector serves
    # every node: no node reaches _block_terms, which would walk escape
    # paths and scan internal edges, and the answer is unchanged.
    inst = _inst(generate("cycle", n=9), 6, beta, {4: 2})
    want = marginal_vector(inst, 0, 6)

    def forbidden(*args):
        raise AssertionError("called for a singleton block")

    monkeypatch.setattr(decay, "escape_paths", forbidden)
    monkeypatch.setattr(Graph, "induced_edges", forbidden)
    vec, diag = marginal_vector(inst, 0, 6)
    assert diag.max_block_size == 1
    assert (vec, diag) == want


def test_marg_block_probabilities_sum_to_one():
    g = generate("star", k=3)
    inst = _inst(g, 5)
    block = minimal_permissive_block(inst, (1,))
    total = 0.0
    for t in feasible_tuples(inst, block.vertices):
        total += marg_block(inst, block, dict(zip(block.vertices, t)), 8, anchor=1)
    assert math.isclose(total, 1.0, rel_tol=1e-9)


# --------------------------------------------------------------- error bound


def test_error_bound_validation():
    g = generate("path", n=5)
    params = PottsParams(7, "0")
    with pytest.raises(ParseError, match="depth"):
        error_bound(g, 0, 0, params, 0.5)
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ParseError, match="alpha"):
            error_bound(g, 0, 2, params, alpha)
    for alpha in ("0.5", None, True):
        with pytest.raises(ParseError, match="alpha must be a real number"):
            error_bound(g, 0, 2, params, alpha)
    with pytest.raises(ParseError, match="prefactor"):
        error_bound(g, 0, 2, params, 0.5, prefactor="optimistic")
    for v in (5, 99, -1):
        with pytest.raises(ParseError, match="out of range"):
            error_bound(g, v, 2, params, 0.5)
    for v in (1.5, True):
        with pytest.raises(ParseError, match="vertex must be an integer"):
            error_bound(g, v, 2, params, 0.5)
    for L in (1.5, True, "2"):
        with pytest.raises(ParseError, match="depth must be an integer"):
            error_bound(g, 0, L, params, 0.5)


def test_error_bound_matches_profile_tail():
    # beta=0: bound = n*ln(q) * tail of the contraction-weighted path sums
    g = generate("path", n=3)
    params = PottsParams(7, "0")
    got = error_bound(g, 0, 1, params, 0.5)
    prof = e_delta_profile(g, 0, 2, params)
    assert math.isclose(got, 3 * math.log(7) * prof[2], rel_tol=1e-12)


def test_error_bound_monotone_in_depth():
    g = generate("path", n=30)
    params = PottsParams(7, "0")
    vals = [error_bound(g, 15, L, params, 0.5) for L in (2, 4, 6, 8)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_error_bound_prefactor_modes():
    g = generate("path", n=12)
    params = PottsParams(7, "0.25")
    wide = error_bound(g, 5, 3, params, 0.5)
    tight = error_bound(g, 5, 3, params, 0.5, prefactor="degree")
    assert 0 < tight < wide
    # at beta=0 the mode makes no difference
    p0 = PottsParams(7, "0")
    assert error_bound(g, 5, 3, p0, 0.5) == error_bound(
        g, 5, 3, p0, 0.5, prefactor="degree"
    )
