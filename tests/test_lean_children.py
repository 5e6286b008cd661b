"""Children that fall back to the general path, and children that do not.

Every call of the recursion, the root's and each child's, enters
`decay._node_vector` as the root graph, the removed edges and the pins.
`_lean_vector` evaluates the call there when its block is one vertex;
otherwise `_node_vector` builds the call's view and Instance, the only
Instance `decay` builds, and runs the general path on them.

These tests draw instances on which both kinds of child occur: hub/connector
graphs at beta > 0, and at beta = 0 with ell >= 1. A hub whose connectors are
all low-degree is a singleton node, and a connector child whose other hub is
still high-degree falls back. The draws also cover pinned neighbours, keyed
indices (children that read the node's pin, whose node `_lean_vector`
declines before it counts anything) and max_calls caps that abort inside a
child's subtree. Each run is compared with the general path
(the evaluator patched to return None) with `==` on the vector and every
`MargDiagnostics` field, or on the error's type, message and partial
diagnostics. Every view that decay builds from a root and a removed set must
equal `Graph.remove_edges` of that set, edges and rows alike.

The property test needs Hypothesis (in the `test` extras) and skips without
it; the fixed case runs without it.
"""

from dataclasses import asdict
from unittest import mock

from pottsdecay import (
    BudgetError,
    Graph,
    Instance,
    MargDiagnostics,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    marginal_vector,
    minimal_permissive_block,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property test skips
    given = None


def _outcome(inst, v, ell, limits):
    """marginal_vector's vector and diagnostics, or the error's type name,
    message and partial diagnostics."""
    try:
        vec, diag = marginal_vector(inst, v, ell, limits)
    except PottsError as err:
        partial = getattr(err, "diagnostics", None)
        return type(err).__name__, str(err), partial and asdict(partial)
    return vec, asdict(diag)


class _Seen:
    """What one run did: fallbacks (the Instances decay built), keyed
    indices (those whose children get prefix pins), the views decay built,
    and errors that left a child's subtree."""

    def __init__(self):
        self.fallbacks = 0
        self.keyed = 0
        self.views = []
        self.aborted_in_child = False
        self.depth = 0  # _node_vector calls open, the root's included


def _observed(inst, v, ell, limits):
    """_outcome of the evaluator's run, with what it did."""
    seen = _Seen()
    view, memo_child, node_vector = decay._view, decay._memo_child, decay._node_vector

    class Counted(Instance):
        __slots__ = ()

        def __init__(self, *args):
            seen.fallbacks += 1
            super().__init__(*args)

    def recorded_view(root, removed):
        out = view(root, removed)
        seen.views.append((root, removed, out))
        return out

    def counted_memo_child(memo, key, diag, limits, root, removed, params, pinned, at, *rest):
        # An index's children share one memo, empty at its first child.
        seen.keyed += bool(at) and not memo
        return memo_child(memo, key, diag, limits, root, removed, params, pinned, at, *rest)

    def watched_node(*args):
        seen.depth += 1
        try:
            return node_vector(*args)
        except BudgetError:
            seen.aborted_in_child |= seen.depth > 1
            raise
        finally:
            seen.depth -= 1

    with mock.patch.multiple(
        decay,
        Instance=Counted,
        _view=recorded_view,
        _memo_child=counted_memo_child,
        _node_vector=watched_node,
    ):
        out = _outcome(inst, v, ell, limits)
    return out, seen


def _check(inst, v, ell, limits):
    """Assert the evaluator's run equals the general path's; return what it did."""
    out, seen = _observed(inst, v, ell, limits)
    with mock.patch.object(decay, "_lean_vector", lambda *args: None):
        general = _outcome(inst, v, ell, limits)
    assert out == general
    for root, removed, view in seen.views:
        ref = root.remove_edges(removed)
        assert (view.n, view.m, view.edges) == (ref.n, ref.m, ref.edges)
        assert list(view.adjacency) == list(ref.adjacency)
    return out, seen


def _hubs(hubs, pairs):
    """Hubs 0..hubs-1; connector hubs + c joins the two hubs of pairs[c]."""
    edges = []
    for c, (a, b) in enumerate(pairs):
        edges += [(a, hubs + c), (b, hubs + c)]
    return Graph(hubs + len(pairs), edges)


# Three hubs of degree 4 at q = 4, beta 0.5 (hubs are high-degree from
# degree 4 on, connectors have degree 2): a hub is a singleton node, and each
# connector child falls back, its block holding the connector and its other
# hub. Connector 8 (joining hubs 1 and 2) is pinned.
FIXED = (
    _hubs(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]),
    PottsParams(4, "0.5"),
    {8: 3},
)


def test_fixed_mixed_case_covers_fallbacks_keyed_indices_and_caps():
    graph, params, pins = FIXED
    inst = Instance(graph, params, pins)
    out, seen = _check(inst, 0, 3, RecursionLimits())
    assert isinstance(out[0], list)
    # The root is declined, so its general path repeats its region walks
    # and builds its own Instance, the first of the 13, on the root graph.
    assert (seen.fallbacks, seen.keyed, len(seen.views)) == (13, 2, 22)
    calls = out[1]["recursive_calls"]
    assert calls == 607
    inside = 0
    for cap in range(1, calls, 20):
        out, seen = _check(inst, 0, 3, RecursionLimits(max_calls=cap))
        assert out[0] == BudgetError.__name__
        inside += seen.aborted_in_child
    assert inside > 0
    out, _ = _check(inst, 0, 3, RecursionLimits(max_calls=calls))
    assert out[1]["recursive_calls"] == calls


def test_singleton_children_of_general_nodes_build_no_instance():
    # The root hub is a one-vertex block whose children can read its pin, so
    # _lean_vector declines it and _node_vector builds the root's own
    # Instance, the first one built, for _block_vector. Its connector
    # children fall back: each connector's block holds the connector and its
    # other hub. Six children of those blocks are one-vertex blocks, which
    # _lean_vector serves, so every other Instance decay builds goes to a
    # node whose block has more than one vertex.
    graph, params, pins = FIXED
    inst = Instance(graph, params, pins)
    built, blocks = [], {}
    block_vector = decay._block_vector

    class Recorded(Instance):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recorded_block(instance, v, *rest):
        blocks[id(instance)] = minimal_permissive_block(instance, (v,)).vertices
        return block_vector(instance, v, *rest)

    with mock.patch.multiple(decay, Instance=Recorded, _block_vector=recorded_block):
        out = marginal_vector(inst, 0, 3)
    assert out == marginal_vector(inst, 0, 3)
    assert len(built) == 13
    assert set(blocks) == {id(node) for node in built}
    assert built[0].pinned == inst.pinned and built[0].graph.edges == graph.edges
    assert blocks.pop(id(built[0])) == (0,)
    assert all(len(block) > 1 for block in blocks.values())


def test_root_whose_children_read_its_pin_is_declined():
    # At index 1 of the root hub 0, the connector children reach back to 0
    # through their other hub, so _lean_vector declines the root before it
    # evaluates or counts anything, and the general path gives the result.
    graph, params, pins = FIXED
    inst = Instance(graph, params, pins)
    diag = MargDiagnostics()
    limits = RecursionLimits()
    assert decay._lean_vector(graph.root, graph.removed, params, pins, 0, 3, diag, limits) is None
    assert diag == MargDiagnostics()
    vec, got = marginal_vector(inst, 0, 3)
    with mock.patch.object(decay, "_lean_vector", lambda *args: None):
        general = marginal_vector(inst, 0, 3)
    assert (vec, got) == general


if given is not None:

    # (q, beta) at which a connector (degree 2) is low-degree and a hub is
    # high-degree from degree 3 (q = 6, beta = 0), 4 (q = 7, beta = 0; q = 5,
    # beta 0.25; q = 4, beta 0.5) or 5 (q = 6, beta 0.25) on.
    _PARAMS = [(6, "0"), (7, "0"), (5, "0.25"), (6, "0.25"), (4, "0.5")]

    @st.composite
    def _mixed(draw):
        hubs = draw(st.integers(2, 4))
        pair = st.tuples(st.integers(0, hubs - 1), st.integers(0, hubs - 1))
        pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), min_size=4, max_size=12))
        graph = _hubs(hubs, pairs)
        n = graph.n
        q, beta = draw(st.sampled_from(_PARAMS))
        pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q), max_size=n // 4))
        inst = Instance(graph, PottsParams(q, beta), pins)
        v = draw(st.sampled_from([u for u in range(n) if u not in pins]))
        # beta = 0 is served only at ell >= 1.
        ell = draw(st.integers(0 if beta != "0" else 1, 5))
        cap = None
        if draw(st.booleans()):
            # A cap below the run's call count aborts somewhere inside it.
            try:
                calls = marginal_vector(inst, v, ell)[1].recursive_calls
            except PottsError:
                calls = 1
            cap = draw(st.integers(1, calls))
        return inst, v, ell, RecursionLimits(max_calls=cap)

    @settings(max_examples=300, deadline=None)
    @given(_mixed())
    def test_mixed_regime_matches_general_path(case):
        _check(*case)
