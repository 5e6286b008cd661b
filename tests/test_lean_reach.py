"""The reach pre-filter of `decay._lean_vector` (see "Singleton blocks" in
`decay`'s docstring): index i's region walk runs only once an earlier
neighbour w_j (j < i) of the node's vertex v is unpinned. In child i's graph
v's only edges run to w_0 ... w_{i-1}, and a walk adds v to its region only
from an expanded vertex's row or from the search over B*, both of which
skip pinned vertices; so while every earlier neighbour is pinned no walk
can reach v, and the skipped walk could not have declined the node.

The property test needs Hypothesis (in the `test` extras) and skips without
it; the other tests run without it.
"""

import sys
from unittest import mock

from pottsdecay import Graph, Instance, PottsParams, decay, generate_cycle, sample_batch
from pottsdecay.graph import _kept_row, _view

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property test skips
    given = None


def _child_regions(graph, params, pinned, removed, v, ell):
    """[(whether w_0 .. w_{i-1} are all pinned, child i's read region)] over
    the indices i of the node at v with depth ell on graph minus `removed`."""
    nbrs = _kept_row(graph.adjacency, removed, v)
    bedges = [(v, w) if v < w else (w, v) for w in nbrs]
    out = []
    for i, w in enumerate(nbrs):
        view = _view(graph, removed.union(bedges[i:]))
        region = decay._read_region(view, params, pinned, w, ell - 1)
        out.append((all(u in pinned for u in nbrs[:i]), region))
    return out


def test_an_unpinned_earlier_neighbour_opens_the_walk():
    # Triangle 0-1-2 at v = 0: child 1's graph keeps the edges (0, 1) and
    # (1, 2), so its walk from 2 reaches 0 through 1 unless 1 is pinned.
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    params = PottsParams(6, "0.5")
    for pinned, reached in (({}, True), ({1: 3}, False)):
        (_, first), (closed, second) = _child_regions(
            g, params, pinned, frozenset(), 0, 3
        )
        assert 0 not in first and closed == (not reached)
        assert (0 in second) == reached


def _lean_walks(inst, ell, n_samples, seed):
    """sample_batch's batch and the number of region walks _lean_vector made."""
    walks = 0
    walk = decay._read_region

    def counted(*args):
        nonlocal walks
        if sys._getframe(1).f_code.co_name == "_lean_vector":
            walks += 1
        return walk(*args)

    with mock.patch.object(decay, "_read_region", counted):
        batch = sample_batch(inst, ell, n_samples, seed=seed)
    return batch, walks


def test_sampler_on_a_cycle_walks_once():
    # perfbench's sample-cycle op. Below its root, a node on a cycle keeps
    # one neighbour. The sampler pins vertices in ascending order, so every
    # root but vertex 0 has its lower neighbour, w_0, pinned, and vertex 0's
    # one conditional makes the one walk, against 42 without the pre-filter.
    inst = Instance(generate_cycle(40), PottsParams(6, 0))
    batch, walks = _lean_walks(inst, 4, 5, seed=1)
    assert walks == 1
    assert batch.conditionals_evaluated == 43
    # The log proposals that walking every index gives, and those of the
    # general path, which makes no lean walk.
    assert batch.log_proposals == [
        -64.37751443207854,
        -64.37758873747913,
        -64.37758873747913,
        -64.37751443207854,
        -64.37751443207854,
    ]
    with mock.patch.object(decay, "_lean_vector", lambda *args: None):
        general = sample_batch(inst, 4, 5, seed=1)
    assert general.log_proposals == batch.log_proposals
    assert general.configurations == batch.configurations


if given is not None:

    @st.composite
    def _node(draw):
        # q = 3 at beta = 0 makes every vertex with an edge high-degree, so
        # the walk's search over B* runs as well as its one-hop step.
        n = draw(st.integers(2, 8))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        g = Graph(n, [e for e in pairs if draw(st.booleans())])
        params = PottsParams(draw(st.integers(3, 6)), draw(st.sampled_from(["0", "0.5"])))
        v = draw(st.integers(0, n - 1))
        others = [u for u in range(n) if u != v]
        pinned = draw(st.dictionaries(st.sampled_from(others), st.integers(1, params.q)))
        removed = frozenset(e for e in g.edges if draw(st.integers(0, 3)) == 0)
        return g, params, pinned, removed, v, draw(st.integers(0, 6))

    @settings(max_examples=300, deadline=None)
    @given(_node())
    def test_no_walk_reaches_v_while_every_earlier_neighbour_is_pinned(case):
        for closed, region in _child_regions(*case):
            if closed:
                assert case[4] not in region
