"""Property test: decay.read_region bounds what the estimate reads.

Pins outside the region are added, removed or recoloured; the estimate's
vector and its naive counters must not move, or it must fail the same way.
Needs Hypothesis (in the `test` extras); the module skips without it.
"""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pottsdecay import (  # noqa: E402
    Graph,
    Instance,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    generate,
    marginal_vector,
)

COUNTERS = ("recursive_calls", "termination_events", "infeasible_events", "max_block_size",
            "max_f_size")


@st.composite
def _graphs(draw):
    kind = draw(st.sampled_from(["random", "path", "star", "caterpillar"]))
    if kind == "path":
        return generate("path", n=draw(st.integers(2, 8)))
    if kind == "star":
        return generate("star", k=draw(st.integers(2, 6)))
    if kind == "caterpillar":
        return generate("caterpillar", n=draw(st.integers(1, 3)), k=draw(st.integers(1, 2)))
    # Each pair is an edge with probability 1/3: sparse enough that pins
    # often sit just beyond the reach of the estimate.
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if draw(st.integers(0, 2)) == 0])


@st.composite
def _instance_and_query(draw):
    g = draw(_graphs())
    n = g.n
    q = draw(st.integers(3, 7))
    beta = draw(st.sampled_from(["0", "0.25", "0.5"]))
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q), max_size=n - 1))
    v = draw(st.sampled_from([u for u in range(n) if u not in pins]))
    ell = draw(st.sampled_from([0, 1, 2, n]))
    return Instance(g, PottsParams(q, beta), pins), v, ell


def _run(inst, v, ell):
    """(vector, counters), or the error's type and message.

    A max_calls abort's message reports the termination events counted so
    far, which depend on where the colour memo hit; that part is dropped.
    """
    try:
        vec, diag = marginal_vector(inst, v, ell, RecursionLimits(max_calls=20_000))
    except PottsError as err:
        return type(err).__name__, re.sub(r" \(termination_events=\d+\)", "", str(err))
    return vec, tuple(getattr(diag, name) for name in COUNTERS)


@settings(max_examples=200, deadline=None)
@given(_instance_and_query(), st.data())
def test_pins_outside_region_are_not_read(case, data):
    inst, v, ell = case
    q = inst.params.q
    region = decay.read_region(inst, v, ell)
    assert v in region
    pins = {u: c for u, c in inst.pinned.items() if u in region}
    for u in range(inst.graph.n):
        if u in region:
            continue
        # None leaves u unpinned; a colour pins u to it.
        c = data.draw(st.one_of(st.none(), st.integers(1, q)))
        if c is not None:
            pins[u] = c
    other = Instance(inst.graph, inst.params, pins)
    assert decay.read_region(other, v, ell) == region
    assert _run(other, v, ell) == _run(inst, v, ell)


def test_region_of_a_leaf_is_the_vertex():
    # beta > 0 with ell < 0 reads only v's pin; at beta = 0 the
    # cut-off still reads v's block (here {2}) and its neighbours.
    g = generate("path", n=5)
    assert decay.read_region(Instance(g, PottsParams(4, "0.5")), 2, -1) == {2}
    assert decay.read_region(Instance(g, PottsParams(6, "0")), 2, -1) == {1, 2, 3}


def test_region_on_a_cycle_is_a_ball():
    # Low-degree cycle: singleton blocks, so depth e reads up to e + 2 hops.
    g = generate("cycle", n=20)
    inst = Instance(g, PottsParams(6, "0"))
    assert decay.read_region(inst, 0, 2) == {18, 19, 0, 1, 2} | {16, 17, 3, 4}


def test_cut_off_reads_pinned_neighbours():
    # On a path at q = 6 every vertex is low-degree. The estimate at 0 with
    # depth 0 cuts off at 1, whose feasible colours avoid the pin on 2, so
    # 2 is read although it is two hops away.
    g = generate("path", n=4)
    params = PottsParams(6, "0")
    inst = Instance(g, params, {2: 1})
    assert decay.read_region(inst, 0, 0) == {0, 1, 2}
    recoloured = Instance(g, params, {2: 3})
    assert _run(recoloured, 0, 0) != _run(inst, 0, 0)
