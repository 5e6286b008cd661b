"""Differential tests of `exact._sweep`, the one numpy sweep behind the beta > 0
oracles and the Gibbs table, against the two enumerators it replaced.

The replaced code is kept below: `_reference_gibbs_table`, a Python loop over
`itertools.product` that weighs each configuration with
`model.monochromatic_edges`, and `_reference_vector_enumerate`, a chunked
numpy sweep that raised beta to each chunk's monochromatic counts with numpy's
power, which `_reference_enumerate` scaled by beta**mono_base afterwards. A
reference run of `exact_partition`, `exact_marginal_vector` or
`exact_block_marginal` patches `_reference_enumerate` into `exact`.

The sweep reads each weight from a table of Python floats beta**m, so every
weight is `model.weight`'s float, and the Gibbs table must equal the old
loop's with `==`, in item order too. At beta = 0 every oracle float must be
`==` to the reference's. At beta > 0 the oracles' floats may move in the last
bits, because numpy's power and the post-scaling round differently.
`exact_partition` and `exact_block_marginal` read pairwise sums and are
compared within 1e-15 relative. `exact_marginal_vector` reads `np.bincount`'s
sums, which add a colour's weights one at a time, so a one-ulp change in the
weights moves each sum's rounding by up to about sqrt(N) ulps over N terms
(7.8e-15 relative seen on n <= 8); it is compared within 1e-13 relative.

The property test needs Hypothesis (in the `test` extras) and skips without
it; the seeded tests run without it.
"""

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

from pottsdecay import (
    BudgetError,
    Graph,
    InfeasibleError,
    Instance,
    PottsParams,
    exact,
    exact_block_marginal,
    exact_gibbs_table,
    exact_marginal_vector,
    exact_partition,
    generate_complete,
    generate_cycle,
    weight,
)
from pottsdecay.model import monochromatic_edges

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property test skips
    given = None


def _reference_gibbs_table(instance, budget=10**6):
    graph = instance.graph
    params = instance.params
    unp = instance.unpinned()
    total = params.q ** len(unp)
    if total > budget:
        raise BudgetError(
            f"Gibbs table budget {budget} exceeded: q^unpinned = {params.q}^{len(unp)}"
        )
    beta = params.beta_float
    colors = [instance.pinned.get(v) for v in range(graph.n)]
    law = {}
    for combo in itertools.product(range(1, params.q + 1), repeat=len(unp)):
        for v, c in zip(unp, combo):
            colors[v] = c
        mono = monochromatic_edges(graph, colors)
        w = 1.0 if mono == 0 else beta**mono
        if w > 0.0:
            law[tuple(colors)] = w
    if not law:
        raise InfeasibleError("Gibbs table has zero total weight")
    z = math.fsum(law.values())
    for key, w in law.items():
        law[key] = w / z
    return law


def _reference_vector_enumerate(instance, active, budget, root=None):
    graph = instance.graph
    q = instance.params.q
    beta = instance.params.beta_float
    pinned = instance.pinned
    k = len(active)
    total = q**k
    if total > budget:
        raise BudgetError(f"enumeration budget {budget} exceeded: q^k = {q}^{k}")
    pos = {v: i for i, v in enumerate(active)}
    aa_edges = []
    ap_edges = []
    for u, v in graph.edges:
        iu, iv = pos.get(u), pos.get(v)
        if iu is not None and iv is not None:
            aa_edges.append((iu, iv))
        elif iu is not None:
            ap_edges.append((iu, pinned[v] - 1))
        elif iv is not None:
            ap_edges.append((iv, pinned[u] - 1))
    root_pos = pos[root] if root is not None else None
    z_parts = []
    vec_parts = []
    for lo in range(0, total, exact._CHUNK):
        rest = np.arange(lo, min(lo + exact._CHUNK, total), dtype=np.int64)
        digits = [None] * k
        for i in range(k - 1, -1, -1):
            rest, digits[i] = np.divmod(rest, q)
        mono = np.zeros(rest.size, dtype=np.int32)
        for i, j in aa_edges:
            mono += digits[i] == digits[j]
        for i, c in ap_edges:
            mono += digits[i] == c
        w = beta**mono
        z_parts.append(float(w.sum()))
        if root_pos is not None:
            vec_parts.append(np.bincount(digits[root_pos], weights=w, minlength=q))
    z = math.fsum(z_parts)
    vec = None
    if root_pos is not None:
        vec = [math.fsum(p[c] for p in vec_parts) for c in range(q)]
    return z, vec


def _reference_enumerate(instance, budget, root=None, first_only=False):
    active, iso, mono_base = exact._base_state(instance)
    params = instance.params
    if params.beta == 0 and mono_base > 0:
        return 0.0, [0.0] * params.q if root is not None else None, iso
    if params.beta == 0:
        z, vec = exact._dfs_enumerate(instance, active, budget, root, first_only)
    else:
        z, vec = _reference_vector_enumerate(instance, active, budget, root)
        if mono_base > 0:
            scale = params.beta_float**mono_base
            z *= scale
            if vec is not None:
                vec = [x * scale for x in vec]
    return z, vec, iso


def _outcome(call):
    """call()'s value, or the type and message of the PottsError it raises."""
    try:
        return call()
    except (BudgetError, InfeasibleError) as exc:
        return (type(exc), str(exc))


# Relative tolerance per oracle at beta > 0 (see the module docstring).
_REL = {"exact_partition": 1e-15, "exact_block_marginal": 1e-15, "exact_marginal_vector": 1e-13}


def _close(got, want, rel):
    """Whether got is want's error, or its float(s) within rel relative."""
    if isinstance(want, tuple):
        return got == want
    if isinstance(want, list):
        return len(got) == len(want) and all(_close(a, b, rel) for a, b in zip(got, want))
    return abs(got - want) <= rel * abs(want)


def _oracle_calls(instance, rng):
    """(name, call) for each oracle float of the instance."""
    n = instance.graph.n
    q = instance.params.q
    calls = [("exact_partition", lambda: exact_partition(instance))]
    if n:
        v = rng.randrange(n)
        calls.append(("exact_marginal_vector", lambda: exact_marginal_vector(instance, v)))
        block = sorted(rng.sample(range(n), rng.randint(1, min(n, 3))))
        pi = {u: instance.pinned.get(u, rng.randint(1, q)) for u in block}
        calls.append(("exact_block_marginal", lambda: exact_block_marginal(instance, block, pi)))
    return calls


def _check_instance(instance, rng):
    want = _outcome(lambda: _reference_gibbs_table(instance))
    got = _outcome(lambda: exact_gibbs_table(instance))
    if isinstance(want, dict):
        assert list(got.items()) == list(want.items())
    else:
        assert got == want
    for name, call in _oracle_calls(instance, rng):
        got = _outcome(call)
        with mock.patch.object(exact, "_enumerate", _reference_enumerate):
            want = _outcome(call)
        if instance.params.beta == 0:
            assert got == want, name
        else:
            assert _close(got, want, _REL[name]), (name, got, want)


def _random_instance(rng):
    n = rng.randint(0, 8)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    q = rng.choice([2, 3, 4])
    beta = rng.choice(["0", "0.25", "0.3", "0.7", "0.9"])
    pins = {v: rng.randint(1, q) for v in range(n) if rng.random() < 0.3}
    return Instance(Graph(n, edges), PottsParams(q, beta), pins)


def test_sweep_matches_the_replaced_enumerators_seeded():
    rng = random.Random(31)
    for _ in range(400):
        _check_instance(_random_instance(rng), rng)


@pytest.mark.parametrize("beta", ["0", "0.3"])
def test_sweep_cases(beta):
    params = PottsParams(3, beta)
    rng = random.Random(5)
    cases = [
        # n = 0: one empty configuration of weight 1
        Instance(Graph(0), params),
        # isolated unpinned vertices beside an edge, and a pinned isolated one
        Instance(Graph(5, [(1, 3)]), params, {4: 2}),
        # a monochromatic pinned-pinned edge: infeasible at beta = 0
        Instance(Graph(4, [(0, 1), (1, 2), (2, 3)]), params, {0: 2, 1: 2}),
        # every vertex pinned
        Instance(generate_cycle(4), params, {0: 1, 1: 2, 2: 1, 3: 3}),
        Instance(generate_complete(4), params),
    ]
    for instance in cases:
        _check_instance(instance, rng)
    assert exact_gibbs_table(cases[0]) == {(): 1.0}
    if beta == "0":
        with pytest.raises(InfeasibleError):
            exact_gibbs_table(cases[2])
        with pytest.raises(InfeasibleError):
            _reference_gibbs_table(cases[2])


def test_sweep_weights_are_model_weights():
    # Each swept colouring, with the pins, is a total configuration whose
    # model.weight is the sweep's weight, bit for bit.
    rng = random.Random(8)
    for _ in range(60):
        instance = _random_instance(rng)
        unp = instance.unpinned()
        seen = 0
        for digits, w in exact._sweep(instance, unp):
            for row in range(w.size):
                config = dict(instance.pinned)
                config.update((v, int(d[row]) + 1) for v, d in zip(unp, digits))
                assert float(w[row]) == weight(instance, config)
                seen += 1
        assert seen == instance.params.q ** len(unp)


def test_sweep_spans_chunks_in_code_order():
    # 3^11 colourings span three chunks; the codes run in base-q order.
    instance = Instance(generate_cycle(11), PottsParams(3, "0.5"))
    verts = list(range(11))
    codes = []
    for digits, w in exact._sweep(instance, verts):
        assert w.size == digits[0].size <= exact._CHUNK
        code = np.zeros(w.size, dtype=np.int64)
        for d in digits:
            code = code * 3 + d
        codes.append(code)
    assert len(codes) == 3
    assert np.array_equal(np.concatenate(codes), np.arange(3**11))


def test_budget_messages_fire_before_the_sweep():
    beta_inst = Instance(generate_complete(12), PottsParams(5, "0.5"))
    zero_inst = Instance(generate_cycle(12), PottsParams(3, 0))
    with mock.patch.object(exact, "_sweep") as sweep:
        with pytest.raises(BudgetError, match=r"enumeration budget 1000 exceeded: q\^k = 5\^12"):
            exact_partition(beta_inst, budget=1000)
        with pytest.raises(BudgetError, match=r"enumeration budget 1000 exceeded: q\^k = 5\^12"):
            exact_marginal_vector(beta_inst, 0, budget=1000)
        for inst in (beta_inst, zero_inst):
            with pytest.raises(
                BudgetError, match=r"Gibbs table budget 5 exceeded: q\^unpinned = \d\^12"
            ):
                exact_gibbs_table(inst, budget=5)
    assert sweep.call_count == 0


if given is not None:

    @st.composite
    def _instances(draw):
        n = draw(st.integers(0, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if draw(st.booleans())]
        q = draw(st.integers(2, 4))
        beta = draw(st.sampled_from(["0", "0.25", "0.5", "0.9"]))
        pins = {}
        for v in range(n):
            c = draw(st.integers(0, q))
            if c:
                pins[v] = c
        return Instance(Graph(n, edges), PottsParams(q, beta), pins)

    @settings(max_examples=150, deadline=None)
    @given(_instances(), st.integers(0, 2**32 - 1))
    def test_sweep_matches_the_replaced_enumerators_property(instance, seed):
        _check_instance(instance, random.Random(seed))

else:  # pragma: no cover

    def test_sweep_matches_the_replaced_enumerators_property():
        pytest.skip("needs hypothesis")
