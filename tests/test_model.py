from fractions import Fraction

import numpy as np
import pytest

from pottsdecay import (
    Configuration,
    Graph,
    Instance,
    ParseError,
    PottsError,
    PottsParams,
    e_delta_profile,
    enumerate_saws,
    estimate_partition,
    exact_block_marginal,
    exact_marginal_vector,
    expected_contraction,
    feasible_tuples,
    first_feasible_tuple,
    generate_caterpillar,
    generate_complete,
    generate_cycle,
    generate_gnp,
    generate_path,
    generate_star,
    marg,
    marg_coloring,
    minimal_permissive_block,
    monochromatic_edges,
    parse_activity,
    sample_batch,
    simulate_block_growth,
    verify_contraction,
    verify_locally_sparse,
    weight,
)


def test_parse_activity_exact():
    assert parse_activity("0") == 0
    assert parse_activity("0.25") == Fraction(1, 4)
    assert parse_activity("0.123456789") == Fraction(123456789, 10**9)
    for bad in ("-0.1", "1e-3", ".5", "0.1234567891", "nan", ""):
        with pytest.raises(ParseError):
            parse_activity(bad)


def test_params_validation():
    with pytest.raises(ParseError):
        PottsParams(1, 0)
    with pytest.raises(ParseError):
        PottsParams(3, 1)
    with pytest.raises(ParseError):
        PottsParams(3, "1.0")
    PottsParams(2, "0.999999999")
    assert PottsParams(3, Fraction(1, 2)).beta == Fraction(1, 2)
    assert PottsParams(3, 0.5).beta == Fraction(1, 2)
    # a float is read as its exact binary value, not its decimal spelling
    assert PottsParams(3, 0.1).beta == Fraction(0.1) != Fraction("0.1")
    with pytest.raises(ParseError, match="activity must be numeric"):
        PottsParams(3, True)
    with pytest.raises(ParseError, match="cannot interpret activity"):
        PottsParams(3, [0.5])
    # Fraction(nan) and Fraction(inf) raise ValueError and OverflowError
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParseError, match="activity must be finite"):
            PottsParams(3, bad)
    inst = Instance(Graph(2, [(0, 1)]), PottsParams(3, 0), Configuration({0: 1}))
    assert inst.pinned == {0: 1}


def test_low_degree_threshold_q7_beta0():
    p = PottsParams(7, 0)
    # threshold (7-1)/1 - 2 = 4: strict comparison
    assert 3 <= p.max_low_degree
    assert not 4 <= p.max_low_degree
    assert p.delta(2) == 0.5
    assert p.delta(4) == 1.0
    assert p.delta(5) == 1.0


def test_low_degree_d0_q4():
    p = PottsParams(4, 0)
    assert 0 <= p.max_low_degree
    assert not 1 <= p.max_low_degree


def test_threshold_fractional_beta():
    # q=4, beta=1/4: threshold 3/(3/4) - 2 = 2, integer, so d=2 is high
    p = PottsParams(4, "0.25")
    assert 1 <= p.max_low_degree
    assert not 2 <= p.max_low_degree
    assert p.delta(2) == 1.0  # boundary of the finite branch
    assert p.delta(3) == 1.0


def test_delta_monotone_in_degree():
    for q, beta in ((3, "0"), (5, "0.25"), (7, "0.5"), (17, "0")):
        p = PottsParams(q, beta)
        vals = [p.delta(d) for d in range(0, 30)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)


def test_marginal_bounds():
    p = PottsParams(4, 0)
    assert p.marginal_upper_bound(2) == 0.5
    assert p.marginal_upper_bound(10) == 1.0  # clamped at 1
    p2 = PottsParams(3, "0.5")
    assert p2.marginal_upper_bound(4) == 1.0


def test_float_views_of_beta():
    # 1 - beta is rounded once from the exact Fraction: at beta = 0.059 that
    # is one float and 1.0 - float(beta) another.
    p = PottsParams(40, "0.059")
    assert p.beta_positive and not PottsParams(40, 0).beta_positive
    assert p.one_minus_beta_float == float(1 - Fraction("0.059"))
    assert p.one_minus_beta_float != 1.0 - p.beta_float
    assert p.marginal_upper_bound(7) == 1.0 / (40 - float(1 - Fraction("0.059")) * 7)


def test_configuration_api():
    c = Configuration({2: 1, 0: 3})
    assert c[0] == 3
    assert 2 in c and 1 not in c
    assert list(c) == [0, 2]
    assert c == Configuration({0: 3, 2: 1})
    with pytest.raises(ParseError):
        Configuration({0: 0})
    with pytest.raises(ParseError):
        Configuration({-1: 2})


def test_instance_pins_validated():
    g = generate_path(3)
    params = PottsParams(3, 0)
    inst = Instance(g, params, {0: 2})
    assert inst.unpinned() == [1, 2]
    with pytest.raises(ParseError):
        Instance(g, params, {5: 1})
    with pytest.raises(ParseError):
        Instance(g, params, {0: 4})
    merged = inst.with_pins({1: 1})
    assert merged.pinned == {0: 2, 1: 1}
    with pytest.raises(ParseError):
        inst.with_pins({0: 3})


@pytest.mark.parametrize(
    "bad, good", [({True: 2}, {1: 2}), ({0: True}, {0: 1})], ids=["vertex", "colour"]
)
@pytest.mark.parametrize(
    "build",
    [Configuration, lambda pins: Instance(generate_cycle(6), PottsParams(4, "0.5"), pins)],
    ids=["Configuration", "Instance"],
)
def test_bool_pins_rejected(build, bad, good):
    # True == 1 as an int, so {True: 2} would pin vertex 1 and {0: True}
    # would give vertex 0 colour 1.
    with pytest.raises(ParseError, match="bool|bad"):
        build(bad)
    build(good)


class _Vertex(int):
    """An int subclass, which a pin accepts."""


@pytest.mark.parametrize(
    "bad",
    [{1: 2.0}, {0.5: 2}, {1.0: 2}, {"1": 2}, {1: np.int64(2)}, {np.int64(1): 2}],
    ids=["float colour", "float vertex", "integral float vertex", "str vertex",
         "numpy colour", "numpy vertex"],
)
def test_non_int_pins_rejected(bad):
    # A float colour used to build and then fail as a bare TypeError inside
    # the recursion; a float vertex was silently ignored.
    inst_args = (generate_cycle(6), PottsParams(4, "0.5"))
    with pytest.raises(ParseError, match="bad pin"):
        Instance(*inst_args, bad)
    with pytest.raises(ParseError, match="bad"):
        Configuration(bad)


@pytest.mark.parametrize(
    "pins, entry",
    [([1, 2], "1"), ("ab", "'a'"), ([(0,)], r"\(0,\)"), ([(0, 1), ([2], 1)], r"\(\[2\], 1\)")],
    ids=["ints", "str", "1-tuple", "unhashable vertex"],
)
def test_malformed_pins_name_the_bad_entry(pins, entry):
    g, params = generate_cycle(6), PottsParams(4, "0.5")
    with pytest.raises(ParseError, match=f"bad pin entry {entry}"):
        Instance(g, params, pins)
    with pytest.raises(ParseError, match=f"bad pin entry {entry}"):
        estimate_partition(g, params, 2, pinned=pins)
    with pytest.raises(ParseError, match=f"bad pin entry {entry}"):
        Configuration(pins)
    with pytest.raises(ParseError, match=f"bad pin entry {entry}"):
        exact_block_marginal(Instance(g, params), [1], pins)
    with pytest.raises(ParseError, match="mapping or"):
        Instance(g, params, 5)
    for bad in (5, None):
        with pytest.raises(ParseError, match="mapping or"):
            Configuration(bad)
    assert Instance(g, params, [(0, 1), (2, 3)]).pinned == {0: 1, 2: 3}
    assert Configuration([(0, 1), (2, 3)]) == Configuration({0: 1, 2: 3})


def test_int_subclass_pins_accepted():
    inst = Instance(generate_cycle(6), PottsParams(4, "0.5"), {_Vertex(1): _Vertex(2)})
    assert inst.pinned == {1: 2}


def test_weight_counts_monochromatic_edges():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    params = PottsParams(3, "0.5")
    inst = Instance(g, params)
    assert monochromatic_edges(g, {0: 1, 1: 1, 2: 2}) == 1
    assert weight(inst, {0: 1, 1: 2, 2: 3}) == 1.0
    assert weight(inst, {0: 1, 1: 1, 2: 2}) == 0.5
    assert weight(inst, {0: 1, 1: 1, 2: 1}) == 0.125


def test_weight_zero_cases():
    g = generate_path(2)
    inst = Instance(g, PottsParams(3, 0), {0: 1})
    assert weight(inst, {0: 2, 1: 3}) == 0.0  # violates the pin
    assert weight(inst, {0: 1, 1: 1}) == 0.0  # monochromatic at beta=0
    with pytest.raises(ParseError):
        weight(inst, {0: 1})  # partial configuration


def test_weight_rejects_colours_outside_the_palette():
    # A plain dict skips Configuration's checks; weight checks each colour.
    inst = Instance(generate_cycle(6), PottsParams(4, "0.5"))
    with pytest.raises(ParseError, match="color 0 out of range for q=4"):
        weight(inst, {v: 0 for v in range(6)})
    with pytest.raises(ParseError, match="color must be an integer, got '1'"):
        weight(inst, {v: "1" for v in range(6)})
    with pytest.raises(ParseError, match="color 5 out of range"):
        weight(inst, Configuration({v: 5 for v in range(6)}))
    assert weight(inst, {v: 4 for v in range(6)}) == 0.015625


_PATH3 = generate_path(3)
_Q3 = PottsParams(3, 0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda seed: generate_gnp(10, 2, seed), "gnp seed"),
        (lambda seed: estimate_partition(_PATH3, _Q3, 2, order_seed=seed), "order_seed"),
        (lambda seed: verify_locally_sparse(_PATH3, _Q3, 1, mode="sampled", seed=seed), "seed"),
        (lambda seed: simulate_block_growth(1, 100, 2, 7, 3, 10, seed), "seed"),
        (lambda seed: sample_batch(Instance(_PATH3, _Q3), 2, 1, seed), "seed"),
    ],
    ids=[
        "generate_gnp",
        "estimate_partition",
        "verify_locally_sparse",
        "simulate_block_growth",
        "sample_batch",
    ],
)
def test_bool_seed_rejected(call, name):
    # True == 1 as an int, but a flag passed for a seed is a caller's mistake.
    with pytest.raises(ParseError, match=f"^{name} must be an integer"):
        call(True)
    call(1)


_HALF3 = PottsParams(3, "0.5")
_INT_ARGS = {
    "marg-x": lambda x: marg(Instance(_PATH3, _HALF3), 0, x, 2),
    "marg_coloring-x": lambda x: marg_coloring(Instance(_PATH3, _Q3), 0, x, 2),
    "exact_marginal_vector-v": lambda v: exact_marginal_vector(Instance(_PATH3, _Q3), v),
    # The exact marginal of colour 1 at v, read from its vector.
    "exact_marginal-v": lambda v: exact_marginal_vector(Instance(_PATH3, _Q3), v)[0],
    "enumerate_saws-v": lambda v: list(enumerate_saws(_PATH3, v, 1)),
    "enumerate_saws-length": lambda length: list(enumerate_saws(_PATH3, 0, length)),
    # The number of length-1 walks from v: with delta = 1 each sum is a count.
    "saw_count-v": lambda v: e_delta_profile(_PATH3, v, 1, 1)[1],
    "verify_contraction-l_max": lambda l_max: verify_contraction(_PATH3, _Q3, l_max),
    "e_delta_profile-v": lambda v: e_delta_profile(_PATH3, v, 2, 0.5),
    "e_delta_profile-l_max": lambda l_max: e_delta_profile(_PATH3, 0, l_max, 0.5),
    "verify_locally_sparse-l_max": lambda l_max: verify_locally_sparse(_PATH3, _Q3, l_max),
    "verify_locally_sparse-trials": lambda trials: verify_locally_sparse(
        _PATH3, _Q3, 2, mode="sampled", trials=trials
    ),
    "minimal_permissive_block-seeds": lambda v: minimal_permissive_block(
        Instance(_PATH3, _Q3), [v]
    ),
    "feasible_tuples-verts": lambda v: feasible_tuples(Instance(_PATH3, _Q3), [v]),
    "first_feasible_tuple-verts": lambda v: first_feasible_tuple(Instance(_PATH3, _Q3), [v]),
    "generate_path-n": lambda n: generate_path(n),
    "generate_complete-n": lambda n: generate_complete(n),
    "generate_star-k": lambda k: generate_star(k),
    "generate_caterpillar-n": lambda n: generate_caterpillar(n, 1),
    "generate_caterpillar-k": lambda k: generate_caterpillar(2, k),
    "generate_gnp-n": lambda n: generate_gnp(n, 1, 1),
    "simulate_block_growth-L": lambda L: simulate_block_growth(L, 100, 2, 7, 3, 10, 0),
    "simulate_block_growth-n": lambda n: simulate_block_growth(1, n, 1, 7, 3, 10, 0),
    "simulate_block_growth-t_max": lambda t: simulate_block_growth(1, 100, 2, 7, t, 10, 0),
    "simulate_block_growth-trials": lambda t: simulate_block_growth(1, 100, 2, 7, 3, t, 0),
    "expected_contraction-n": lambda n: expected_contraction(n, 1, 9),
    "verify_contraction-extension_budget": lambda budget: verify_contraction(
        _PATH3, _Q3, 2, extension_budget=budget
    ),
}


@pytest.mark.parametrize("call", list(_INT_ARGS.values()), ids=list(_INT_ARGS))
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_integer_argument_rejected(call, bad):
    # A vertex, colour, length or count that is not an int fails as a
    # PottsError, never as a bare exception (CLI exit 5) or as a silent 1.
    with pytest.raises(PottsError):
        call(bad)
    call(1)


# Integer arguments for which 1 is out of range, each with a valid value.
_INT_ARGS_NOT_1 = {
    "generate_cycle-n": (lambda n: generate_cycle(n), 3),
    "simulate_block_growth-q": (lambda q: simulate_block_growth(1, 100, 2, q, 3, 10, 0), 6),
    "e_delta_profile-extension_budget": (
        lambda budget: e_delta_profile(_PATH3, 0, 2, 0.5, extension_budget=budget),
        100,
    ),
    "verify_locally_sparse-walk_budget": (
        lambda budget: verify_locally_sparse(_PATH3, _Q3, 2, walk_budget=budget),
        100,
    ),
}


@pytest.mark.parametrize(
    "call, good", list(_INT_ARGS_NOT_1.values()), ids=list(_INT_ARGS_NOT_1)
)
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_integer_argument_rejected_where_1_is_out_of_range(call, good, bad):
    with pytest.raises(PottsError):
        call(bad)
    call(good)
