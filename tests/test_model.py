import inspect
from fractions import Fraction

import numpy as np
import pytest

import pottsdecay
from pottsdecay import (
    Block,
    Configuration,
    Graph,
    Instance,
    ParseError,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    default_depth,
    e_delta_profile,
    empirical_tv,
    enumerate_saws,
    error_bound,
    escape_paths,
    estimate_partition,
    exact_block_marginal,
    exact_gibbs_table,
    exact_marginal_vector,
    exact_partition,
    expected_contraction,
    feasible_tuples,
    find_feasible_config,
    first_feasible_tuple,
    generate,
    generate_caterpillar,
    generate_complete,
    generate_cycle,
    generate_gnp,
    generate_path,
    generate_star,
    is_feasible,
    marg,
    marg_block,
    marg_coloring,
    marginal_distribution,
    marginal_vector,
    load_graph,
    minimal_permissive_block,
    monochromatic_edges,
    parse_activity,
    sample_batch,
    serialize_graph,
    simulate_block_growth,
    verify_contraction,
    verify_gnp_properties,
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


# Public entries, each as a function of its one Instance, Graph or
# PottsParams argument, with a value of the right type.
_INST3 = Instance(_PATH3, _Q3)
_HALF_INST3 = Instance(_PATH3, _HALF3)
_BLOCK = minimal_permissive_block(_INST3, [0])
_BATCH = sample_batch(_INST3, 1, 2, 1)
_TYPED_ARGS = {
    "Instance-graph": (lambda g: Instance(g, _Q3), _PATH3),
    "Instance-params": (lambda p: Instance(_PATH3, p), _Q3),
    "estimate_partition-graph": (lambda g: estimate_partition(g, _Q3, L=1), _PATH3),
    "estimate_partition-params": (lambda p: estimate_partition(_PATH3, p, L=1), _Q3),
    "marginal_vector": (lambda i: marginal_vector(i, 0, 2), _INST3),
    "marginal_distribution": (lambda i: marginal_distribution(i, 0, 2), _INST3),
    "marg": (lambda i: marg(i, 0, 1, 2), _HALF_INST3),
    "marg_coloring": (lambda i: marg_coloring(i, 0, 1, 2), _INST3),
    "marg_block": (lambda i: marg_block(i, _BLOCK, {0: 1, 1: 2, 2: 1}, 2), _INST3),
    "read_region": (lambda i: decay.read_region(i, 0, 2), _INST3),
    "sample_batch": (lambda i: sample_batch(i, 2, 2, 1), _INST3),
    "find_feasible_config": (lambda i: find_feasible_config(i), _INST3),
    "empirical_tv-batch": (lambda b: empirical_tv(b, _INST3), _BATCH),
    "empirical_tv-instance": (lambda i: empirical_tv(_BATCH, i), _INST3),
    "error_bound-graph": (lambda g: error_bound(g, 0, 2, _HALF3, 0.5), _PATH3),
    "error_bound-params": (lambda p: error_bound(_PATH3, 0, 2, p, 0.5), _HALF3),
    "exact_partition": (lambda i: exact_partition(i), _INST3),
    "exact_marginal_vector": (lambda i: exact_marginal_vector(i, 0), _INST3),
    "exact_block_marginal": (lambda i: exact_block_marginal(i, _BLOCK, {0: 1, 1: 2, 2: 1}), _INST3),
    "is_feasible": (lambda i: is_feasible(i), _INST3),
    "exact_gibbs_table": (lambda i: exact_gibbs_table(i), _INST3),
    "minimal_permissive_block": (lambda i: minimal_permissive_block(i, [0]), _INST3),
    "feasible_tuples": (lambda i: feasible_tuples(i, [0]), _INST3),
    "first_feasible_tuple": (lambda i: first_feasible_tuple(i, [0]), _INST3),
    "weight": (lambda i: weight(i, {0: 1, 1: 2, 2: 1}), _INST3),
    "escape_paths": (lambda g: escape_paths(g, _BLOCK, 0), _PATH3),
    "e_delta_profile": (lambda g: e_delta_profile(g, 0, 2, 0.5), _PATH3),
    "enumerate_saws": (lambda g: list(enumerate_saws(g, 0, 1)), _PATH3),
    "verify_contraction": (lambda g: verify_contraction(g, _Q3, 2), _PATH3),
    "verify_locally_sparse-graph": (lambda g: verify_locally_sparse(g, _Q3, 2), _PATH3),
    "verify_locally_sparse-params": (lambda p: verify_locally_sparse(_PATH3, p, 2), _Q3),
    "serialize_graph": (lambda g: serialize_graph(g), _PATH3),
    "monochromatic_edges": (lambda g: monochromatic_edges(g, {0: 1, 1: 2, 2: 1}), _PATH3),
}


@pytest.mark.parametrize("call, good", list(_TYPED_ARGS.values()), ids=list(_TYPED_ARGS))
def test_argument_of_the_wrong_type_rejected(call, good):
    # An Instance, Graph, PottsParams or SampleBatch argument of another type
    # fails as a ParseError, never as a bare AttributeError (CLI exit 5).
    for bad in (_PATH3, _INST3, _Q3, _BATCH, 4, None):
        if type(bad) is not type(good):
            with pytest.raises(ParseError, match="expected"):
                call(bad)
    call(good)


def test_monochromatic_edges_needs_a_color_at_every_endpoint():
    # A colouring that misses an endpoint is the caller's error, not a bare
    # KeyError, IndexError or TypeError.
    for colors in ({0: 1, 1: 1}, [1, 1], None, 3):
        with pytest.raises(ParseError, match="every endpoint"):
            monochromatic_edges(_PATH3, colors)
    assert monochromatic_edges(_PATH3, [1, 1, 2]) == 1
    assert monochromatic_edges(Graph(3, [(0, 1)]), {0: 2, 1: 2}) == 1
    with pytest.raises(ParseError, match="expected a Graph, got Instance"):
        monochromatic_edges(_INST3, {0: 1, 1: 2, 2: 1})


def test_enumerate_saws_checks_its_arguments_at_the_call():
    # The walks are a generator, but a bad argument raises before it is made.
    for call in (
        lambda: enumerate_saws(_INST3, 0, 2),
        lambda: enumerate_saws(_PATH3, 3, 2),
        lambda: enumerate_saws(_PATH3, 0, -1),
    ):
        with pytest.raises(ParseError):
            call()
    walks = enumerate_saws(_PATH3, 1, 1)
    assert next(walks) == (1, 0)
    assert list(walks) == [(1, 2)]


# Every public callable of the package as a function of its first argument,
# the others valid. Exception classes and the four result records, which
# hold what they are given, are exempt.
_EXEMPT = {"MargDiagnostics", "PartitionEstimate", "SampleBatch", "GrowthProcessReport"}
_FIRST_ARG = {
    "Block": lambda x: Block(x, ()),
    "Configuration": lambda x: Configuration(x),
    "Graph": lambda x: Graph(x),
    "Instance": lambda x: Instance(x, _Q3),
    "PottsParams": lambda x: PottsParams(x),
    "RecursionLimits": lambda x: RecursionLimits(x),
    "default_depth": lambda x: default_depth(x),
    "e_delta_profile": lambda x: e_delta_profile(x, 0, 2, 0.5),
    "empirical_tv": lambda x: empirical_tv(x, _INST3),
    "enumerate_saws": lambda x: enumerate_saws(x, 0, 1),
    "error_bound": lambda x: error_bound(x, 0, 2, _HALF3, 0.5),
    "escape_paths": lambda x: escape_paths(x, _BLOCK, 0),
    "estimate_partition": lambda x: estimate_partition(x, _Q3, L=1),
    "exact_block_marginal": lambda x: exact_block_marginal(x, _BLOCK, {0: 1, 1: 2, 2: 1}),
    "exact_gibbs_table": lambda x: exact_gibbs_table(x),
    "exact_marginal_vector": lambda x: exact_marginal_vector(x, 0),
    "exact_partition": lambda x: exact_partition(x),
    "expected_contraction": lambda x: expected_contraction(x, 1, 9),
    "feasible_tuples": lambda x: feasible_tuples(x, [0]),
    "find_feasible_config": lambda x: find_feasible_config(x),
    "first_feasible_tuple": lambda x: first_feasible_tuple(x, [0]),
    "generate": lambda x: generate(x, n=3),
    "generate_caterpillar": lambda x: generate_caterpillar(x, 1),
    "generate_complete": lambda x: generate_complete(x),
    "generate_cycle": lambda x: generate_cycle(x),
    "generate_gnp": lambda x: generate_gnp(x, 1, 1),
    "generate_path": lambda x: generate_path(x),
    "generate_star": lambda x: generate_star(x),
    "is_feasible": lambda x: is_feasible(x),
    "load_graph": lambda x: load_graph(x),
    "marg": lambda x: marg(x, 0, 1, 2),
    "marg_block": lambda x: marg_block(x, _BLOCK, {0: 1, 1: 2, 2: 1}, 2),
    "marg_coloring": lambda x: marg_coloring(x, 0, 1, 2),
    "marginal_distribution": lambda x: marginal_distribution(x, 0, 2),
    "marginal_vector": lambda x: marginal_vector(x, 0, 2),
    "minimal_permissive_block": lambda x: minimal_permissive_block(x, [0]),
    "monochromatic_edges": lambda x: monochromatic_edges(x, {0: 1, 1: 2, 2: 1}),
    "parse_activity": lambda x: parse_activity(x),
    "sample_batch": lambda x: sample_batch(x, 2, 2, 1),
    "serialize_graph": lambda x: serialize_graph(x),
    "simulate_block_growth": lambda x: simulate_block_growth(x, 100, 2, 7, 3, 10, 0),
    "verify_contraction": lambda x: verify_contraction(x, _Q3, 2),
    "verify_gnp_properties": lambda x: verify_gnp_properties(x, 2, 7),
    "verify_locally_sparse": lambda x: verify_locally_sparse(x, _Q3, 2),
    "weight": lambda x: weight(x, {0: 1, 1: 2, 2: 1}),
}


def test_wrong_type_sweep_covers_every_public_callable():
    public = {
        name
        for name in pottsdecay.__all__
        if callable(obj := getattr(pottsdecay, name))
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }
    assert set(_FIRST_ARG) == public - _EXEMPT


@pytest.mark.parametrize("name", sorted(_FIRST_ARG))
def test_wrong_type_first_argument_raises_at_the_call(name):
    # object() fits no parameter of the package. The call itself raises a
    # PottsError: not a bare exception, and not a generator or other lazy
    # value whose error surfaces on iteration.
    with pytest.raises(PottsError):
        _FIRST_ARG[name](object())
