"""Differential tests of `decay._lean_vector`, the flat singleton-node kernel,
against the evaluator it replaced.

The replaced evaluator is kept below as `_reference_lean_vector`, with the
`_denominator` and `_logsumexp` it called. A reference run patches all
three into `decay`, so every node of that run, the general path's included,
uses the old numerics; the reference hands its children to
`decay._node_vector`, which calls the patched name again. Both runs must
return the same vector and every `MargDiagnostics` field with `==`, or raise
the same error type with the same message and the same partial diagnostics.

The kernel makes a run of memo-hit charges in one step, and a `max_calls`
abort must land on the same charge. The reference checks the limits after
each charge, through this module's `_check_limits`, which nothing else
calls; a recording run patches that name to note `recursive_calls` at each
charge. The capped cases take their `max_calls` just below one of those
counts, which aborts on that charge, often in the middle of a run.

The property tests need Hypothesis (in the `test` extras) and skip without
it; the seeded test runs without it.
"""

import math
import random
import sys
from dataclasses import asdict
from unittest import mock

import pytest

from pottsdecay import (
    InfeasibleError,
    Instance,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    generate_caterpillar,
    generate_cycle,
    generate_gnp,
    marginal_vector,
)
from pottsdecay.decay import _check_limits, _node_vector, _read_region
from pottsdecay.graph import _kept_row, _view

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property tests skip
    given = None


def _reference_logsumexp(values):
    if len(values) == 1:
        # x + log(fsum([1.0])) is x itself, bar the sign of a zero.
        return values[0]
    hi = max(values, default=-math.inf)
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(math.fsum([math.exp(x - hi) for x in values]))


def _reference_denominator(terms, v=None):
    den = _reference_logsumexp(terms)
    if den == -math.inf:
        at = "" if v is None else f" at vertex {v}"
        raise InfeasibleError(
            f"block recursion denominator vanished{at} (every feasible configuration annihilated)"
        )
    return den


def _reference_lean_vector(root, removed, params, pinned, v, ell, diag, limits):
    """The singleton evaluator before the flat kernel, line for line."""
    beta_positive = params.beta_positive
    if not beta_positive and ell < 1:
        return None
    rows = root.adjacency
    nbrs = _kept_row(rows, removed, v)
    q = params.q
    F = range(1, q + 1)
    if not beta_positive:
        banned = {pinned[w] for w in nbrs if w in pinned}
        F = [c for c in F if c not in banned]
    if limits.block_budget < 1 or len(F) > limits.config_budget:
        return None
    max_low = params.max_low_degree
    sub_ell = ell - 1
    bedges = [(v, w) if v < w else (w, v) for w in nbrs]
    sub_removed = [None] * len(nbrs)
    opened = False
    for i, w in enumerate(nbrs):
        if w in pinned:
            continue
        if len(rows[w]) > max_low and len(_kept_row(rows, removed, w)) > max_low:
            return None
        if sub_ell >= 0:
            sub_removed[i] = removed.union(bedges[i:])
            if opened and v in _read_region(
                _view(root, sub_removed[i]), params, pinned, w, sub_ell
            ):
                return None
        opened = True
    diag.max_block_size = max(diag.max_block_size, 1)
    diag.max_f_size = max(diag.max_f_size, len(F))
    if not F:
        raise InfeasibleError(f"no feasible block configuration around vertex {v}")

    one_minus = 1.0 - params.beta_float
    terms = [0.0] * len(F)
    for i, w in enumerate(nbrs):
        calls = diag.recursive_calls
        terminations = diag.termination_events
        infeasible = diag.infeasible_events
        vec = _node_vector(root, sub_removed[i], params, pinned, w, sub_ell, diag, limits)
        if i and len(F) > 1:
            calls = diag.recursive_calls - calls
            terminations = diag.termination_events - terminations
            infeasible = diag.infeasible_events - infeasible
            for _ in range(len(F) - 1):
                diag.recursive_calls += calls
                diag.termination_events += terminations
                diag.infeasible_events += infeasible
                diag.cache_hits += 1
                _check_limits(diag, limits)
        for k, c in enumerate(F):
            x = vec[c - 1]
            if x:
                factor = 1.0 - one_minus * x
                terms[k] += math.log(factor) if factor > 0.0 else -math.inf

    den = _reference_denominator(terms, v)
    cap = params.marginal_upper_bound(len(nbrs))
    out = [0.0] * q
    for c, t in zip(F, terms):
        if t != -math.inf:
            out[c - 1] = min(math.exp(t - den), cap)
    return out


def _outcome(inst, v, ell, limits):
    """marginal_vector's vector and diagnostics, or the error's type name,
    message and partial diagnostics."""
    try:
        vec, diag = marginal_vector(inst, v, ell, limits)
    except PottsError as err:
        partial = getattr(err, "diagnostics", None)
        return type(err).__name__, str(err), partial and asdict(partial)
    return vec, asdict(diag)


def _reference(inst, v, ell, limits, charges=None):
    """_outcome with the replaced evaluator and numerics patched in; each
    charge's recursive_calls is appended to `charges` when it is a list."""

    def check(diag, limits):
        if charges is not None:
            charges.append(diag.recursive_calls)
        decay._check_limits(diag, limits)

    with mock.patch.multiple(
        decay,
        _lean_vector=_reference_lean_vector,
        _denominator=_reference_denominator,
        _logsumexp=_reference_logsumexp,
    ), mock.patch.object(sys.modules[__name__], "_check_limits", check):
        return _outcome(inst, v, ell, limits)


def _caps(inst, v, ell, picks):
    """max_calls values that abort a run on a memo-hit charge: one below
    the recursive_calls of the charge at each fraction in `picks` of the
    uncapped run's charges."""
    charges = []
    _reference(inst, v, ell, RecursionLimits(max_calls=50_000), charges)
    return sorted({charges[int(f * len(charges))] - 1 for f in picks} if charges else ())


def _assert_same(inst, v, ell, limits):
    got = _outcome(inst, v, ell, limits)
    assert got == _reference(inst, v, ell, limits)
    return got


def _graph(rng, kind):
    if kind == "cycle":
        return generate_cycle(rng.randint(3, 10))
    if kind == "gnp":
        n = rng.randint(4, 12)
        return generate_gnp(n, rng.choice([1, 2, 3]), rng.randrange(2**16))
    return generate_caterpillar(rng.randint(2, 4), rng.randint(1, 2))


def _case(rng, kind):
    graph = _graph(rng, kind)
    q = rng.randint(3, 6)
    beta = rng.choice(["0", "0.25", "0.5"])
    n = graph.n
    pins = {u: rng.randint(1, q) for u in rng.sample(range(n), rng.randint(0, n // 2))}
    inst = Instance(graph, PottsParams(q, beta), pins)
    v = rng.choice(inst.unpinned())
    return inst, v, rng.randint(-1, 6)


@pytest.mark.parametrize("kind", ["cycle", "gnp", "caterpillar"])
def test_kernel_matches_reference_seeded(kind):
    rng = random.Random(f"flat kernel {kind}")
    capped = 0
    for _ in range(40):
        inst, v, ell = _case(rng, kind)
        _assert_same(inst, v, ell, RecursionLimits(max_calls=50_000))
        for cap in _caps(inst, v, ell, (0.0, 0.3, 0.7, 0.99)):
            name, message, partial = _assert_same(inst, v, ell, RecursionLimits(max_calls=cap))
            assert "call budget" in message and partial["recursive_calls"] == cap + 1
            capped += 1
    assert capped >= 20


def test_abort_inside_a_run_of_charges():
    # cycle(8), q = 5, beta 0.5: each served node's index 1 makes a run of
    # four charges, so a cap one below the second charge's count aborts in
    # the middle of that run, with two of the four charges made.
    inst = Instance(generate_cycle(8), PottsParams(5, "0.5"))
    charges = []
    _reference(inst, 0, 3, None, charges)
    cap = charges[1] - 1
    name, message, partial = _assert_same(inst, 0, 3, RecursionLimits(max_calls=cap))
    assert name == "BudgetError" and partial["recursive_calls"] == charges[1]
    assert partial["cache_hits"] == 2


@pytest.mark.parametrize("x", [-math.inf, -0.0, 0.0, -3.25, 7.5])
def test_logsumexp_matches_reference_on_short_lists(x):
    for values in ([], [x], [x, -math.inf], [-math.inf, x], [x, x], [x, -1.0, 2.5]):
        assert repr(decay._logsumexp(values)) == repr(_reference_logsumexp(values))


if given is not None:

    @st.composite
    def _query(draw):
        rng = random.Random(draw(st.integers(0, 2**32)))
        inst, v, ell = _case(rng, draw(st.sampled_from(["cycle", "gnp", "caterpillar"])))
        return inst, v, draw(st.integers(-1, 6))

    @settings(max_examples=150, deadline=None)
    @given(_query(), st.floats(0.0, 0.999))
    def test_kernel_matches_reference(case, pick):
        inst, v, ell = case
        _assert_same(inst, v, ell, RecursionLimits(max_calls=50_000))
        for cap in _caps(inst, v, ell, (pick,)):
            _assert_same(inst, v, ell, RecursionLimits(max_calls=cap))

    _terms = st.lists(
        st.one_of(st.just(-math.inf), st.floats(-700.0, 700.0)), min_size=0, max_size=8
    )

    @settings(max_examples=300, deadline=None)
    @given(_terms)
    def test_logsumexp_matches_reference(values):
        assert repr(decay._logsumexp(values)) == repr(_reference_logsumexp(values))
