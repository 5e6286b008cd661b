"""Differential test: the colour memo of `decay._block_terms` keyed on the
prefix positions each child can read (the region key) against the memo keyed
on the whole prefix pattern (the colour-class key).

The region key drops prefix pins outside the child's `read_region`, which by
that function's proof changes neither the vector nor any counter of the
schedule without the memo. So vector, raw_sum and the naive counters are
`==`, the same inputs raise the same error type, and the memo runs no more
evaluations than under the colour-class key, which runs no more than the
schedule without the memo. Only the partial diagnostics of a `max_calls`
abort may differ, because a memo hit adds its whole subtree before the limit
check.

Needs Hypothesis (in the `test` extras); the module skips without it.
"""

import math
from unittest import mock

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
    marginal_vector,
)


def _colour_class_block_terms(instance, block, F, anchor, ell, diag, limits):
    """Reference: the prefix-trie walk with the memo keyed on the canonical
    form of the whole prefix pattern, every prefix vertex pinned on a miss."""
    graph = instance.graph
    params = instance.params
    q1 = params.q + 1
    one_minus = 1.0 - params.beta_float
    held = set(instance.pinned.values())
    free = [c for c in range(1, q1) if c not in held]
    verts = block.vertices
    pos = {u: i for i, u in enumerate(verts)}
    bedges = block.boundary_edges
    internal = graph.induced_edges(verts)
    upos = [pos[u] for u, _ in bedges]
    lengths = decay.escape_paths(graph, block, anchor)

    if params.beta_positive:
        ln_beta = math.log(params.beta_float)
        ipos = [(pos[a], pos[b]) for a, b in internal]
        terms = []
        for t in F:
            mono = sum(1 for a, b in ipos if t[a] == t[b])
            terms.append(mono * ln_beta if mono else 0.0)
    else:
        terms = [0.0] * len(F)
    node = [0] * len(F)
    pats = [()]
    for i, (_, v_i) in enumerate(bedges):
        pin_i = instance.pinned.get(v_i)
        g_i = None
        sub_ell = ell - lengths[i]
        prefix_pos = upos[:i]
        vectors = []
        memo = {}
        for pat in pats:
            canon, moves = decay._canonical(pat, held, free) if free else (pat, ())
            hit = memo.get(canon)
            if hit is None:
                calls = diag.recursive_calls
                terminations = diag.termination_events
                infeasible = diag.infeasible_events
                vec = decay._leaf(params, pin_i, sub_ell, diag, limits)
                if vec is None:
                    if g_i is None:
                        g_i = graph.remove_edges([*internal, *bedges[i:]])
                    pins = dict(instance.pinned)
                    for j, p in enumerate(prefix_pos):
                        pins[verts[p]] = canon[j]
                    vec = decay._block_vector(
                        Instance(g_i, params, pins), v_i, sub_ell, diag, limits
                    )
                memo[canon] = (
                    vec,
                    diag.recursive_calls - calls,
                    diag.termination_events - terminations,
                    diag.infeasible_events - infeasible,
                )
            else:
                vec, calls, terminations, infeasible = hit
                diag.recursive_calls += calls
                diag.termination_events += terminations
                diag.infeasible_events += infeasible
                diag.cache_hits += 1
                decay._check_limits(diag, limits)
            vectors.append(decay._permute(vec, moves))

        p = upos[i]
        children = {}
        logs = []
        next_pats = []
        for k, t in enumerate(F):
            parent = node[k]
            spin = t[p]
            key = parent * q1 + spin
            j = children.get(key)
            if j is None:
                j = children[key] = len(logs)
                next_pats.append(pats[parent] + (spin,))
                factor = 1.0 - one_minus * vectors[parent][spin - 1]
                logs.append(math.log(factor) if factor > 0.0 else -math.inf)
            node[k] = j
            terms[k] += logs[j]
        pats = next_pats
    return terms


_BETAS = ["0", "0", "0.25", "0.5"]
_CAPS = [20_000, 20_000, 5, 40, 200, 1_000]


@st.composite
def _pinned_instance_and_query(draw, min_q=3, betas=_BETAS, max_ell=None):
    # A random graph with random pins, queried at any depth from 0 to n.
    q = draw(st.integers(min_q, 7))
    n = draw(st.integers(3, 8))
    beta = draw(st.sampled_from(betas))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    pins = draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(1, q), min_size=1, max_size=n - 1)
    )
    v = draw(st.sampled_from([u for u in range(n) if u not in pins]))
    ell = draw(st.integers(0, n if max_ell is None else max_ell))
    max_calls = draw(st.sampled_from(_CAPS))
    return Instance(Graph(n, edges), PottsParams(q, beta), pins), v, ell, max_calls


@st.composite
def _hub_instance_and_query(draw):
    # A hub of degree >= q - 1 is high-degree at q = 3-4 and beta <= 0.5, so
    # blocks around it hold several vertices and share prefix positions.
    q = draw(st.integers(3, 4))
    n = draw(st.integers(q, 8))
    beta = draw(st.sampled_from(_BETAS))
    spokes = draw(st.sets(st.integers(1, n - 1), min_size=q - 1))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    edges = sorted({(0, s) for s in spokes} | {e for e in pairs if draw(st.booleans())})
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q), max_size=n - 2))
    v = draw(st.sampled_from([u for u in range(n) if u not in pins]))
    ell = draw(st.integers(0, n))
    max_calls = draw(st.sampled_from(_CAPS))
    return Instance(Graph(n, edges), PottsParams(q, beta), pins), v, ell, max_calls


def _run(inst, v, ell, max_calls):
    try:
        return marginal_vector(inst, v, ell, RecursionLimits(max_calls=max_calls))
    except PottsError as err:
        return type(err)


def _naive(diag):
    return (
        diag.raw_sum,
        diag.recursive_calls,
        diag.termination_events,
        diag.infeasible_events,
        diag.max_block_size,
        diag.max_f_size,
    )


def _check(case):
    # The references run every node through _block_terms, singleton blocks
    # included (tests/test_singleton_evaluator.py compares the two paths).
    general = mock.patch.object(decay, "_lean_vector", lambda *args: None)
    with general, mock.patch.object(decay, "_block_terms", _colour_class_block_terms):
        ref = _run(*case)
        # With the identity for _canonical the reference memo shares a child
        # only between equal prefixes: the schedule without the memo.
        with mock.patch.object(decay, "_canonical", lambda pat, held, free: (pat, ())):
            bare = _run(*case)
    out = _run(*case)
    if isinstance(ref, type):
        assert out is ref and bare is ref
        return
    assert not isinstance(out, type), out
    assert not isinstance(bare, type), bare
    (vec, diag), (ref_vec, ref_diag), (bare_vec, bare_diag) = out, ref, bare
    assert vec == ref_vec == bare_vec
    assert _naive(diag) == _naive(ref_diag) == _naive(bare_diag)
    assert diag.evaluations <= ref_diag.evaluations <= bare_diag.evaluations


@settings(max_examples=200, deadline=None)
@given(_pinned_instance_and_query())
def test_region_key_matches_colour_class_key(case):
    _check(case)


@settings(max_examples=200, deadline=None)
@given(_hub_instance_and_query())
def test_region_key_matches_colour_class_key_on_hubs(case):
    _check(case)


@settings(max_examples=200, deadline=None)
@given(_pinned_instance_and_query(min_q=6, betas=["0"], max_ell=2))
def test_region_key_matches_colour_class_key_near_the_cut_off(case):
    # At q >= 6 and beta = 0 a vertex of degree 2 is low-degree, so two
    # block vertices can share an outside neighbour; at shallow depth that
    # child is a feasibility cut-off, which reads both their pins. That the
    # cut-off keeps every prefix position is checked in test_decay.py
    # (test_cut_off_children_keep_every_prefix_pin).
    _check(case)
