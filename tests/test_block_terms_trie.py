"""Property test: the prefix-trie walk of `decay._block_terms` returns exactly
what the loop with one prefix tuple and one log per (configuration, boundary
edge) returns, with the same counters and the same errors. Both key the
colour memo on the prefix positions the children can read (the region key),
and at an index that walks its region both hold only the colours of the
parent's pins inside it; `test_region_key.py` checks that key against the
whole-prefix one.

Needs Hypothesis (in the `test` extras); the module skips without it.
"""

import math
from contextlib import contextmanager
from dataclasses import fields
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pottsdecay import (  # noqa: E402
    Block,
    Graph,
    Instance,
    MargDiagnostics,
    PottsError,
    PottsParams,
    RecursionLimits,
    decay,
    feasible_tuples,
    marg_block,
    marginal_vector,
)


def _leaf(params, pin, ell, diag, limits):
    """Reference copy of the recursion's leaf rule: count the call, check
    the limits, and return the vector of a leaf (a pinned vertex, or an
    unpinned one at beta > 0 with ell < 0); None for any other call."""
    diag.recursive_calls += 1
    diag.evaluations += 1
    decay._check_limits(diag, limits)
    q = params.q
    if pin is not None:
        out = [0.0] * q
        out[pin - 1] = 1.0
        return out
    if params.beta_positive and ell < 0:
        diag.termination_events += 1
        return [1.0 / q] * q
    return None


def _naive_block_terms(instance, block, F, anchor, ell, diag, limits):
    """Reference: every child per boundary index in F's order, then each
    configuration's term from one prefix tuple and one log per boundary edge."""
    graph = instance.graph
    params = instance.params
    beta_f = params.beta_float
    one_minus = 1.0 - beta_f
    held = set(instance.pinned.values())
    free = [c for c in range(1, params.q + 1) if c not in held]
    verts = block.vertices
    pos = {u: i for i, u in enumerate(verts)}
    bedges = block.boundary_edges
    m = len(bedges)
    internal = graph.induced_edges(verts)
    ipos = [(pos[a], pos[b]) for a, b in internal]
    upos = [pos[u] for u, _ in bedges]
    lengths = decay.escape_paths(graph, block, anchor)
    ln_beta = math.log(beta_f) if params.beta_positive else None

    child = []
    for i in range(m):
        _, v_i = bedges[i]
        pin_i = instance.pinned.get(v_i)
        g_i = None
        sub_ell = ell - lengths[i]
        vectors = {}
        memo = {}
        prefix_pos = upos[:i]
        held_i, free_i = held, free
        if pin_i is not None or (params.beta_positive and sub_ell < 0):
            kept = []
        elif sub_ell < 0:
            kept = list(range(i))
        else:
            g_i = graph.remove_edges([*internal, *bedges[i:]])
            pinned = set(instance.pinned) | {verts[p] for p in prefix_pos}
            region = decay._read_region(g_i, params, pinned, v_i, sub_ell)
            kept = [j for j, p in enumerate(prefix_pos) if verts[p] in region]
            # A walked index holds only the colours of the parent's pins
            # inside its region: the children read no other pin.
            held_i = {c for u, c in instance.pinned.items() if u in region}
            free_i = [c for c in range(1, params.q + 1) if c not in held_i]
        for t in F:
            pat = tuple(t[p] for p in prefix_pos)
            if pat in vectors:
                continue
            key = tuple(pat[j] for j in kept)
            canon, moves = decay._canonical(key, held_i, free_i) if free_i else (key, ())
            hit = memo.get(canon)
            if hit is None:
                calls = diag.recursive_calls
                terminations = diag.termination_events
                infeasible = diag.infeasible_events
                vec = _leaf(params, pin_i, sub_ell, diag, limits)
                if vec is None:
                    if g_i is None:
                        g_i = graph.remove_edges([*internal, *bedges[i:]])
                    pins = dict(instance.pinned)
                    for j, c in zip(kept, canon):
                        pins[verts[prefix_pos[j]]] = c
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
            vectors[pat] = decay._permute(vec, moves)
        child.append(vectors)

    terms = []
    for t in F:
        if ln_beta is not None:
            mono = sum(1 for a, b in ipos if t[a] == t[b])
            lw = mono * ln_beta if mono else 0.0
        else:
            lw = 0.0
        alive = True
        prefix = ()
        for i in range(m):
            spin = t[upos[i]]
            factor = 1.0 - one_minus * child[i][prefix][spin - 1]
            if factor <= 0.0:
                alive = False
                break
            lw += math.log(factor)
            prefix = prefix + (spin,)
        terms.append(lw if alive else -math.inf)
    return terms


@st.composite
def _hub_instance_and_query(draw):
    # A hub of degree >= q - 1 is high-degree at q = 3-4 and beta <= 0.5, so
    # blocks around it hold several vertices and prefixes are shared.
    q = draw(st.integers(3, 4))
    n = draw(st.integers(q, 7))
    beta = draw(st.sampled_from(["0", "0", "0.25", "0.5"]))
    spokes = draw(st.sets(st.integers(1, n - 1), min_size=q - 1))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    edges = sorted({(0, s) for s in spokes} | {e for e in pairs if draw(st.booleans())})
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q), max_size=n - 2))
    v = draw(st.sampled_from([u for u in range(n) if u not in pins]))
    ell = draw(st.sampled_from([n, 0, 1, 2]))
    max_calls = draw(st.sampled_from([20_000, 20_000, 5, 40, 200]))
    inst = Instance(Graph(n, edges), PottsParams(q, beta), pins)
    return inst, v, ell, max_calls


@st.composite
def _forced_block_query(draw):
    # marg_block takes any block. One that is not permissive can have a
    # boundary neighbour that its pins force to one colour; at full depth its
    # factor for that colour is exactly 0, so configurations are annihilated,
    # all of them when the block's colours are forced too.
    q = draw(st.integers(3, 4))
    n = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.integers(0, 3))]
    pins = draw(st.dictionaries(st.integers(1, n - 1), st.integers(1, q), max_size=n - 2))
    inside = {0} | draw(st.sets(st.sampled_from([u for u in range(n) if u not in pins])))
    ell = draw(st.sampled_from([n, n, 0, 1]))
    max_calls = draw(st.sampled_from([20_000, 20_000, 5, 40]))
    pick = draw(st.integers(0, 10**6))
    inst = Instance(Graph(n, edges), PottsParams(q, "0"), pins)
    adj = inst.graph.adjacency
    boundary = [(u, w) for u in sorted(inside) for w in adj[u] if w not in inside]
    return inst, Block(inside, boundary), pick, ell, max_calls


def _run(inst, v, ell, max_calls):
    """(vector, every diagnostics field) or (error type, message, partial fields)."""
    try:
        vec, diag = marginal_vector(inst, v, ell, RecursionLimits(max_calls=max_calls))
    except PottsError as err:
        return _error(err)
    return vec, _fields(diag)


def _run_block(inst, block, pick, ell, max_calls):
    """marg_block of F's configuration number `pick` (mod |F|), or the error."""
    F = feasible_tuples(inst, block.vertices)
    if not F:
        return None
    pi = dict(zip(block.vertices, F[pick % len(F)]))
    try:
        limits = RecursionLimits(max_calls=max_calls)
        return marg_block(inst, block, pi, ell, anchor=0, limits=limits)
    except PottsError as err:
        return _error(err)


def _error(err):
    partial = getattr(err, "diagnostics", None)
    return type(err).__name__, str(err), partial and _fields(partial)


def _fields(diag):
    return tuple(getattr(diag, f.name) for f in fields(MargDiagnostics))


@contextmanager
def _general_path_with(block_terms):
    """Every node through block_terms, singleton blocks included."""
    with mock.patch.object(decay, "_lean_vector", lambda *args: None):
        with mock.patch.object(decay, "_block_terms", block_terms):
            yield


@settings(max_examples=150, deadline=None)
@given(_hub_instance_and_query())
def test_trie_matches_per_edge_reference(case):
    with _general_path_with(_naive_block_terms):
        naive = _run(*case)
    assert _run(*case) == naive


@settings(max_examples=150, deadline=None)
@given(_forced_block_query())
def test_trie_matches_per_edge_reference_with_annihilation(case):
    with _general_path_with(_naive_block_terms):
        naive = _run_block(*case)
    assert _run_block(*case) == naive
