"""Truncated block-recursion estimation of Gibbs marginals.

The estimator answers "what is the conditional probability that vertex v has
color x" by closing v into its minimal permissive block B, enumerating the
feasible block configurations, and expressing the block probability of each
configuration through the exact telescoping identity

    Pr[c(B) = pi] = w(pi) * prod_i (1 - (1-beta) p_i(pi))
                    / sum_rho w(rho) * prod_i (1 - (1-beta) p_i(rho))

where p_i(rho) is the conditional probability, in a sub-instance with the
block's edges removed and the first i-1 boundary spins re-pinned, that the
i-th outside neighbor agrees with the boundary spin facing it. Those inner
probabilities are estimated by the same recursion with a depth budget reduced
by the length of an escape path from v to the i-th boundary edge; a negative
budget bottoms out at 1/q (beta > 0) or at a block-local feasibility
indicator (beta = 0). With enough depth no truncation happens anywhere and
the recursion is an identity, so the result is exact.

One deviation from the one-call-per-(i, rho, color) reading: for a fixed
boundary index i, sub-instances coincide whenever two block configurations
agree on the first i-1 boundary spins, so the recursion evaluates each
distinct sub-instance once, obtains the full color vector of the queried
neighbor, and reads off every needed entry. The arithmetic performed per
value is unchanged, and every enumeration order is fixed, so results are
bit-identical to the naive schedule; recursive_calls counts these distinct
sub-instances.

Colour-class memo. Potts weights do not change when colours are permuted,
and a sub-instance breaks that symmetry only through the colours of its
pins. Within one block and one boundary index, let `held` be the colours of
the parent's pins and `free` the other colours, ascending. A prefix pattern
is canonicalised by relabelling its non-held colours, in order of first
appearance, to free[0], free[1], ...; held colours stay. Only the first
pattern of each canonical class is evaluated, with its pins set to the
canonical pattern, and every pattern of the class reads the result back
through a colour permutation pi fixing `held`: vec[x] = canon_vec[pi(x)].
The estimator is colour-equivariant bit for bit, so this moves no float:
F is only reordered by a colour permutation, every sum over F goes through
_logsumexp (its max and the correctly rounded math.fsum do not depend on
order), boundary factors multiply in index order, which no colour affects,
and the termination values, the marginal cap and the monochromatic-edge
count are colour-free. A memo hit adds the cached subtree's call,
termination and infeasibility counts and checks the limits, so those
counters and max_calls aborts keep the values of the schedule without the
memo; MargDiagnostics.evaluations and cache_hits say what the memo saved.

In-place leaves. A call is a leaf when its vertex is pinned (one-hot
vector) or unpinned at beta > 0 with ell < 0 (uniform, one termination);
_node_vector holds that rule and answers a leaf in its own frame. A leaf
reads its pin and nothing else, so a leaf child is answered without
deriving its graph, pin dict or Instance: its parent hands it to
_node_vector with no removed set (None), and _node_vector answers it
before that set would be read. Whether the child v_i is pinned is read
off the parent's pins, because sub-instances pin only block vertices and
v_i lies outside the block. A leaf child of _block_terms still passes
through the colour memo. _node_vector counts every call first, the root's
included, so each call is counted in one place (recursive_calls and
evaluations, then the limit check when max_calls or deadline is set, then
the termination): no float and no counter moves, and a max_calls abort
lands on the same call.

Prefix trie. The factor 1 - (1-beta) p_i(rho) depends on rho only through
its spins at the first i boundary positions, so there is one factor per
distinct prefix of length i, not one per configuration. _block_terms walks
F as a prefix trie, one level per boundary index i: it evaluates one child
per level-i node, in order of first appearance in F, which is the order
in which the per-configuration schedule meets each new prefix; it then
takes one math.log per level-(i+1) node, keyed (parent node, spin), and
adds that log to the running term of every configuration below the node.
No float moves: each log is that of the same factor, and each term adds the
same logs in boundary-index order from the same log-weight. A factor <= 0
is logged as -inf, which every later addition keeps, so the term is -inf
as before. No counter moves either: children are evaluated, memo hits
included, in the same order, annihilated configurations' children
included, so every count, max_calls abort and first raised error is the
same.

Region key. The children of one boundary index differ only in their prefix
pins, and by read_region's proof a child at (v_i, e) reads no pin outside
its read region. That region depends on which vertices are pinned, not on
their colours, so _block_terms walks _read_region once per index: on the
children's graph, with the parent's pins and every prefix vertex pinned.
One rule, for every block shape, gives the prefix positions index i keeps:
leaf children keep none, since they read nothing but their own pin; index
0, which has no prefix, and the beta = 0 feasibility cut-off (e < 0) keep
all of them, with no walk; any other index keeps the positions whose vertex
its region walk reaches. The cut-off keeps every position on purpose: a
region key there would be just as exact, and waits on ROADMAP item 1. The
memo keys on the canonical form of the pattern restricted to the kept
positions, and a miss pins the kept positions only. The dropped prefix pins
lie outside the region, so leaving them unpinned moves neither the vector
nor recursive_calls, termination_events, infeasible_events, max_block_size
or max_f_size, nor the error raised. When no position is kept, every
pattern shares one vector as is. A walk costs one pass over its region: it
runs breadth first, with no heap, while every vertex it expands has only
low-degree unpinned neighbours, as every vertex does in the paper's FPTAS
regime, and only a walk that meets a high-degree unpinned neighbour runs
the heap walk (see _read_region). An index that walks its region holds only
the colours of the parent's pins inside it (held_i, and free_i the other
colours): its children read no other pin, so a colour permutation that
moves the colour of a pin outside the region changes nothing they read,
and more patterns share a class. Index 0, leaf children and the cut-off
walk nothing and hold every colour of the parent's pins. The memo
counters, and the partial diagnostics of a max_calls abort, may differ
from the whole-prefix key's: a hit adds its whole subtree before the limit
check, and the region key hits more often. A cap still aborts exactly when
the schedule without the memo would.

Singleton blocks. When every vertex is low-degree, as in the paper's FPTAS
regime q > 3(1-beta)Delta + 1, every block is its anchor alone: v's block
is {v} exactly when every unpinned neighbour of v is low-degree. Such a
block has no internal edge, its boundary edges run to v's neighbours w_0 <
w_1 < ..., every escape path has length 1, and F is the palette (beta > 0)
or the palette minus the colours of v's pinned neighbours (beta = 0). The
prefix pattern of colour c at index i >= 1 is (c,)*i, so when index i's
children cannot read v's pin, one vector serves every c. _lean_vector,
which every non-leaf call tries before the general path, serves exactly the
singleton nodes where that holds at every index. Before it evaluates or
counts anything, it walks _read_region for each index i >= 1 whose children
are not leaves (index 0 has no prefix, and a leaf reads only its own pin)
and which follows an unpinned neighbour w_j, j < i, and it declines the
node when a walk reaches v. The walk leaves v unpinned: every vertex whose
pin a walk consults joins its region, so whether the region holds v does
not depend on v's pin. An index whose earlier neighbours are all pinned
needs no walk, because none could reach v. In child i's graph v's only
edges run to w_0, ..., w_{i-1}, and v is not the walk's start w_i. The walk
adds a vertex to its region only as a neighbour of a vertex it expands
(the one-hop row) or of a vertex of B* (the breadth-first search's dist),
so it adds v only next to one of those w_j, and only if that w_j is
expanded or in B*. A pinned vertex is neither: it is never expanded, and
the search adds only unpinned vertices to B*. A declined node takes the
general path, whose colour memo keys the same classes (_canonical((c,))
keeps a held c and maps any other to free[0]). A served node is evaluated
from these facts alone, without minimal_permissive_block, the Block,
feasible_tuples, the prefix trie, _canonical or the by_color combine. It
makes the same children in the same order and takes the same logs, sums
and caps. Each index evaluates its one child directly, with no memo; at
i >= 1 it then charges each further colour of F as a _memo_child hit does:
the subtree's calls, terminations and infeasible events, and one cache
hit. A hit checks the limits after it, so the charges stop at the first
one that passes max_calls; the kernel makes that run in one step, every
charge up to that one, and then checks the limits once (a deadline is thus
read once per run, not once per charge). So no float and no counter moves,
and a max_calls abort lands where it did, with the same partial
diagnostics; it raises the same errors, and leaves a node whose block or
configuration budget is too small to the general path, which raises that
BudgetError. The
gate: it serves beta > 0, and beta = 0 only at ell >= 1. A beta = 0 node at
ell <= 0 is a feasibility cut-off or has cut-off children, which keep the
whole-prefix key (see "Region key"), so it stays on the general path, and
_lean_vector tests the gate before it reads the graph. Without the gate
(ell < 0 in its place) the cut-off children would take the region key,
which is just as exact; dropping the gate waits on ROADMAP item 1. A node
the gate, a budget or a walk turns away runs the general path, which treats
a singleton block as any other block.

Children. Every call has one form: the root graph, the frozenset of
canonical edges removed from it, and a pin dict. Every call enters through
_node_vector, the one call step: _root_vector hands it the root instance's
graph root, removed edges and pins; _lean_vector hands it each child,
leaves included; and _memo_child hands it each child of _block_terms that
the colour memo misses. _node_vector counts the call and answers a leaf.
Otherwise it tries _lean_vector, and when that declines the node (an
unpinned high-degree neighbour, children that can read v's pin, the beta = 0
gate, or a budget), it builds the node's view (graph._view) and Instance,
the one place that builds them, and runs _block_vector, the general path,
on them. A root that falls back builds its own Instance too; with no edge
removed, the root graph is its view. _block_terms' children of index i
remove the node's removed edges, the block's internal edges and its
boundary edges at positions >= i, and get the node's pins with the kept
prefix positions pinned: on a miss _memo_child copies the pins to add them,
and a child with no kept position shares the node's pin dict.
_lean_vector's children of index i remove the node's removed edges and its
boundary edges at positions >= i and share the node's pin dict, since none
of them reads v's pin; no lean child goes through the memo. No call changes
a pin dict it is handed, and an Instance copies its pins. Rows are the
root's rows filtered by the removed set (graph._kept_row), and the
high-degree test reads the root degree first, since a derived degree is
never larger. A child's pins need no check: the root's were checked when
its Instance was built, a child only adds pins, and an added pin puts a
vertex of the graph to a palette colour. (A node that falls back still has
them checked again, by its Instance's __init__.) No removed edge is checked
(graph._view holds the set as given): each is an edge of its node's graph,
which is why marg_block checks a caller's block first. Besides the
fallback, a view is built only for a region walk. Through singleton nodes
the recursion alternates _node_vector and _lean_vector, a flat kernel: a
served node runs _node_vector, _lean_vector, and _denominator with its
_logsumexp, four Python frames, plus _view and _read_region for each region
walk (a low-degree walk never enters _heap_region); a leaf child runs
_node_vector alone. A call adds a _check_limits frame only when max_calls
or deadline is set. The kernel filters v's row, updates the size maxima,
charges the memo hits and clamps to params.marginal_upper_bound inline. The
root call runs in a plain try in _root_vector (and marg_block): a
BudgetError gets the root's diagnostics attached and is re-raised, and a
RecursionError becomes _too_deep's BudgetError. On perfbench's
partition-cycle workload every block is one vertex and no child can read
its node's pin, so no call falls back: no Instance is built, and the only
views are those of the region walks.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from dataclasses import asdict, dataclass

from .blocks import (
    DEFAULT_BLOCK_BUDGET,
    DEFAULT_CONFIG_BUDGET,
    _boundary_edges,
    feasible_tuples,
    minimal_permissive_block,
)
from .errors import BudgetError, InfeasibleError, ParseError, _check_int, _is_real
from .graph import Graph, _check_graph, _kept_row, _view
from .model import (
    Configuration,
    Instance,
    _check_color,
    _check_instance,
    _check_params,
    _check_vertex,
)
from .saw import e_delta_profile


@dataclass
class MargDiagnostics:
    """Instrumentation threaded through one root estimate.

    recursive_calls counts the calls of the schedule that evaluates each
    distinct sub-instance once (see module docstring), including those the
    colour-class memo served from a cached subtree; termination_events and
    infeasible_events count that schedule's depth-exhausted base cases, so
    termination_events == 0 certifies the returned value is exact.
    evaluations counts the calls actually run and cache_hits the children
    read back from the memo; with no hit, evaluations == recursive_calls.
    """

    recursive_calls: int = 0
    termination_events: int = 0
    max_block_size: int = 0
    max_f_size: int = 0
    infeasible_events: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    raw_sum: float | None = None

    def merge(self, other):
        """Add another estimate's counters to these; sizes take the max."""
        self.recursive_calls += other.recursive_calls
        self.termination_events += other.termination_events
        self.max_block_size = max(self.max_block_size, other.max_block_size)
        self.max_f_size = max(self.max_f_size, other.max_f_size)
        self.infeasible_events += other.infeasible_events
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits

    def as_dict(self):
        return asdict(self)


def default_depth(n, coeff=3.0):
    """Default root depth ceil(coeff * ln n), at least 1."""
    _check_int(n, "n", 0)
    if not _is_real(coeff):
        raise ParseError(f"depth coefficient must be a real number, got {coeff!r}")
    if not math.isfinite(coeff):
        raise ParseError(f"depth coefficient must be finite, got {coeff!r}")
    return max(1, math.ceil(coeff * math.log(max(n, 2))))


@dataclass
class RecursionLimits:
    """Work guards for one root estimate.

    block_budget and config_budget bound single-block work; max_calls and
    deadline (a time.monotonic() cutoff) abort runaway recursions with a
    BudgetError. max_calls aborts deterministically, deadline by wall clock.
    """

    block_budget: int = DEFAULT_BLOCK_BUDGET
    config_budget: int = DEFAULT_CONFIG_BUDGET
    max_calls: int | None = None
    deadline: float | None = None

    def __post_init__(self):
        _check_int(self.block_budget, "block_budget", 0)
        _check_int(self.config_budget, "config_budget", 0)
        if self.max_calls is not None:
            _check_int(self.max_calls, "max_calls", 0)
        d = self.deadline
        if not (d is None or _is_real(d) and math.isfinite(d)):
            raise ParseError(f"deadline must be None or a finite real, got {d!r}")


def _limits(limits):
    """The RecursionLimits a root estimate runs under: the defaults for None,
    a RecursionLimits as given, and ParseError for anything else."""
    if limits is None:
        return RecursionLimits()
    if not isinstance(limits, RecursionLimits):
        raise ParseError(f"limits must be None or a RecursionLimits, got {limits!r}")
    return limits


def _depth(ell):
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise ParseError(f"depth must be an integer, got {ell!r}")
    return ell


def escape_paths(graph, block, v):
    """Escape-path length per boundary edge, anchored at v.

    The escape path of boundary edge (u, w) runs from v through block
    vertices to u and finishes with the hop to w, so its length is the hop
    distance from v to u inside the block, plus one.
    """
    if not isinstance(graph, Graph):  # inline: the recursion calls this per node
        _check_graph(graph)
    inside = set(block.vertices)
    if v not in inside:
        raise ParseError(f"escape path anchor {v} is not in the block")
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for a in frontier:
            for b in graph.adjacency[a]:
                if b in inside and b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    lengths = []
    for u, _ in block.boundary_edges:
        if u not in dist:
            raise ParseError(
                f"boundary vertex {u} is unreachable from anchor {v} inside the block"
            )
        lengths.append(dist[u] + 1)
    return lengths


def _check_limits(diag, limits):
    if limits.max_calls is not None and diag.recursive_calls > limits.max_calls:
        raise BudgetError(
            f"recursion call budget {limits.max_calls} exceeded "
            f"(termination_events={diag.termination_events})"
        )
    if limits.deadline is not None and time.monotonic() > limits.deadline:
        raise BudgetError("recursion wall-clock deadline exceeded")


def _too_deep(diag, depth):
    """The BudgetError for a root estimate that overflowed Python's stack.

    A depth too deep for the stack fails with exit code 4 like any budget;
    the error's `diagnostics` attribute holds the counts gathered up to the
    overflow, as for every abort of a root estimate.
    """
    err = BudgetError(
        f"recursion at depth {depth} nested deeper than the Python stack "
        f"allows (recursion limit {sys.getrecursionlimit()}); use a smaller depth"
    )
    err.diagnostics = diag
    return err


def _root_vector(instance, v, ell, limits):
    """The root call at v with depth ell, and its MargDiagnostics.

    Every abort surfaces as a BudgetError whose `diagnostics` attribute
    holds the counts gathered up to it: a budget's own error gets them
    attached in a plain try, and Python's stack limit becomes _too_deep's.
    """
    diag = MargDiagnostics()
    depth = _depth(ell)
    limits = _limits(limits)
    g = instance.graph
    try:
        vec = _node_vector(
            g.root, g.removed, instance.params, instance.pinned, v, depth, diag, limits
        )
    except BudgetError as err:
        err.diagnostics = diag
        raise
    except RecursionError:
        raise _too_deep(diag, depth) from None
    return vec, diag


def _logsumexp(values):
    """log(sum(exp(x) for x in values)), or -inf for no value or all -inf.

    One term is returned as is (x + log(fsum([1.0])) is x, bar the sign of
    a zero). Otherwise hi is the first maximal value and the sum is the
    correctly rounded math.fsum of exp(x - hi) in the values' order. A loop
    builds that list: a comprehension would run a frame of its own.
    """
    if len(values) < 2:
        return values[0] if values else -math.inf
    hi = max(values)
    if hi == -math.inf:
        return hi
    exp = math.exp
    scaled = []
    for x in values:
        scaled.append(exp(x - hi))
    return hi + math.log(math.fsum(scaled))


def _denominator(terms, v=None):
    """_logsumexp of a node's terms, or InfeasibleError when every term is
    annihilated; v names the node's vertex in the message."""
    den = _logsumexp(terms)
    if den == -math.inf:
        at = "" if v is None else f" at vertex {v}"
        raise InfeasibleError(
            f"block recursion denominator vanished{at} (every feasible configuration annihilated)"
        )
    return den


def _canonical(pat, held, free):
    """Canonical representative of a prefix pattern's colour class.

    Non-held colours are relabelled, in order of first appearance, to
    free[0], free[1], ... Returns the canonical pattern and the moves (x, y)
    of a permutation pi on the colours with pi(x) = y, so that the pattern's
    vector is the canonical one read back as vec[x] = canon_vec[pi(x)]. pi
    moves only what it has to: each pattern colour goes to its label and the
    labels it displaces fill the colours the pattern vacated.
    """
    relabel = {}
    for c in pat:
        if c not in held and c not in relabel:
            relabel[c] = free[len(relabel)]
    moves = [(c, y) for c, y in relabel.items() if c != y]
    if not moves:
        return pat, ()
    labels = set(relabel.values())
    displaced = [y for y in relabel.values() if y not in relabel]
    vacated = [c for c in relabel if c not in labels]
    moves.extend(zip(displaced, vacated))
    return tuple(relabel.get(c, c) for c in pat), moves


def _permute(vec, moves):
    """A canonical vector read back through _canonical's moves: out[x] = vec[pi(x)]."""
    if not moves:
        return vec
    out = list(vec)
    for x, y in moves:
        out[x - 1] = vec[y - 1]
    return out


def _memo_child(memo, key, diag, limits, root, removed, params, pinned, at, v, ell):
    """The child vector memoised under key, evaluated by _node_vector on a miss.

    The child is the call at v with depth ell on the root graph minus
    `removed`; its pins are `pinned` with the vertices `at` pinned to the
    colours of key as well, on a copy made only when `at` is non-empty (a
    child with no kept position shares its parent's pin dict, which it
    never changes). The added pins put vertices of the graph to palette
    colours, so they need no check. A miss stores the vector with the
    calls, terminations and infeasible events its subtree counted. A hit
    adds those counts again, counts a cache hit and checks the limits when
    max_calls or deadline is set, so the counters and a max_calls abort
    keep the values of the schedule without the memo.
    """
    hit = memo.get(key)
    if hit is None:
        calls = diag.recursive_calls
        terminations = diag.termination_events
        infeasible = diag.infeasible_events
        if at:
            pinned = dict(pinned)
            pinned.update(zip(at, key))
        vec = _node_vector(root, removed, params, pinned, v, ell, diag, limits)
        memo[key] = (
            vec,
            diag.recursive_calls - calls,
            diag.termination_events - terminations,
            diag.infeasible_events - infeasible,
        )
        return vec
    vec, calls, terminations, infeasible = hit
    diag.recursive_calls += calls
    diag.termination_events += terminations
    diag.infeasible_events += infeasible
    diag.cache_hits += 1
    if limits.max_calls is not None or limits.deadline is not None:
        _check_limits(diag, limits)
    return vec


def _block_terms(instance, block, F, anchor, ell, diag, limits):
    """Log-weight of every feasible block configuration, in F's order.

    Each term is log w(rho) plus the log of the product of boundary factors
    1 - (1-beta) p_i(rho); annihilated terms (a factor exactly 0, only
    possible at beta = 0) come back as -inf. F is walked as a prefix trie,
    one level per boundary index, and each level's children are memoised on
    the prefix positions they can read (see the module docstring).
    """
    graph = instance.graph
    params = instance.params
    q1 = params.q + 1
    one_minus = 1.0 - params.beta_float
    held = set(instance.pinned.values())
    free = [c for c in range(1, q1) if c not in held]
    verts = block.vertices
    bedges = block.boundary_edges
    pos = {u: i for i, u in enumerate(verts)}
    internal = graph.induced_edges(verts)
    upos = [pos[u] for u, _ in bedges]
    lengths = escape_paths(graph, block, anchor)

    cut = [(u, w) if u < w else (w, u) for u, w in bedges]  # canonical boundary edges

    terms = [0.0] * len(F)
    if params.beta_positive and internal:
        ln_beta = math.log(params.beta_float)
        ipos = [(pos[a], pos[b]) for a, b in internal]
        for k, t in enumerate(F):
            mono = sum(1 for a, b in ipos if t[a] == t[b])
            if mono:
                terms[k] = mono * ln_beta
    node = [0] * len(F)  # each configuration's trie node at the current level
    pats = [()]  # each node's prefix pattern, in first-appearance order; F is not empty
    for i, (_, v_i) in enumerate(bedges):
        pin_i = instance.pinned.get(v_i)  # v_i lies outside the block
        sub_ell = ell - lengths[i]
        removed_i = None
        held_i, free_i = held, free
        # The prefix positions whose pin the children of index i can read
        # (see "Region key" in the module docstring), and each node's
        # pattern restricted to them.
        kept = range(i)
        if pin_i is not None or (params.beta_positive and sub_ell < 0):
            kept = ()  # leaf children read only v_i's pin (_node_vector's leaf rule)
        else:
            # Every child of index i drops the block's internal edges and
            # the boundary edges at positions >= i.
            removed_i = graph.removed.union(internal, cut[i:])
            if i and sub_ell >= 0:
                pinned = set(instance.pinned)
                pinned.update(verts[p] for p in upos[:i])
                region = _read_region(_view(graph.root, removed_i), params, pinned, v_i, sub_ell)
                kept = [j for j in kept if verts[upos[j]] in region]
                # The children read only the parent's pins inside the region.
                held_i = {instance.pinned[u] for u in region if u in instance.pinned}
                free_i = [c for c in range(1, q1) if c not in held_i]
        subs = pats if len(kept) == i else [tuple([pat[j] for j in kept]) for pat in pats]
        at = [verts[upos[j]] for j in kept]
        vectors = []
        memo = {}
        for sub in subs:
            canon, moves = _canonical(sub, held_i, free_i) if free_i and sub else (sub, ())
            vec = _memo_child(
                memo, canon, diag, limits,
                graph.root, removed_i, params, instance.pinned, at, v_i, sub_ell,
            )
            vectors.append(_permute(vec, moves))

        # Level i+1: one node, and one log factor, per (parent node, spin),
        # numbered in first-appearance order.
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


def _lean_vector(root, removed, params, pinned, v, ell, diag, limits):
    """The vector at a node whose block is v alone and whose children cannot
    read v's pin, on the graph root minus the edges `removed`; None for any
    other node.

    Serves beta > 0, or beta = 0 at ell >= 1, and returns None, before
    counting anything or evaluating any child, when an unpinned neighbour of
    v is high-degree, a block or configuration budget would be exceeded, or
    the region walk of some non-leaf index i >= 1 reaches v; the gate is
    tested before the graph is read, and the budgets before any walk. Each
    child is handed to _node_vector as the same root, the removed set grown
    by the boundary edges it drops (None for a leaf child, which reads only
    its pin), and the parent's pin dict. This function builds a view only
    for the region walks. Besides _node_vector and the walks it calls only
    _denominator, _check_limits once per run of charges when a limit is
    set, and graph._kept_row for a neighbour of high root degree: v's kept
    row, the size maxima, the charges, the cap (params.marginal_upper_bound
    of v's degree) and its clamp are written out here. See "Singleton
    blocks" and "Children" in the module docstring.
    """
    beta_positive = params.beta_positive
    if not beta_positive and ell < 1:
        return None
    rows = root.adjacency
    nbrs = []  # v's kept row (graph._kept_row)
    bedges = []  # the canonical boundary edge to each of nbrs
    for w in rows[v]:
        e = (v, w) if v < w else (w, v)
        if e not in removed:
            nbrs.append(w)
            bedges.append(e)
    q = params.q
    F = range(q)  # the feasible colours, 0-based
    if not beta_positive:
        banned = {pinned[w] - 1 for w in nbrs if w in pinned}
        F = [c for c in F if c not in banned]
    n_f = len(F)
    if limits.block_budget < 1 or n_f > limits.config_budget:
        return None
    max_low = params.max_low_degree
    sub_ell = ell - 1
    sub_removed = [None] * len(nbrs)  # a leaf child gets no graph
    opened = False  # whether some earlier neighbour is unpinned
    for i, w in enumerate(nbrs):
        if w in pinned:
            continue
        # A derived degree is never larger than the root degree.
        if len(rows[w]) > max_low and len(_kept_row(rows, removed, w)) > max_low:
            return None
        if sub_ell >= 0:  # not a leaf child; the gate keeps sub_ell >= 0 at beta = 0
            # The children of index i drop the boundary edges at positions
            # >= i. If they can read v's pin (the walk leaves v unpinned),
            # the node is declined; no walk reaches v before an earlier
            # neighbour is unpinned (see "Singleton blocks").
            sub_removed[i] = removed.union(bedges[i:])
            if opened and v in _read_region(
                _view(root, sub_removed[i]), params, pinned, w, sub_ell
            ):
                return None
        opened = True
    if diag.max_block_size < 1:
        diag.max_block_size = 1
    if diag.max_f_size < n_f:
        diag.max_f_size = n_f
    if not n_f:
        raise InfeasibleError(f"no feasible block configuration around vertex {v}")

    log = math.log
    exp = math.exp
    neg_inf = -math.inf
    one_minus = 1.0 - params.beta_float
    max_calls = limits.max_calls
    checked = max_calls is not None or limits.deadline is not None
    extra = n_f - 1  # the memo hits an index i >= 1 charges
    terms = [0.0] * n_f
    for i, w in enumerate(nbrs):
        # One child serves every colour. Index 0 has one prefix, (), so one
        # child; at i >= 1 each further colour is charged as a memo hit (see
        # _memo_child).
        calls = diag.recursive_calls
        terminations = diag.termination_events
        infeasible = diag.infeasible_events
        vec = _node_vector(root, sub_removed[i], params, pinned, w, sub_ell, diag, limits)
        if i and extra:
            calls = diag.recursive_calls - calls
            terminations = diag.termination_events - terminations
            infeasible = diag.infeasible_events - infeasible
            # A hit checks the limits after it, so the run of hits stops at
            # the first that passes max_calls: the hits-th, for the least
            # hits with recursive_calls + hits * calls > max_calls. The
            # child left recursive_calls <= max_calls, and calls >= 1.
            hits = extra
            if max_calls is not None:
                hits = min(hits, (max_calls - diag.recursive_calls) // calls + 1)
            diag.recursive_calls += hits * calls
            diag.termination_events += hits * terminations
            diag.infeasible_events += hits * infeasible
            diag.cache_hits += hits
            if checked:
                _check_limits(diag, limits)
        for k, c in enumerate(F):
            x = vec[c]
            if x:  # a zero entry's factor is 1.0, and terms[k] + log(1.0) is terms[k]
                factor = 1.0 - one_minus * x
                terms[k] += log(factor) if factor > 0.0 else neg_inf

    den = _denominator(terms, v)
    cap = q - params.one_minus_beta_float * len(nbrs)  # params.marginal_upper_bound
    cap = 1.0 / cap if cap > 1.0 else 1.0
    out = [0.0] * q
    for c, t in zip(F, terms):
        if t != neg_inf:
            p = exp(t - den)
            out[c] = p if p < cap else cap
    return out


def _node_vector(root, removed, params, pinned, v, ell, diag, limits):
    """The vector of one call of the recursion: the call at v with depth ell
    on the root graph minus the edges `removed`, with the pins `pinned`.

    Every call, the root's included, enters here and is counted here, before
    the limits are checked (only when max_calls or deadline is set). A leaf
    is answered in place: a pinned v gets its one-hot vector, and an
    unpinned v at beta > 0 with ell < 0 the uniform vector and one
    termination. It reads only v's pin, so a leaf child may pass removed =
    None. _lean_vector evaluates a node it serves; any other node gets its
    view and Instance built here, the one place that builds them, and runs
    the general path, _block_vector. Only the root call can have no edge
    removed, and its view is then the root graph itself.
    """
    diag.recursive_calls += 1
    diag.evaluations += 1
    if limits.max_calls is not None or limits.deadline is not None:
        _check_limits(diag, limits)
    pin = pinned.get(v)
    if pin is not None:
        out = [0.0] * params.q
        out[pin - 1] = 1.0
        return out
    if params.beta_positive and ell < 0:
        diag.termination_events += 1
        return [1.0 / params.q] * params.q
    out = _lean_vector(root, removed, params, pinned, v, ell, diag, limits)
    if out is None:
        instance = Instance(_view(root, removed) if removed else root, params, pinned)
        out = _block_vector(instance, v, ell, diag, limits)
    return out


def _block_vector(instance, v, ell, diag, limits):
    """Full per-color estimate vector at v by the general block path, for a
    call _node_vector counted and found no leaf, and _lean_vector declined."""
    params = instance.params
    q = params.q
    block = minimal_permissive_block(instance, (v,), limits.block_budget)
    if len(block.vertices) > diag.max_block_size:
        diag.max_block_size = len(block.vertices)
    F = feasible_tuples(instance, block.vertices, limits.config_budget)
    if len(F) > diag.max_f_size:
        diag.max_f_size = len(F)
    vpos = block.vertices.index(v)
    if not params.beta_positive and ell < 0:
        diag.termination_events += 1
        if not F:
            diag.infeasible_events += 1
            return [0.0] * q
        ok = {t[vpos] for t in F}
        return [1.0 / q if x in ok else 0.0 for x in range(1, q + 1)]
    if not F:
        raise InfeasibleError(f"no feasible block configuration around vertex {v}")
    terms = _block_terms(instance, block, F, v, ell, diag, limits)
    den = _denominator(terms, v)
    by_color = [[] for _ in range(q)]
    for t, lw in zip(F, terms):
        if lw != -math.inf:
            by_color[t[vpos] - 1].append(lw)
    cap = params.marginal_upper_bound(instance.graph.degree(v))
    out = []
    for lst in by_color:
        num = _logsumexp(lst)
        out.append(0.0 if num == -math.inf else min(math.exp(num - den), cap))
    return out


def read_region(instance, v, ell):
    """A superset of the vertices whose pin the estimate at (v, ell) can read.

    Pins outside the returned set may be added, removed or recoloured
    without changing marginal_vector(instance, v, ell)'s vector, its
    recursive_calls, termination_events, infeasible_events, max_block_size
    or max_f_size, or the PottsError it raises; the set itself is computed
    from the pins inside it only. The graph is held fixed. (The memo's
    evaluations and cache_hits may change, and the memo moves no float. A
    walked index of _block_terms holds only the colours of its parent's
    pins inside its children's region. That is exact by this very claim:
    a child reads no pin outside the region, so it reads none of their
    colours, and a colour permutation that fixes those colours recolours
    only pins outside the region, which by this claim move nothing.)

    Proof, by induction on the depth of the call. A call of the recursion
    (_node_vector: its leaf rule, then _lean_vector or _block_vector) at u
    with depth e, in a derived instance whose graph is a subgraph of the
    root's and whose pinned set contains the root's, reads:

    - u's pin. A pinned u is a leaf and reads nothing else; so is an
      unpinned u at beta > 0 with e < 0.
    - Otherwise its block B(u), the pins and degrees of B(u)'s neighbours
      (block closure, feasible tuples, the beta = 0 cut-off at e < 0), and
      for e >= 0 the children at the outside ends of B(u)'s boundary edges.
      Sub-instances only remove edges and pin block vertices, so every
      vertex B(u) absorbs is unpinned in the root instance and of high
      degree in the root graph, and B(u) lies inside B*(u): u closed, in
      the root graph, through root-unpinned vertices of high root degree.
    - The child at the far end of boundary edge (b, w) gets depth
      e - d_B(u, b) - 1, where d_B is the hop distance inside B(u) in the
      derived graph; that is at most e - d*(w), where d* is the hop
      distance from u along root-graph paths whose inner vertices lie in
      B*(u). Its instance is again a derived one.

    So the reads of (u, e) lie in R(u, e): {u} for the leaves above, else
    B*(u) with its neighbours, together with R(x, e - d*(x)) for every x
    of those other than u when e >= 0. When every unpinned neighbour of u is
    low-degree, B*(u) is {u}, its neighbours are u's, and d* is 1 on each:
    such a one-hop state adds u's row at e - 1. R(u, e) only grows with e,
    so a state (u, e) is pruned when u was already expanded at a depth >= e;
    states are expanded deepest first, so each vertex is expanded once.

    Breadth first. While every state the walk expands is a one-hop state,
    each hop costs exactly one unit of depth. So the states come in levels,
    all of depth e before any of depth e - 1, and a vertex is deepest when
    first seen: the first expanded vertex whose row holds x is at the
    deepest level any such vertex reaches, and it gives x the state e - 1. A
    vertex already in the region was added at a level >= e, so it holds a
    state >= e - 1 already, unless it was added at a level below 0, which is
    the last level expanded. A walk level by level, with the region as its
    visited set, thus expands the states the heap walk expands and returns
    the same set, with no heap and no best map. At the first expanded vertex
    with an unpinned high-degree neighbour a hop may cost more than one
    unit, so _read_region starts the heap walk (_heap_region) afresh from v.
    """
    _check_instance(instance)
    _common_checks(instance, v)
    return _read_region(instance.graph, instance.params, instance.pinned, v, _depth(ell))


def _read_region(graph, params, pinned, v, ell):
    """read_region on a graph and any container of pinned vertices.

    Breadth first, one level per unit of depth, with the region as its
    visited set, while every vertex it expands has only low-degree unpinned
    neighbours; at the first vertex that has another, it hands the walk to
    _heap_region, which starts again from v (see read_region's proof).
    """
    adj = graph.adjacency
    max_low = params.max_low_degree
    region = {v}
    level = [v]
    e = ell
    # At beta > 0 a state with e < 0 is a leaf, so no level below 0 expands.
    while level and (e >= 0 or not params.beta_positive):
        nxt = []
        for u in level:
            if u in pinned:
                continue
            row = adj[u]
            for w in row:
                if w not in pinned and len(adj[w]) > max_low:
                    return _heap_region(graph, params, pinned, v, ell)
            if e < 0:  # the beta = 0 cut-off reads its row and expands nothing
                region.update(row)
                continue
            for x in row:
                if x not in region:
                    region.add(x)
                    nxt.append(x)
        level = nxt
        e -= 1
    return region


def _heap_region(graph, params, pinned, v, ell):
    """_read_region's walk over states (u, e), popped deepest first.

    Each expanded state runs a breadth-first search over B*(u) for d*, which
    on a state whose unpinned neighbours are all low-degree finds u's row
    at distance 1. Every state is pushed from a search's dist, which joins
    the region first, so the region starts as {v} and a pop adds nothing.
    """
    adj = graph.adjacency
    max_low = params.max_low_degree
    beta_positive = params.beta_positive
    region = {v}
    best = {v: ell}
    heap = [(-ell, v)]
    while heap:
        neg_e, u = heapq.heappop(heap)
        e = -neg_e
        if best[u] != e or u in pinned or (beta_positive and e < 0):
            continue
        # d* over B*(u) and its neighbours, breadth first from u; only B*
        # vertices (u, then unpinned high-degree ones) are expanded.
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                d = dist[a] + 1
                for w in adj[a]:
                    if w not in dist:
                        dist[w] = d
                        if w not in pinned and len(adj[w]) > max_low:
                            nxt.append(w)
            frontier = nxt
        region.update(dist)
        if e < 0:
            continue
        for x, d in dist.items():
            ex = e - d
            if x != u and ex > best.get(x, ex - 1):
                best[x] = ex
                heapq.heappush(heap, (-ex, x))
    return region


def _region_steps(instance, order, depth):
    """[(v, the pinned vertices of v's read region, ascending)] along order.

    The pinned set at v is the instance's pins plus the vertices before v in
    order, as in a telescoping or sequential-sampling pass. By read_region's
    proof, the depth-`depth` estimate at v reads no other pin, so a step may
    carry these pins alone.
    """
    graph = instance.graph
    params = instance.params
    pinned = set(instance.pinned)
    steps = []
    for v in order:
        region = _read_region(graph, params, pinned, v, depth)
        steps.append((v, sorted(region & pinned)))
        pinned.add(v)
    return steps


def _check_q(params):
    """Raise ParseError unless q >= 3, which the estimator needs."""
    if params.q < 3:
        raise ParseError("the estimator needs q >= 3")


def _common_checks(instance, v):
    _check_q(instance.params)
    _check_vertex(instance.graph, v)


def _marg_scalar(instance, v, x, ell, limits):
    """Pr[c(v) = x] from the root vector; the body of marg and marg_coloring."""
    _common_checks(instance, v)
    _check_color(instance.params, x)
    vec, diag = _root_vector(instance, v, ell, limits)
    return vec[x - 1], diag


def marg(instance, v, x, ell, limits=None):
    """Estimate Pr[c(v) = x], beta > 0 variant. Returns (value, diagnostics)."""
    _check_instance(instance)
    if instance.params.beta == 0:
        raise ParseError("beta = 0: use marg_coloring")
    return _marg_scalar(instance, v, x, ell, limits)


def marg_coloring(instance, v, x, ell, limits=None):
    """Estimate Pr[c(v) = x], beta = 0 (proper coloring) variant."""
    _check_instance(instance)
    if instance.params.beta != 0:
        raise ParseError("beta > 0: use marg")
    return _marg_scalar(instance, v, x, ell, limits)


def marginal_vector(instance, v, ell, limits=None):
    """Raw clamped per-color estimates at v (no normalization applied)."""
    _check_instance(instance)
    _common_checks(instance, v)
    vec, diag = _root_vector(instance, v, ell, limits)
    diag.raw_sum = math.fsum(vec)
    return vec, diag


def marginal_distribution(instance, v, ell, limits=None):
    """Normalized per-color estimate vector at v. Returns (vector, diagnostics)."""
    vec, diag = marginal_vector(instance, v, ell, limits)
    s = diag.raw_sum
    if s <= 0.0:
        raise InfeasibleError(f"all colors infeasible at vertex {v}")
    return [x / s for x in vec], diag


def marg_block(instance, block, pi, ell, anchor=None, limits=None):
    """Block-configuration probability estimate for pi among F(block).

    anchor fixes the vertex the escape paths start from; it defaults to the
    lowest block vertex and must match the query vertex when reproducing a
    step of the full recursion. The block must hold unpinned vertices of
    the graph, and its boundary_edges must list each edge leaving it once,
    as (block vertex, outside vertex), in any order.
    """
    _check_instance(instance)
    _check_q(instance.params)
    limits = _limits(limits)
    graph = instance.graph
    verts = block.vertices
    if not verts:
        raise ParseError("a block needs at least one vertex")
    for u in verts:
        _check_vertex(graph, u)
        if u in instance.pinned:
            raise ParseError(f"block vertex {u} is pinned")
    # The children's removed sets hold the block's edges unchecked
    # (graph._view), so each must be an edge of the graph.
    try:
        exact = sorted(map(tuple, block.boundary_edges)) == _boundary_edges(graph, set(verts))
    except TypeError:  # an entry that is not a pair of vertex ids
        exact = False
    if not exact:
        raise ParseError("boundary_edges must list each edge leaving the block once")
    if anchor is None:
        anchor = verts[0]
    _check_vertex(graph, anchor)
    pi = Configuration(pi)
    missing = [u for u in verts if u not in pi]
    if missing:
        raise ParseError(f"pi leaves block vertices {missing} uncolored")
    t_pi = tuple(pi[u] for u in verts)
    F = feasible_tuples(instance, verts, limits.config_budget)
    try:
        idx = F.index(t_pi)
    except ValueError:
        raise ParseError("pi is not a feasible configuration of this block") from None
    diag = MargDiagnostics()
    diag.max_block_size = len(verts)
    diag.max_f_size = len(F)
    depth = _depth(ell)
    try:
        terms = _block_terms(instance, block, F, anchor, depth, diag, limits)
    except BudgetError as err:
        err.diagnostics = diag
        raise
    except RecursionError:
        raise _too_deep(diag, depth) from None
    den = _denominator(terms)
    num = terms[idx]
    return 0.0 if num == -math.inf else math.exp(num - den)


def error_bound(graph, v, L, params, alpha, prefactor="conservative"):
    """A-priori truncation error envelope from the walk-sum tail.

    Sums the delta-weighted walk sums over lengths L+1 .. theta*L, where
    theta is derived from the caller-supplied empirical decay rate alpha
    (take it from verify_contraction's gamma), and scales by a feasibility
    prefactor: q + n*ln(1/beta) by default (prefactor="degree" uses the
    vertex degree instead of n), or n*ln(q) when beta = 0.
    """
    _check_graph(graph)
    _check_params(params)
    _check_vertex(graph, v)
    if _depth(L) < 1:
        raise ParseError("depth L must be >= 1")
    if not _is_real(alpha):
        raise ParseError(f"alpha must be a real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ParseError(f"alpha must be in (0, 1); got {alpha} (no contraction certified)")
    if prefactor not in ("conservative", "degree"):
        raise ParseError(f"unknown prefactor mode {prefactor!r}")
    q = params.q
    beta_f = params.beta_float
    arg = (q - 1) / (2.0 * (1.0 - beta_f))
    theta = max(math.ceil(math.log(arg) / math.log(1.0 / alpha) - 1e-12), 2)
    sums = e_delta_profile(graph, v, theta * L, params)
    tail = math.fsum(sums[L + 1 : theta * L + 1])
    if params.beta == 0:
        pref = graph.n * math.log(q)
    elif prefactor == "conservative":
        pref = q + graph.n * math.log(1.0 / beta_f)
    else:
        pref = q + graph.degree(v) * math.log(1.0 / beta_f)
    return pref * tail
