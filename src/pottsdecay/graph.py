"""Sparse simple graphs, deterministic generators, and the instance file format.

Vertices are always the dense range 0..n-1. Edges are unordered pairs stored
canonically as (u, v) with u < v, sorted lexicographically, and adjacency
lists are sorted ascending. Every enumeration order in the package
ultimately derives from these orders, which is what makes results
bit-reproducible.

Graphs are immutable. A graph built by the constructor is a root graph;
remove_edges returns a view of it, which holds the root graph and the
frozenset of canonical edges removed from it. A view of a view is again a
view of the root, so deriving a graph costs O(removed edges), not O(m). A
view filters a vertex's adjacency row from the root's the first time it is
read and builds its edge tuple only when asked for; its values and orders
are those of a root graph built from the remaining edges. Every view is
built by _view and every filtered row by _kept_row. Code that walks derived
graphs without building views (the estimator's recursion, which never calls
remove_edges) holds a graph as its root and removed set and uses the same
two helpers.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .model import _check_int, _check_seed, _is_real


def _endpoint(x, e):
    """x as an int; ParseError unless it is a Python or numpy integer, not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ParseError(f"edge endpoint must be an integer, got {x!r} in edge {e!r}")
    return int(x)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1 (root or view)."""

    __slots__ = ("n", "m", "adjacency", "_root", "_removed", "_edges")

    def __init__(self, n, edges=()):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ParseError(f"vertex count must be a non-negative integer, got {n!r}")
        n = int(n)
        seen = set()
        canon = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ParseError(f"edge must be a pair of vertices, got {e!r}") from None
            u, v = _endpoint(u, e), _endpoint(v, e)
            if u == v:
                raise ParseError(f"self-loop ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range in edge ({u}, {v}) for n={n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ParseError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        adj = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(canon)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._root = None
        self._removed = frozenset()
        self._edges = tuple(canon)

    @property
    def root(self):
        """The root graph this graph derives from: itself for a root graph."""
        return self if self._root is None else self._root

    @property
    def removed(self):
        """The canonical edges removed from the root graph (empty for a root)."""
        return self._removed

    @property
    def edges(self):
        """Canonical edges, sorted; a view builds the tuple on first access."""
        if self._edges is None:
            removed = self._removed
            self._edges = tuple(e for e in self._root._edges if e not in removed)
        return self._edges

    def degree(self, v):
        return len(self.adjacency[v])

    def remove_edges(self, drop):
        """Return a view with the given edges removed; vertex set unchanged.

        Vertices that lose all their edges stay in the graph as isolated
        vertices, so ids remain stable across derived graphs. Pairs that are
        not edges of this graph are ignored. Costs O(|drop| + edges already
        removed from the root graph).
        """
        root = self if self._root is None else self._root
        rows = root.adjacency
        n = self.n
        gone = []
        for u, v in drop:
            if u > v:
                u, v = v, u
            if 0 <= u < n and v in rows[u]:
                gone.append((u, v))
        return _view(root, self._removed.union(gone))

    def induced_edges(self, vertices):
        """Edges with both endpoints in the given vertex set, canonical order.

        Reads only the adjacency rows of the given vertices; ids outside
        0..n-1 are not vertices and are ignored.
        """
        n = self.n
        inside = {u for u in vertices if 0 <= u < n}
        adj = self.adjacency
        return [(u, w) for u in sorted(inside) for w in adj[u] if w > u and w in inside]

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class _ViewAdjacency(dict):
    """Adjacency rows of a view: row v is the root's row v minus removed edges.

    len() and iteration behave like a root graph's tuple of rows, and so
    does indexing by a vertex id 0..n-1; any other index raises IndexError.
    A row is filtered on first access and kept; later reads are plain dict
    lookups.
    """

    __slots__ = ("_rows", "_removed")

    def __init__(self, rows, removed):
        super().__init__()
        self._rows = rows
        self._removed = removed

    def __missing__(self, v):
        if not 0 <= v < len(self._rows):
            raise IndexError(f"vertex id {v!r} out of range for n={len(self._rows)}")
        row = _kept_row(self._rows, self._removed, v)
        self[v] = row
        return row

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return (self[v] for v in range(len(self._rows)))


def _check_graph(graph):
    """Raise ParseError unless graph is a Graph."""
    if not isinstance(graph, Graph):
        raise ParseError(f"expected a Graph, got {type(graph).__name__}")


def _view(root, removed):
    """The view of root graph `root` without the canonical edges in `removed`.

    `removed` is a frozenset of canonical edges of `root`; it is held as
    given, neither copied nor checked.
    """
    view = Graph.__new__(Graph)
    view.n = root.n
    view.m = root.m - len(removed)
    view._root = root
    view._removed = removed
    view._edges = None
    view.adjacency = _ViewAdjacency(root.adjacency, removed)
    return view


def _kept_row(rows, removed, v):
    """Row v of a root graph's rows, without the canonical edges in `removed`."""
    return tuple([w for w in rows[v] if ((v, w) if v < w else (w, v)) not in removed])


def generate_path(n):
    """Path on n >= 1 vertices: edges (i, i+1)."""
    _check_int(n, "n", 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def generate_cycle(n):
    """Cycle on n >= 3 vertices."""
    _check_int(n, "n", 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def generate_complete(n):
    """Complete graph on n >= 1 vertices."""
    _check_int(n, "n", 1)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def generate_star(k):
    """Star with center 0 and k >= 1 leaves 1..k."""
    _check_int(k, "k", 1)
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def generate_caterpillar(n, k):
    """Caterpillar: spine path 0..n-1, each spine vertex gets k leaf bristles.

    Bristles of spine vertex i are the vertices n + i*k .. n + i*k + k - 1, so
    interior spine vertices have degree k+2 and spine endpoints k+1.
    """
    _check_int(n, "n", 1)
    _check_int(k, "k", 0)
    edges = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(k):
            edges.append((i, n + i * k + j))
    return Graph(n + n * k, edges)


def generate_gnp(n, d, seed):
    """Erdos-Renyi graph with edge probability d/n, reproducible from the seed.

    Each of the C(n, 2) vertex pairs, in lexicographic order, consumes one
    uniform draw from a Philox counter stream keyed by the seed, so the graph
    depends only on (n, d, seed).
    """
    _check_int(n, "n", 1)
    if not (_is_real(d) and 0 <= d <= n):
        raise ParseError(f"gnp mean degree must be a real number with 0 <= d <= n, got {d!r}")
    _check_seed(seed, "gnp seed")
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = d / n
    edges = []
    # Row u holds the pairs (u, u+1..n-1). Drawing row by row consumes the
    # stream in the same order as one draw of all C(n, 2) pairs would, so the
    # graph is the same, and the peak memory is one row, not C(n, 2) draws.
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p).tolist()
        edges.extend((u, u + 1 + j) for j in hits)
    return Graph(n, edges)


FAMILIES = {
    "path": generate_path,
    "cycle": generate_cycle,
    "complete": generate_complete,
    "star": generate_star,
    "caterpillar": generate_caterpillar,
    "gnp": generate_gnp,
}


def generate(family, **params):
    """Dispatch to a named generator family ("path", "gnp", ...)."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ParseError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    try:
        return fn(**params)
    except TypeError as exc:
        raise ParseError(f"bad parameters for family {family!r}: {exc}") from None


def serialize_graph(graph, pinned=None):
    """Render graph (and optional pinning) in the instance file format."""
    _check_graph(graph)
    lines = [f"graph {graph.n}"]
    for u, v in graph.edges:
        lines.append(f"edge {u} {v}")
    for v in sorted(pinned or {}):
        lines.append(f"pin {v} {pinned[v]}")
    return "\n".join(lines) + "\n"


def load_graph(text):
    """Parse instance text into (Graph, pinning dict).

    Format: first non-comment line is "graph <n>", then any number of
    "edge <u> <v>" and "pin <v> <color>" lines. "#" starts a comment, blank
    lines are ignored. Errors report 1-based line numbers.
    """
    n = None
    edges = []
    seen_edges = set()
    pins = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "graph":
                raise ParseError(f"missing graph header (line {lineno} is {parts[0]!r})")
            if len(parts) != 2:
                raise ParseError(f"malformed graph header at line {lineno}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"malformed graph header at line {lineno}") from None
            if n < 0:
                raise ParseError(f"negative vertex count at line {lineno}")
            continue
        kind = parts[0]
        if kind == "graph":
            raise ParseError(f"duplicate graph header at line {lineno}")
        if kind == "edge":
            if len(parts) != 3:
                raise ParseError(f"malformed edge at line {lineno}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge at line {lineno}") from None
            if u == v:
                raise ParseError(f"self-loop at line {lineno}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range at line {lineno}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise ParseError(f"duplicate edge at line {lineno}")
            seen_edges.add(key)
            edges.append(key)
        elif kind == "pin":
            if len(parts) != 3:
                raise ParseError(f"malformed pin at line {lineno}")
            try:
                v, c = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed pin at line {lineno}") from None
            if not 0 <= v < n:
                raise ParseError(f"vertex id out of range at line {lineno}")
            if c < 1:
                raise ParseError(f"pin color out of range at line {lineno}")
            if v in pins:
                raise ParseError(f"duplicate pin at line {lineno}")
            pins[v] = c
        else:
            raise ParseError(f"unknown directive {kind!r} at line {lineno}")
    if n is None:
        raise ParseError("missing graph header")
    return Graph(n, edges), pins
