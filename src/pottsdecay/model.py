"""Model parameters, partial color assignments, and pinned instances.

Colors are 1-based in every public mapping; internal vectors are indexed by
color-1. The activity beta lives in [0, 1) and is held as an exact Fraction
so that the low/high degree threshold (q-1)/(1-beta) - 2 is decided by exact
rational arithmetic rather than float rounding. beta = 0 is the proper
q-coloring case.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Real

from .errors import ParseError

_DECIMAL = re.compile(r"^\d+(\.\d{1,9})?$")


def parse_activity(text):
    """Parse a plain decimal activity string exactly (<= 9 fractional digits)."""
    text = text.strip()
    if not _DECIMAL.match(text):
        raise ParseError(
            f"activity must be a plain decimal with at most 9 fractional digits, got {text!r}"
        )
    return Fraction(text)


def _as_fraction(beta):
    if isinstance(beta, str):
        return parse_activity(beta)
    if isinstance(beta, Fraction):
        return beta
    if isinstance(beta, bool):
        raise ParseError(f"activity must be numeric, got {beta!r}")
    if isinstance(beta, int):
        return Fraction(beta)
    if isinstance(beta, float):
        if not math.isfinite(beta):
            raise ParseError(f"activity must be finite, got {beta!r}")
        # Exact value of the binary float; pass a string or Fraction when the
        # decimal reading matters near a degree threshold.
        return Fraction(beta)
    raise ParseError(f"cannot interpret activity {beta!r}")


def _check_seed(seed, name="seed", bits=128):
    """Raise ParseError unless seed is an integer (not a bool) in [0, 2**bits)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**bits:
        raise ParseError(f"{name} must be an integer in [0, 2**{bits}), got {seed!r}")


def _check_int(value, name, minimum):
    """Raise ParseError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParseError(f"{name} must be >= {minimum}, got {value}")


def _is_real(x):
    """Whether x is a real number (a numbers.Real) and not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _check_vertex(graph, v):
    """Raise ParseError unless v is an integer (not a bool) vertex of graph."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"vertex must be an integer, got {v!r}")
    if not (0 <= v < graph.n):
        raise ParseError(f"vertex {v} out of range")


def _check_color(params, x):
    """Raise ParseError unless x is an integer (not a bool) colour in 1..q."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"color must be an integer, got {x!r}")
    if not (1 <= x <= params.q):
        raise ParseError(f"color {x} out of range for q={params.q}")


class PottsParams:
    """Color count q and activity beta, with exact threshold arithmetic.

    A vertex of degree d is low-degree iff d < (q-1)/(1-beta) - 2 strictly.
    The low-degree rule is d <= max_low_degree: the largest low degree,
    decided once at construction by exact rational arithmetic, and negative
    when no degree is low. The decay coefficient delta(d) uses the finite
    branch up to and including the threshold (where it equals exactly 1),
    and saturates at 1 beyond it.
    """

    __slots__ = (
        "q",
        "beta",
        "beta_float",
        "beta_positive",
        "one_minus_beta_float",
        "max_low_degree",
        "_max_first_branch",
    )

    def __init__(self, q, beta=0):
        if not isinstance(q, int) or isinstance(q, bool) or q < 2:
            raise ParseError(f"q must be an integer >= 2, got {q!r}")
        beta = _as_fraction(beta)
        if not (0 <= beta < 1):
            raise ParseError(f"activity must satisfy 0 <= beta < 1, got {beta}")
        self.q = q
        self.beta = beta
        self.beta_float = float(beta)
        # Float views read on the recursion's hot path, so that it does no
        # Fraction arithmetic; one_minus_beta_float is float(1 - beta), which
        # can differ in the last bit from 1.0 - beta_float.
        self.beta_positive = beta > 0
        self.one_minus_beta_float = float(1 - beta)
        threshold = Fraction(q - 1) / (1 - beta) - 2
        t_floor = math.floor(threshold)
        self.max_low_degree = t_floor - 1 if threshold == t_floor else t_floor
        self._max_first_branch = t_floor

    def delta(self, d):
        """Per-degree decay coefficient 2(1-beta)/(q-1-(1-beta)d), capped at 1."""
        if d < 0:
            raise ParseError(f"degree must be non-negative, got {d}")
        if d <= self._max_first_branch:
            return float(2 * (1 - self.beta) / ((self.q - 1) - (1 - self.beta) * d))
        return 1.0

    def marginal_upper_bound(self, d):
        """Upper bound 1/max(1, q - (1-beta) d) on any conditional marginal."""
        return 1.0 / max(1.0, self.q - self.one_minus_beta_float * d)

    def __eq__(self, other):
        return (
            isinstance(other, PottsParams)
            and self.q == other.q
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.q, self.beta))

    def __repr__(self):
        return f"PottsParams(q={self.q}, beta={self.beta})"


class Configuration:
    """A partial map from vertices to 1-based colors, built from a
    Configuration, a mapping or an iterable of (vertex, colour) pairs; a
    malformed entry raises _as_pin_dict's ParseError, and so does None."""

    __slots__ = ("assignment",)

    def __init__(self, assignment):
        if assignment is None:
            raise ParseError("a configuration needs a mapping or (vertex, colour) pairs, not None")
        pairs = _as_pin_dict(assignment)
        for v, c in pairs.items():
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ParseError(f"bad vertex {v!r} in configuration")
            if isinstance(c, bool) or not isinstance(c, int) or c < 1:
                raise ParseError(f"bad color {c!r} for vertex {v}")
        self.assignment = pairs

    def get(self, v, default=None):
        return self.assignment.get(v, default)

    def items(self):
        return sorted(self.assignment.items())

    def __getitem__(self, v):
        return self.assignment[v]

    def __contains__(self, v):
        return v in self.assignment

    def __len__(self):
        return len(self.assignment)

    def __iter__(self):
        return iter(sorted(self.assignment))

    def __eq__(self, other):
        if isinstance(other, Configuration):
            return self.assignment == other.assignment
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.assignment.items())))

    def __repr__(self):
        inner = ", ".join(f"{v}: {c}" for v, c in self.items())
        return f"Configuration({{{inner}}})"


def _as_pin_dict(pinned):
    """A new dict of the pins: None, a Configuration, a mapping or an iterable
    of (vertex, colour) pairs. Anything else raises ParseError, which names
    the first entry that is not a pair with a hashable vertex."""
    if pinned is None:
        return {}
    if isinstance(pinned, Configuration):
        return dict(pinned.assignment)
    try:
        return dict(pinned)
    except (TypeError, ValueError):
        pass
    # Name the first entry dict() cannot take, when pinned is iterable.
    try:
        entries = list(pinned)
    except TypeError:
        entries = []
    for entry in entries:
        try:
            dict([entry])
        except (TypeError, ValueError):
            raise ParseError(
                f"bad pin entry {entry!r}: pins must be (vertex, colour) pairs"
            ) from None
    raise ParseError(f"pins must be a mapping or (vertex, colour) pairs, got {pinned!r}")


def _check_pin_types(v, c):
    """Raise ParseError unless pin vertex v and colour c are ints, not bools.

    Int subclasses other than bool pass; numpy integers are not ints and
    fail, as in Configuration.
    """
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"bad pin vertex {v!r}: must be an int, not {type(v).__name__}")
    if isinstance(c, bool) or not isinstance(c, int):
        raise ParseError(
            f"bad pin colour {c!r} for vertex {v}: must be an int, not {type(c).__name__}"
        )


# graph.Graph, bound by _check_instance_graph on first use: graph.py imports
# this module, so this module cannot import graph.py when it loads.
_Graph = None


def _check_instance_graph(graph):
    """Raise ParseError unless graph is a Graph, and bind _Graph."""
    global _Graph
    from .graph import Graph, _check_graph

    _Graph = Graph
    _check_graph(graph)


class Instance:
    """A graph together with model parameters and a pinning of some vertices."""

    __slots__ = ("graph", "params", "pinned")

    def __init__(self, graph, params, pinned=None):
        # The recursion builds an Instance per fallback node, so the types
        # are tested inline; a helper runs only on first use or to raise.
        if type(graph) is not _Graph:
            _check_instance_graph(graph)
        if not isinstance(params, PottsParams):
            _check_params(params)
        pins = _as_pin_dict(pinned)
        n = graph.n
        q = params.q
        for v, c in pins.items():
            if type(v) is not int or type(c) is not int:
                _check_pin_types(v, c)
            if not (0 <= v < n):
                raise ParseError(f"pin vertex {v} out of range for n={n}")
            if not (1 <= c <= q):
                raise ParseError(f"pin color {c} out of range for q={q}")
        self.graph = graph
        self.params = params
        self.pinned = pins

    def unpinned(self):
        return [v for v in range(self.graph.n) if v not in self.pinned]

    def with_pins(self, extra):
        """New instance with additional pins; re-pinning to a new color is an error."""
        extra = _as_pin_dict(extra)
        merged = dict(self.pinned)
        for v, c in extra.items():
            old = merged.get(v)
            if old is not None and old != c:
                raise ParseError(f"conflicting pin for vertex {v}: {old} vs {c}")
            merged[v] = c
        return Instance(self.graph, self.params, merged)

    def __repr__(self):
        return (
            f"Instance({self.graph!r}, {self.params!r}, pins={len(self.pinned)})"
        )


def _check_params(params):
    """Raise ParseError unless params is a PottsParams."""
    if not isinstance(params, PottsParams):
        raise ParseError(f"expected PottsParams, got {type(params).__name__}")


def _check_instance(instance):
    """Raise ParseError unless instance is an Instance."""
    if not isinstance(instance, Instance):
        raise ParseError(f"expected an Instance, got {type(instance).__name__}")


def _total_colors(instance, config):
    colors = _as_pin_dict(config) if not isinstance(config, Configuration) else config.assignment
    n = instance.graph.n
    if len(colors) != n or any(v not in colors for v in range(n)):
        raise ParseError("configuration must color every vertex")
    for c in colors.values():
        _check_color(instance.params, c)
    return colors


def monochromatic_edges(graph, colors):
    """Count edges whose endpoints share a color under a total assignment."""
    return sum(1 for u, v in graph.edges if colors[u] == colors[v])


def weight(instance, config):
    """Weight beta^(#monochromatic edges), or 0.0 if the pinning is violated."""
    _check_instance(instance)
    colors = _total_colors(instance, config)
    for v, c in instance.pinned.items():
        if colors[v] != c:
            return 0.0
    mono = monochromatic_edges(instance.graph, colors)
    if mono == 0:
        return 1.0
    return instance.params.beta_float**mono
