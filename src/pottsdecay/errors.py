"""Exception types shared across the package.

The CLI maps these onto exit codes, so everything user-facing should raise
one of them rather than a bare ValueError. The argument checks that every module shares
live here too, beside ParseError, so that no module imports another for them.
"""

from numbers import Real


class PottsError(Exception):
    """Base class for all package errors."""


class ParseError(PottsError, ValueError):
    """Malformed instance text or invalid graph construction input."""


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


class InfeasibleError(PottsError):
    """No configuration of positive weight exists (or survives truncation)."""


class BudgetError(PottsError):
    """A configurable work budget was exceeded.

    Raised by the exact enumerator (leaf evaluations), the block closure
    (block size), feasible-configuration enumeration, SAW-tree construction,
    the estimator's optional call/deadline limits, and a recursion nested
    deeper than the Python stack allows. Errors from the estimator carry the
    partial MargDiagnostics of the aborted estimate as `diagnostics`.
    """
