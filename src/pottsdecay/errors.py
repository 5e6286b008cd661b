"""Exception types shared across the package.

The CLI maps these onto exit codes, so everything user-facing should raise
one of them rather than a bare ValueError.
"""


class PottsError(Exception):
    """Base class for all package errors."""


class ParseError(PottsError, ValueError):
    """Malformed instance text or invalid graph construction input."""


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
