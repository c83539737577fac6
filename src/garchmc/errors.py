"""Exception hierarchy shared across the package.

Each error carries the exit status the CLI returns for it, `exit_code`:
input/parameter problems are data errors (exit 3, the default),
estimator breakdowns are numerical failures (exit 4).
"""

__all__ = [
    "DegenerateCovarianceError",
    "DegenerateSeriesError",
    "DomainError",
    "GarchMcError",
    "InsufficientDataError",
    "NonConvergenceError",
    "ParseError",
]


class GarchMcError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ParseError(GarchMcError):
    """Malformed input data (bad cell, missing column, non-positive price)."""


class InsufficientDataError(GarchMcError):
    """Too few observations or samples for the requested operation."""


class DomainError(GarchMcError):
    """Arguments outside the operation's mathematical domain."""


class DegenerateCovarianceError(GarchMcError):
    """Covariance matrix that is not finite or has no Cholesky factor."""

    exit_code = 4


class DegenerateSeriesError(GarchMcError):
    """Series has zero variance where variation is required."""

    exit_code = 4


class NonConvergenceError(GarchMcError):
    """An iterative estimator failed to satisfy its stopping rule."""

    exit_code = 4
