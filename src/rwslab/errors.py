"""Exception types shared across the package.

Each error carries a short machine-readable ``tag`` used by the CLI to map
failures onto exit codes and by tests to assert on failure modes without
string-matching messages.
"""


class RwsLabError(Exception):
    """Base class for all errors raised by this package."""

    tag = "error"


class InvalidParameterError(RwsLabError):
    tag = "invalid-parameter"


class InvalidPreconditionError(RwsLabError):
    tag = "invalid-precondition"


class NumericalFailureError(RwsLabError):
    tag = "numerical-failure"


class InsufficientDataError(RwsLabError):
    tag = "insufficient-data"


class NoDivergenceSequenceError(RwsLabError):
    tag = "no-divergence-sequence"
