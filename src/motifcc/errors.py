"""Exception types shared across the toolkit.

All subclass ValueError so call sites that only care about "bad input"
can catch one base type, while tests can pin the precise kind.
"""


class MotifccError(ValueError):
    """Base class for all toolkit errors."""


class InvalidParameterError(MotifccError):
    """A numeric or structural parameter is out of its allowed range."""


class InvalidVertexError(MotifccError):
    """A vertex label falls outside [1..n]."""


class MalformedPartitionError(MotifccError):
    """Cluster lists that overlap, miss vertices, or contain empties."""


class UnsupportedMotifSizeError(MotifccError):
    """A classifier or weight table was asked about the wrong tuple size."""


class SizeLimitError(MotifccError):
    """An enumeration or LP build would exceed its configured cap."""


class SolverFailureError(MotifccError):
    """The LP solver did not return an optimal solution."""


class CertificateViolationError(MotifccError):
    """A rounded partition exceeded its certified approximation ratio."""


class StageError(MotifccError):
    """Pipeline failure wrapper carrying the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def as_number(value, what: str, kind=float):
    """``kind(value)``; a value that is not a number raises
    InvalidParameterError naming ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{what} must be a number, got {value!r}") from None
