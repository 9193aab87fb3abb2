"""Exception types shared across the package.

Every error carries a stable ``code`` string and an optional context mapping,
so the CLI can render a machine-readable error object and pick an exit code.
"""

from __future__ import annotations


class WordhomError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


class InvalidInput(WordhomError):
    """A caller-supplied value is outside the documented domain."""

    code = "invalid-input"


class DisjointnessViolation(InvalidInput):
    """The partially defined product was asked to join chains sharing a symbol."""

    code = "disjointness-violation"


class NotACycle(InvalidInput):
    """A filling was requested for a chain whose boundary is nonzero."""

    code = "not-a-cycle"


class PreconditionViolated(InvalidInput):
    """A documented precondition of an operation does not hold."""

    code = "precondition-violated"


class OutOfRange(PreconditionViolated):
    """The requested degree lies outside the range the algorithm covers."""

    code = "out-of-range"


class TruncationError(InvalidInput):
    """The complex is not materialized far enough to answer reliably."""

    code = "truncation-error"


class ResourceLimit(WordhomError):
    """A size or generator-count limit would be exceeded."""

    code = "resource-limit"


class GeneralPositionExhausted(WordhomError):
    """No alphabet element in general position could be found during a fill.

    Indicates the degree bound was violated or the supplied order of the
    relation was an overestimate.
    """

    code = "general-position-exhausted"


class InternalInvariantBroken(WordhomError):
    """An internally certified fact failed to hold; signals a bug, never bad input."""

    code = "internal-invariant-broken"
