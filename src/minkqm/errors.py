"""Exception taxonomy shared across the package."""

__all__ = ["MinkqmError", "DomainError", "MalformedExpansionError", "NeedsMoreDigitsError",
           "ResourceLimitError", "PrecisionUnreachableError"]


class MinkqmError(Exception):
    """Base class for all library-specific errors."""


class DomainError(MinkqmError, ValueError):
    """An input lies outside an operation's mathematical domain."""


class MalformedExpansionError(MinkqmError, ValueError):
    """A digit sequence produced a zero denominator during evaluation."""


class NeedsMoreDigitsError(MinkqmError, ValueError):
    """A digit-stream conversion ran out of source digits."""


class ResourceLimitError(MinkqmError):
    """A size or cost cap was exceeded (CLI exit code 4)."""


class PrecisionUnreachableError(MinkqmError):
    """A refinement loop hit its cap before reaching the target accuracy (CLI exit code 3)."""
