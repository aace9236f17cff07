"""Exception types shared across the package."""

from __future__ import annotations


class DeferralError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DeferralError, ValueError):
    """An input lies outside the nonnegative domain of the model."""


class GridLookupError(DeferralError, LookupError):
    """A tabulated utility was evaluated at a point that is not on its grid."""


class SpecValidationError(DeferralError, ValueError):
    """A model object violates one of its structural invariants.

    Carries the full violation list so callers can report every problem
    at once instead of the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        super().__init__(f"invalid specification ({summary})")


class ClosedFormUnavailable(DeferralError):
    """The closed-form consideration interval does not apply.

    Raised when the current-distance cost is not strictly increasing (a
    slope of zero), in which case only the grid oracle defines the
    consideration set.
    """


class MethodUnsupported(DeferralError):
    """A solver method was requested for a function family it cannot handle."""


class PreconditionViolated(DeferralError):
    """A guarded operation was called on inputs that fail its preconditions.

    ``code`` is a stable machine-readable identifier for the failed condition.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


class ScenarioError(DeferralError, ValueError):
    """A scenario file is malformed or fails model validation."""
