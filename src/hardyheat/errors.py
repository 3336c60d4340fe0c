"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to exit codes (configuration -> 2, positivity
of the quadratic form -> 4, everything numerical -> 3).
"""


class HardyHeatError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HardyHeatError):
    """Invalid or inconsistent run configuration."""


class PositivityError(HardyHeatError):
    """The quadratic form is not positive definite: mu_1 <= -(N-2)^2/4.

    Carries the margin mu_1 + (N-2)^2/4 when available.
    """

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class TruncationError(HardyHeatError):
    """A truncated discretization cannot certify the requested quantity."""


class DegeneracyAmbiguityError(HardyHeatError):
    """An eigenvalue sits in the ambiguous band of the integer test."""


class SingularNodeError(HardyHeatError):
    """An integrand evaluated non-finite at a cubature node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class QuadratureError(HardyHeatError):
    """A quadrature rule cannot be built, or cannot represent its integrand."""


class AccuracyError(HardyHeatError):
    """An accuracy verification (step halving, residual gate) failed.

    ``suggestion`` carries a suggested replacement parameter (e.g. dtau);
    the message ends with it, so the CLI's error line shows it too.
    """

    def __init__(self, message, suggestion=None):
        super().__init__(message if suggestion is None else
                         f"{message}; suggested fix: {suggestion}")
        self.suggestion = suggestion


class ResolutionError(HardyHeatError):
    """Stored trajectory does not resolve the small-s coefficient tail."""


class InvariantViolationError(HardyHeatError):
    """A quantity violated a mathematically guaranteed sign or bound."""
