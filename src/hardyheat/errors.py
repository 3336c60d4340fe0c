"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to exit codes (configuration -> 2, positivity
of the quadratic form -> 4, everything numerical -> 3).  A message carries
its measured values; only AccuracyError keeps one as a field, the fix a
library caller retries with.
"""


class HardyHeatError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HardyHeatError):
    """Invalid or inconsistent run configuration."""


class PositivityError(HardyHeatError):
    """The quadratic form is not positive definite: mu_1 <= -(N-2)^2/4."""


class TruncationError(HardyHeatError):
    """A truncated discretization cannot certify the requested quantity."""


class DegeneracyAmbiguityError(HardyHeatError):
    """An eigenvalue sits in the ambiguous band of the integer test."""


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
