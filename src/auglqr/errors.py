"""Exception types raised by the solver pipeline."""


class AugLQRError(Exception):
    """Base class for all errors raised by this package."""


class ModelFormatError(AugLQRError):
    """A model document violates the file schema."""


class InvalidModelError(AugLQRError):
    """A model instance violates its invariants.

    Carries the full ValidationReport on the ``report`` attribute.
    """

    def __init__(self, report):
        super().__init__("invalid model: " + "; ".join(report.violations))
        self.report = report


class SingularMatrixError(AugLQRError):
    """A linear solve met a matrix whose reciprocal condition is below the threshold."""


class DivergenceError(AugLQRError):
    """An iteration failed to converge; ``residual`` holds the last step size."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InstabilityError(AugLQRError):
    """A computed closed loop violates the spectral-radius stability margin."""


class DimensionError(AugLQRError):
    """Matrix dimensions make the requested operation undefined."""
