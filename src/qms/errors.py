"""Exception hierarchy.

Input problems (bad shapes, bad values, unmet mathematical preconditions)
derive from ``ValueError`` so generic callers can catch them uniformly;
numerical failures (lost precision, unstable rank decisions) derive from
``RuntimeError``.
"""


class QmsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QmsError, ValueError):
    """Shapes or dimensions of the inputs are inconsistent."""


class ValidationError(QmsError, ValueError):
    """An input violates a structural invariant (non-finite entries, bad trace, ...)."""


class SchemaError(ValidationError):
    """A file or document does not match the expected schema.

    The message names the offending field, e.g. ``data[2][0]: expected [re, im]``.
    """


class DomainError(QmsError, ValueError):
    """The operation is not defined for this input (e.g. detailed balance violated)."""


class PreconditionError(DomainError):
    """A caller-checkable precondition failed; carries the measured residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class HypothesisError(DomainError):
    """A theorem hypothesis (e.g. unique stationary state) does not hold."""


class BoundViolationError(QmsError):
    """A proved inequality was violated beyond tolerance; carries the records."""

    def __init__(self, message: str, reports=None):
        super().__init__(message)
        self.reports = reports or []


class NumericError(QmsError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""

    def __init__(self, message: str, residual: float | None = None,
                 condition: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.condition = condition


class SpectralResolutionError(NumericError):
    """Eigenvalue clusters could not be separated reliably."""


class NoFixedPointError(DomainError, SpectralResolutionError):
    """The map has no eigenvalue at 1 (it is not trace-preserving): an input
    outside the domain, found by the spectral resolution."""


class IllConditionedStructureError(NumericError):
    """Jordan-structure rank decisions are numerically undecidable."""
