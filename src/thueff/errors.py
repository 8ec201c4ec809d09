"""Exception vocabulary shared across the package.

Every failure mode that callers are expected to handle gets its own class
here; modules never raise bare ValueError for a condition a caller might
want to distinguish.
"""


class ThueffError(Exception):
    """Base class for all package-specific errors."""


class ZeroDivisor(ThueffError, ZeroDivisionError):
    """Division (or inversion) by zero in an exact arithmetic domain."""


class PrecisionUnderflow(ThueffError):
    """A truncated-series computation cannot resolve the requested data.

    Raised when a leading term is still unresolved at the precision cap,
    or when an operation would leave an empty window of known coefficients.
    """


class ZeroElement(ThueffError):
    """The zero element was passed where a nonzero one is required."""


class SingularSystem(ThueffError):
    """An exact linear solve hit a singular matrix (internal invariant)."""


class NotMonic(ThueffError):
    """A monic polynomial was required."""


class InvalidDegree(ThueffError):
    """A degree parameter was out of range."""


class InconsistentRamification(ThueffError):
    """A ramification profile implies a negative genus."""


class ReproductionFailure(ThueffError):
    """A certified reproduction check failed.

    Carries the full certificate on the ``certificate`` attribute so the
    caller can inspect which checks went red.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate
