"""Exception types shared across the package, and the one reader of an
integer argument and its range, which every module that takes one imports
from here."""

from numbers import Integral


class CvTypicalError(Exception):
    """Base class for all package-specific errors."""


class NonUnitaryInput(CvTypicalError):
    """A matrix expected to be unitary failed the unitarity check."""


class DimensionMismatch(CvTypicalError):
    """Operands have incompatible shapes."""


class InvalidSubsystem(CvTypicalError):
    """Subsystem mode count k is outside 1..n."""


class PairingFailure(CvTypicalError):
    """A matrix is not numerically positive definite, or a trial invariant broke."""


class InvalidCovariance(CvTypicalError):
    """Matrix violates the covariance-matrix constraints."""


class DomainError(CvTypicalError):
    """Scalar argument outside the mathematical domain of the function."""


class SizeMismatch(CvTypicalError):
    """Combinatorial inputs (partitions) have inconsistent sizes."""


class RowOverflow(CvTypicalError):
    """Young diagram has more rows than the unitary group dimension."""


class DimensionTooSmall(CvTypicalError):
    """Group or matrix dimension n is below the supported minimum."""


class SingularGram(CvTypicalError):
    """Exact Gram-matrix solve hit a zero pivot (should not occur for n >= p)."""


class EnergyTooSmall(CvTypicalError):
    """Total energy below the 2n ground-state floor of the constrained simplex."""


class InvalidSpec(CvTypicalError):
    """Malformed ensemble profile string or ProfileSpec fields."""


class UsageError(CvTypicalError):
    """Bad command-line or config-file input."""


def as_int(name: str, value, error=DomainError, low=None, high=None) -> int:
    """value as a Python int in low..high, an end None being open, else an
    error: a float count would be truncated or fail in numpy, a numpy
    integer would be written as np.int64(1) in the CSV, fail the JSON
    encoder, and overflow the stream keys; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"need an integer {name}, got {name}={value!r}")
    value = int(value)
    if low is not None and value < low or high is not None and value > high:
        raise error(f"{name}={value} outside {'' if low is None else low}..{'' if high is None else high}")
    return value
