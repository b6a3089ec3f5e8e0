"""Exception types shared across the package, and the one check of an
integer count, which every module that takes one imports from here."""

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


def as_int(name: str, value, error=DomainError) -> int:
    """value as a Python int: a float count would be truncated or fail in
    numpy, and a numpy integer would be written as np.int64(1) in the CSV,
    fail the JSON encoder, and overflow the stream keys; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"need an integer {name}, got {name}={value!r}")
    return int(value)
