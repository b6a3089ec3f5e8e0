"""Closed-form Haar-moment expectations for reduced covariance matrices.

Everything here is evaluated in exact rational arithmetic: squeezing
parameters are rationalized (floats are exact binary rationals), the moment
polynomials are evaluated over the rationals, and floats appear only in the
return values of the non-``_exact`` wrappers. The coefficient tables cancel
heavily at large n, which float evaluation would corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .errors import DimensionTooSmall, DomainError, InvalidSubsystem

__all__ = [
    "MomentInputs",
    "MomentReport",
    "moment_inputs_from_spectrum",
    "average_energy_exact",
    "tilde_lambda_squared",
    "tilde_lambda_squared_exact",
    "second_moment_trace",
    "second_moment_trace_exact",
    "fourth_moment_trace",
    "fourth_moment_trace_exact",
    "expected_f",
    "expected_f_exact",
    "compute_moment_report",
]


@dataclass(frozen=True)
class MomentInputs:
    """Diagonals a of A = (Z - Z^-1)/2 and b of B = (Z + Z^-1)/2, as exact
    rationals, together with the mode count n and subsystem size k."""

    n: int
    k: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.a) != self.n or len(self.b) != self.n:
            raise DimensionTooSmall(f"need {self.n} diagonal entries, got {len(self.a)}, {len(self.b)}")
        if not 1 <= self.k <= self.n:
            raise InvalidSubsystem(f"need 1 <= k <= {self.n}, got k={self.k}")
        for aj, bj in zip(self.a, self.b):
            if bj < 1:
                raise DomainError(f"need b_j >= 1, got {bj}")
            if bj * bj - aj * aj != 1:
                raise DomainError(f"hyperbolic identity b^2 - a^2 = 1 violated at (a,b)=({aj},{bj})")


@dataclass(frozen=True)
class MomentReport:
    tilde_lambda_sq: float
    second_moment: float
    fourth_moment: float
    expected_f: float


def moment_inputs_from_spectrum(z, k: int) -> MomentInputs:
    """Build MomentInputs from a squeezing spectrum.

    Each z_j is taken as an exact rational (floats convert losslessly), so the
    identity b_j^2 - a_j^2 = 1 holds exactly by construction.
    """
    zs = [x if isinstance(x, Rational) else Fraction(float(x)) for x in z]
    if not zs:
        raise DomainError("squeezing spectrum must be nonempty")
    if any(x < 1 for x in zs):
        raise DomainError("squeezing parameters must be >= 1")
    n = len(zs)
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"need 1 <= k <= {n}, got k={k}")
    a = tuple(Fraction(x - 1 / Fraction(x), 2) for x in zs)
    b = tuple(Fraction(x + 1 / Fraction(x), 2) for x in zs)
    return MomentInputs(n=n, k=k, a=a, b=b)


@lru_cache(maxsize=512)
def _power_sums(mi: MomentInputs) -> dict:
    a, b = mi.a, mi.b
    return {
        "trB": sum(b),
        "trB2": sum(x * x for x in b),
        "trB3": sum(x**3 for x in b),
        "trB4": sum(x**4 for x in b),
        "trA2": sum(x * x for x in a),
        "trA4": sum(x**4 for x in a),
        "trA2B2": sum(x * x * y * y for x, y in zip(a, b)),
        "trA2B": sum(x * x * y for x, y in zip(a, b)),
    }


def average_energy_exact(mi: MomentInputs) -> Fraction:
    """Exact average energy per mode, tr(B)/n."""
    return Fraction(_power_sums(mi)["trB"], mi.n)


def tilde_lambda_squared_exact(mi: MomentInputs) -> Fraction:
    """The exact second-moment scalar: E[(JM)^2] = -tilde_lambda^2 * I."""
    if mi.n < 2:
        raise DimensionTooSmall(f"need n >= 2, got n={mi.n}")
    n, k = mi.n, mi.k
    ps = _power_sums(mi)
    val = (
        Fraction(n - k, n * (n * n - 1)) * ps["trB"] ** 2
        - Fraction(k + 1, n * (n + 1)) * ps["trA2"]
        + Fraction(k * n - 1, n * (n * n - 1)) * ps["trB2"]
    )
    return val


def tilde_lambda_squared(mi: MomentInputs) -> float:
    return float(tilde_lambda_squared_exact(mi))


def second_moment_trace_exact(mi: MomentInputs) -> Fraction:
    """Exact E[tr((JM)^2)] = -2k * tilde_lambda^2."""
    return -2 * mi.k * tilde_lambda_squared_exact(mi)


def second_moment_trace(mi: MomentInputs) -> float:
    return float(second_moment_trace_exact(mi))


def _table1_second_moment_exact(mi: MomentInputs) -> Fraction:
    # independent three-row transcription of the second-moment table, kept for
    # the polynomial-identity cross-check against -2k * tilde_lambda^2
    n, k = mi.n, mi.k
    ps = _power_sums(mi)
    val = (
        Fraction(2 * k * (k - n), n * (n * n - 1)) * ps["trB"] ** 2
        + Fraction(2 * k * (k + 1), n * (n + 1)) * ps["trA2"]
        - Fraction(2 * k * (k * n - 1), n * (n * n - 1)) * ps["trB2"]
    )
    return val


def _fourth_moment_rows(n: int, k: int) -> list[tuple[int, int, str]]:
    """(numerator, denominator, power-sum monomial) rows of the fourth-moment
    table. Monomial keys name products of the cached power sums."""
    d1 = n * (n**6 - 14 * n**4 + 49 * n * n - 36)
    d2 = (n - 2) * (n - 1) * n * n * (n + 1) * (n + 2) * (n + 3)
    d3 = (n - 1) * n * n * (n + 1) * (n + 2) * (n + 3)
    return [
        (2 * k * (-5 * k**3 + 10 * n * k * k - (6 * n * n + 1) * k + n**3 + n), d1, "trB^4"),
        (-8 * k * ((n * n + 1) * k**3 - n * (n * n + 11) * k * k + 11 * (n * n + 1) * k - n * (n * n + 11)), d1, "trB*trB3"),
        (4 * k * (5 * n * k**3 - 2 * (4 * n * n + 9) * k * k + n * (3 * n * n + 28) * k - 10 * n * n), d1, "trB^2*trB2"),
        (2 * k * ((n**3 + n) * k**3 - 20 * n * n * k * k + 5 * n * (n * n + 13) * k - 4 * (4 * n * n + 9)), d1, "trB4"),
        (2 * k * ((3 - 2 * n * n) * k**3 + 2 * n * (n * n + 6) * k * k - (16 * n * n + 21) * k + n * (n * n + 21)), d1, "trB2^2"),
        (-4 * k * ((3 * n + 4) * k**3 - 2 * n * (2 * n + 1) * k * k + (n**3 - 3 * n * n - n - 4) * k + n * (n * n + n + 4)), d2, "trB^2*trA2"),
        (-4 * k * (k + 1) * ((n + 1) * k * k - (n * n + 1) * k - (n - 1) * n), d3, "trA2^2"),
        (2 * k * (k + 1) * ((n * n + n + 2) * k * k + (3 * n * n - 5 * n - 2) * k + 4 * (n - 1) * n), d3, "trA4"),
        (4 * k * (k + 1) * ((n * n + 5 * n + 4) * k * k - (n * n + n + 4) * k - 2 * n * (n + 1)), d3, "trAB2"),
        (-8 * k * ((n**3 + 2 * n * n - n - 4) * k**3 + n * (n * n - 5 * n - 4) * k * k + (n**3 - 8 * n * n + 5 * n + 4) * k + n * (n * n - n + 8)), d2, "trA2B2"),
        (4 * k * ((2 * n * n + 3 * n - 4) * k**3 - 2 * n * (n * n + n - 1) * k * k + (-(n**3) + n * n - 5 * n + 4) * k + n * (n * n + 5 * n - 4)), d2, "trA2*trB2"),
        (8 * k * ((n * n + n + 4) * k**3 + n * (-(n * n) + n - 8) * k * k - (2 * n**3 - 5 * n * n + 5 * n + 4) * k + n * (-(n * n) + 5 * n + 4)), d2, "trB*trA2B"),
    ]


def fourth_moment_trace_exact(mi: MomentInputs) -> Fraction:
    """Exact E[tr((JM)^4)] as the twelve-row coefficient table contracted with
    power sums of a and b. For diagonal A, B the monomials tr[(AB)^2] and
    tr[A^2 B^2] coincide (both are sum_j a_j^2 b_j^2)."""
    if mi.n < 4:
        raise DimensionTooSmall(f"need n >= 4, got n={mi.n}")
    ps = _power_sums(mi)
    mono = {
        "trB^4": ps["trB"] ** 4,
        "trB*trB3": ps["trB"] * ps["trB3"],
        "trB^2*trB2": ps["trB"] ** 2 * ps["trB2"],
        "trB4": ps["trB4"],
        "trB2^2": ps["trB2"] ** 2,
        "trB^2*trA2": ps["trB"] ** 2 * ps["trA2"],
        "trA2^2": ps["trA2"] ** 2,
        "trA4": ps["trA4"],
        "trAB2": ps["trA2B2"],
        "trA2B2": ps["trA2B2"],
        "trA2*trB2": ps["trA2"] * ps["trB2"],
        "trB*trA2B": ps["trB"] * ps["trA2B"],
    }
    total = Fraction(0)
    for num, den, key in _fourth_moment_rows(mi.n, mi.k):
        total += Fraction(num, den) * mono[key]
    return total


def fourth_moment_trace(mi: MomentInputs) -> float:
    return float(fourth_moment_trace_exact(mi))


def expected_f_exact(mi: MomentInputs, lambda_bar=None) -> Fraction:
    """Exact E[f] = E[tr((JM)^4)] + 2*lb^2*E[tr((JM)^2)] + 2k*lb^4.

    lambda_bar defaults to the exact average energy tr(B)/n; a supplied value
    is rationalized exactly.
    """
    if lambda_bar is None:
        lb = average_energy_exact(mi)
    elif isinstance(lambda_bar, Rational):
        lb = Fraction(lambda_bar)
    else:
        lb = Fraction(float(lambda_bar))
    lb2 = lb * lb
    return (
        fourth_moment_trace_exact(mi)
        + 2 * lb2 * second_moment_trace_exact(mi)
        + 2 * mi.k * lb2 * lb2
    )


def expected_f(mi: MomentInputs, lambda_bar=None) -> float:
    return float(expected_f_exact(mi, lambda_bar))


def compute_moment_report(z, k: int) -> MomentReport:
    """Evaluate all moment expectations for a squeezing spectrum, with
    lambda_bar fixed to the exact average energy of z."""
    mi = moment_inputs_from_spectrum(z, k)
    return MomentReport(
        tilde_lambda_sq=tilde_lambda_squared(mi),
        second_moment=second_moment_trace(mi),
        fourth_moment=fourth_moment_trace(mi),
        expected_f=expected_f(mi),
    )
