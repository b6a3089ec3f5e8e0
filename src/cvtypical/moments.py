"""Closed-form Haar-moment expectations for reduced covariance matrices.

Everything here is evaluated in exact rational arithmetic: squeezing
parameters are rationalized (floats are exact binary rationals), the moment
polynomials are evaluated over the rationals, and floats appear only in the
values of ``compute_moment_report``. The coefficient tables cancel heavily
at large n, which float evaluation would corrupt.

The arithmetic runs on plain integers: a binary-splitting tree sums the
per-mode powers over D = lcm of the modes' denominators, and each moment
formula, homogeneous in those power sums, is one integer over (small
integer) * D**g. A ``Fraction`` is built once per returned value; the report
divides the two integers, which Python rounds correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

from .errors import DimensionTooSmall, DomainError, InvalidSubsystem

__all__ = [
    "MomentInputs",
    "MomentReport",
    "moment_inputs_from_spectrum",
    "average_energy_exact",
    "tilde_lambda_squared_exact",
    "second_moment_trace_exact",
    "fourth_moment_trace_exact",
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
            # on reduced a = x/d1, b = y/d2: b^2 = 1 + a^2 forces d1 == d2
            x, d1, y, d2 = aj.numerator, aj.denominator, bj.numerator, bj.denominator
            if y < d2:
                raise DomainError(f"need b_j >= 1, got {bj}")
            if d1 != d2 or y * y - x * x != d2 * d2:
                raise DomainError(f"hyperbolic identity b^2 - a^2 = 1 violated at (a,b)=({aj},{bj})")

    @cached_property
    def _sums(self) -> tuple[int, dict]:
        """The power sums, built once per instance (see _power_sums)."""
        return _power_sums(self)


@dataclass(frozen=True)
class MomentReport:
    tilde_lambda_sq: float
    second_moment: float
    fourth_moment: float
    expected_f: float
    lambda_bar: float


def moment_inputs_from_spectrum(z, k: int) -> MomentInputs:
    """Build MomentInputs from a squeezing spectrum.

    Each z_j is taken as an exact rational (floats convert losslessly), so the
    identity b_j^2 - a_j^2 = 1 holds exactly by construction.
    """
    zs = [Fraction(x) if isinstance(x, Rational) else Fraction(float(x)) for x in z]
    if not zs:
        raise DomainError("squeezing spectrum must be nonempty")
    if any(x < 1 for x in zs):
        raise DomainError("squeezing parameters must be >= 1")
    n = len(zs)
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"need 1 <= k <= {n}, got k={k}")
    # z = p/q gives a = (p^2 - q^2) / 2pq and b = (p^2 + q^2) / 2pq
    pq = [(int(x.numerator), int(x.denominator)) for x in zs]  # numpy integers too
    a = tuple(Fraction(p * p - q * q, 2 * p * q) for p, q in pq)
    b = tuple(Fraction(p * p + q * q, 2 * p * q) for p, q in pq)
    return MomentInputs(n=n, k=k, a=a, b=b)


# (name, power of a, power of b) of the power sums the moment tables use
_POWER_SUMS = (
    ("trB", 0, 1), ("trB2", 0, 2), ("trB3", 0, 3), ("trB4", 0, 4),
    ("trA2", 2, 0), ("trA4", 4, 0), ("trA2B2", 2, 2), ("trA2B", 2, 1),
)


def _mode_leaf(a: Fraction, b: Fraction) -> tuple[int, list[int]]:
    # b^2 - a^2 = 1 makes a and b share their reduced denominator d
    x, y = a.numerator, b.numerator
    return b.denominator, [x**i * y**j for _, i, j in _POWER_SUMS]


def _merge(left: tuple[int, list[int]], right: tuple[int, list[int]]) -> tuple[int, list[int]]:
    """Add two (D, numerators) nodes over the lcm of their denominators."""
    (d1, n1), (d2, n2) = left, right
    g = math.gcd(d1, d2)
    p1, p2 = [(d2 // g) ** e for e in range(5)], [(d1 // g) ** e for e in range(5)]
    return d1 * p1[1], [
        u * p1[i + j] + v * p2[i + j] for u, v, (_, i, j) in zip(n1, n2, _POWER_SUMS)
    ]


def _power_sums(mi: MomentInputs) -> tuple[int, dict]:
    """(D, numerators): the power sum of degree g is numerators[name] / D**g.

    A binary-splitting tree over the modes, so the large products happen only
    near the root, between operands of equal size."""
    nodes = [_mode_leaf(aj, bj) for aj, bj in zip(mi.a, mi.b)]
    while len(nodes) > 1:
        merged = [_merge(nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)]
        nodes = merged + nodes[2 * len(merged):]
    denominator, numerators = nodes[0]
    return denominator, {name: num for (name, _, _), num in zip(_POWER_SUMS, numerators)}


# An exact value in the making is a triple (num, den, g) that stands for
# num / (den * D**g), D the power-sum denominator; den is a small integer, so
# sums never take a gcd of the large D powers. A part is a function
# (mi, (D, numerators), *args) -> triple; the *_exact functions take the
# power sums from the instance and normalise the part's triple to a Fraction,
# and compute_moment_report rounds each triple to a float.


def _sum_terms(D: int, terms) -> tuple[int, int, int]:
    """One unnormalised (num, den, g) triple for the sum of the terms."""
    den = math.lcm(*(d for _, d, _ in terms))
    g = max(t[2] for t in terms)
    return sum(num * (den // d) * D ** (g - gt) for num, d, gt in terms), den, g


def _exact(mi: MomentInputs, part, *args) -> Fraction:
    sums = mi._sums
    num, den, g = part(mi, sums, *args)
    return Fraction(num, den * sums[0] ** g)


def _to_float(sums, value: tuple[int, int, int], name: str) -> float:
    """The correctly rounded float of an exact value, as float(Fraction) gives."""
    num, den, g = value
    den *= sums[0] ** g
    try:
        return num / den
    except OverflowError:
        digits = round((abs(num).bit_length() - den.bit_length()) * math.log10(2))
        raise DomainError(f"{name} has magnitude about 1e{digits}, beyond the float range") from None


def _average_energy(mi: MomentInputs, sums) -> tuple[int, int, int]:
    return sums[1]["trB"], mi.n, 1


def average_energy_exact(mi: MomentInputs) -> Fraction:
    """Exact average energy per mode, tr(B)/n."""
    return _exact(mi, _average_energy)


def _tilde_lambda_squared(mi: MomentInputs, sums) -> tuple[int, int, int]:
    if mi.n < 2:
        raise DimensionTooSmall(f"need n >= 2, got n={mi.n}")
    n, k = mi.n, mi.k
    D, ps = sums
    return _sum_terms(D, [
        ((n - k) * ps["trB"] ** 2, n * (n * n - 1), 2),
        (-(k + 1) * ps["trA2"], n * (n + 1), 2),
        ((k * n - 1) * ps["trB2"], n * (n * n - 1), 2),
    ])


def tilde_lambda_squared_exact(mi: MomentInputs) -> Fraction:
    """The exact second-moment scalar: E[(JM)^2] = -tilde_lambda^2 * I."""
    return _exact(mi, _tilde_lambda_squared)


def _second_moment(mi: MomentInputs, sums, tl=None) -> tuple[int, int, int]:
    num, den, g = tl or _tilde_lambda_squared(mi, sums)
    return -2 * mi.k * num, den, g


def second_moment_trace_exact(mi: MomentInputs) -> Fraction:
    """Exact E[tr((JM)^2)] = -2k * tilde_lambda^2."""
    return _exact(mi, _second_moment)


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


def _fourth_moment(mi: MomentInputs, sums) -> tuple[int, int, int]:
    """The twelve-row coefficient table contracted with power sums of a and b.
    For diagonal A, B the monomials tr[(AB)^2] and tr[A^2 B^2] coincide (both
    are sum_j a_j^2 b_j^2). Every monomial has degree 4."""
    if mi.n < 4:
        raise DimensionTooSmall(f"need n >= 4, got n={mi.n}")
    D, ps = sums
    trB, trB2, trA2 = ps["trB"], ps["trB2"], ps["trA2"]
    trB_sq = trB * trB
    mono = {
        "trB^4": trB_sq * trB_sq,
        "trB*trB3": trB * ps["trB3"],
        "trB^2*trB2": trB_sq * trB2,
        "trB4": ps["trB4"],
        "trB2^2": trB2 * trB2,
        "trB^2*trA2": trB_sq * trA2,
        "trA2^2": trA2 * trA2,
        "trA4": ps["trA4"],
        "trAB2": ps["trA2B2"],
        "trA2B2": ps["trA2B2"],
        "trA2*trB2": trA2 * trB2,
        "trB*trA2B": trB * ps["trA2B"],
    }
    rows = _fourth_moment_rows(mi.n, mi.k)
    return _sum_terms(D, [(num * mono[key], den, 4) for num, den, key in rows])


def fourth_moment_trace_exact(mi: MomentInputs) -> Fraction:
    """Exact E[tr((JM)^4)]."""
    return _exact(mi, _fourth_moment)


def _expected_f(mi: MomentInputs, sums, lambda_bar, fourth=None, tl=None) -> tuple[int, int, int]:
    """E[f] = E[tr((JM)^4)] + 2*lb^2*E[tr((JM)^2)] + 2k*lb^4, with
    E[tr((JM)^2)] = -2k * tilde_lambda^2."""
    if lambda_bar is None:
        p, r, g = _average_energy(mi, sums)
    else:
        lb = Fraction(lambda_bar) if isinstance(lambda_bar, Rational) else Fraction(float(lambda_bar))
        p, r, g = lb.numerator, lb.denominator, 0
    fourth = fourth or _fourth_moment(mi, sums)
    t, t_den, t_g = tl or _tilde_lambda_squared(mi, sums)
    p2, r2, k = p * p, r * r, mi.k
    return _sum_terms(sums[0], [
        fourth, (-4 * k * p2 * t, r2 * t_den, 2 * g + t_g), (2 * k * p2 * p2, r2 * r2, 4 * g)
    ])


def expected_f_exact(mi: MomentInputs, lambda_bar=None) -> Fraction:
    """Exact E[f] = E[tr((JM)^4)] + 2*lb^2*E[tr((JM)^2)] + 2k*lb^4.

    lambda_bar defaults to the exact average energy tr(B)/n; a supplied value
    is rationalized exactly.
    """
    return _exact(mi, _expected_f, lambda_bar)


def compute_moment_report(z, k: int) -> MomentReport:
    """Evaluate all moment expectations for a squeezing spectrum, with
    lambda_bar fixed to the exact average energy of z. Each exact value is
    formed once."""
    mi = moment_inputs_from_spectrum(z, k)
    sums = mi._sums
    tl = _tilde_lambda_squared(mi, sums)
    fourth = _fourth_moment(mi, sums)
    return MomentReport(
        tilde_lambda_sq=_to_float(sums, tl, "tilde_lambda^2"),
        second_moment=_to_float(sums, _second_moment(mi, sums, tl), "E tr((JM)^2)"),
        fourth_moment=_to_float(sums, fourth, "E tr((JM)^4)"),
        expected_f=_to_float(sums, _expected_f(mi, sums, None, fourth, tl), "E f"),
        lambda_bar=_to_float(sums, _average_energy(mi, sums), "lambda_bar"),
    )
