"""Closed-form Haar-moment expectations for reduced covariance matrices.

Everything here is exact: squeezing parameters are rationalized (floats are
exact binary rationals), the moment polynomials are evaluated over the
rationals, and floats appear only in the values of
``compute_moment_report``, each the correctly rounded float of its exact
value. The coefficient tables cancel heavily at large n, which float
evaluation would corrupt.

A spectrum enters as one mode table, ``MomentInputs``: each distinct
z_j = p/q once, with its multiplicity m. Each mode has a = (p^2 - q^2)/2pq
and b = (p^2 + q^2)/2pq, so b^2 - a^2 = 1: both routes below sum m b^g for
g = 1..4 only, and the sums of a follow from those (``_with_a_sums``).

The exact route runs on plain integers: a binary-splitting tree with one
leaf per distinct mode sums over D**g, D the lcm of the denominators 2pq,
and each moment formula, homogeneous in the power sums, is one integer over
(small integer) * D**g, from which ``expected_f_exact`` builds a Fraction.

``compute_moment_report`` needs only five floats, so it first runs the same
formula functions on integer intervals at scale 2**-192 (``_Interval``; why
192 bits: see _PRECISION). One plain loop over the distinct modes floors each
b once, by one integer division, with a ceiling one unit more unless it was
exact; sums over both ends, rounded outwards, bracket every power sum, and
every later product rounds outwards too, so each interval holds its exact
value. Rounding to nearest is monotone: when both bounds round to the same
float (int / int rounds correctly), so does the exact value, and the report
has the exact route's bytes; if not, or past the float range, the whole
report comes from the exact tree, with its errors. On a 2-core Xeon (Python
3.11) a random spectrum at n = 1024 takes 2.3-3.7 ms (76-145 ms on the exact
tree), one at n = 256 0.7-1.1 ms, and a constant one or the vacuum 0.2-0.3 ms.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational, Real

import numpy as np

from .errors import DimensionTooSmall, DomainError, InvalidSubsystem, as_int


@dataclass(frozen=True)
class MomentInputs:
    """The mode table of a squeezing spectrum: each distinct z_j = p/q (in
    lowest terms) once as (p, q, m), m its multiplicity, with the mode count
    n and subsystem size k. The one place moment inputs are checked."""

    n: int
    k: int
    modes: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n, modes, count, index = as_int("n", self.n), [], 0, operator.index
        for p, q, m in self.modes:
            try:  # index, not as_int, at a tenth of its cost; numpy integers would wrap in the sums
                if bool in (type(p), type(q), type(m)):  # True == 1, but is no mode entry
                    raise TypeError
                p, q, m = index(p), index(q), index(m)
            except TypeError:
                raise DomainError(f"need integer (p, q, m) modes, got {(p, q, m)!r}") from None
            if q < 1:
                raise DomainError("need denominators q >= 1")
            if p < q:
                raise DomainError("squeezing parameters must be >= 1")
            if m < 1:
                raise DomainError("need multiplicities m >= 1")
            modes.append((p, q, m))
            count += m
        if not modes:
            raise DomainError("squeezing spectrum must be nonempty")
        if count != n:
            raise DimensionTooSmall(f"need {n} modes, got {count}")
        k = as_int("k", self.k, InvalidSubsystem)
        if not 1 <= k <= n:
            raise InvalidSubsystem(f"need 1 <= k <= {n}, got k={k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modes", tuple(modes))

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


def _ratio(x) -> tuple[int, int]:
    """x = p/q exactly, in lowest terms with q > 0; a Real that is not a
    Rational is taken as its float, which converts losslessly."""
    try:
        if isinstance(x, float) or isinstance(x, np.floating):  # exact, longdouble too; before the slower ABC checks
            return x.as_integer_ratio()
        if isinstance(x, Rational):
            return Fraction(x).as_integer_ratio()
        if isinstance(x, Real):
            return float(x).as_integer_ratio()
    except (ValueError, OverflowError):  # nan, inf
        pass
    raise DomainError(f"need finite real squeezing parameters, got {x!r}")


def moment_inputs_from_spectrum(z, k: int) -> MomentInputs:
    """Build the mode table of a squeezing spectrum.

    Each z_j is taken as an exact rational (floats convert losslessly). Equal
    values are counted first and converted once, so a repeated value costs
    one conversion and one mode.
    """
    try:
        counts, modes = Counter(z := z.tolist() if isinstance(z, np.ndarray) else list(z)), {}
    except TypeError:  # an unhashable entry, as a row of a 2-d array: _ratio names it
        list(map(_ratio, z))
        raise
    for x, m in counts.items():  # equal values the Counter keeps apart, as Fraction(2) and np.longdouble(2), merge
        ratio = _ratio(x)
        modes[ratio] = modes.get(ratio, 0) + m
    return MomentInputs(n=sum(counts.values()), k=k, modes=((p, q, m) for (p, q), m in modes.items()))


# The power sums both routes build; the degree of each sum the formulas read
_POWER_SUMS = ("trB", "trB2", "trB3", "trB4")
_DEGREES = dict(zip(_POWER_SUMS, range(1, 5)), trA2=2, trA4=4, trA2B2=4, trA2B=3)


def _with_a_sums(n: int, D: int, b_sums: list[int]) -> tuple[int, dict]:
    """(D, numerators over D**g) of b's power sums and, as a^2 = b^2 - 1 in
    every mode, of the four sums of a the formulas read."""
    trB, trB2, trB3, trB4 = b_sums
    D2 = D * D
    return D, dict(zip(_POWER_SUMS, b_sums), trA2=trB2 - n * D2, trA4=trB4 - 2 * D2 * trB2 + n * D2 * D2,
                   trA2B2=trB4 - D2 * trB2, trA2B=trB3 - D2 * trB)


def _mode_terms(p: int, q: int, m: int) -> tuple[int, list[int]]:
    """(d, [m (b d)^g for g = 1..4]) of the mode z = p/q, m times: b = (p^2 + q^2) / d, d = 2pq."""
    y = p * p + q * q
    return 2 * p * q, [m * y**g for g in range(1, 5)]


def _merge(left: tuple[int, list[int]], right: tuple[int, list[int]]) -> tuple[int, list[int]]:
    """Add two (D, numerators) nodes over the lcm of their denominators."""
    (d1, n1), (d2, n2) = left, right
    g = math.gcd(d1, d2)
    f1, f2 = d2 // g, d1 // g
    return d1 * f1, [u * f1**e + v * f2**e for e, (u, v) in enumerate(zip(n1, n2), 1)]


def _power_sums(mi: MomentInputs) -> tuple[int, dict]:
    """(D, numerators): the power sum of degree g is numerators[name] / D**g.

    A binary-splitting tree with one leaf per distinct mode, so the large
    products happen only near the root, between operands of equal size."""
    nodes = [_mode_terms(p, q, m) for p, q, m in mi.modes]
    while len(nodes) > 1:
        merged = [_merge(nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)]
        nodes = merged + nodes[2 * len(merged):]
    return _with_a_sums(mi.n, *nodes[0])


# An exact value in the making is a triple (num, den, g) that stands for
# num / (den * D**g), D the power-sum denominator; den is a small integer, so
# sums never take a gcd of the large D powers. A part is a function
# (mi, (D, numerators), *args) -> triple; _exact takes the power sums from
# the instance and normalises the part's triple to a Fraction, and
# compute_moment_report rounds each triple to a float.


def _sum_terms(D: int, terms) -> tuple[int, int, int]:
    """One unnormalised (num, den, g) triple for the sum of the terms."""
    den = math.lcm(*(d for _, d, _ in terms))
    g = max(t[2] for t in terms)
    return sum(num * ((den // d) * D ** (g - gt)) for num, d, gt in terms), den, g


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


def _tilde_lambda_squared(mi: MomentInputs, sums) -> tuple[int, int, int]:
    if mi.n < 2:
        raise DimensionTooSmall(f"need n >= 2, got n={mi.n}")
    n, k = mi.n, mi.k
    D, ps = sums
    return _sum_terms(D, [
        ((n - k) * ps["trB"] * ps["trB"], n * (n * n - 1), 2),
        (-(k + 1) * ps["trA2"], n * (n + 1), 2),
        ((k * n - 1) * ps["trB2"], n * (n * n - 1), 2),
    ])


def _second_moment(mi: MomentInputs, sums, tl=None) -> tuple[int, int, int]:
    num, den, g = tl or _tilde_lambda_squared(mi, sums)
    return -2 * mi.k * num, den, g


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


def _expected_f(mi: MomentInputs, sums, fourth=None, tl=None) -> tuple[int, int, int]:
    """E[f] = E[tr((JM)^4)] + 2*lb^2*E[tr((JM)^2)] + 2k*lb^4, with
    E[tr((JM)^2)] = -2k * tilde_lambda^2 and lb the average energy tr(B)/n."""
    p, r, g = _average_energy(mi, sums)
    fourth = fourth or _fourth_moment(mi, sums)
    t, t_den, t_g = tl or _tilde_lambda_squared(mi, sums)
    p2, r2, k = p * p, r * r, mi.k
    return _sum_terms(sums[0], [
        fourth, (-4 * k * p2 * t, r2 * t_den, 2 * g + t_g), (2 * k * p2 * p2, r2 * r2, 4 * g)
    ])


def expected_f_exact(mi: MomentInputs) -> Fraction:
    """Exact E[f] (see _expected_f), lb the exact average energy tr(B)/n."""
    return _exact(mi, _expected_f)


# The interval route of compute_moment_report: the formula functions above,
# run with D = 1 on power sums bracketed at scale 2**-_PRECISION. At 192 bits
# 0 to 1 of 12000 random float spectra (n = 4..300) need the exact route, at 64
# about 200 of 1000 uniform in [1, 3) (n = 4..64); at 128 the mode loop takes a
# fifth less time, but 217, not 131, of 300 spectra within 2**-j of 1 need it.
_PRECISION = 192


class _Undecided(Exception):
    """An interval whose ends round to different floats, or past the float range."""


class _Interval:
    """A real x bracketed as lo / 2**_PRECISION <= x <= hi / 2**_PRECISION,
    with the arithmetic the formula functions use; a product rounds its
    bounds outwards, so the bracket stays valid."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi

    def __add__(self, other):
        if isinstance(other, int):
            other = _Interval(other << _PRECISION, other << _PRECISION)
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__  # sum() starts from 0

    def __mul__(self, other):
        if isinstance(other, _Interval):
            if self.lo >= 0 and other.lo >= 0:  # the power sums and their products
                return _Interval(self.lo * other.lo >> _PRECISION, -(-(self.hi * other.hi) >> _PRECISION))
            ends = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
            return _Interval(min(ends) >> _PRECISION, -(-max(ends) >> _PRECISION))
        if other < 0:
            return _Interval(self.hi * other, self.lo * other)
        return _Interval(self.lo * other, self.hi * other)

    __rmul__ = __mul__


def _interval_sums(mi: MomentInputs) -> tuple[int, dict]:
    """(1, intervals): the power sums bracketed, D = 1. Each mode floors b =
    y/d at scale 2**-_PRECISION to c, with e = 0 if b = c and 1 if not. Every
    summand grows with b >= 1, so its sums over c and over c + e, rounded
    outwards, bracket each power sum: (c + e)**g = c**g + e * sum_{i<g} C(g, i) c**i."""
    lo1 = lo2 = lo3 = lo4 = ex0 = ex1 = ex2 = ex3 = 0  # sum m c**g, g = 1..4; sum m c**i, i = 0..3, where e = 0
    for p, q, m in mi.modes:
        c, r = divmod((p * p + q * q) << _PRECISION, 2 * p * q)
        c2 = c * c
        c3, c4 = c2 * c, c2 * c2
        if m != 1:
            c, c2, c3, c4 = m * c, m * c2, m * c3, m * c4
        lo1, lo2, lo3, lo4 = lo1 + c, lo2 + c2, lo3 + c3, lo4 + c4
        if not r:
            ex0, ex1, ex2, ex3 = ex0 + m, ex1 + c, ex2 + c2, ex3 + c3
    up0, up1, up2, up3 = mi.n - ex0, lo1 - ex1, lo2 - ex2, lo3 - ex3  # sum m e c**i, i = 0..3
    hi = (lo1 + up0, lo2 + 2 * up1 + up0, lo3 + 3 * (up2 + up1) + up0, lo4 + 4 * (up3 + up1) + 6 * up2 + up0)
    (_, lower), (_, upper) = (_with_a_sums(mi.n, 1 << _PRECISION, sums) for sums in ((lo1, lo2, lo3, lo4), hi))
    return 1, {
        name: _Interval(lower[name] >> (g - 1) * _PRECISION, -(-upper[name] >> (g - 1) * _PRECISION))
        for name, g in _DEGREES.items()
    }


def _interval_to_float(_sums, value: tuple[_Interval, int, int], name: str) -> float:
    """The float both ends of an interval value round to, which is then the
    correctly rounded float of the exact value inside; raises _Undecided
    when they differ or lie past the float range."""
    num, den, _g = value  # over D**g, and D = 1
    den <<= _PRECISION
    try:
        lo, hi = num.lo / den, num.hi / den
    except OverflowError:
        raise _Undecided(name) from None
    # -0.0 == 0.0, yet they are different bytes
    if lo != hi or math.copysign(1.0, lo) != math.copysign(1.0, hi):
        raise _Undecided(name)
    return lo


def _report(mi, sums, to_float) -> MomentReport:
    tl = _tilde_lambda_squared(mi, sums)
    fourth = _fourth_moment(mi, sums)
    return MomentReport(
        tilde_lambda_sq=to_float(sums, tl, "tilde_lambda^2"),
        second_moment=to_float(sums, _second_moment(mi, sums, tl), "E tr((JM)^2)"),
        fourth_moment=to_float(sums, fourth, "E tr((JM)^4)"),
        expected_f=to_float(sums, _expected_f(mi, sums, fourth, tl), "E f"),
        lambda_bar=to_float(sums, _average_energy(mi, sums), "lambda_bar"),
    )


def compute_moment_report(z, k: int) -> MomentReport:
    """Evaluate all moment expectations for a squeezing spectrum, with
    lambda_bar the exact average energy of z. Each value is float() of its
    part's exact Fraction (see _exact): from the interval sums if all five
    are decided, from the exact sums, with their errors, if not."""
    mi = moment_inputs_from_spectrum(z, k)
    try:
        return _report(mi, _interval_sums(mi), _interval_to_float)
    except _Undecided:
        pass
    return _report(mi, mi._sums, _to_float)
