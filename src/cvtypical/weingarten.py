"""Exact Weingarten calculus for the unitary group.

Conventions used throughout:

- a *permutation* is a tuple ``p`` with ``p[i]`` the 0-based image of ``i``;
- a *partition* (cycle type, Young diagram) is a weakly decreasing tuple of
  positive integers;
- all exact values are returned as ``fractions.Fraction``.

Two routes give the Weingarten function and share no code beyond this
bookkeeping, and each gives every cycle type of S_p at once: ``weingarten``
sums characters over the irreps of S_p, with one table of U(n) irrep
dimensions per n, and ``gram_weingarten_oracle`` inverts the Gram matrix
n^(#cycles(sigma^-1 tau)) (Collins & Sniady, Commun. Math. Phys. 264, 773
(2006)), solved exactly on the class functions of S_p as a
|partitions(p)|-square integer system, tallied in one walk over S_p for
every n of a call.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cache

from .errors import (
    DimensionTooSmall,
    DomainError,
    RowOverflow,
    SingularGram,
    SizeMismatch,
)

GRAM_MAX_ORDER = 6  # the oracle's pass over all p! permutations is tested up to here


# ---------------------------------------------------------------------------
# permutations


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse permutation."""
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation, weakly decreasing."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def permutation_with_cycle_type(ct: tuple[int, ...]) -> tuple[int, ...]:
    """A canonical permutation of 0..sum(ct)-1 realizing the cycle type."""
    ct = _check_partition(ct, "cycle type")
    perm = []
    offset = 0
    for length in ct:
        perm.extend(offset + (i + 1) % length for i in range(length))
        offset += length
    return tuple(perm)


def partitions(p: int) -> list[tuple[int, ...]]:
    """All partitions of p as weakly decreasing tuples."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(p, p))


def _check_partition(parts: tuple[int, ...], name: str) -> tuple[int, ...]:
    parts = tuple(int(x) for x in parts)
    if any(x <= 0 for x in parts):
        raise SizeMismatch(f"{name} must have positive parts, got {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise SizeMismatch(f"{name} must be weakly decreasing, got {parts}")
    return parts


# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama over beta-numbers)


def _beta_to_partition(beta: tuple[int, ...]) -> tuple[int, ...]:
    # beta strictly decreasing; lambda_i = beta_i - (len - 1 - i), zeros dropped
    ell = len(beta)
    lam = tuple(b - (ell - 1 - i) for i, b in enumerate(beta))
    return tuple(x for x in lam if x > 0)


@cache
def _chi(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character of the S_p irrep labeled by the partition lam, evaluated on
    the conjugacy class of cycle type mu, by the Murnaghan-Nakayama
    border-strip recursion; lam and mu are partitions of the same p."""
    if not mu:
        return 1
    t, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = tuple(lam[i] + (ell - 1 - i) for i in range(ell))
    bset = set(beta)
    total = 0
    for b in beta:
        low = b - t
        if low < 0 or low in bset:
            continue
        # removing a border strip of size t: replace b by b - t in the beta-set;
        # sign is (-1)^(number of beta elements jumped over)
        height = sum(1 for x in beta if low < x < b)
        sign = -1 if height % 2 else 1
        new_beta = tuple(sorted((bset - {b}) | {low}, reverse=True))
        total += sign * _chi(_beta_to_partition(new_beta), rest)
    return total


def unitary_irrep_dimension(lam: tuple[int, ...], n: int) -> int:
    """Dimension of the U(n) irrep labeled by lam (Weyl/hook-content formula).

    Raises RowOverflow when lam has more than n rows.
    """
    lam = _check_partition(lam, "lam")
    if n < len(lam):
        raise RowOverflow(f"partition has {len(lam)} rows but n={n}")
    conj = [sum(1 for x in lam if x > j) for j in range(lam[0])] if lam else []
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1  # hook length of cell (i, j)
    q, r = divmod(num, den)
    if r:
        raise SingularGram("hook-content product is not an integer")  # unreachable
    return q


# ---------------------------------------------------------------------------
# Weingarten function


def weingarten(n: int, p: int) -> dict[tuple[int, ...], Fraction]:
    """Exact Weingarten function Wg(n, sigma) for every cycle type sigma of S_p.

    Requires n >= p. Wg(n, sigma) sums, over the partitions lam of p, the
    squared dimension of the S_p irrep lam times its character at sigma,
    divided by the dimension d_lam of the U(n) irrep lam, over p!^2. The d_lam
    are computed once, and each value is one Fraction over lcm(d_lam) p!^2.
    """
    if n < p:
        raise DimensionTooSmall(f"need n >= p, got n={n}, p={p}")
    classes = partitions(p)
    terms = [(lam, _chi(lam, (1,) * p) ** 2, unitary_irrep_dimension(lam, n)) for lam in classes]
    common = math.lcm(*(dim for _, _, dim in terms))
    den = common * math.factorial(p) ** 2
    return {sigma: Fraction(sum(sq * (common // dim) * _chi(lam, sigma) for lam, sq, dim in terms), den)
            for sigma in classes}


def _gram_solution(ns, p: int) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Solve G x = e_id over the rationals for the S_p Gram matrix
    G(sigma, tau) = n^(#cycles(sigma^-1 tau)) at each n of ns; returns x by
    cycle type, for each n.

    G is unchanged by conjugating both arguments and e_id is a class
    function, so for n >= p, where G is invertible, x is a class function
    and the system can be solved on the class indicators alone. Row lambda
    is G's row at the canonical representative sigma_lambda summed over each
    class mu, C[lambda][mu] = sum_c count[lambda][mu][c] n^c, count the number
    of tau in mu with c cycles in sigma_lambda^-1 tau: a |partitions(p)|-square
    system (7 x 7 at p = 5) in place of the p! x p! one. The counts do not
    depend on n, so one walk over S_p, taking each cycle type once, tallies
    them for every n; tau sigma_lambda^-1 is conjugate to sigma_lambda^-1 tau,
    so its cycles are looked up. No characters enter: the route stays
    independent of weingarten().

    Forward elimination runs on integer rows of the augmented matrix [C | e_id]:
    each update is row <- (pivot/g) row - (entry/g) pivot_row, g their gcd,
    after which the row is divided by its content. Back substitution is in
    Fractions."""
    classes = partitions(p)
    size = len(classes)
    column = {ct: c for c, ct in enumerate(classes)}
    key = operator.itemgetter(*range(p))  # a permutation as the getters below give it: a scalar at p = 1
    types = [(tau, cycle_type(tau)) for tau in itertools.permutations(range(p))]
    cycles = {key(tau): len(ct) for tau, ct in types}
    walk = [(tau, column[ct]) for tau, ct in types]
    times_rep_inv = [operator.itemgetter(*inverse(permutation_with_cycle_type(ct))) for ct in classes]
    tallies = [Counter((mu, cycles[get(tau)]) for tau, mu in walk) for get in times_rep_inv]
    solutions = {}
    for n in ns:
        rows = [[0] * size + [int(ct == (1,) * p)] for ct in classes]
        for row, tally in zip(rows, tallies):
            for (mu, c), count in tally.items():
                row[mu] += count * n**c
        for col in range(size):
            piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
            if piv is None:
                raise SingularGram(f"zero pivot at column {col} (n={n}, p={p})")
            rows[col], rows[piv] = rows[piv], rows[col]
            pivot_row, pivot = rows[col], rows[col][col]
            for r in range(col + 1, size):
                entry = rows[r][col]
                if entry == 0:
                    continue
                g = math.gcd(pivot, entry)
                ps, es = pivot // g, entry // g
                tail = zip(rows[r][col + 1 :], pivot_row[col + 1 :])
                row = [0] * (col + 1) + [ps * x - es * y for x, y in tail]
                content = math.gcd(*row)
                rows[r] = [x // content for x in row] if content > 1 else row
        x = [Fraction(0)] * size
        for r in range(size - 1, -1, -1):
            row = rows[r]
            acc = Fraction(row[size])
            for c in range(r + 1, size):
                acc -= row[c] * x[c]
            x[r] = acc / row[r]
        solutions[n] = dict(zip(classes, x))
    return solutions


def gram_weingarten_oracle(ns, p: int) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Independent Weingarten oracle: invert the S_p Gram matrix exactly.

    Solves G x = e_id for G(sigma, tau) = n^(#cycles(sigma^-1 tau)) over the
    rationals at each n of the sequence ns, on class functions (see
    _gram_solution), and returns the solution by cycle type for each n.
    """
    if p < 1:
        raise DomainError(f"need p >= 1, got p={p}")
    if p > GRAM_MAX_ORDER:
        raise DomainError(f"gram oracle supports p <= {GRAM_MAX_ORDER}, got p={p}")
    if min(ns, default=p) < p:
        raise DimensionTooSmall(f"need n >= p, got n={min(ns)}, p={p}")
    return _gram_solution(ns, p)
