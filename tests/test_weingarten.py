import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import cvtypical.weingarten as weingarten_module
from cvtypical.errors import DimensionTooSmall, DomainError, RowOverflow, SizeMismatch
from cvtypical.haar import SeededStream
from cvtypical.weingarten import (
    _chi,
    _gram_solution,
    cycle_type,
    gram_weingarten_oracle,
    inverse,
    partitions,
    permutation_with_cycle_type,
    unitary_irrep_dimension,
    weingarten,
)
from oracles import _reference_haar_rows, compose, gram_solution_reference


def all_permutations(p):
    return list(itertools.permutations(range(p)))


def test_compose_and_inverse():
    for p in all_permutations(4):
        inv = inverse(p)
        assert compose(p, inv) == tuple(range(4))
        assert compose(inv, p) == tuple(range(4))
    assert compose((1, 2, 0), (1, 0, 2)) == (2, 1, 0)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose((0, 1), (0, 1, 2))


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)


def test_permutation_with_cycle_type_round_trip():
    for p in range(1, 6):
        for ct in partitions(p):
            assert cycle_type(permutation_with_cycle_type(ct)) == ct


def test_partition_counts():
    # 1, 2, 3, 5, 7, 11 partitions of 1..6
    for p, count in zip(range(1, 7), (1, 2, 3, 5, 7, 11)):
        parts = partitions(p)
        assert len(parts) == count
        assert all(sum(ct) == p for ct in parts)


def test_character_pinned_values():
    assert _chi((3,), (3,)) == 1
    assert _chi((4,), (2, 1, 1)) == 1
    assert _chi((1, 1), (2,)) == -1
    assert _chi((2, 1), (1, 1, 1)) == 2
    assert _chi((2, 1), (3,)) == -1
    assert _chi((2, 2), (1, 1, 1, 1)) == 2
    assert _chi((1, 1, 1), (3,)) == 1


def test_character_table_orthogonality():
    """Row orthogonality over the full group, class sizes counted by brute force.

    Murnaghan-Nakayama output for every irreducible pair must satisfy
    sum_g chi_a(g) chi_b(g) = p! delta_ab; this is an independent audit of the
    whole table, not just selected entries.
    """
    for p in (3, 4, 5):
        class_size = Counter(cycle_type(g) for g in all_permutations(p))
        assert sum(class_size.values()) == math.factorial(p)
        for lam_a in partitions(p):
            for lam_b in partitions(p):
                total = sum(
                    size * _chi(lam_a, mu) * _chi(lam_b, mu)
                    for mu, size in class_size.items()
                )
                assert total == (math.factorial(p) if lam_a == lam_b else 0)


def test_identity_character_gives_dimensions():
    # sum of squared dimensions is the group order
    for p in (2, 3, 4, 5, 6):
        idclass = (1,) * p
        total = sum(_chi(lam, idclass) ** 2 for lam in partitions(p))
        assert total == math.factorial(p)


def test_unitary_irrep_dimension_pins():
    for n in (2, 3, 5, 9):
        assert unitary_irrep_dimension((1,), n) == n
        assert unitary_irrep_dimension((2,), n) == n * (n + 1) // 2
        assert unitary_irrep_dimension((1, 1), n) == n * (n - 1) // 2
        assert unitary_irrep_dimension((3,), n) == n * (n + 1) * (n + 2) // 6
    assert unitary_irrep_dimension((2, 1), 3) == 8
    assert unitary_irrep_dimension((1, 1, 1, 1), 6) == 15  # C(6, 4)


def test_unitary_irrep_dimension_row_overflow():
    with pytest.raises(RowOverflow):
        unitary_irrep_dimension((1, 1, 1), 2)


def test_weingarten_order_two_closed_forms():
    for n in range(2, 9):
        assert weingarten(n, 2) == {(2,): Fraction(-1, n * (n * n - 1)), (1, 1): Fraction(1, n * n - 1)}


def test_weingarten_order_one():
    for n in (1, 2, 5):
        assert weingarten(n, 1) == {(1,): Fraction(1, n)}


def test_weingarten_depends_only_on_cycle_type():
    wg = weingarten(5, 4)
    assert list(wg) == partitions(4)
    for g in all_permutations(4):
        assert wg[cycle_type(g)] == wg[cycle_type(inverse(g))]


def test_weingarten_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        weingarten(2, 3)


def test_gram_oracle_pinned_order_two():
    (oracle,) = gram_weingarten_oracle([5], 2).values()
    assert oracle[(1, 1)] == Fraction(1, 24)
    assert oracle[(2,)] == Fraction(-1, 120)


def test_gram_oracle_matches_character_sum():
    for n, p in ((4, 1), (4, 2), (4, 3), (6, 3), (5, 4), (6, 6), (7, 6)):
        oracle = gram_weingarten_oracle([n], p)
        assert list(oracle) == [n]
        assert oracle[n] == weingarten(n, p)
        assert list(oracle[n]) == partitions(p)


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in range(1, 5) for n in range(p, p + 4)] + [(5, 5), (5, 6)]
)
def test_integer_gram_elimination_matches_fraction_reference(p, n):
    """The class-space integer elimination gives the full p! x p! Fraction
    solve's exact value on every permutation: the full solution is constant
    on classes and equals the class solution there."""
    reference = gram_solution_reference(n, p)
    solution = _gram_solution([n], p)[n]
    assert set(solution) == set(partitions(p))
    for perm, value in reference.items():
        assert value == solution[cycle_type(perm)]


@pytest.mark.parametrize("p, ns", [(5, range(5, 10)), (6, range(6, 9))], ids=["p5_n5-9", "p6_n6-8"])
def test_one_walk_serves_every_n(monkeypatch, p, ns):
    """One call over a range of n walks S_p once, taking each of the p!
    cycle types once, and gives the single-n solutions and the character
    sums; at p = 5 also the full p! x p! Fraction solve."""
    calls = []
    monkeypatch.setattr(weingarten_module, "cycle_type", lambda perm: calls.append(perm) or cycle_type(perm))
    solutions = gram_weingarten_oracle(ns, p)
    assert len(calls) == len(set(calls)) == math.factorial(p)
    monkeypatch.undo()
    assert list(solutions) == list(ns)
    for n in ns:
        assert solutions[n] == _gram_solution([n], p)[n] == weingarten(n, p)
        if p == 5:
            for perm, value in gram_solution_reference(n, p).items():
                assert value == solutions[n][cycle_type(perm)]


def test_gram_oracle_order_bounds():
    with pytest.raises(DomainError):
        gram_weingarten_oracle([8], 7)
    with pytest.raises(DomainError):
        gram_weingarten_oracle([8], 0)
    with pytest.raises(DimensionTooSmall):
        gram_weingarten_oracle([3], 4)
    with pytest.raises(DimensionTooSmall):
        gram_weingarten_oracle([5, 3, 6], 4)


def test_biorthogonality_with_gram_matrix():
    """The defining property: Wg convolved against n^{#cycles} is a delta.

    For every tau in S_p, sum_sigma Wg(n, type(sigma tau^-1)) n^{#cycles(sigma)}
    equals 1 at tau = id and 0 elsewhere, in exact rationals.
    """
    for p, n in ((3, 5), (4, 6)):
        perms = all_permutations(p)
        wg = weingarten(n, p)
        for tau in perms:
            tau_inv = inverse(tau)
            total = sum(
                wg[cycle_type(compose(sigma, tau_inv))]
                * Fraction(n) ** len(cycle_type(sigma))
                for sigma in perms
            )
            assert total == (1 if tau == tuple(range(p)) else 0)


def test_entry_moments_by_monte_carlo():
    """Second-order entry moments against sampled unitaries.

    E|u_00 u_11|^2 = Wg(n,(1,1)) = 1/(n^2-1), the same-row pair
    E|u_00 u_01|^2 = 1/(n(n+1)), and the off-diagonal contraction
    E[u_00 u_11 conj(u_01 u_10)] = Wg(n,(2,)) = -1/(n(n^2-1)).
    """
    n, trials = 4, 60000
    gen = SeededStream(9).generator()
    diag = np.empty(trials)
    same_row = np.empty(trials)
    crossed = np.empty(trials, dtype=complex)
    for t in range(trials):
        U = _reference_haar_rows(n, gen, n)
        diag[t] = (abs(U[0, 0]) * abs(U[1, 1])) ** 2
        same_row[t] = (abs(U[0, 0]) * abs(U[0, 1])) ** 2
        crossed[t] = U[0, 0] * U[1, 1] * np.conj(U[0, 1] * U[1, 0])

    def within(values, target, sigmas=4.0):
        se = values.std(ddof=1) / np.sqrt(trials)
        return abs(values.mean() - target) <= sigmas * se

    assert within(diag, 1.0 / (n * n - 1))
    assert within(same_row, 1.0 / (n * (n + 1)))
    assert within(crossed.real, -1.0 / (n * (n * n - 1)))
    assert within(crossed.imag, 0.0)
    # the two conjugate-matched monomials genuinely differ
    assert not within(diag, 1.0 / (n * (n + 1)), sigmas=6.0)
