import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvtypical.moments as moments
from cvtypical.errors import DimensionTooSmall, DomainError, InvalidSubsystem
from cvtypical.moments import (
    MomentInputs,
    _average_energy,
    _exact,
    _fourth_moment,
    _second_moment,
    _tilde_lambda_squared,
    compute_moment_report,
    expected_f_exact,
    moment_inputs_from_spectrum,
)
from cvtypical.symplectic import average_energies
from oracles import _ab_vectors, reference_mode_inputs, reference_moments


def spiked(n):
    return moment_inputs_from_spectrum((3,) + (1,) * (n - 1), 1)


def test_pinned_exact_values_n4():
    mi = spiked(4)
    assert _exact(mi, _average_energy) == Fraction(7, 6)
    assert _exact(mi, _tilde_lambda_squared) == Fraction(6, 5)
    assert _exact(mi, _second_moment) == Fraction(-12, 5)
    assert _exact(mi, _fourth_moment) == Fraction(914, 315)
    assert expected_f_exact(mi) == Fraction(1667, 22680)


def test_pinned_exact_values_n5():
    mi = spiked(5)
    assert _exact(mi, _second_moment) == Fraction(-106, 45)
    assert _exact(mi, _fourth_moment) == Fraction(2642, 945)
    assert expected_f_exact(mi) == Fraction(15664, 354375)


def test_pinned_exact_values_flat():
    mi = moment_inputs_from_spectrum((Fraction(2),) * 5, 1)
    assert _exact(mi, _second_moment) == Fraction(-11, 4)
    assert _exact(mi, _fourth_moment) == Fraction(977, 256)
    assert expected_f_exact(mi) == Fraction(27, 256)
    mi = moment_inputs_from_spectrum((Fraction(2),) * 6, 2)
    assert _exact(mi, _second_moment) == Fraction(-37, 7)
    assert _exact(mi, _fourth_moment) == Fraction(227, 32)
    assert expected_f_exact(mi) == Fraction(153, 448)


def test_two_second_moment_routes_agree():
    """The raw four-term form and the -2k lambda~^2 form are one identity.

    Checked exactly at randomized integer spectra so a transcription slip in
    either route cannot hide behind float tolerance.
    """
    rng = random.Random(20240817)
    for _ in range(20):
        n = rng.randint(4, 9)
        k = rng.randint(1, n)
        z = tuple(Fraction(rng.randint(1, 5)) for _ in range(n))
        mi = moment_inputs_from_spectrum(z, k)
        assert reference_moments(z, k)["table1_second_moment"] == _exact(mi, _second_moment)
        assert _exact(mi, _second_moment) == -2 * k * _exact(mi, _tilde_lambda_squared)


def test_vacuum_identities_spot():
    for n, k in ((4, 1), (6, 3), (9, 9)):
        mi = moment_inputs_from_spectrum((1,) * n, k)
        assert _exact(mi, _tilde_lambda_squared) == 1
        assert _exact(mi, _second_moment) == -2 * k
        assert _exact(mi, _fourth_moment) == 2 * k
        assert expected_f_exact(mi) == 0


def test_full_system_is_pure():
    """At k = n the reduced state is the pure global state: spectrum all ones.

    The moments then lose their randomness entirely: tr(JM)^2 = -2n,
    tr(JM)^4 = 2n, and E f = 2n (1 - lambda_bar^2)^2 for any spectrum.
    """
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(4, 8)
        z = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
        mi = moment_inputs_from_spectrum(z, n)
        lam = _exact(mi, _average_energy)
        assert _exact(mi, _second_moment) == -2 * n
        assert _exact(mi, _fourth_moment) == 2 * n
        assert expected_f_exact(mi) == 2 * n * (1 - lam * lam) ** 2


def test_numpy_integer_spectra():
    # numpy integers are Rational; the mode table must still hold Python ints
    for z in (np.array([3, 1, 1, 1]), [np.int32(3), 1, 1, 1]):
        mi = moment_inputs_from_spectrum(z, 1)
        assert expected_f_exact(mi) == Fraction(1667, 22680)
        assert mi.modes == ((3, 1, 1), (1, 1, 3))
        assert all(type(v) is int for mode in mi.modes for v in mode)


def test_permutation_invariance():
    z = (4, 1, 2, 1, 3, 1)
    shuffled = (1, 3, 1, 4, 2, 1)
    for k in (1, 3):
        a = moment_inputs_from_spectrum(z, k)
        b = moment_inputs_from_spectrum(shuffled, k)
        assert _exact(a, _second_moment) == _exact(b, _second_moment)
        assert _exact(a, _fourth_moment) == _exact(b, _fourth_moment)
        assert expected_f_exact(a) == expected_f_exact(b)


def test_expected_f_decay_pins():
    """Doubling n quarters E f for a flat spectrum with fixed k.

    Exact values pinned for z = 2, k = 1; the per-doubling ratio converges to
    1/4 from above, i.e. the mean of f decays like 1/n^2 in this regime while
    its square root (the rms spectral deviation) decays like 1/n.
    """
    pins = {
        16: Fraction(81, 5168),
        32: Fraction(27, 6160),
        64: Fraction(81, 69680),
        128: Fraction(27, 90128),
    }
    values = {}
    for n, pin in pins.items():
        values[n] = expected_f_exact(moment_inputs_from_spectrum((Fraction(2),) * n, 1))
        assert values[n] == pin
    assert values[32] / values[16] == Fraction(323, 1155)
    assert values[64] / values[32] == Fraction(231, 871)
    assert values[128] / values[64] == Fraction(4355, 16899)
    for a, b in ((16, 32), (32, 64), (64, 128)):
        ratio = values[b] / values[a]
        assert Fraction(1, 4) < ratio < Fraction(1, 3)


def test_float_wrappers_match_exact():
    """The report's floats are the exact values rounded once."""
    mi = spiked(5)
    report = compute_moment_report((3, 1, 1, 1, 1), 1)
    assert report.second_moment == float(_exact(mi, _second_moment))
    assert report.fourth_moment == float(_exact(mi, _fourth_moment))
    assert report.expected_f == float(expected_f_exact(mi))
    assert report.tilde_lambda_sq == float(_exact(mi, _tilde_lambda_squared))
    assert report.lambda_bar == float(_exact(mi, _average_energy))


def test_average_energy_routes_agree():
    z = (3.0, 1.5, 1.0, 1.0)
    mi = moment_inputs_from_spectrum(z, 1)
    assert float(_exact(mi, _average_energy)) == pytest.approx(average_energies(z), rel=1e-12)


def test_moment_input_validation():
    with pytest.raises(InvalidSubsystem):
        moment_inputs_from_spectrum((2, 2, 2), 4)
    with pytest.raises(InvalidSubsystem):
        moment_inputs_from_spectrum((2, 2, 2), 0)
    with pytest.raises(DomainError):
        moment_inputs_from_spectrum((0.5, 2), 1)
    with pytest.raises(DomainError):
        moment_inputs_from_spectrum((), 1)


@pytest.mark.parametrize(
    "n, k, modes, error, message",
    [
        (2, 1, ((2, 1, 1), (1, 2, 1)), DomainError, "squeezing parameters must be >= 1"),
        (2, 1, ((2, 1, 1), (1, 0, 1)), DomainError, "need denominators q >= 1"),
        (2, 1, ((2, 1, 1), (3, 1, 0)), DomainError, "need multiplicities m >= 1"),
        (3, 1, ((2, 1, 1), (3, 1, 1)), DimensionTooSmall, "need 3 modes, got 2"),
        (2, 3, ((2, 1, 1), (3, 1, 1)), InvalidSubsystem, "need 1 <= k <= 2, got k=3"),
        (2, 0, ((2, 1, 1), (3, 1, 1)), InvalidSubsystem, "need 1 <= k <= 2, got k=0"),
        (2, 1, ((2, 1, 1), (3.0, 1, 1)), DomainError, r"need integer \(p, q, m\) modes, got \(3.0, 1, 1\)"),
        (2, 1, ((2, 1, 1), (3, 1, 1.0)), DomainError, r"need integer \(p, q, m\) modes, got \(3, 1, 1.0\)"),
        # True == 1, but it is no mode entry and no mode count
        (4, 1, ((True, 1, 4),), DomainError, r"need integer \(p, q, m\) modes, got \(True, 1, 4\)"),
        (4, 1, ((3, 1, True), (1, 1, 3)), DomainError, r"need integer \(p, q, m\) modes, got \(3, 1, True\)"),
        (4.0, 1, ((2, 1, 4),), DomainError, r"need an integer n, got n=4\.0"),
        (True, 1, ((2, 1, 1),), DomainError, r"need an integer n, got n=True"),
    ],
    ids=[
        "p_below_q", "q_below_one", "m_below_one", "multiplicities_not_n", "k_above_n", "k_below_one",
        "float_p", "float_m", "bool_p", "bool_m", "float_n", "bool_n",
    ],
)
def test_hand_built_inputs_are_rejected(n, k, modes, error, message):
    good = MomentInputs(n=2, k=1, modes=((2, 1, 1), (3, 1, 1)))
    assert good == moment_inputs_from_spectrum((2, 3), 1)
    with pytest.raises(error, match=message):
        MomentInputs(n=n, k=k, modes=modes)


def test_numpy_integer_modes_act_as_ints():
    """numpy integers in a hand-built table are Python ints on both routes:
    3e9**4 would wrap in int64."""
    mi = MomentInputs(n=4, k=1, modes=((np.int64(3000000000), np.int64(1), np.int64(4)),))
    assert mi.modes == ((3000000000, 1, 4),)
    assert all(type(entry) is int for mode in mi.modes for entry in mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = float(expected_f_exact(mi))
        certified = moments._report(mi, moments._interval_sums(mi), moments._interval_to_float)
    assert repr(exact) == repr(certified.expected_f) == "2.3142857142857143e+36"
    assert repr(compute_moment_report([3e9] * 4, 1)) == repr(certified)


def test_subsystem_size_must_be_an_integer():
    """A float or bool k is refused before any arithmetic; numpy integers
    work on both routes and are kept as Python ints."""
    rng = random.Random(4)
    z = np.array([1.0 + 2.0 * rng.random() for _ in range(256)])
    with pytest.raises(InvalidSubsystem, match="need an integer k, got k=2.5"):
        compute_moment_report(z, 2.5)
    with pytest.raises(InvalidSubsystem, match="need an integer k, got k=2.0"):
        compute_moment_report(z, 2.0)
    with pytest.raises(InvalidSubsystem, match="need an integer k, got k=2.0"):
        moment_inputs_from_spectrum(z, 2.0)
    # True == 1, but it is no k
    with pytest.raises(InvalidSubsystem, match="need an integer k, got k=True"):
        moment_inputs_from_spectrum(z, True)
    with pytest.raises(InvalidSubsystem, match="need an integer k, got k=True"):
        MomentInputs(n=4, k=True, modes=((2, 1, 1), (1, 1, 3)))
    mi = moment_inputs_from_spectrum(z, np.int64(2))
    assert type(mi.k) is int and mi == moment_inputs_from_spectrum(z, 2)
    assert expected_f_exact(mi) == expected_f_exact(moment_inputs_from_spectrum(z, 2))
    assert repr(compute_moment_report(z, np.int64(2))) == repr(compute_moment_report(z, 2))


def test_power_sums_are_built_once_per_instance(monkeypatch):
    calls = []
    build = moments._power_sums
    monkeypatch.setattr(moments, "_power_sums", lambda mi: calls.append(mi) or build(mi))
    mi = spiked(5)
    expected = expected_f_exact(mi)
    assert _exact(mi, _average_energy) == Fraction(17, 15)
    _exact(mi, _tilde_lambda_squared)
    _exact(mi, _second_moment)
    _exact(mi, _fourth_moment)
    assert expected_f_exact(mi) == expected
    assert calls == [mi]
    # the report settles every value on intervals and builds no exact sums
    compute_moment_report((3, 1, 1, 1, 1), 1)
    assert calls == [mi]


def test_fourth_moment_needs_room():
    # the denominators vanish below n = 4
    with pytest.raises(DimensionTooSmall):
        _exact(moment_inputs_from_spectrum((2, 2, 2), 1), _fourth_moment)


def test_float_wrappers_leave_the_float_range_cleanly():
    """The report names the first value it cannot round to a float."""
    with pytest.raises(DomainError, match="tilde_lambda\\^2"):
        compute_moment_report((1e200,) * 4, 1)
    # tilde_lambda^2 ~ z^2 fits, E tr((JM)^4) ~ z^4 does not
    with pytest.raises(DomainError, match="E tr\\(\\(JM\\)\\^4\\)"):
        compute_moment_report((1e100,) * 4, 1)
    # at k = n the state is pure: the traces are -2n and 2n, E f = 2n (1 - lb^2)^2
    with pytest.raises(DomainError, match="E f has"):
        compute_moment_report((2e80,) * 4, 4)
    # the exact values exist all the same
    assert _exact(moment_inputs_from_spectrum((1e200,) * 4, 1), _tilde_lambda_squared) > 10**399
    assert _exact(moment_inputs_from_spectrum((1e100,) * 4, 1), _fourth_moment) > 10**398
    assert expected_f_exact(moment_inputs_from_spectrum((2e80,) * 4, 4)) > 10**320


Z_FLOATS = st.floats(min_value=1.0, max_value=1e3)
Z_FRACTIONS = st.fractions(min_value=1, max_value=30, max_denominator=97)
Z_INTEGERS = st.integers(1, 12)


@st.composite
def spectra(draw):
    """(z, k): distinct floats, repeated floats, integers, a mix of floats,
    integers and fractions with unrelated denominators, or the vacuum."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["distinct", "repeats", "integer", "mixed", "vacuum"]))
    if kind == "distinct":
        z = draw(st.lists(Z_FLOATS, min_size=n, max_size=n, unique=True))
    elif kind == "repeats":
        pool = draw(st.lists(Z_FLOATS, min_size=1, max_size=3))
        z = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif kind == "integer":
        z = draw(st.lists(Z_INTEGERS, min_size=n, max_size=n))
    elif kind == "mixed":
        z = draw(st.lists(st.one_of(Z_FLOATS, Z_INTEGERS, Z_FRACTIONS), min_size=n, max_size=n))
    else:
        z = [1] * n
    return z, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(case=spectra())
@example(case=([1.0000000000000002, 3.0, 1.5, 2.75], 2))
@example(case=([Fraction(3, 2), Fraction(7, 5), 2, 2.5, 1], 5))
def test_exact_moments_equal_the_fraction_reference(case):
    """Every exact value equals the running-Fraction reference exactly, and
    every value of the report is float() of it, bit for bit."""
    z, k = case
    mi = moment_inputs_from_spectrum(z, k)
    ref = reference_moments(z, k)
    assert _exact(mi, _average_energy) == ref["average_energy"]
    checks = {
        "tilde_lambda_sq": (lambda m: _exact(m, _tilde_lambda_squared), 2),
        "second_moment": (lambda m: _exact(m, _second_moment), 2),
        "fourth_moment": (lambda m: _exact(m, _fourth_moment), 4),
        "expected_f": (expected_f_exact, 4),
    }
    for name, (exact_fn, min_n) in checks.items():
        if mi.n < min_n:
            assert name not in ref
            with pytest.raises(DimensionTooSmall):
                exact_fn(mi)
            continue
        assert exact_fn(mi) == ref[name], name
    if mi.n >= 4:
        report = compute_moment_report(z, k)
        assert report.lambda_bar == float(ref["average_energy"])
        assert report.tilde_lambda_sq == float(ref["tilde_lambda_sq"])
        assert report.second_moment == float(ref["second_moment"])
        assert report.fourth_moment == float(ref["fourth_moment"])
        assert report.expected_f == float(ref["expected_f"])


def exact_report(z, k):
    """The report of z from the exact power sums alone, errors included."""
    mi = moment_inputs_from_spectrum(z, k)
    return moments._report(mi, mi._sums, moments._to_float)


def spy_on_exact_sums(monkeypatch):
    calls = []
    build = moments._power_sums
    monkeypatch.setattr(moments, "_power_sums", lambda mi: calls.append(mi) or build(mi))
    return calls


def test_undecided_intervals_fall_back_to_the_exact_route(monkeypatch):
    """At 8 bits no interval settles its rounding: the report comes from the
    exact power sums, and is float() of every exact value, bit for bit."""
    rng = random.Random(5)
    z = [1.0 + 2.0 * rng.random() for _ in range(12)]
    expected = exact_report(z, 3)
    mi = moment_inputs_from_spectrum(z, 3)
    calls = spy_on_exact_sums(monkeypatch)
    monkeypatch.setattr(moments, "_PRECISION", 8)
    report = compute_moment_report(z, 3)
    assert len(calls) == 1
    assert repr(report) == repr(expected)
    assert report.tilde_lambda_sq == float(_exact(mi, _tilde_lambda_squared))
    assert report.second_moment == float(_exact(mi, _second_moment))
    assert report.fourth_moment == float(_exact(mi, _fourth_moment))
    assert report.expected_f == float(expected_f_exact(mi))
    assert report.lambda_bar == float(_exact(mi, _average_energy))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_shapes_need_no_exact_sums(monkeypatch, seed):
    """The moments workload's spectra (random floats in [1, 3) at n = 256
    and 1024, a constant and the vacuum at n = 1024) are settled on
    intervals alone, and equal the exact route's report."""
    rng = random.Random(seed)
    cases = [
        (np.array([1.0 + 2.0 * rng.random() for _ in range(256)]), 1),
        (np.array([1.0 + 2.0 * rng.random() for _ in range(256)]), 2),
        (np.array([1.0 + 2.0 * rng.random() for _ in range(1024)]), 1),
        (np.full(1024, 1.0 + 2.0 * rng.random()), 2),
        (np.full(1024, 1.0), 1),
    ]
    calls = spy_on_exact_sums(monkeypatch)
    reports = [compute_moment_report(z, k) for z, k in cases]
    assert calls == []
    for (z, k), report in zip(cases, reports):
        assert repr(report) == repr(exact_report(z, k))


@pytest.mark.parametrize(
    "z, k",
    [
        (np.full(1024, 2.0), 2),
        (np.full(1024, 4.0), 1),
        (np.array([1.0, 2.0, 4.0] * 341 + [1.0]), 3),
    ],
    ids=["constant_2", "constant_4", "three_exact_modes"],
)
def test_exact_b_modes_keep_zero_width_brackets(monkeypatch, z, k):
    """z = 1, 2, 4 have b = 1, 5/4, 17/8 exactly at scale 2**-_PRECISION:
    their brackets have zero width, the report needs no exact sums and
    equals the exact route's, alone and beside inexact modes."""
    mi = moment_inputs_from_spectrum(z, k)
    _, brackets = moments._interval_sums(mi)
    assert all(bracket.lo == bracket.hi for bracket in brackets.values())
    mixed = np.concatenate([z, [1.0 + 2.0 * random.Random(k).random() for _ in range(64)]])
    calls = spy_on_exact_sums(monkeypatch)
    reports = [compute_moment_report(z, k), compute_moment_report(mixed, k)]
    assert calls == []
    assert repr(reports[0]) == repr(exact_report(z, k))
    assert repr(reports[1]) == repr(exact_report(mixed, k))


def test_a_repeated_value_is_one_mode(monkeypatch):
    """A constant spectrum is one (p, q, m) entry, and its exact tree one
    leaf with nothing to merge."""
    z = np.full(2**16, 2.0)
    mi = moment_inputs_from_spectrum(z, 1)
    assert mi.n == 2**16 and mi.modes == ((2, 1, 2**16),)
    calls = spy_on_exact_sums(monkeypatch)
    leaves, merges = [], []
    mode_terms, merge = moments._mode_terms, moments._merge
    monkeypatch.setattr(moments, "_mode_terms", lambda *mode: leaves.append(mode) or mode_terms(*mode))
    monkeypatch.setattr(moments, "_merge", lambda left, right: merges.append(1) or merge(left, right))
    value = expected_f_exact(mi)
    assert calls == [mi] and leaves == [(2, 1, 2**16)] and merges == []
    assert compute_moment_report(z, 1).expected_f == float(value)


def test_run_length_modes_equal_the_fraction_reference():
    """Three float values repeated up to n = 4096: three modes, every exact
    value the reference's on 4096 separate modes, and the report the exact
    route's."""
    rng = random.Random(12)
    values = [1.0 + 2.0 * rng.random() for _ in range(3)]
    z = np.array([values[rng.randrange(3)] for _ in range(4096)])
    k = 9
    mi = moment_inputs_from_spectrum(z, k)
    assert len(mi.modes) == 3 and sum(m for _, _, m in mi.modes) == 4096
    ref = reference_moments(z, k)
    assert _exact(mi, _average_energy) == ref["average_energy"]
    assert _exact(mi, _tilde_lambda_squared) == ref["tilde_lambda_sq"]
    assert _exact(mi, _second_moment) == ref["second_moment"]
    assert _exact(mi, _fourth_moment) == ref["fourth_moment"]
    assert expected_f_exact(mi) == ref["expected_f"]
    assert repr(compute_moment_report(z, k)) == repr(exact_report(z, k))


def test_interval_ends_of_opposite_zero_sign_are_undecided():
    """Both ends underflow to zero, but -0.0 and 0.0 are different floats."""
    scale = 2**1200
    with pytest.raises(moments._Undecided):
        moments._interval_to_float((1, {}), (moments._Interval(-1, 1), scale, 0), "x")
    value = moments._interval_to_float((1, {}), (moments._Interval(0, 1), scale, 0), "x")
    assert repr(value) == "0.0"
    value = moments._interval_to_float((1, {}), (moments._Interval(-2, -1), scale, 0), "x")
    assert repr(value) == "-0.0"


def bracket(x: Fraction):
    scaled = x * 2**moments._PRECISION
    return moments._Interval(math.floor(scaled), math.ceil(scaled))


def contains(interval, x: Fraction) -> bool:
    scaled = x * 2**moments._PRECISION
    return interval.lo <= scaled <= interval.hi


@settings(max_examples=200, deadline=None)
@given(
    x=st.fractions(-(10**60), 10**60),
    y=st.fractions(-(10**60), 10**60),
    c=st.integers(-(10**30), 10**30),
)
def test_interval_arithmetic_brackets_the_exact_value(x, y, c):
    """Sums, integer and interval products and repeated products of
    brackets bracket the exact results, whatever the signs."""
    X, Y = bracket(x), bracket(y)
    assert contains(X + Y, x + y)
    assert contains(sum([X, Y]), x + y)
    assert contains(X + c, x + c)
    assert contains(c * X, c * x) and contains(X * c, c * x)
    assert contains(X * Y, x * y)
    assert contains(X * X * X, x**3)


@settings(max_examples=200, deadline=None)
@given(ends=st.lists(st.integers(0, 2**800), min_size=4, max_size=4))
def test_non_negative_brackets_multiply_by_two_ends(ends):
    """Brackets with both lower ends >= 0, as every power sum has, multiply
    to what the four-end products give."""
    a, b, c, d = ends
    x, y = moments._Interval(min(a, b), max(a, b)), moments._Interval(min(c, d), max(c, d))
    products = [u * v for u in (x.lo, x.hi) for v in (y.lo, y.hi)]
    product = x * y
    assert product.lo == min(products) >> moments._PRECISION
    assert product.hi == -(-max(products) >> moments._PRECISION)


NEAR_ONE = (1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-40, 1.0 + 2.0**-26, 1.5)
WIDE_FLOATS = st.one_of(st.floats(min_value=1.0, max_value=1e150), st.sampled_from(NEAR_ONE))


@st.composite
def wide_spectra(draw):
    """(z, k) over twenty decades of squeezing and its edge near 1: floats
    up to 1e150, values a few ulps above 1, repeats, integers, fractions."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(st.one_of(WIDE_FLOATS, Z_INTEGERS, Z_FRACTIONS), min_size=1, max_size=4))
    z = draw(st.lists(st.one_of(WIDE_FLOATS, st.sampled_from(pool)), min_size=n, max_size=n))
    return z, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(case=wide_spectra())
@example(case=([1.0 + 2.0**-52] * 6, 2))
@example(case=([1e150, 1.0, 1.0, 1.0], 1))
@example(case=([1e150] * 5, 5))
@example(case=([Fraction(7, 5), 1.0 + 2.0**-52, 3, 1e75], 4))
def test_report_equals_the_exact_route(case):
    """Value for value the report is the exact route's, or it raises the
    exact route's error class with the same message."""
    z, k = case
    try:
        expected = exact_report(z, k)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            compute_moment_report(z, k)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        assert repr(compute_moment_report(z, k)) == repr(expected)


# (name, power of a, power of b) of every power sum the formulas read
FORMULA_SUMS = (
    ("trB", 0, 1), ("trB2", 0, 2), ("trB3", 0, 3), ("trB4", 0, 4),
    ("trA2", 2, 0), ("trA4", 4, 0), ("trA2B2", 2, 2), ("trA2B", 2, 1),
)


def direct_sums(z):
    """Each power sum of FORMULA_SUMS as a Fraction, summed term by term
    over the diagonals a, b of z (the oracle's, not the package's)."""
    a, b = _ab_vectors(z)
    return {name: sum(x**i * y**j for x, y in zip(a, b)) for name, i, j in FORMULA_SUMS}


def assert_brackets_hold(z, k):
    """Every bracket _interval_sums gives, b's four and the four of a it
    derives, holds the power sum summed directly from a_j and b_j:
    lo <= sum * 2**P <= hi."""
    _, brackets = moments._interval_sums(moment_inputs_from_spectrum(z, k))
    for name, exact in direct_sums(z).items():
        scaled = exact * 2**moments._PRECISION
        assert brackets[name].lo <= scaled <= brackets[name].hi, name


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(spectra(), wide_spectra()))
@example(case=([1] * 5, 1))
@example(case=([1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0 + 2.0**-52], 1))
@example(case=([Fraction(7, 3), Fraction(11, 9), Fraction(13, 5), Fraction(7, 3), 1e150], 2))
def test_interval_sums_bracket_the_exact_power_sums(case):
    """z = 1 exactly (a = 0), a few ulps above 1, fractions with odd
    denominators, repeats (m > 1) and twenty decades of squeezing."""
    z, k = case
    assert_brackets_hold(z, k)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(spectra(), wide_spectra()))
@example(case=([1] * 5, 1))
@example(case=([1.0 + 2.0**-52, 1e150, Fraction(7, 3), Fraction(7, 3)], 2))
def test_exact_power_sums_equal_the_direct_sums(case):
    """The exact tree's numerators over D**g, b's four and the four of a
    derived from them, equal the sums built term by term from a_j and b_j."""
    z, k = case
    D, numerators = moment_inputs_from_spectrum(z, k)._sums
    direct = direct_sums(z)
    assert numerators.keys() == direct.keys()
    for name, i, j in FORMULA_SUMS:
        assert Fraction(numerators[name], D ** (i + j)) == direct[name], name


@pytest.mark.parametrize("size", [1, 63, 64, 65, 192])
def test_brackets_hold_at_chunk_boundaries(size):
    """Mode tables of 1 to 192 distinct modes (the sizes around the 64-mode
    chunks the interval sums once took), with z = 1, a value an ulp above 1,
    odd-denominator fractions and repeated values among their modes; the
    report stays the exact route's."""
    rng = random.Random(size)
    edges = [1, 1.0 + 2.0**-52, Fraction(5, 3), Fraction(22, 7)][:size]
    values = edges + [1.0 + 2.0 * rng.random() for _ in range(size - len(edges))]
    z = values + values[::3] + values[:1] * 4
    mi = moment_inputs_from_spectrum(z, 1)
    assert len(mi.modes) == size and max(m for _, _, m in mi.modes) > 1
    assert_brackets_hold(z, 1)
    if mi.n >= 4:
        assert repr(compute_moment_report(z, 1)) == repr(exact_report(z, 1))


def test_one_mode_expected_f_is_the_beta_law_mean():
    """At k = 1 the exact E f of a constant spectrum is 16 a^4/((n+1)(n+3)),
    a = (z - 1/z)/2: the mean of 2 delta^2 under its Beta law."""
    for z in (Fraction(2), Fraction(37, 10), Fraction(13, 10), Fraction(5)):
        a = (z - 1 / z) / 2
        for n in range(4, 70):
            mi = moment_inputs_from_spectrum((z,) * n, 1)
            assert expected_f_exact(mi) == 16 * a**4 / ((n + 1) * (n + 3))


# one entry type per numeric route into _ratio
ENTRY_TYPES = [int, float, Fraction, np.float64, np.float32]


@st.composite
def typed_spectra(draw):
    """(z, k): a few values, each entry one of them as an int (when
    integral), float, Fraction, numpy float64 or float32, so equal values
    recur as different types; z is a list, or a float32 or float64 array."""
    pool = draw(st.lists(st.one_of(Z_FLOATS, Z_INTEGERS, Z_FRACTIONS), min_size=1, max_size=4))
    z = []
    for _ in range(draw(st.integers(1, 40))):
        value, kind = draw(st.sampled_from(pool)), draw(st.sampled_from(ENTRY_TYPES))
        z.append(kind(value) if kind is not int or value == int(value) else value)
    container = draw(st.sampled_from(["list", "float32", "float64"]))
    if container != "list":
        z = np.array([float(x) for x in z], dtype=container)
    return z, draw(st.integers(1, len(z)))


@settings(max_examples=200, deadline=None)
@given(case=typed_spectra())
@example(case=([2, 2.0, Fraction(2), np.float64(2.0), np.float32(2.0), 3], 1))
@example(case=([np.float32(1.1), 1.1, Fraction(11, 10), np.float32(1.1)], 2))
@example(case=([Fraction(2), np.longdouble(2), 3, 2], 1))  # equal values a Counter keeps apart
def test_mode_table_equals_one_conversion_per_entry(case):
    """Counting raw values before converting gives the modes, in the same
    order, that one conversion per entry gives."""
    z, k = case
    assert moment_inputs_from_spectrum(z, k) == reference_mode_inputs(z, k)


def test_a_constant_spectrum_takes_one_conversion(monkeypatch):
    calls = []
    ratio = moments._ratio
    monkeypatch.setattr(moments, "_ratio", lambda x: calls.append(x) or ratio(x))
    mi = moment_inputs_from_spectrum(np.full(1024, 2.0), 1)
    assert calls == [2.0] and mi.modes == ((2, 1, 1024),)


@pytest.mark.parametrize(
    "z, entry",
    [
        ([float("nan"), 1, 1, 1], "nan"),
        ([float("inf"), 1, 1, 1], "inf"),
        ([None, 1, 1, 1], "None"),
        (["2", 1, 1, 1], "'2'"),
        (np.array([1.0, 1.0, -np.inf, 1.0]), "-inf"),
        ([[2.0], 1, 1, 1], "[2.0]"),
        ([1, 1, 1, np.array([2.0, 1.0])], "array([2., 1.])"),
        (np.full((4, 2), 2.0), "[2.0, 2.0]"),
        ((x for x in [[2.0], 1, 1, 1]), "[2.0]"),
    ],
    ids=["nan", "inf", "None", "str", "array_minus_inf", "nested_list", "array_entry", "two_dim_array", "generator"],
)
def test_bad_spectrum_entries_are_domain_errors(z, entry):
    """Each bad entry is a DomainError that names it, not a bare ValueError,
    OverflowError or TypeError, and a string is not read as a number; so is
    an entry the raw-value count cannot hash (a list, an array, the row of a
    2-d array)."""
    with pytest.raises(DomainError, match=re.escape(f"got {entry}")):
        compute_moment_report(z, 1)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="longdouble is a double here")
def test_longdouble_entries_convert_exactly():
    """A longdouble keeps the bits a double would drop: 1 + 2**-60 is its own
    value, above 1, and the report is the exact route's on that value."""
    x = np.longdouble(1) + np.longdouble(2) ** -60
    assert x > 1 and moments._ratio(x) == (2**60 + 1, 2**60)
    z = np.array([x, 2, 3, 1], dtype=np.longdouble)
    mi = moment_inputs_from_spectrum(z, 1)
    assert (2**60 + 1, 2**60, 1) in mi.modes
    assert repr(compute_moment_report(z, 1)) == repr(exact_report(z, 1))


@st.composite
def rational_spectra(draw):
    return draw(st.lists(st.one_of(Z_FRACTIONS, Z_INTEGERS), min_size=2, max_size=64))


def deviation_moments(z):
    """{k: (E sum_j (lambda_j^2 - 1), E sum_j (lambda_j^2 - 1)^2)} for k = 1..n-1,
    exactly: E sum lambda_j^2 = k tilde_lambda^2 = -E tr((JM)^2) / 2 and
    E sum lambda_j^4 = E tr((JM)^4) / 2; the second is None below n = 4."""
    modes = moment_inputs_from_spectrum(z, 1).modes
    n = len(z)
    out = {}
    for k in range(1, n):
        mi = MomentInputs(n=n, k=k, modes=modes)
        first = k * (_exact(mi, _tilde_lambda_squared) - 1)
        second = _exact(mi, _fourth_moment) / 2 + _exact(mi, _second_moment) + k if n >= 4 else None
        out[k] = first, second
    return out


@settings(max_examples=25, deadline=None)
@given(z=rational_spectra())
@example(z=[Fraction(3), 1, 1, 1])
@example(z=[Fraction(2)] * 64)
def test_complement_shares_the_deviation_moments(z):
    """The global state is pure, so the reductions to k and to n - k modes
    share their symplectic eigenvalues above 1: both deviation moments agree
    at k and n - k, exactly, on the moment tables."""
    n = len(z)
    table = deviation_moments(z)
    for k in range(1, n):
        assert table[k] == table[n - k], k


def test_complement_float_spectrum():
    """The same identity on an 8-mode float spectrum, at every k."""
    z = [1.0, 1.25, 1.5, 2.0, 2.5, 3.75, 1.0 + 2.0**-40, 17.3]
    table = deviation_moments(z)
    assert all(table[k] == table[8 - k] for k in range(1, 8))
