import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvtypical.errors import DimensionTooSmall, DomainError, InvalidSubsystem
from cvtypical.moments import (
    MomentInputs,
    average_energy_exact,
    compute_moment_report,
    expected_f,
    expected_f_exact,
    fourth_moment_trace,
    fourth_moment_trace_exact,
    moment_inputs_from_spectrum,
    second_moment_trace_exact,
    tilde_lambda_squared,
    tilde_lambda_squared_exact,
)
from cvtypical.symplectic import average_energy
from oracles import reference_moments, second_moment_trace


def spiked(n):
    return moment_inputs_from_spectrum((3,) + (1,) * (n - 1), 1)


def test_pinned_exact_values_n4():
    mi = spiked(4)
    assert average_energy_exact(mi) == Fraction(7, 6)
    assert tilde_lambda_squared_exact(mi) == Fraction(6, 5)
    assert second_moment_trace_exact(mi) == Fraction(-12, 5)
    assert fourth_moment_trace_exact(mi) == Fraction(914, 315)
    assert expected_f_exact(mi) == Fraction(1667, 22680)


def test_pinned_exact_values_n5():
    mi = spiked(5)
    assert second_moment_trace_exact(mi) == Fraction(-106, 45)
    assert fourth_moment_trace_exact(mi) == Fraction(2642, 945)
    assert expected_f_exact(mi) == Fraction(15664, 354375)


def test_pinned_exact_values_flat():
    mi = moment_inputs_from_spectrum((Fraction(2),) * 5, 1)
    assert second_moment_trace_exact(mi) == Fraction(-11, 4)
    assert fourth_moment_trace_exact(mi) == Fraction(977, 256)
    assert expected_f_exact(mi) == Fraction(27, 256)
    mi = moment_inputs_from_spectrum((Fraction(2),) * 6, 2)
    assert second_moment_trace_exact(mi) == Fraction(-37, 7)
    assert fourth_moment_trace_exact(mi) == Fraction(227, 32)
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
        assert reference_moments(mi)["table1_second_moment"] == second_moment_trace_exact(mi)
        assert second_moment_trace_exact(mi) == -2 * k * tilde_lambda_squared_exact(mi)


def test_vacuum_identities_spot():
    for n, k in ((4, 1), (6, 3), (9, 9)):
        mi = moment_inputs_from_spectrum((1,) * n, k)
        assert tilde_lambda_squared_exact(mi) == 1
        assert second_moment_trace_exact(mi) == -2 * k
        assert fourth_moment_trace_exact(mi) == 2 * k
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
        lam = average_energy_exact(mi)
        assert second_moment_trace_exact(mi) == -2 * n
        assert fourth_moment_trace_exact(mi) == 2 * n
        assert expected_f_exact(mi) == 2 * n * (1 - lam * lam) ** 2


def test_numpy_integer_spectra():
    # numpy integers are Rational; a and b must still hold Python ints
    for z in (np.array([3, 1, 1, 1]), [np.int32(3), 1, 1, 1]):
        mi = moment_inputs_from_spectrum(z, 1)
        assert expected_f_exact(mi) == Fraction(1667, 22680)
        assert all(type(x.numerator) is int for x in mi.a + mi.b)


def test_permutation_invariance():
    z = (4, 1, 2, 1, 3, 1)
    shuffled = (1, 3, 1, 4, 2, 1)
    for k in (1, 3):
        a = moment_inputs_from_spectrum(z, k)
        b = moment_inputs_from_spectrum(shuffled, k)
        assert second_moment_trace_exact(a) == second_moment_trace_exact(b)
        assert fourth_moment_trace_exact(a) == fourth_moment_trace_exact(b)
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


def test_expected_f_alternate_reference():
    mi = spiked(4)
    default = expected_f_exact(mi)
    explicit = expected_f_exact(mi, lambda_bar=average_energy_exact(mi))
    assert default == explicit
    # a shifted reference changes the constant and quadratic terms only
    other = expected_f_exact(mi, lambda_bar=Fraction(2))
    assert other == fourth_moment_trace_exact(mi) + 8 * second_moment_trace_exact(mi) + 32


def test_float_wrappers_match_exact():
    mi = spiked(5)
    report = compute_moment_report((3, 1, 1, 1, 1), 1)
    assert report.second_moment == pytest.approx(float(second_moment_trace_exact(mi)), rel=1e-14)
    assert report.fourth_moment == pytest.approx(float(fourth_moment_trace_exact(mi)), rel=1e-14)
    assert report.expected_f == pytest.approx(float(expected_f_exact(mi)), rel=1e-14)
    assert report.tilde_lambda_sq == pytest.approx(float(tilde_lambda_squared_exact(mi)), rel=1e-14)
    assert expected_f(mi) == pytest.approx(float(expected_f_exact(mi)), rel=1e-14)


def test_average_energy_routes_agree():
    z = (3.0, 1.5, 1.0, 1.0)
    mi = moment_inputs_from_spectrum(z, 1)
    assert float(average_energy_exact(mi)) == pytest.approx(average_energy(z), rel=1e-12)


def test_moment_input_validation():
    with pytest.raises(InvalidSubsystem):
        moment_inputs_from_spectrum((2, 2, 2), 4)
    with pytest.raises(InvalidSubsystem):
        moment_inputs_from_spectrum((2, 2, 2), 0)
    with pytest.raises(DomainError):
        moment_inputs_from_spectrum((0.5, 2), 1)
    with pytest.raises(DomainError):
        moment_inputs_from_spectrum((), 1)


def test_moment_inputs_enforce_hyperbolic_identity():
    good = moment_inputs_from_spectrum((2,), 1)
    with pytest.raises(DomainError):
        MomentInputs(n=1, k=1, a=(Fraction(1),), b=(Fraction(1),))
    with pytest.raises(DimensionTooSmall):
        MomentInputs(n=2, k=1, a=good.a, b=good.b)


@pytest.mark.parametrize(
    "a, b, message",
    [
        # 5^2 - 3^2 = 4^2, but a = 3/5 and b = 5/4 do not share a denominator
        (Fraction(3, 5), Fraction(5, 4), "hyperbolic identity"),
        (Fraction(1, 2), Fraction(3, 2), "hyperbolic identity"),
        (Fraction(0), Fraction(1, 2), "need b_j >= 1"),
    ],
    ids=["unequal_denominators", "broken_identity", "b_below_one"],
)
def test_hand_built_inputs_are_rejected(a, b, message):
    good = moment_inputs_from_spectrum((2, 3), 1)
    with pytest.raises(DomainError, match=message):
        MomentInputs(n=2, k=1, a=(good.a[0], a), b=(good.b[0], b))


def test_power_sums_are_built_once_per_instance(monkeypatch):
    import cvtypical.moments as moments

    calls = []
    build = moments._power_sums
    monkeypatch.setattr(moments, "_power_sums", lambda mi: calls.append(mi) or build(mi))
    mi = spiked(5)
    expected = expected_f_exact(mi)
    assert average_energy_exact(mi) == Fraction(17, 15)
    tilde_lambda_squared(mi)
    second_moment_trace_exact(mi)
    fourth_moment_trace(mi)
    assert expected_f_exact(mi) == expected and expected_f(mi) == float(expected)
    assert calls == [mi]
    compute_moment_report((3, 1, 1, 1, 1), 1)
    assert len(calls) == 2


def test_fourth_moment_needs_room():
    # the denominators vanish below n = 4
    with pytest.raises(DimensionTooSmall):
        fourth_moment_trace_exact(moment_inputs_from_spectrum((2, 2, 2), 1))


def test_float_wrappers_leave_the_float_range_cleanly():
    mi = moment_inputs_from_spectrum((1e200,) * 4, 1)
    with pytest.raises(DomainError, match="tilde_lambda\\^2"):
        tilde_lambda_squared(mi)
    with pytest.raises(DomainError, match="E tr\\(\\(JM\\)\\^4\\)"):
        fourth_moment_trace(mi)
    with pytest.raises(DomainError, match="E f"):
        expected_f(mi)
    with pytest.raises(DomainError, match="tilde_lambda\\^2"):
        compute_moment_report((1e200,) * 4, 1)
    # the exact values exist all the same
    assert tilde_lambda_squared_exact(mi) > 10**399


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
@given(
    case=spectra(),
    lambda_bar=st.one_of(st.none(), st.floats(0.5, 10.0), st.fractions(1, 10, max_denominator=40)),
)
@example(case=([1.0000000000000002, 3.0, 1.5, 2.75], 2), lambda_bar=None)
@example(case=([Fraction(3, 2), Fraction(7, 5), 2, 2.5, 1], 5), lambda_bar=Fraction(4, 3))
def test_exact_moments_equal_the_fraction_reference(case, lambda_bar):
    """Every *_exact value equals the running-Fraction reference exactly, and
    every float wrapper returns float() of it, bit for bit."""
    z, k = case
    mi = moment_inputs_from_spectrum(z, k)
    ref = reference_moments(mi, lambda_bar)
    assert average_energy_exact(mi) == ref["average_energy"]
    checks = {
        "tilde_lambda_sq": (tilde_lambda_squared_exact, tilde_lambda_squared, 2),
        "second_moment": (second_moment_trace_exact, second_moment_trace, 2),
        "fourth_moment": (fourth_moment_trace_exact, fourth_moment_trace, 4),
        "expected_f": (
            lambda m: expected_f_exact(m, lambda_bar), lambda m: expected_f(m, lambda_bar), 4
        ),
    }
    for name, (exact_fn, float_fn, min_n) in checks.items():
        if mi.n < min_n:
            assert name not in ref
            with pytest.raises(DimensionTooSmall):
                exact_fn(mi)
            continue
        assert exact_fn(mi) == ref[name], name
        assert float_fn(mi) == float(ref[name]), name
    if mi.n >= 4:
        report = compute_moment_report(z, k)
        default = reference_moments(mi) if lambda_bar is not None else ref
        assert report.lambda_bar == float(default["average_energy"])
        assert report.tilde_lambda_sq == float(default["tilde_lambda_sq"])
        assert report.second_moment == float(default["second_moment"])
        assert report.fourth_moment == float(default["fourth_moment"])
        assert report.expected_f == float(default["expected_f"])
