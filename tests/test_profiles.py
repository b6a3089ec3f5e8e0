import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvtypical.errors import DomainError, EnergyTooSmall, InvalidSpec
from cvtypical.haar import SeededStream
from cvtypical.profiles import (
    ProfileSpec,
    ScalingConfig,
    canonical_profile,
    constant_profile,
    exponential_count,
    fixed_profile,
    microcanonical_profile,
    parse_profile,
    profile_to_string,
    sample_profile,
    spectra_from_exponentials,
)
from cvtypical.symplectic import average_energies
import oracles
from oracles import mode_energy_from_squeezing


def draw(spec, seed=0, stream=0):
    return sample_profile(spec, SeededStream(seed, stream).generator())


def test_parse_fixed():
    spec = parse_profile("fixed:3,1,1,1")
    assert spec.kind == "fixed"
    assert spec.n == 4
    assert spec.z_values == (3.0, 1.0, 1.0, 1.0)
    assert np.array_equal(draw(spec), [3.0, 1.0, 1.0, 1.0])


def test_parse_constant():
    spec = parse_profile("constant:2.5x6")
    assert spec.kind == "constant"
    assert (spec.z, spec.n) == (2.5, 6)
    assert np.array_equal(draw(spec), np.full(6, 2.5))


def test_parse_micro_needs_mode_count():
    spec = parse_profile("micro:14", n=4)
    assert spec.kind == "microcanonical"
    assert (spec.energy, spec.n) == (14.0, 4)
    with pytest.raises(InvalidSpec):
        parse_profile("micro:14")


def test_parse_canonical_with_temperature_override():
    spec = parse_profile("canonical:8", n=4)
    assert spec.mean_temperature() == 2.0
    spec = parse_profile("canonical:8:0.5", n=4)
    assert spec.mean_temperature() == 0.5


def test_parse_rejects_garbage():
    for text in ("", "fixed", "fixed:", "boltzmann:3", "constant:2", "constant:2x0",
                 "fixed:3,0.5", "micro:x", "canonical:8:0:1"):
        with pytest.raises((InvalidSpec, EnergyTooSmall)):
            parse_profile(text, n=4)


def test_energy_floors():
    with pytest.raises(EnergyTooSmall):
        microcanonical_profile(7.9, 4)
    with pytest.raises(EnergyTooSmall):
        parse_profile("micro:6", n=4)
    with pytest.raises(EnergyTooSmall):
        canonical_profile(0.0, 4)
    with pytest.raises(InvalidSpec):
        canonical_profile(8.0, 4, temperature=-1.0)


def test_profile_string_round_trips():
    specs = [
        fixed_profile((3.0, 1.25, 1.0)),
        constant_profile(2.0, 5),
        microcanonical_profile(14.0, 4),
        canonical_profile(8.0, 4),
        canonical_profile(8.0, 4, temperature=0.75),
    ]
    for spec in specs:
        assert parse_profile(profile_to_string(spec), n=spec.n) == spec


POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
AT_LEAST_ONE = st.floats(min_value=1.0, allow_infinity=False)
MODE_COUNTS = st.integers(1, 300)


@st.composite
def profile_specs(draw):
    kind = draw(st.sampled_from(["fixed", "constant", "micro", "canonical"]))
    if kind == "fixed":
        return fixed_profile(draw(st.lists(AT_LEAST_ONE, min_size=1, max_size=20)))
    n = draw(MODE_COUNTS)
    if kind == "constant":
        return constant_profile(draw(AT_LEAST_ONE), n)
    if kind == "micro":
        return microcanonical_profile(draw(st.floats(min_value=2.0 * n, allow_infinity=False)), n)
    return canonical_profile(draw(POSITIVE), n, temperature=draw(st.none() | POSITIVE))


@settings(max_examples=300, deadline=None)
@given(spec=profile_specs())
@example(spec=fixed_profile((1.0000000000000002, 1.0, 1e308)))
@example(spec=constant_profile(1.0000000000000002, 3))
@example(spec=microcanonical_profile(8.000000000000002, 4))
@example(spec=canonical_profile(5e-324, 2, temperature=2.2250738585072014e-308))
def test_profile_string_round_trip_property(spec):
    """parse_profile inverts profile_to_string for every kind and every float
    the string can carry, and the string is stable under the round trip."""
    text = profile_to_string(spec)
    parsed = parse_profile(text, n=spec.n)
    assert parsed == spec
    assert profile_to_string(parsed) == text


def test_micro_ground_state_edge():
    """E = 2n leaves no free energy: every draw is exactly the vacuum."""
    spec = microcanonical_profile(8.0, 4)
    for seed in (0, 1, 2):
        assert np.array_equal(draw(spec, seed), np.ones(4))


def test_micro_draw_invariants():
    spec = microcanonical_profile(14.0, 4)
    gen = SeededStream(5).generator()
    for _ in range(2000):
        z = sample_profile(spec, gen)
        assert z.shape == (4,)
        assert np.all(z >= 1.0)
        energies = np.array([mode_energy_from_squeezing(v) for v in z])
        assert np.all(energies >= 2.0 - 1e-12)
        assert energies.sum() <= 14.0 + 1e-9


def test_energy_round_trip_through_sampler():
    """Squeezing back to energies must reproduce the sampled simplex point."""
    spec = microcanonical_profile(30.0, 3)
    gen = SeededStream(6).generator()
    for _ in range(200):
        z = sample_profile(spec, gen)
        total = sum(mode_energy_from_squeezing(v) for v in z)
        assert total <= 30.0 + 1e-8


def test_micro_mean_total_energy():
    # E[sum E_j] = 2n + (E - 2n) n/(n+1)
    spec = microcanonical_profile(12.0, 3)
    gen = SeededStream(7).generator()
    trials = 20000
    totals = np.empty(trials)
    for t in range(trials):
        z = sample_profile(spec, gen)
        totals[t] = sum(mode_energy_from_squeezing(v) for v in z)
    se = totals.std(ddof=1) / np.sqrt(trials)
    assert abs(totals.mean() - 10.5) < 4.0 * se


def test_canonical_mean_energy():
    gen = SeededStream(8).generator()
    for temperature, spec in (
        (2.0, canonical_profile(8.0, 4)),
        (0.5, canonical_profile(8.0, 4, temperature=0.5)),
    ):
        values = np.concatenate([
            [mode_energy_from_squeezing(v) for v in sample_profile(spec, gen)]
            for _ in range(8000)
        ])
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - (2.0 + temperature)) < 4.0 * se


def test_sampling_is_stream_deterministic():
    spec = canonical_profile(8.0, 4)
    assert np.array_equal(draw(spec, 3, 1), draw(spec, 3, 1))
    assert not np.array_equal(draw(spec, 3, 1), draw(spec, 3, 2))


def test_deterministic_kinds_ignore_generator():
    spec = constant_profile(1.5, 3)
    assert spec.is_deterministic
    assert np.array_equal(draw(spec, 0), draw(spec, 99))
    assert not parse_profile("micro:20", n=3).is_deterministic


def test_fixed_spectrum_guard():
    with pytest.raises(DomainError):
        microcanonical_profile(20.0, 3).fixed_spectrum()
    with pytest.raises(DomainError):
        constant_profile(2.0, 3).mean_temperature()


def test_profile_spec_direct_validation():
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="fixed", n=3, z_values=(2.0, 1.0))
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="thermal", n=3)
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="constant", n=0, z=2.0)


def test_scaling_config_rules():
    cfg = ScalingConfig(zeta=0.5, kappa=1.0, scale_z=2.0, scale_k=0.25)
    assert cfg.z_value(16) == pytest.approx(8.0)
    assert cfg.k_of(16) == 4
    assert cfg.k_of(2) == 1  # floor clamps up to one mode
    assert ScalingConfig(kappa=3.0).k_of(10) == 10  # and down to n
    # a rule past the float range saturates at n as well
    assert ScalingConfig(kappa=400.0).k_of(16) == 16
    assert ScalingConfig(kappa=300.0, scale_k=1e10).k_of(10) == 10
    prof = cfg.profile_for(9)
    assert prof.kind == "constant"
    assert prof.z == pytest.approx(6.0)
    assert prof.n == 9


def test_scaling_config_validation():
    with pytest.raises(DomainError):
        ScalingConfig(zeta=-0.1)
    with pytest.raises(DomainError):
        ScalingConfig(scale_z=0.5)
    with pytest.raises(DomainError):
        ScalingConfig(scale_k=0.0)
    for name in ("zeta", "kappa", "scale_z", "scale_k"):
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError):
                ScalingConfig(**{name: value})


@st.composite
def random_profiles(draw):
    n = draw(st.integers(1, 130))
    if draw(st.booleans()):
        floor = 2.0 * n
        energy = draw(
            st.sampled_from([
                floor, np.nextafter(floor, math.inf), floor * (1.0 + 1e-12), 3.0 * n, 1e200,
            ])
        )
        return microcanonical_profile(energy, n)
    energy = draw(st.sampled_from([1e-300, 0.5 * n, 3.0 * n, 1e200]))
    temperature = draw(st.sampled_from([None, 1e-9, 2.0]))
    return canonical_profile(energy, n, temperature)


@settings(max_examples=100, deadline=None)
@given(
    spec=random_profiles(),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**63 - 1),
)
def test_stacked_profile_matches_the_scalar_reference(spec, count, seed):
    """From the same per-trial streams, spectra_from_exponentials and
    average_energies on the (B, n) stack are repr-equal to the frozen
    one-draw-at-a-time reference; under the harness's errstate an energy
    that squares past the float range gives z = inf without a warning."""
    g = np.empty((count, exponential_count(spec)))
    for t in range(count):
        SeededStream(seed, t).generator().standard_exponential(out=g[t])
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        z = spectra_from_exponentials(spec, g)
        lam_bars = average_energies(z)
        reference = [oracles.sample_profile(spec, SeededStream(seed, t)) for t in range(count)]
        reference_bars = [oracles.average_energy(row) for row in reference]
    assert repr(z.tolist()) == repr([row.tolist() for row in reference])
    assert repr(lam_bars.tolist()) == repr(reference_bars)
    if spec.energy == 1e200 and spec.temperature is None:
        assert np.isinf(z).any()
