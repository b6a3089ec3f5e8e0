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
    constant_profile,
    exponential_count,
    fixed_profile,
    parse_profile,
    profile_to_string,
    spectra_from_exponentials,
)
from cvtypical.symplectic import average_energies
import oracles
from oracles import mode_energy_from_squeezing, sample_profile


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
    """T is E / n unless given; a unit exponential gives its mode energy 2 + T."""
    for text, temperature in (("canonical:8", 2.0), ("canonical:8:0.5", 0.5)):
        z = spectra_from_exponentials(parse_profile(text, n=4), np.ones((1, 4)))
        assert z + 1.0 / z == pytest.approx(np.full((1, 4), 2.0 + temperature), rel=1e-14)
    with pytest.raises(InvalidSpec, match="needs the mode count n"):
        parse_profile("canonical:8")


def test_parse_rejects_garbage():
    for text in ("", "fixed", "fixed:", "boltzmann:3", "constant:2", "constant:2x0",
                 "fixed:3,0.5", "micro:x", "canonical:8:0:1", "fixed:2,1"):
        with pytest.raises((InvalidSpec, EnergyTooSmall)):
            parse_profile(text, n=4)


@pytest.mark.parametrize(
    "text, message",
    [
        ("fixed:1,x,2", "could not parse squeezing value from 'x'"),
        ("fixed:1,,2", "could not parse squeezing value from ''"),
        ("fixed:1,inf,2", "squeezing value must be finite, got 'inf'"),
        ("fixed:nan", "squeezing value must be finite, got 'nan'"),
        ("fixed:0.5,1", "fixed profile needs finite z >= 1 in every mode"),
        ("fixed:-inf,x", "squeezing value must be finite, got '-inf'"),
        ("fixed:1,1e400", "squeezing value must be finite, got '1e400'"),
    ],
)
def test_a_fixed_profile_names_its_first_bad_token(text, message):
    """The whole-list parse of a fixed profile words its error as the
    per-token parse does, naming the first bad token; texts pinned as
    0.3.0 printed them."""
    with pytest.raises(InvalidSpec) as info:
        parse_profile(text)
    assert str(info.value) == message


def test_energy_floors():
    with pytest.raises(EnergyTooSmall):
        ProfileSpec(kind="microcanonical", n=4, energy=7.9)
    with pytest.raises(EnergyTooSmall):
        parse_profile("micro:6", n=4)
    with pytest.raises(EnergyTooSmall):
        ProfileSpec(kind="canonical", n=4, energy=0.0)
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="canonical", n=4, energy=8.0, temperature=-1.0)


def test_profile_string_round_trips():
    specs = [
        fixed_profile((3.0, 1.25, 1.0)),
        constant_profile(2.0, 5),
        ProfileSpec(kind="microcanonical", n=4, energy=14.0),
        ProfileSpec(kind="canonical", n=4, energy=8.0),
        ProfileSpec(kind="canonical", n=4, energy=8.0, temperature=0.75),
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
        energy = draw(st.floats(min_value=2.0 * n, allow_infinity=False))
        return ProfileSpec(kind="microcanonical", n=n, energy=energy)
    energy = draw(POSITIVE)
    temperature = draw(st.none() | POSITIVE)
    return ProfileSpec(kind="canonical", n=n, energy=energy, temperature=temperature)


@settings(max_examples=300, deadline=None)
@given(spec=profile_specs())
@example(spec=fixed_profile((1.0000000000000002, 1.0, 1e308)))
@example(spec=constant_profile(1.0000000000000002, 3))
@example(spec=ProfileSpec(kind="microcanonical", n=4, energy=8.000000000000002))
@example(spec=ProfileSpec(kind="canonical", n=2, energy=5e-324, temperature=2.2250738585072014e-308))
def test_profile_string_round_trip_property(spec):
    """parse_profile inverts profile_to_string for every kind and every float
    the string can carry, and the string is stable under the round trip."""
    text = profile_to_string(spec)
    parsed = parse_profile(text, n=spec.n)
    assert parsed == spec
    assert profile_to_string(parsed) == text


def test_micro_ground_state_edge():
    """E = 2n leaves no free energy: every draw is exactly the vacuum."""
    spec = ProfileSpec(kind="microcanonical", n=4, energy=8.0)
    for seed in (0, 1, 2):
        assert np.array_equal(draw(spec, seed), np.ones(4))


def test_micro_draw_invariants():
    spec = ProfileSpec(kind="microcanonical", n=4, energy=14.0)
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
    spec = ProfileSpec(kind="microcanonical", n=3, energy=30.0)
    gen = SeededStream(6).generator()
    for _ in range(200):
        z = sample_profile(spec, gen)
        total = sum(mode_energy_from_squeezing(v) for v in z)
        assert total <= 30.0 + 1e-8


def test_micro_mean_total_energy():
    # E[sum E_j] = 2n + (E - 2n) n/(n+1)
    spec = ProfileSpec(kind="microcanonical", n=3, energy=12.0)
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
        (2.0, ProfileSpec(kind="canonical", n=4, energy=8.0)),
        (0.5, ProfileSpec(kind="canonical", n=4, energy=8.0, temperature=0.5)),
    ):
        values = np.concatenate([
            [mode_energy_from_squeezing(v) for v in sample_profile(spec, gen)]
            for _ in range(8000)
        ])
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - (2.0 + temperature)) < 4.0 * se


def test_sampling_is_stream_deterministic():
    spec = ProfileSpec(kind="canonical", n=4, energy=8.0)
    assert np.array_equal(draw(spec, 3, 1), draw(spec, 3, 1))
    assert not np.array_equal(draw(spec, 3, 1), draw(spec, 3, 2))


def test_deterministic_kinds_ignore_generator():
    spec = constant_profile(1.5, 3)
    assert spec.is_deterministic
    assert np.array_equal(draw(spec, 0), draw(spec, 99))
    assert not parse_profile("micro:20", n=3).is_deterministic


def test_fixed_spectrum_guard():
    with pytest.raises(DomainError):
        ProfileSpec(kind="microcanonical", n=3, energy=20.0).fixed_spectrum()


def test_profile_spec_direct_validation():
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="fixed", n=3, z_values=(2.0, 1.0))
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="thermal", n=3)
    with pytest.raises(InvalidSpec):
        ProfileSpec(kind="constant", n=0, z=2.0)
    with pytest.raises(InvalidSpec, match="constant profile needs z >= 1, got 0.5"):
        ProfileSpec(kind="constant", n=3, z=0.5)
    with pytest.raises(InvalidSpec, match="microcanonical profile needs a finite energy"):
        ProfileSpec(kind="microcanonical", n=3, energy=math.inf)


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_profile("micro:14", n=4.7),
        lambda: parse_profile("canonical:14", n=4.7),
        lambda: parse_profile("fixed:2,1,1,1", n=4.7),
        lambda: parse_profile("constant:2x4", n=4.7),
        lambda: constant_profile(2.0, 4.9),
        lambda: ScalingConfig().profile_for(4.9),
        lambda: ProfileSpec(kind="constant", n=4.5, z=2.0),
        lambda: ProfileSpec(kind="microcanonical", n="4", energy=14.0),
        # True == 1, but it would build a one-mode profile
        lambda: ProfileSpec(kind="constant", n=True, z=2.0),
        lambda: constant_profile(2.0, True),
        lambda: parse_profile("micro:14", n=True),
        lambda: parse_profile("fixed:2", n=True),
        lambda: parse_profile("constant:2x1", n=True),
    ],
    ids=[
        "micro", "canonical", "fixed", "constant", "constant_profile", "profile_for", "spec", "text",
        "spec_bool", "constant_profile_bool", "micro_bool", "fixed_bool", "constant_bool",
    ],
)
def test_a_mode_count_that_is_not_an_integer_is_refused(build):
    """A float n is not truncated to the modes below it, and a bool is no n."""
    with pytest.raises(InvalidSpec, match="n=4|n='4'|n=True"):
        build()


def test_a_numpy_mode_count_is_stored_as_an_int():
    for spec in (
        ProfileSpec(kind="constant", n=np.int64(4), z=2.0),
        constant_profile(2.0, np.int32(4)),
        parse_profile("micro:14", n=np.int64(4)),
    ):
        assert type(spec.n) is int and spec.n == 4


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
        return ProfileSpec(kind="microcanonical", n=n, energy=float(energy))
    energy = draw(st.sampled_from([1e-300, 0.5 * n, 3.0 * n, 1e200]))
    temperature = draw(st.sampled_from([None, 1e-9, 2.0]))
    return ProfileSpec(kind="canonical", n=n, energy=float(energy), temperature=temperature)


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
