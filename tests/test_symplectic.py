import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtypical.errors import (
    DimensionMismatch,
    DomainError,
    InvalidCovariance,
    InvalidSubsystem,
    NonUnitaryInput,
    PairingFailure,
)
from cvtypical.cli import main
from cvtypical.haar import SeededStream
from cvtypical.harness import PURITY_TOL, read_trials_csv
from cvtypical.symplectic import (
    BELOW_ONE,
    NOT_FINITE_SYMMETRIC,
    NOT_POSITIVE_DEFINITE,
    PURE_CLAMP,
    UNITARITY_TOL,
    SymplecticSpectrum,
    _j_times,
    average_energies,
    entropy_error,
    gaussian_entropies,
    reduced_covariance_from_rows,
    spectral_deviation_deltas,
    spectrum_error,
    symplectic_spectrum,
    unitarity_error,
)
import oracles
from oracles import (
    _reference_haar_rows,
    concentration_f,
    entropy_G,
    entropy_g,
    eta_embed,
    fiducial_covariance,
    inverse_temperature_beta,
    mode_energy_from_squeezing,
    photon_number,
    reduce_covariance,
    rotate_covariance,
    squeezing_from_energy,
    symplectic_form,
    validate_covariance,
)


def spectrum_of(M):
    """symplectic_spectrum on a stack of one: the matrix's spectrum, each
    field without the stack axis, and its failure code."""
    spectrum, (code,) = symplectic_spectrum(np.asarray(M)[None])
    return SymplecticSpectrum(*(field[0] for field in spectrum)), code


@pytest.mark.parametrize("k", range(1, 9))
def test_j_times_is_the_symplectic_form_product(k):
    """The signed swap gives J X entry for entry: each entry of the 0/+-1
    product is a single +-x, so the matrix route rounds nothing either."""
    gen = SeededStream(30 + k).generator()
    for B in (1, 3, 7):
        X = gen.standard_normal((B, 2 * k, 2 * k)) * 2.0 ** gen.integers(-60, 61, (B, 2 * k, 2 * k))
        assert np.array_equal(_j_times(X), symplectic_form(k) @ X)


def test_eta_embed_is_orthogonal_symplectic():
    """The unitary embedding must land in Sp(2n) and O(2n) simultaneously."""
    gen = SeededStream(11).generator()
    for n in (1, 3, 6):
        U = _reference_haar_rows(n, gen, n)
        O = eta_embed(U)
        J = symplectic_form(n)
        assert np.allclose(O.T @ O, np.eye(2 * n), atol=1e-12)
        assert np.allclose(O @ J @ O.T, J, atol=1e-12)


def test_eta_embed_is_a_homomorphism():
    gen = SeededStream(12).generator()
    U = _reference_haar_rows(4, gen, 4)
    V = _reference_haar_rows(4, gen, 4)
    assert np.allclose(eta_embed(U @ V), eta_embed(U) @ eta_embed(V), atol=1e-12)


def test_eta_embed_rejects_nonunitary():
    with pytest.raises(NonUnitaryInput):
        eta_embed(np.eye(3) * 2.0)


def test_fiducial_covariance_layout():
    M = fiducial_covariance([4.0, 1.0])
    assert np.allclose(M, np.diag([4.0, 1.0, 0.25, 1.0]))


def test_fiducial_covariance_rejects_squeezing_below_one():
    with pytest.raises(DomainError):
        fiducial_covariance([0.5, 2.0])


def test_rotate_covariance_preserves_symmetry_and_spectrum():
    gen = SeededStream(13).generator()
    z = np.array([3.0, 1.5, 1.0])
    M = fiducial_covariance(z)
    O = eta_embed(_reference_haar_rows(3, gen, 3))
    M2 = rotate_covariance(M, O)
    assert np.allclose(M2, M2.T, atol=1e-12)
    # orthogonal conjugation keeps the ordinary eigenvalues
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(M2)), np.sort(np.linalg.eigvalsh(M)), atol=1e-10
    )


def test_rotate_covariance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        rotate_covariance(np.eye(4), np.eye(6))


def test_reduce_covariance_picks_leading_modes():
    n, k = 4, 2
    gen = SeededStream(14).generator()
    M = rotate_covariance(
        fiducial_covariance([2.0, 1.5, 1.25, 1.0]),
        eta_embed(_reference_haar_rows(n, gen, n)),
    )
    idx = list(range(k)) + list(range(n, n + k))
    assert np.array_equal(reduce_covariance(M, k), M[np.ix_(idx, idx)])


def test_reduce_covariance_rejects_bad_subsystem():
    M = np.eye(8)
    with pytest.raises(InvalidSubsystem):
        reduce_covariance(M, 0)
    with pytest.raises(InvalidSubsystem):
        reduce_covariance(M, 5)


PROFILES = {
    "flat": lambda n: np.full(n, 2.0),
    "ramp": lambda n: np.linspace(1.0, 10.0, n),
    "vacuum": np.ones,
}


@pytest.mark.parametrize(
    "n, k, profile",
    [
        (n, k, profile)
        for n in (4, 16, 64, 256)
        for k in sorted({1, 2, math.isqrt(n), n - 1, n})
        for profile in PROFILES
    ],
)
def test_row_reduction_matches_full_state_path(n, k, profile):
    """The k-row reduction against the full-state composition on one Haar U.

    The full path is also the eigenvalue-route purity audit: the 2n x 2n
    symplectic spectrum of every rotated state must be flat at 1.
    """
    z = PROFILES[profile](n)
    U = _reference_haar_rows(n, SeededStream(n, k).generator(), n)
    M = rotate_covariance(fiducial_covariance(z), eta_embed(U))
    assert np.max(np.abs(spectrum_of(M)[0].lambdas - 1.0)) <= PURITY_TOL
    expected = reduce_covariance(M, k)

    (M_red,), (residual,) = reduced_covariance_from_rows(U[None, :k], z)
    assert residual <= UNITARITY_TOL
    assert np.array_equal(M_red, M_red.T)
    assert np.max(np.abs(M_red - expected)) <= 1e-12 * np.max(np.abs(expected))
    lambdas = spectrum_of(M_red)[0].lambdas
    expected_lambdas = spectrum_of(expected)[0].lambdas
    assert np.max(np.abs(lambdas - expected_lambdas)) <= 1e-12 * expected_lambdas.max()


def test_row_reduction_rejects_bad_rows():
    """Rows that are not orthonormal come back with their residual, for the
    caller to raise on; a lone row set is not a stack."""
    z = [2.0, 1.0, 1.0]
    _M_red, (residual,) = reduced_covariance_from_rows(2.0 * np.eye(3)[None, :1], z)
    assert residual > UNITARITY_TOL
    assert isinstance(unitarity_error(residual), NonUnitaryInput)
    with pytest.raises(DimensionMismatch):
        reduced_covariance_from_rows(np.eye(4)[None, :2], z)
    with pytest.raises(DimensionMismatch):
        reduced_covariance_from_rows(np.eye(3)[:1], z)
    with pytest.raises(DimensionMismatch):
        reduced_covariance_from_rows(np.ones(3), z)
    with pytest.raises(DimensionMismatch):
        reduced_covariance_from_rows(np.eye(3)[None, :1], [z, z])
    with pytest.raises(DomainError):
        reduced_covariance_from_rows(np.eye(3)[None, :1], [0.5, 1.0, 1.0])


def test_validate_covariance_accepts_physical_states():
    validate_covariance(np.eye(6))
    validate_covariance(fiducial_covariance([5.0, 1.0]))
    validate_covariance(3.0 * np.eye(4))


def test_validate_covariance_rejects_below_vacuum():
    with pytest.raises(InvalidCovariance):
        validate_covariance(0.5 * np.eye(4))


def test_validate_covariance_rejects_asymmetric():
    M = np.eye(4)
    M[0, 1] = 0.3
    with pytest.raises(InvalidCovariance):
        validate_covariance(M)


def test_symplectic_spectrum_pure_state_is_flat():
    gen = SeededStream(15).generator()
    z = np.array([6.0, 2.0, 1.0, 1.0])
    M = rotate_covariance(fiducial_covariance(z), eta_embed(_reference_haar_rows(4, gen, 4)))
    spec, code = spectrum_of(M)
    assert code == 0
    assert spec.lambdas.shape == (4,)
    assert np.max(np.abs(spec.lambdas - 1.0)) < 1e-10
    assert spec.pair_gap < 1e-10


def test_symplectic_spectrum_thermal_state():
    assert np.allclose(spectrum_of(2.5 * np.eye(6))[0].lambdas, 2.5)


def test_symplectic_spectrum_sorted_descending():
    M = fiducial_covariance([4.0, 1.0]) + 0.0
    # direct sum with a thermal mode: spectrum {1, 3}
    big = np.zeros((6, 6))
    big[np.ix_([0, 3], [0, 3])] = M[np.ix_([0, 2], [0, 2])]
    big[np.ix_([1, 4], [1, 4])] = M[np.ix_([1, 3], [1, 3])]
    big[2, 2] = big[5, 5] = 3.0
    lam = spectrum_of(big)[0].lambdas
    assert list(lam) == sorted(lam, reverse=True)
    assert np.allclose(np.sort(lam), [1.0, 1.0, 3.0], atol=1e-10)


def test_symplectic_spectrum_rejects_unpaired_matrix():
    # symmetric but not positive definite: J M has the real pair +-1 in
    # place of +-i*lambda, and the Cholesky factorization fails
    spectrum, code = spectrum_of(np.diag([1.0, 1.0, -1.0, 1.0]))
    assert code == NOT_POSITIVE_DEFINITE
    with pytest.raises(PairingFailure, match="not positive definite"):
        raise spectrum_error(code, spectrum.lambdas)


def test_symplectic_spectrum_rejects_asymmetric_matrix():
    # the factorization reads one triangle, so the other must agree with it
    M = 2.0 * np.eye(4)
    M[0, 1] = 1e-9
    spectrum, code = spectrum_of(M)
    assert code == NOT_FINITE_SYMMETRIC
    with pytest.raises(InvalidCovariance, match="not finite and symmetric"):
        raise spectrum_error(code, spectrum.lambdas)


def test_stacked_spectrum_flags_only_the_failing_matrices():
    """A failed factorization fails the stacked Cholesky as a whole; each
    matrix still gets the outcome it gets on a stack of one: a failing one
    its code, a good one its spectrum."""
    good = fiducial_covariance([3.0, 1.0])
    not_finite = good.copy()
    not_finite[2, 2] = np.nan
    asymmetric = good.copy()
    asymmetric[0, 1] += 1e-9
    indefinite = np.diag([1.0, 1.0, -1.0, 1.0])
    stack = np.array([good, indefinite, 0.5 * np.eye(4), not_finite, asymmetric, good])
    spectrum, codes = symplectic_spectrum(stack)
    assert isinstance(spectrum_error(codes[1], spectrum.lambdas[1]), PairingFailure)
    assert isinstance(spectrum_error(codes[2], spectrum.lambdas[2]), InvalidCovariance)
    assert list(codes) == [
        0, NOT_POSITIVE_DEFINITE, BELOW_ONE, NOT_FINITE_SYMMETRIC, NOT_FINITE_SYMMETRIC, 0
    ]
    for i in (1, 2, 3, 4):
        error = spectrum_error(codes[i], spectrum.lambdas[i])
        alone, code = spectrum_of(stack[i])
        assert code == codes[i]
        assert str(spectrum_error(code, alone.lambdas)) == str(error)
    for i in (0, 5):
        assert np.array_equal(spectrum.lambdas[i], spectrum_of(good)[0].lambdas)
        assert np.allclose(spectrum.squares[i], spectrum.lambdas[i] ** 2, rtol=1e-15)


def test_symplectic_spectrum_rejects_unphysical_state():
    spectrum, code = spectrum_of(0.5 * np.eye(4))
    assert code == BELOW_ONE
    assert isinstance(spectrum_error(code, spectrum.lambdas), InvalidCovariance)


def test_symplectic_spectrum_takes_stacks_only():
    for M in (np.eye(4), np.eye(4)[None, :3], np.ones((1, 3, 3)), np.eye(2)[None, None]):
        with pytest.raises(DimensionMismatch):
            symplectic_spectrum(M)


def test_average_energy_flat_trace():
    z = np.array([3.0, 1.0, 1.0, 1.0])
    M = fiducial_covariance(z)
    assert average_energies(z[None])[0] == pytest.approx(np.trace(M) / 8.0, rel=1e-14)
    assert average_energies(z) == average_energies(z[None])[0]
    assert average_energies([1.0, 1.0]) == 1.0


def test_mode_energy_round_trip():
    for z in (1.0, 1.5, 10.0, 1000.0):
        E = mode_energy_from_squeezing(z)
        assert E >= 2.0
        assert squeezing_from_energy(E) == pytest.approx(z, rel=1e-10)
    assert squeezing_from_energy(2.0) == 1.0
    assert mode_energy_from_squeezing(2.0) == pytest.approx(2.5)


def test_energy_domain_errors():
    with pytest.raises(DomainError):
        mode_energy_from_squeezing(0.9)
    with pytest.raises(DomainError):
        squeezing_from_energy(1.9)
    with pytest.raises(DomainError, match="squeezing spectrum must be a nonempty vector"):
        average_energies([])


def test_total_energy_invariant_under_rotation():
    """Passive rotations redistribute but never create energy: tr M is fixed."""
    gen = SeededStream(16).generator()
    z = np.array([5.0, 2.0, 1.0])
    M = fiducial_covariance(z)
    total = sum(mode_energy_from_squeezing(v) for v in z)
    assert np.trace(M) == pytest.approx(total, rel=1e-12)
    for _ in range(3):
        O = eta_embed(_reference_haar_rows(3, gen, 3))
        assert np.trace(rotate_covariance(M, O)) == pytest.approx(total, rel=1e-12)


def test_photon_number_values_and_clamp():
    assert photon_number(1.0) == 0.0
    assert photon_number(1.0 + 0.5 * PURE_CLAMP) == 0.0
    assert photon_number(1.0 - 0.5 * PURE_CLAMP) == 0.0
    assert photon_number(3.0) == 1.0
    assert photon_number(1.0 + 1e-6) == pytest.approx(5e-7)
    with pytest.raises(DomainError):
        photon_number(1.0 - 1e-6)


def test_entropy_g_pinned_values():
    assert entropy_g(0.0) == 0.0
    assert entropy_g(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        entropy_g(-1e-9)


def test_entropy_G_pinned_values():
    """The package's entropy of one eigenvalue, on a stack of one."""
    assert gaussian_entropies([[1.0]])[0].tolist() == [0.0]
    (value,), _low = gaussian_entropies([[3.0]])
    assert value == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert entropy_G(3.0) == value


def test_entropy_snaps_the_rounded_pure_bound():
    """Every accepted eigenvalue up to 1 + PURE_CLAMP is pure, including the
    rounded 1 - PURE_CLAMP, where N = (lambda - 1)/2 is slightly negative."""
    edges = [[0.99999999], [1.0 - PURE_CLAMP], [np.nextafter(1.0 - PURE_CLAMP, 2.0)]]
    entropies, low = gaussian_entropies(edges)
    assert entropies.tolist() == [0.0, 0.0, 0.0]
    assert low.tolist() == [False, False, False]
    assert [oracles.gaussian_entropy(row) for row in edges] == [0.0, 0.0, 0.0]
    below = [[2.0], [np.nextafter(1.0 - PURE_CLAMP, 0.0)]]
    assert gaussian_entropies(below)[1].tolist() == [False, True]
    with pytest.raises(DomainError, match=r"^need lambda >= 1"):
        raise entropy_error(below[1])


# G(lambda) = g(N), N = (lambda - 1)/2, from the double lambda; in doubles
# the N log N form cancels to 32.0 near 1e16 and to 0.0 from about 1e30
_G_LAMBDAS = (1.0 + 3e-8, 3.0, 1e8, 1e15, 1e16, 1e30, 1e300)


def _entropy_G_exact(lam: float) -> float:
    """G(lambda) to 50 digits: the N log N form, with 310 more working
    digits than its cancellation at lambda = 1e300 costs."""
    with mpmath.workdps(360):
        N = (mpmath.mpf(lam) - 1) / 2
        return float((N + 1) * mpmath.log(N + 1) - N * mpmath.log(N))


def test_entropy_matches_fifty_digits_at_every_scale():
    values, _low = gaussian_entropies([[lam] for lam in _G_LAMBDAS])
    for lam, value in zip(_G_LAMBDAS, values):
        assert value == pytest.approx(_entropy_G_exact(lam), rel=1e-14, abs=0.0), lam


def test_huge_squeezing_writes_the_stable_entropy(tmp_path):
    """A trial at z = 1e30 keeps its entropy: non-zero and the 50-digit G."""
    out = tmp_path / "trials.csv"
    argv = ["trial-dump", "--n", "4", "--k", "1", "--z-profile", "constant:1e30x4",
            "--samples", "2", "--output", str(out), "--summary-output", str(tmp_path / "s.json")]
    assert main(argv) == 0
    records, _provenance = read_trials_csv(out)
    for rec in records:
        (lam,) = rec.symplectic_spectrum
        assert rec.entropy > 0.0
        assert rec.entropy == pytest.approx(_entropy_G_exact(lam), rel=1e-14, abs=0.0)


def test_gaussian_entropies_rejects_a_single_spectrum():
    with pytest.raises(DomainError, match=r"\(B, k\) stack"):
        gaussian_entropies([3.0, 2.0])
    with pytest.raises(DomainError):
        gaussian_entropies(3.0)
    entropies, low = gaussian_entropies([[3.0, 2.0]])
    assert entropies.shape == low.shape == (1,)


def test_inverse_temperature_values():
    assert inverse_temperature_beta(3.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert inverse_temperature_beta(1.0) == math.inf


def test_beta_is_twice_entropy_slope():
    # 2 G'(lambda) = beta(lambda), checked by central difference
    for lam in (1.3, 2.5, 7.0):
        h = 1e-6
        slope = (entropy_G(lam + h) - entropy_G(lam - h)) / (2.0 * h)
        assert 2.0 * slope == pytest.approx(inverse_temperature_beta(lam), rel=1e-7)


def test_gaussian_entropy_additive_over_modes():
    lams = np.array([3.0, 2.0, 1.0])
    expected = sum(entropy_G(v) for v in lams)
    assert gaussian_entropies(lams[None])[0][0] == pytest.approx(expected, rel=1e-14)
    spec, _codes = symplectic_spectrum(np.diag([3.0, 3.0])[None])
    assert gaussian_entropies(spec.lambdas)[0][0] == pytest.approx(entropy_G(3.0), rel=1e-14)


def test_concentration_f_single_thermal_mode():
    """For diag(lam, lam) the functional is exactly 2 (lam^2 - c^2)^2."""
    lam, lam_bar = 2.0, 1.5
    M = np.diag([lam, lam])
    expected = 2.0 * (lam_bar**2 - lam**2) ** 2
    assert concentration_f(M, lam_bar) == pytest.approx(expected, rel=1e-12)
    assert concentration_f(np.eye(2), 1.0) == pytest.approx(0.0, abs=1e-14)


def test_concentration_f_matches_deviation_delta():
    gen = SeededStream(17).generator()
    z = np.array([4.0, 2.0, 1.0, 1.0, 1.0])
    lam_bar = float(average_energies(z))
    M = rotate_covariance(fiducial_covariance(z), eta_embed(_reference_haar_rows(5, gen, 5)))
    M_red = reduce_covariance(M, 2)
    f = concentration_f(M_red, lam_bar)
    (delta,) = spectral_deviation_deltas(symplectic_spectrum(M_red[None])[0].squares, [lam_bar])
    assert f == pytest.approx(2.0 * delta**2, rel=1e-10)


def test_spectral_deviation_delta_hand_value():
    # the spectrum (2, 1), given by its squares
    (value,) = spectral_deviation_deltas([[4.0, 1.0]], [1.5])
    assert value == pytest.approx(math.sqrt((4.0 - 2.25) ** 2 + (2.25 - 1.0) ** 2), rel=1e-14)


# Eigenvalues where the scalar entropy and delta have edges: exactly 1, both
# sides of each PURE_CLAMP boundary, and values whose N log N or lambda^4
# is huge.
_EDGE_LAMBDAS = (
    1.0,
    1.0 + PURE_CLAMP,
    np.nextafter(1.0 + PURE_CLAMP, 2.0),
    np.nextafter(1.0 + PURE_CLAMP, 0.0),
    1.0 - PURE_CLAMP,
    np.nextafter(1.0 - PURE_CLAMP, 2.0),
    1.0000000000000002,
    1e15,
    1e30,
)
_BELOW_CLAMP = (np.nextafter(1.0 - PURE_CLAMP, 0.0), 1.0 - 1e-7, 0.5)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 32),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    edge_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    low=st.booleans(),
)
def test_stacked_entropy_and_delta_match_the_scalar_reference(k, count, seed, edge_share, low):
    """gaussian_entropies and spectral_deviation_deltas on a (B, k) stack are
    repr-equal to the frozen one-spectrum-at-a-time reference, and mark the
    spectra it rejects, whose entropy_error is its DomainError."""
    rng = np.random.default_rng(seed)
    lams = np.where(
        rng.random((count, k)) < 0.5,
        1.0 + rng.random((count, k)) * 1e-3,
        10.0 ** rng.uniform(0.0, 4.0, (count, k)),
    )
    edges = rng.random((count, k)) < edge_share
    lams[edges] = rng.choice(_EDGE_LAMBDAS, size=int(edges.sum()))
    if low:
        lams[rng.integers(count), rng.integers(k)] = rng.choice(_BELOW_CLAMP)
    lambda_bars = (10.0 ** rng.uniform(0.0, 15.0, count)).tolist()

    entropies, low = gaussian_entropies(lams)
    for row, value, marked in zip(lams, entropies.tolist(), low.tolist()):
        try:
            reference = oracles.gaussian_entropy(row)
        except DomainError as exc:
            assert marked
            error = entropy_error(row)
            assert type(error) is DomainError and str(error) == str(exc)
        else:
            assert not marked
            assert repr(value) == repr(reference)
    deltas = [oracles.spectral_deviation_delta(row, lb) for row, lb in zip(lams, lambda_bars)]
    assert repr(spectral_deviation_deltas(lams, lambda_bars).tolist()) == repr(deltas)
