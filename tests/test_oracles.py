"""The oracle layer used by the acceptance tests gets its own audit.

block_matrix_V rebuilds tr (J M_red)^m from unitary blocks; expected_trace_power
averages that form term by term with exact Weingarten weights.  Both must agree
with the plain covariance pipeline and with the closed-form tables before any
test leans on them.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from cvtypical.errors import DomainError
from cvtypical.haar import SeededStream
from cvtypical.moments import (
    _exact,
    _fourth_moment,
    _second_moment,
    expected_f_exact,
    moment_inputs_from_spectrum,
)
from oracles import (
    _reference_haar_rows,
    block_matrix_V,
    delta_squared_cdf_one_mode,
    eta_embed,
    expected_trace_power,
    fiducial_covariance,
    reduce_covariance,
    rotate_covariance,
    symplectic_form,
)


def test_symplectic_form_square():
    for n in (1, 2, 5):
        J = symplectic_form(n)
        assert J.shape == (2 * n, 2 * n)
        assert np.array_equal(J.T, -J)
        assert np.array_equal(J @ J, -np.eye(2 * n))


def test_symplectic_form_rejects_nonpositive_n():
    with pytest.raises(DomainError):
        symplectic_form(0)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2)])
def test_block_form_matches_covariance_traces(n, k):
    z = np.linspace(3.0, 1.0, n)
    gen = SeededStream(21).generator()
    for _ in range(3):
        U = _reference_haar_rows(n, gen, n)
        M = rotate_covariance(fiducial_covariance(z), eta_embed(U))
        jm = symplectic_form(k) @ reduce_covariance(M, k)
        V = block_matrix_V(U, z, k)
        for m in (2, 3, 4):
            direct = np.trace(np.linalg.matrix_power(jm, m)).real
            via_blocks = np.trace(np.linalg.matrix_power(V, m)).real
            assert via_blocks == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_integrator_matches_tables_spiked():
    z = (Fraction(3), 1, 1, 1)
    mi = moment_inputs_from_spectrum(z, 1)
    assert expected_trace_power(z, 1, 2) == _exact(mi, _second_moment)
    assert expected_trace_power(z, 1, 4) == _exact(mi, _fourth_moment)


def test_integrator_matches_tables_mixed():
    z = (2, 3, 1, 1, 1)
    mi = moment_inputs_from_spectrum(z, 2)
    assert expected_trace_power(z, 2, 2) == _exact(mi, _second_moment)
    assert expected_trace_power(z, 2, 4) == _exact(mi, _fourth_moment)


def test_integrator_vacuum():
    z = (1,) * 5
    assert expected_trace_power(z, 2, 2) == -4
    assert expected_trace_power(z, 2, 4) == 4


@pytest.mark.parametrize("z, n", [(2, 4), (2, 16), (5, 32), (1.3, 69)])
def test_one_mode_delta_law_has_the_exact_mean(z, n):
    """E delta^2, the integral of P[delta^2 > eps] over [0, a^4] (taken in
    u = sqrt(eps)/a^2, where the integrand is smooth), is half of the
    package's exact E f = 16 a^4/((n+1)(n+3))."""
    a4 = ((z - 1.0 / z) / 2.0) ** 4
    assert delta_squared_cdf_one_mode(0.0, z, n) == 0.0
    assert delta_squared_cdf_one_mode(a4, z, n) == 1.0
    tail = lambda u: 1.0 - delta_squared_cdf_one_mode(a4 * u * u, z, n)
    mean, _error = quad(lambda u: 2.0 * a4 * u * tail(u), 0.0, 1.0)
    exact = expected_f_exact(moment_inputs_from_spectrum((Fraction(z),) * n, 1))
    assert 2.0 * mean == pytest.approx(float(exact), rel=1e-9)
