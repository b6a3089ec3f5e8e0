"""The oracle layer used by the acceptance tests gets its own audit.

block_matrix_V rebuilds tr (J M_red)^m from unitary blocks; expected_trace_power
averages that form term by term with exact Weingarten weights.  Both must agree
with the plain covariance pipeline and with the closed-form tables before any
test leans on them.
"""

from fractions import Fraction

import numpy as np
import pytest

from cvtypical.haar import SeededStream, sample_haar_unitary
from cvtypical.moments import (
    fourth_moment_trace_exact,
    moment_inputs_from_spectrum,
    second_moment_trace_exact,
)
from cvtypical.symplectic import symplectic_form
from oracles import (
    block_matrix_V,
    eta_embed,
    expected_trace_power,
    fiducial_covariance,
    reduce_covariance,
    rotate_covariance,
)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2)])
def test_block_form_matches_covariance_traces(n, k):
    z = np.linspace(3.0, 1.0, n)
    gen = SeededStream(21).generator()
    for _ in range(3):
        U = sample_haar_unitary(n, gen)
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
    assert expected_trace_power(z, 1, 2) == second_moment_trace_exact(mi)
    assert expected_trace_power(z, 1, 4) == fourth_moment_trace_exact(mi)


def test_integrator_matches_tables_mixed():
    z = (2, 3, 1, 1, 1)
    mi = moment_inputs_from_spectrum(z, 2)
    assert expected_trace_power(z, 2, 2) == second_moment_trace_exact(mi)
    assert expected_trace_power(z, 2, 4) == fourth_moment_trace_exact(mi)


def test_integrator_vacuum():
    z = (1,) * 5
    assert expected_trace_power(z, 2, 2) == -4
    assert expected_trace_power(z, 2, 4) == 4
