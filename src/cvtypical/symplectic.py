"""Covariance-matrix core: the reduced state of k modes built from k rows
of the passive unitary, symplectic spectra, entropies and the spectral
deviation, each on a stack of trials.

Matrices are plain numpy arrays in (Q_1..Q_n, P_1..P_n) ordering, so the
symplectic form is the fixed block matrix J = [[0, -I], [I, 0]]. A squeezing
spectrum is any length-n array-like with entries z_j >= 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidCovariance,
    NonUnitaryInput,
    PairingFailure,
)

__all__ = [
    "SymplecticSpectrum",
    "symplectic_form",
    "reduced_covariance_from_rows",
    "symplectic_spectrum",
    "average_energy",
    "average_energies",
    "gaussian_entropies",
    "spectral_deviation_deltas",
]

UNITARITY_TOL = 1e-10
PAIRING_RTOL = 1e-6  # times max-abs entry of M
WILLIAMSON_TOL = 1e-6  # slack below 1 tolerated before InvalidCovariance
PURE_CLAMP = 1e-8  # the entropy treats lambda - 1 <= PURE_CLAMP as lambda = 1


class SymplecticSpectrum(NamedTuple):
    """Symplectic eigenvalues sorted descending, plus the max absolute real
    part seen while pairing the eigenvalues of J*M (a quality diagnostic)."""

    lambdas: np.ndarray
    pairing_residual: float


def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form J = [[0, -I], [I, 0]]."""
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _as_squeezing(z, stacked: bool = False) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim > (2 if stacked else 1) or z.shape[-1] < 1:
        raise DomainError("squeezing spectrum must be a nonempty vector")
    if np.any(z < 1.0):
        raise DomainError(f"squeezing parameters must be >= 1, got min {z.min()}")
    return z


def _embed(V: np.ndarray) -> np.ndarray:
    """[[Re V, Im V], [-Im V, Re V]] for a k x n complex V, or a stack of them."""
    *stack, k, n = V.shape
    out = np.empty((*stack, 2 * k, 2 * n))
    out[..., :k, :n] = V.real
    out[..., :k, n:] = V.imag
    out[..., k:, :n] = -V.imag
    out[..., k:, n:] = V.real
    return out


def reduced_covariance_from_rows(V: np.ndarray, z) -> tuple:
    """Covariance matrix of the first k modes of the rotated fiducial state,
    built from the k rows V = U[:k] of the passive unitary alone.

    The rows embed as W = [[Re V, Im V], [-Im V, Re V]], the first k and
    n+1..n+k rows of the orthogonal symplectic image of U, so
    M_red = W diag(z, 1/z) W^T is the (q_1..q_k, p_1..p_k) block of the
    rotated n-mode covariance, at O(n k^2) cost instead of O(n^3).  With all
    n rows it is the whole rotated state.  The n-mode state is pure exactly
    when the rows are orthonormal.

    V may be a stack (B, k, n) of row sets, with z one spectrum (n,) shared
    by all or one per set (B, n); the results are then stacked too, each
    matrix computed exactly as it would be alone.

    Returns (M_red, max |V V^+ - I_k|), the residual an array for a stack.
    Raises NonUnitaryInput when a residual exceeds UNITARITY_TOL; for a
    stack its index attribute names the first such set.
    """
    V = np.asarray(V)
    z = _as_squeezing(z, stacked=True)
    n = z.shape[-1]
    if (
        V.ndim not in (2, 3)
        or V.shape[-1] != n
        or not 1 <= V.shape[-2] <= n
        or (z.ndim == 2 and (V.ndim != 3 or len(V) != len(z)))
    ):
        raise DimensionMismatch(
            f"expected 1..{n} rows of length {n} per spectrum, got {V.shape} for {z.shape}"
        )
    gram = V @ np.swapaxes(V.conj(), -1, -2)
    residual = np.abs(gram - np.eye(V.shape[-2])).max(axis=(-2, -1))
    bad = np.flatnonzero(residual > UNITARITY_TOL)
    if bad.size:
        index = int(bad[0])
        error = NonUnitaryInput(
            f"max |V V+ - I| = {residual.flat[index]:.3e} exceeds {UNITARITY_TOL}"
        )
        error.index = index
        raise error
    W = _embed(V)
    out = (W * np.concatenate([z, 1.0 / z], axis=-1)[..., None, :]) @ np.swapaxes(W, -1, -2)
    M_red = 0.5 * (out + np.swapaxes(out, -1, -2))  # resymmetrize rounding noise
    return M_red, (residual if V.ndim == 3 else float(residual))


def symplectic_spectrum(M: np.ndarray):
    """Symplectic eigenvalues of a covariance matrix via the spectrum of J*M.

    The eigenvalues of the real non-symmetric matrix J*M must form conjugate
    pairs +-i*lambda_j; the positive imaginary parts are returned sorted
    descending. pairing_residual is the largest absolute real part seen.
    Raises PairingFailure when they do not pair and InvalidCovariance when
    a lambda_j falls below 1.

    A stack (B, 2k, 2k) of matrices gives a list of B outcomes instead,
    each the SymplecticSpectrum of its matrix or the error its lone call
    would raise, so one failure does not stop the others.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] % 2:
        raise DimensionMismatch(f"expected a 2k x 2k matrix or a stack, got shape {M.shape}")
    if M.ndim == 2:
        (outcome,) = symplectic_spectrum(M[None])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    k = M.shape[-1] // 2
    tol = PAIRING_RTOL * np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
    w = np.linalg.eigvals(symplectic_form(k) @ M)
    residual = np.abs(w.real).max(axis=1)
    imag = np.sort(w.imag, axis=1)
    # exactly k negative and k positive parts, paired largest to largest
    pos = imag[:, : k - 1 : -1]
    paired = (imag[:, k - 1] < 0.0) & (imag[:, k] > 0.0)
    gap = np.abs(pos + imag[:, :k]).max(axis=1)
    unreal = residual > tol
    unpaired = ~paired | (gap > tol)
    below = pos[:, -1] < 1.0 - WILLIAMSON_TOL
    outcomes = list(map(SymplecticSpectrum, pos, residual.tolist()))
    for i in np.flatnonzero(unreal | unpaired | below):
        if unreal[i]:
            outcomes[i] = PairingFailure(
                f"max |Re eig(JM)| = {residual[i]:.3e} exceeds {tol[i]:.3e}"
            )
        elif unpaired[i]:
            outcomes[i] = PairingFailure(
                f"eigenvalues of JM do not pair into +-i couples at tol {tol[i]:.3e}"
            )
        else:
            outcomes[i] = InvalidCovariance(f"symplectic eigenvalue {pos[i, -1]} below 1")
    return outcomes


def average_energy(z) -> float:
    """The flat spectral value (1/2n) tr of the fiducial covariance,
    i.e. (1/2n) sum_j (z_j + 1/z_j); equals 1 exactly at the vacuum."""
    return float(average_energies(_as_squeezing(z)))


def average_energies(z) -> np.ndarray:
    """average_energy of each spectrum in a stack (B, n), or of one (n,);
    a row of a C-ordered stack sums in the order the row alone does."""
    z = _as_squeezing(z, stacked=True)
    return (z + 1.0 / z).sum(axis=-1) / (2 * z.shape[-1])


def _logs(x: np.ndarray) -> np.ndarray:
    # math.log, not np.log: numpy's SIMD log differs from it in the last bit
    # on some inputs, and the entropies stay those of the scalar formula
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def gaussian_entropies(lams) -> np.ndarray:
    """Von Neumann entropy sum_j G(lambda_j) in nats of each spectrum in a
    stack (B, k), with G(lambda) = g((lambda - 1)/2) and
    g(N) = (N+1) log(N+1) - N log N; NaN rows give NaN.

    N snaps to 0 where lambda - 1 <= PURE_CLAMP, so states pure up to
    roundoff have zero entropy.  The k terms are added left to right from
    0, as the sum over one spectrum adds them.  Raises DomainError for the
    first eigenvalue, in C order, below 1 - PURE_CLAMP; its index attribute
    names that eigenvalue's row.
    """
    lams = np.asarray(lams, dtype=float)
    low = lams < 1.0 - PURE_CLAMP
    if low.any():
        first = int(np.argmax(low))
        error = DomainError(f"need lambda >= 1, got {lams.flat[first]}")
        error.index = first // lams.shape[-1]
        raise error
    N = np.where(lams - 1.0 <= PURE_CLAMP, 0.0, (lams - 1.0) / 2.0)
    up = N + 1.0
    # log N is taken at 1 where N = 0, so those terms are 1*0 - 0*0 = 0
    g = up * _logs(up) - N * _logs(np.where(N > 0.0, N, 1.0))
    total = np.zeros(len(g))
    for column in g.T:
        total += column
    return total


def spectral_deviation_deltas(lams, lambda_bars) -> np.ndarray:
    """Deviation Delta = sqrt(sum_j (lambda_bar^2 - lambda_j^2)^2) of each
    spectrum in a stack (B, k) from the flat spectrum, row b against
    lambda_bars[b]."""
    # Python's float ** 2 (libm pow), which differs from numpy's square in
    # the last bit on some inputs
    flat = np.array([float(bar) ** 2 for bar in lambda_bars])
    return np.sqrt(((flat[:, None] - np.asarray(lams, dtype=float) ** 2) ** 2).sum(axis=1))
