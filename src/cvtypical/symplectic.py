"""Covariance-matrix core: the reduced state of k modes built from k rows
of the passive unitary, symplectic spectra, entropies and the spectral
deviation, each on a stack of trials.

Matrices are plain numpy arrays in (Q_1..Q_n, P_1..P_n) ordering, so the
symplectic form is the fixed block matrix J = [[0, -I], [I, 0]]. A squeezing
spectrum is any length-n array-like with entries z_j >= 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    CvTypicalError,
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
    "unitarity_error",
    "symplectic_spectrum",
    "spectrum_error",
    "average_energy",
    "average_energies",
    "gaussian_entropies",
    "spectral_deviation_deltas",
]

UNITARITY_TOL = 1e-10
WILLIAMSON_TOL = 1e-6  # slack below 1 tolerated before InvalidCovariance
PURE_CLAMP = 1e-8  # the entropy treats lambda - 1 <= PURE_CLAMP as lambda = 1


class SymplecticSpectrum(NamedTuple):
    """Symplectic eigenvalues sorted descending, their squares as eigvalsh gave
    them, and pair_gap, the largest gap within a pair of squares; for a
    stack of matrices each field gains a leading stack axis."""

    lambdas: np.ndarray
    squares: np.ndarray
    pair_gap: float


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

    Returns (M_red, max |V V^+ - I_k|).  Raises NonUnitaryInput (see
    unitarity_error) when the residual exceeds UNITARITY_TOL.

    V may be a stack (B, k, n) of row sets, with z one spectrum (n,) shared
    by all or one per set (B, n); the results are then stacked too, each
    matrix computed exactly as it would be alone, and a residual above
    UNITARITY_TOL is returned for the caller to check instead of raised.
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
    if V.ndim == 2 and residual > UNITARITY_TOL:
        raise unitarity_error(residual)
    W = _embed(V)
    out = (W * np.concatenate([z, 1.0 / z], axis=-1)[..., None, :]) @ np.swapaxes(W, -1, -2)
    M_red = 0.5 * (out + np.swapaxes(out, -1, -2))  # resymmetrize rounding noise
    return M_red, (residual if V.ndim == 3 else float(residual))


def unitarity_error(residual) -> NonUnitaryInput:
    """The error for rows whose residual max |V V^+ - I| exceeds UNITARITY_TOL."""
    return NonUnitaryInput(f"max |V V+ - I| = {residual:.3e} exceeds {UNITARITY_TOL}")


# The failure codes of a stacked symplectic_spectrum, 0 for none.
NOT_POSITIVE_DEFINITE, NOT_FINITE_SYMMETRIC, BELOW_ONE = 1, 2, 3


def symplectic_spectrum(M: np.ndarray):
    """Symplectic eigenvalues of a covariance matrix from its Cholesky factor.

    With M = L L^T, K = L^T J L is antisymmetric and similar to J M, so
    S = K^T K is symmetric and holds each lambda_j^2 twice (Serafini,
    Quantum Continuous Variables, CRC 2017, ch. 3): every other eigenvalue
    of S from the top.  Raises InvalidCovariance for a matrix that is not
    finite and exactly symmetric or has a lambda_j below 1 - WILLIAMSON_TOL,
    and PairingFailure when M is not numerically positive definite.

    A stack (B, 2k, 2k) of matrices raises nothing: it gives one
    SymplecticSpectrum of arrays (lambdas (B, k), squares (B, k), pair_gap
    (B,)) and a (B,) array of failure codes, 0 for a matrix that fails
    nothing, else the NOT_POSITIVE_DEFINITE, NOT_FINITE_SYMMETRIC or
    BELOW_ONE its lone call raises for (see spectrum_error), so one failure
    does not stop the others.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] % 2:
        raise DimensionMismatch(f"expected a 2k x 2k matrix or a stack, got shape {M.shape}")
    if M.ndim == 2:
        ((lambdas,), (squares,), (gap,)), (code,) = symplectic_spectrum(M[None])
        if code:
            raise spectrum_error(code, lambdas)
        return SymplecticSpectrum(lambdas, squares, float(gap))
    k = M.shape[-1] // 2
    # the factorization reads one triangle, and passes a NaN unnoticed
    unfit = ~np.isfinite(M).all(axis=(1, 2)) | (M != np.swapaxes(M, 1, 2)).any(axis=(1, 2))
    M = np.where(unfit[:, None, None], np.eye(2 * k), M)
    indefinite = np.zeros(len(M), dtype=bool)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # one failure fails the stacked call: factor one by one to find them
        L = np.empty_like(M)
        for i, matrix in enumerate(M):
            try:
                L[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                L[i], indefinite[i] = np.eye(2 * k), True
    K = np.swapaxes(L, 1, 2) @ np.concatenate([-L[:, k:], L[:, :k]], axis=1)  # L^T (J L)
    w = np.linalg.eigvalsh(np.swapaxes(K, 1, 2) @ K)[:, ::-1]
    squares = w[:, 0::2]
    lambdas = np.sqrt(np.maximum(squares, 0.0))
    codes = np.select(
        [unfit, indefinite, lambdas[:, -1] < 1.0 - WILLIAMSON_TOL],
        [NOT_FINITE_SYMMETRIC, NOT_POSITIVE_DEFINITE, BELOW_ONE],
    )
    return SymplecticSpectrum(lambdas, squares, (squares - w[:, 1::2]).max(axis=1)), codes


def spectrum_error(code: int, lambdas) -> CvTypicalError:
    """The error a lone symplectic_spectrum call raises for failure code
    `code`, given the matrix's symplectic eigenvalues `lambdas`."""
    if code == NOT_POSITIVE_DEFINITE:
        return PairingFailure("covariance matrix is not positive definite")
    if code == NOT_FINITE_SYMMETRIC:
        return InvalidCovariance("covariance matrix is not finite and symmetric")
    return InvalidCovariance(f"symplectic eigenvalue {lambdas[-1]} below 1")


def average_energy(z) -> float:
    """The flat spectral value (1/2n) tr of the fiducial covariance,
    i.e. (1/2n) sum_j (z_j + 1/z_j); equals 1 exactly at the vacuum."""
    return float(average_energies(_as_squeezing(z)))


def average_energies(z) -> np.ndarray:
    """average_energy of each spectrum in a stack (B, n), or of one (n,);
    a row of a C-ordered stack sums in the order the row alone does."""
    z = _as_squeezing(z, stacked=True)
    return (z + 1.0 / z).sum(axis=-1) / (2 * z.shape[-1])


def gaussian_entropies(lams) -> np.ndarray:
    """Von Neumann entropy sum_j G(lambda_j) in nats of each spectrum in a
    stack (B, k), with G(lambda) = g((lambda - 1)/2) and
    g(N) = (N+1) log(N+1) - N log N, taken as log1p(N) + N log1p(1/N),
    which does not cancel at large N; NaN rows give NaN.

    N snaps to 0 where lambda - 1 <= PURE_CLAMP, so states pure up to
    roundoff have zero entropy.  Each row sums as the spectrum alone would.
    Raises DomainError for an input that is not a (B, k) stack, and for
    the first eigenvalue, in C order, below 1 - PURE_CLAMP; its index
    attribute names that eigenvalue's row.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2:
        raise DomainError(f"need a (B, k) stack of spectra, got shape {lams.shape}")
    low = lams < 1.0 - PURE_CLAMP
    if low.any():
        first = int(np.argmax(low))
        error = DomainError(f"need lambda >= 1, got {lams.flat[first]}")
        error.index = first // lams.shape[-1]
        raise error
    N = np.where(lams - 1.0 <= PURE_CLAMP, 0.0, (lams - 1.0) / 2.0)
    # 1/N is taken as 0 where N = 0, so those terms are 0 + 0*0 = 0
    g = np.log1p(N) + N * np.log1p(1.0 / np.where(N > 0.0, N, np.inf))
    return g.sum(axis=1)


def spectral_deviation_deltas(squares, lambda_bars) -> np.ndarray:
    """Deviation Delta = sqrt(sum_j (lambda_bar^2 - lambda_j^2)^2) of each
    spectrum in a stack, given by its squares lambda_j^2 (B, k), from the
    flat spectrum, row b against lambda_bars[b]."""
    flat = np.square(np.asarray(lambda_bars, dtype=float))
    return np.sqrt(((flat[:, None] - np.asarray(squares, dtype=float)) ** 2).sum(axis=1))
