"""Independent exact oracle for Haar-averaged trace powers of J*M_red.

The reduced matrix J*M factorizes as L C(U) R with scalar blocks built from
the projector and the diagonals a, b; cyclically, tr((J*M)^m) = tr(V^m) for

    V = [[ i*U B U+ P,  U A U^T P ],
         [ conj(U) A U+ P, -i*conj(U) B U^T P ]]

(n x n blocks, P the rank-k diagonal projector). Expanding tr(V^m) over block
paths writes it as a sum of monomials in the entries of U, each of which is
integrated exactly with the computational rule

    E[prod u_(r,q) prod conj(u)_(r',q')] =
        sum over pairings (alpha, beta) of delta-matches times Wg,

with Wg values taken from the Gram-inversion oracle. This never touches the
coefficient tables in cvtypical.moments, so agreement is a genuine
transcription audit. Everything is exact: weights are Fractions and the result
is a Fraction (the imaginary part must cancel to zero, which is asserted).

The module also keeps the plain-Fraction references of the package's integer
fast paths: the moment formulas evaluated on Fraction power sums
(``reference_moments``) and the Fraction Gram elimination
(``gram_solution_reference``, with ``compose`` the permutation product it
and the trace-power oracle use), plus the float closed form of the averaged
matrix that acceptance criterion 2 checks (``haar_average_BB_minus_AA``),
the mode table built one conversion per entry (``reference_mode_inputs``),
and the helpers only tests call (``validate_covariance``,
``inverse_temperature_beta``, ``squeezing_from_energy``,
``mode_energy_from_squeezing``, and ``read_summary_json`` with
``summary_from_jsonable``, the readers of the summary JSON).

The full-state composition is the reference of the package's k-row
reduction: ``symplectic_form`` is J as a matrix, ``fiducial_covariance``
builds the 2n x 2n squeezed state, ``eta_embed`` the orthogonal symplectic
image of a unitary, ``rotate_covariance`` conjugates by it,
``reduce_covariance`` keeps the first k modes, and ``concentration_f``
evaluates f by direct matrix arithmetic.

It keeps the trial-by-trial Monte Carlo pipeline as the reference of the
package's block kernel (``reference_run_trial``, ``reference_run_one``),
with frozen scalar copies of the per-trial functionals the package now
computes on stacks: ``_reference_haar_rows`` draws the first k columns of
one Haar unitary, ``_reference_rows_covariance`` builds one reduced state
from k rows, and ``_reference_spectrum`` takes one symplectic spectrum.
Acceptance criterion 8 runs the scipy-based ``lipschitz_probe`` against
``lipschitz_bound``, the proved ceiling it checks.  ``eigvals_spectrum`` keeps the earlier symplectic
spectrum route, from the eigenvalues of the non-symmetric J*M, as a
cross-check of the package's Cholesky route.

The record-by-record output routes are the references of the package's
columnar ones: ``reference_format_trials_csv`` writes the trial CSV one
TrialRecord at a time and ``reference_summarize_records`` builds each
summary column from a list of records; ``table_from_records`` stacks
records into a TrialTable for the package's routes.

``sample_profile`` draws one squeezing spectrum off a generator in place,
the bits a trial's stream draws first; ``delta_squared_cdf_one_mode`` is
the exact law of delta^2 at k = 1 for a constant spectrum,
``k1_moments`` the exact moments E lambda^(2p) at k = 1 for any spectrum,
and ``k1_f_moments`` the exact moments E f^m built from them.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from numbers import Rational
from typing import get_type_hints

import numpy as np
from scipy.linalg import expm

from cvtypical.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    DomainError,
    InvalidCovariance,
    InvalidSubsystem,
    NonUnitaryInput,
    PairingFailure,
    SingularGram,
    SizeMismatch,
)
from cvtypical.haar import SeededStream
from cvtypical.harness import (
    TAIL_LADDER_FACTORS,
    RunSummary,
    TrialRecord,
    TrialTable,
    _TABLE_COLUMNS,
    _mean_se_std,
    _rescaled,
    trial_csv_header,
)
from cvtypical.moments import MomentInputs, _fourth_moment_rows, _ratio
from cvtypical.symplectic import (
    PURE_CLAMP,
    UNITARITY_TOL,
    WILLIAMSON_TOL,
    SymplecticSpectrum,
    average_energies,
)
from cvtypical.weingarten import cycle_type, gram_weingarten_oracle, inverse

# block (row, col) -> (power of i, weight vector name, conj of slot1, conj of slot2)
_BLOCKS = {
    (1, 1): (1, "b", False, True),
    (1, 2): (0, "a", False, False),
    (2, 1): (0, "a", True, True),
    (2, 2): (3, "b", True, False),
}


def _rationalize(z) -> list[Fraction]:
    return [x if isinstance(x, Rational) else Fraction(float(x)) for x in z]


def _ab_vectors(z):
    zq = _rationalize(z)
    a = [Fraction(x - 1 / Fraction(x), 2) for x in zq]
    b = [Fraction(x + 1 / Fraction(x), 2) for x in zq]
    return a, b


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition p∘q, i.e. the permutation x -> p[q[x]]."""
    if len(p) != len(q):
        raise SizeMismatch(f"cannot compose permutations of sizes {len(p)} and {len(q)}")
    return tuple(p[qi] for qi in q)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        self.parent[self.find(x)] = self.find(y)


def expected_trace_power(z, k: int, m: int) -> Fraction:
    """Exact Haar average E[tr((J M_red)^m)] for the spectrum z and subsystem
    size k, for m in {2, 4}."""
    if m not in (2, 4):
        raise ValueError(f"only m in {{2, 4}} supported, got {m}")
    a, b = _ab_vectors(z)
    n = len(a)
    pi = [Fraction(1)] * k + [Fraction(0)] * (n - k)
    weights = {"a": a, "b": b}
    wg = gram_weingarten_oracle([n], m)[n]
    perms = list(itertools.permutations(range(m)))
    wg_of_pair = {
        (alpha, beta): wg[cycle_type(compose(inverse(alpha), beta))]
        for alpha in perms
        for beta in perms
    }

    total_re = Fraction(0)
    total_im = Fraction(0)
    nvars = 2 * m  # x_0..x_{m-1} are 0..m-1, c_0..c_{m-1} are m..2m-1
    for path in itertools.product((1, 2), repeat=m):
        ipow = 0
        var_weights: list[list[list[Fraction]]] = [[] for _ in range(nvars)]
        u_slots: list[tuple[int, int]] = []
        ubar_slots: list[tuple[int, int]] = []
        for t in range(m):
            blk = _BLOCKS[(path[t], path[(t + 1) % m])]
            ipow += blk[0]
            x_left, x_right, c = t, (t + 1) % m, m + t
            var_weights[c].append(weights[blk[1]])
            var_weights[x_right].append(pi)
            for slot, conj in (((x_left, c), blk[2]), ((x_right, c), blk[3])):
                (ubar_slots if conj else u_slots).append(slot)
        if len(u_slots) != len(ubar_slots) or len(u_slots) != m:
            continue  # unbalanced monomials average to zero

        path_sum = Fraction(0)
        for alpha in perms:
            for beta in perms:
                uf = _UnionFind(nvars)
                for x, (row, col) in enumerate(u_slots):
                    uf.union(row, ubar_slots[alpha[x]][0])
                    uf.union(col, ubar_slots[beta[x]][1])
                classes: dict[int, list] = {}
                for v in range(nvars):
                    classes.setdefault(uf.find(v), []).append(v)
                value = Fraction(1)
                for members in classes.values():
                    vecs = [w for v in members for w in var_weights[v]]
                    acc = Fraction(0)
                    for i in range(n):
                        term = Fraction(1)
                        for w in vecs:
                            term *= w[i]
                        acc += term
                    value *= acc if vecs else Fraction(n)
                    if value == 0:
                        break
                if value:
                    path_sum += wg_of_pair[(alpha, beta)] * value
        ipow %= 4
        if ipow == 0:
            total_re += path_sum
        elif ipow == 1:
            total_im += path_sum
        elif ipow == 2:
            total_re -= path_sum
        else:
            total_im -= path_sum
    assert total_im == 0, f"imaginary part {total_im} did not cancel"
    return total_re


def block_matrix_V(U: np.ndarray, z, k: int) -> np.ndarray:
    """Float realization of the 2n x 2n block matrix V with tr(V^m) equal to
    tr((J M_red)^m); used to validate the factorization the exact oracle
    expands."""
    a, b = _ab_vectors(z)
    n = len(a)
    A = np.diag(np.array([float(x) for x in a]))
    B = np.diag(np.array([float(x) for x in b]))
    P = np.diag(np.array([1.0] * k + [0.0] * (n - k)))
    Uc = U.conj()
    return np.block(
        [
            [1j * U @ B @ U.conj().T @ P, U @ A @ U.T @ P],
            [Uc @ A @ U.conj().T @ P, -1j * Uc @ B @ Uc.conj().T @ P],
        ]
    )


def reference_moments(z, k: int) -> dict[str, Fraction]:
    """Every exact moment of cvtypical.moments, on running Fraction sums of
    the diagonals a, b of z (``_ab_vectors``, not the package's mode table).

    Keys: average_energy, tilde_lambda_sq (n >= 2), second_moment (n >= 2),
    table1_second_moment (n >= 2), fourth_moment (n >= 4) and expected_f
    (n >= 4, at the average energy). The fourth moment
    shares the coefficient table with the package; expected_trace_power
    audits that table independently."""
    a, b = _ab_vectors(z)
    n = len(a)
    trB = sum(b)
    trB2 = sum(x * x for x in b)
    trA2 = sum(x * x for x in a)
    out = {"average_energy": Fraction(trB, n)}
    if n < 2:
        return out
    tl = (
        Fraction(n - k, n * (n * n - 1)) * trB**2
        - Fraction(k + 1, n * (n + 1)) * trA2
        + Fraction(k * n - 1, n * (n * n - 1)) * trB2
    )
    out["tilde_lambda_sq"] = tl
    out["second_moment"] = -2 * k * tl
    out["table1_second_moment"] = (
        Fraction(2 * k * (k - n), n * (n * n - 1)) * trB**2
        + Fraction(2 * k * (k + 1), n * (n + 1)) * trA2
        - Fraction(2 * k * (k * n - 1), n * (n * n - 1)) * trB2
    )
    if n < 4:
        return out
    trB3 = sum(x**3 for x in b)
    trA2B2 = sum(x * x * y * y for x, y in zip(a, b))
    mono = {
        "trB^4": trB**4,
        "trB*trB3": trB * trB3,
        "trB^2*trB2": trB**2 * trB2,
        "trB4": sum(x**4 for x in b),
        "trB2^2": trB2**2,
        "trB^2*trA2": trB**2 * trA2,
        "trA2^2": trA2**2,
        "trA4": sum(x**4 for x in a),
        "trAB2": trA2B2,
        "trA2B2": trA2B2,
        "trA2*trB2": trA2 * trB2,
        "trB*trA2B": trB * sum(x * x * y for x, y in zip(a, b)),
    }
    fourth = Fraction(0)
    for num, den, key in _fourth_moment_rows(n, k):
        fourth += Fraction(num, den) * mono[key]
    out["fourth_moment"] = fourth
    lb2 = out["average_energy"] ** 2
    out["expected_f"] = fourth + 2 * lb2 * out["second_moment"] + 2 * k * lb2 * lb2
    return out


def reference_mode_inputs(z, k: int) -> MomentInputs:
    """The mode table of z with one ``_ratio`` per entry, counted by value:
    the reference of the package's one conversion per distinct value."""
    counts = Counter(_ratio(x) for x in z)
    return MomentInputs(n=sum(counts.values()), k=k, modes=((p, q, m) for (p, q), m in counts.items()))


def gram_solution_reference(n: int, p: int) -> dict[tuple[int, ...], Fraction]:
    """Solve G x = e_id for the S_p Gram matrix G(sigma, tau) =
    n^(#cycles(sigma^-1 tau)) by Gaussian elimination on Fractions, with the
    first nonzero entry of each column as its pivot."""
    perms = list(itertools.permutations(range(p)))
    size = len(perms)
    npow = [Fraction(n) ** c for c in range(p + 1)]
    rows = []
    for s in perms:
        s_inv = inverse(s)
        rows.append([npow[len(cycle_type(compose(s_inv, t)))] for t in perms])
    rhs = [Fraction(0)] * size
    rhs[perms.index(tuple(range(p)))] = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            raise SingularGram(f"zero pivot at column {col} (n={n}, p={p})")
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pivot = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col]
            if factor == 0:
                continue
            scale = factor / pivot
            for c in range(col, size):
                rows[r][c] -= scale * rows[col][c]
            rhs[r] -= scale * rhs[col]
    x = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, size):
            acc -= rows[r][c] * x[c]
        x[r] = acc / rows[r][r]
    return dict(zip(perms, x))


def haar_average_BB_minus_AA(n: int, a, b, pi) -> np.ndarray:
    """Closed form of E[U B U+ P U B U+ - U A U^T P conj(U) A U+] over Haar U,
    for diagonal A = diag(a), B = diag(b) and a diagonal 0/1 projector
    P = diag(pi).

    Returns the n x n real matrix

        c_p * P + c_i * I

    with c_p = [(tr B)^2 - tr A^2]/(n^2-1) + [tr A^2 - tr B^2]/(n(n^2-1)) and
    c_i = tr P * ([tr B^2 - tr A^2]/(n^2-1) + [tr A^2 - (tr B)^2]/(n(n^2-1))).
    """
    if n < 2:
        raise DimensionTooSmall(f"need n >= 2, got n={n}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if a.shape != (n,) or b.shape != (n,) or pi.shape != (n,):
        raise DimensionMismatch(
            f"expected three length-{n} vectors, got shapes {a.shape}, {b.shape}, {pi.shape}"
        )
    tr_b = b.sum()
    tr_b2 = (b * b).sum()
    tr_a2 = (a * a).sum()
    tr_pi = pi.sum()
    c1 = 1.0 / (n * n - 1)
    c2 = 1.0 / (n * (n * n - 1))
    c_pi = c1 * (tr_b**2 - tr_a2) + c2 * (tr_a2 - tr_b2)
    c_id = tr_pi * (c1 * (tr_b2 - tr_a2) + c2 * (tr_a2 - tr_b**2))
    return c_pi * np.diag(pi) + c_id * np.eye(n)


# Checks and functionals only the tests call.

SYMMETRY_RTOL = 1e-12
UNCERTAINTY_TOL = 1e-8


def validate_covariance(M: np.ndarray) -> None:
    """Check the covariance-matrix invariants: symmetry to 1e-12 relative and
    the uncertainty relation eig(M + iJ) >= -1e-8. Raises InvalidCovariance."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise InvalidCovariance(f"expected a 2n x 2n matrix, got shape {M.shape}")
    scale = max(1.0, np.abs(M).max())
    asym = np.abs(M - M.T).max()
    if asym > SYMMETRY_RTOL * scale:
        raise InvalidCovariance(f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL} relative")
    n = M.shape[0] // 2
    w = np.linalg.eigvalsh(M + 1j * symplectic_form(n))
    if w.min() < -UNCERTAINTY_TOL:
        raise InvalidCovariance(f"uncertainty relation violated: min eig {w.min():.3e}")


def inverse_temperature_beta(lam: float) -> float:
    """Inverse temperature beta = log((lambda+1)/(lambda-1)); beta(1) = inf."""
    if lam < 1.0 - PURE_CLAMP:
        raise DomainError(f"need lambda >= 1, got {lam}")
    if lam <= 1.0:
        return math.inf
    return math.log((lam + 1.0) / (lam - 1.0))


def squeezing_from_energy(E: float) -> float:
    """Inverse of mode_energy_from_squeezing: z = (E + sqrt(E^2 - 4))/2."""
    if E < 2.0:
        raise DomainError(f"need E >= 2, got {E}")
    return (E + math.sqrt(E * E - 4.0)) / 2.0


def mode_energy_from_squeezing(z: float) -> float:
    """Energy E = z + 1/z of a single squeezed mode; the vacuum floor is 2."""
    if z < 1.0:
        raise DomainError(f"need z >= 1, got {z}")
    return z + 1.0 / z


# The full-state composition, one 2n x 2n matrix per call.


def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form J = [[0, -I], [I, 0]], as a matrix; the
    package applies it as a signed swap of row halves instead."""
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def eta_embed(U: np.ndarray) -> np.ndarray:
    """Embed an n x n complex unitary as the 2n x 2n real orthogonal
    symplectic matrix [[Re U, Im U], [-Im U, Re U]]."""
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {U.shape}")
    err = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
    if err > UNITARITY_TOL:
        raise NonUnitaryInput(f"max |U+U - I| = {err:.3e} exceeds {UNITARITY_TOL}")
    return np.block([[U.real, U.imag], [-U.imag, U.real]])


def fiducial_covariance(z) -> np.ndarray:
    """Covariance matrix diag(z_1..z_n, 1/z_1..1/z_n) of the product of
    single-mode squeezed states with squeezing parameters z."""
    z = _as_squeezing(z)
    return np.diag(np.concatenate([z, 1.0 / z]))


def rotate_covariance(M: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Conjugate a covariance matrix by a passive symplectic: O M O^T."""
    M = np.asarray(M, dtype=float)
    O = np.asarray(O, dtype=float)
    if M.shape != O.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"shape mismatch: M {M.shape}, O {O.shape}")
    out = O @ M @ O.T
    return 0.5 * (out + out.T)  # resymmetrize rounding noise


def reduce_covariance(M: np.ndarray, k: int) -> np.ndarray:
    """Covariance matrix of the first k modes: the submatrix of M on rows and
    columns {1..k} u {n+1..n+k} (1-based)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise DimensionMismatch(f"expected a 2n x 2n matrix, got shape {M.shape}")
    n = M.shape[0] // 2
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"need 1 <= k <= {n}, got k={k}")
    idx = np.concatenate([np.arange(k), n + np.arange(k)])
    return M[np.ix_(idx, idx)]


def concentration_f(M_red: np.ndarray, lambda_bar: float) -> float:
    """tr[((J M)^2 + lambda_bar^2 I)^2] by direct matrix arithmetic on the
    reduced covariance matrix; zero iff the symplectic spectrum is flat at
    lambda_bar."""
    M_red = np.asarray(M_red, dtype=float)
    if M_red.ndim != 2 or M_red.shape[0] != M_red.shape[1] or M_red.shape[0] % 2:
        raise DimensionMismatch(f"expected a 2k x 2k matrix, got shape {M_red.shape}")
    k = M_red.shape[0] // 2
    jm = symplectic_form(k) @ M_red
    shifted = jm @ jm + lambda_bar**2 * np.eye(2 * k)
    return float(np.trace(shifted @ shifted))


# The trial-by-trial pipeline, one matrix per call: the reference the block
# kernel in cvtypical.harness must match record for record, repr for repr.
# Its per-trial functionals (entropy, delta, lambda_bar, the profile draw)
# are frozen copies of the scalar code the package's stacked routines
# replaced, so the comparison never checks the package against itself.


def _as_squeezing(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim > 1 or z.shape[-1] < 1:
        raise DomainError("squeezing spectrum must be a nonempty vector")
    if np.any(z < 1.0):
        raise DomainError(f"squeezing parameters must be >= 1, got min {z.min()}")
    return z


def average_energy(z) -> float:
    z = _as_squeezing(z)
    return float((z + 1.0 / z).sum() / (2 * z.size))


def photon_number(lam: float) -> float:
    if lam < 1.0 - PURE_CLAMP:
        raise DomainError(f"need lambda >= 1, got {lam}")
    if lam - 1.0 <= PURE_CLAMP:
        return 0.0
    return (lam - 1.0) / 2.0


def _log1p(x: float) -> float:
    # numpy's log1p on a stack of one: its bits do not depend on a value's
    # place in its array, while math.log1p differs in the last bit on some
    return float(np.log1p(np.array([x]))[0])


def entropy_g(N: float) -> float:
    if N < 0.0:
        raise DomainError(f"need N >= 0, got {N}")
    if N == 0.0:
        return 0.0
    return _log1p(N) + N * _log1p(1.0 / N)


def entropy_G(lam: float) -> float:
    return entropy_g(photon_number(lam))


def _as_lambdas(spectrum) -> np.ndarray:
    if isinstance(spectrum, SymplecticSpectrum):
        return spectrum.lambdas
    return np.atleast_1d(np.asarray(spectrum, dtype=float))


def gaussian_entropy(spectrum) -> float:
    return float(np.array([entropy_G(lam) for lam in _as_lambdas(spectrum)]).sum())


def spectral_deviation_delta(squares, lambda_bar: float) -> float:
    """Delta of one spectrum given by its squares lambda_j^2, or of a
    SymplecticSpectrum."""
    if isinstance(squares, SymplecticSpectrum):
        squares = squares.squares
    squares = np.atleast_1d(np.asarray(squares, dtype=float))
    return float(math.sqrt(((lambda_bar * lambda_bar - squares) ** 2).sum()))


def _as_generator(rng) -> np.random.Generator:
    """rng as a Generator: a SeededStream's fresh one, or a Generator itself,
    consumed in place."""
    if isinstance(rng, SeededStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected SeededStream or numpy Generator, got {type(rng).__name__}")


def sample_profile(spec, rng) -> np.ndarray:
    if spec.is_deterministic:
        return spec.fixed_spectrum()
    gen = _as_generator(rng)
    n = spec.n
    if spec.kind == "microcanonical":
        g = gen.standard_exponential(n + 1)
        energies = 2.0 + (spec.energy - 2.0 * n) * (g[:n] / g.sum())
    else:
        temperature = spec.energy / n if spec.temperature is None else spec.temperature
        energies = 2.0 + gen.standard_exponential(n) * temperature
    z = 0.5 * (energies + np.sqrt(energies * energies - 4.0))
    return np.maximum(z, 1.0)


def delta_squared_cdf_one_mode(eps, z: float, n: int):
    """Exact P[delta^2 <= eps] at k = 1 for the constant spectrum z on n modes.

    With a = (z - 1/z)/2 and v the trial's Haar row, delta^2 = a^4 |v^T v|^4,
    and 1 - |v^T v|^2 is Mauchly's sphericity statistic of the 2 x 2 real
    Wishart matrix of (Re v, Im v) (Ann. Math. Stat. 11, 204 (1940)), which
    is Beta((n-1)/2, 1); so P[delta^2 > eps] = (1 - sqrt(eps)/a^2)_+^((n-1)/2).
    """
    a = (z - 1.0 / z) / 2.0
    return 1.0 - np.maximum(1.0 - np.sqrt(eps) / (a * a), 0.0) ** ((n - 1) / 2.0)


def k1_moments(z, p: int) -> Fraction:
    """Exact E[lambda^(2p)] at k = 1 for the spectrum z, from the power sums
    of b alone, with no per-mode series.

    A Haar row is v = zeta/|zeta| with zeta a standard complex Gaussian, so
    lambda^2 = (B^2 - |A|^2)/G^2 with B = sum_j b_j |zeta_j|^2,
    A = sum_j a_j zeta_j^2 and G = |zeta|^2 ~ Gamma(n), independent of v:
    E lambda^(2p) = E[(B^2 - |A|^2)^p] / (n (n+1) ... (n+2p-1)).  The moment
    generating function E exp(s B + Re(conj(t) A)) of (B, A) is
    prod_j ((1 - s b_j)^2 - (b_j^2 - 1) rho)^(-1/2) with rho = |t|^2, as
    a_j^2 = b_j^2 - 1.  Its log is

        sum_(i>=1) P_i s^i / i
          + sum_(r>=1, i>=0) C(2r+i-1, i)/(2r) s^i rho^r sum_j (b_j^2 - 1)^r b_j^i,

    whose last sum expands into the power sums P_g = sum_j b_j^g, g <= 2p at
    the orders needed.  A's phase is uniform and independent of |A| and B,
    so E[B^m |A|^(2l)] = m! 4^l (l!)^2 [s^m rho^l] of the exponential, which
    is taken as a series truncated at weight i + 2r <= 2p.
    """
    _a, b = _ab_vectors(z)
    n, order = len(b), 2 * p
    sums = [sum(x**g for x in b) for g in range(order + 1)]
    log = Counter()
    for r in range(p + 1):
        for i in range(order - 2 * r + 1):
            if r == 0 and i > 0:
                log[i, 0] = sums[i] / i
            elif r > 0:
                mixed = sum(math.comb(r, u) * (-1) ** (r - u) * sums[2 * u + i] for u in range(r + 1))
                log[i, r] = Fraction(math.comb(2 * r + i - 1, i), 2 * r) * mixed
    mgf, term = Counter({(0, 0): Fraction(1)}), Counter({(0, 0): Fraction(1)})
    for j in range(1, order + 1):
        step = Counter()
        for (i1, r1), c1 in term.items():
            for (i2, r2), c2 in log.items():
                if i1 + i2 + 2 * (r1 + r2) <= order:
                    step[i1 + i2, r1 + r2] += c1 * c2 / j
        term = step
        mgf.update(term)
    moment = sum(
        math.comb(p, l) * (-1) ** l * math.factorial(order - 2 * l) * 4**l * math.factorial(l) ** 2
        * mgf[order - 2 * l, l]
        for l in range(p + 1)
    )
    return Fraction(moment) / math.prod(range(n, n + order))


def k1_f_moments(z, m: int) -> list:
    """Exact [E f, E f^2, ..., E f^m] at k = 1 for the spectrum z: with
    f = 2 (lambda^2 - lambda_bar^2)^2, E f^j = 2^j sum_i C(2j, i)
    E[lambda^(2i)] (-lambda_bar^2)^(2j - i), from k1_moments up to p = 2m."""
    _a, b = _ab_vectors(z)
    shift = -(sum(b) / len(b)) ** 2
    powers = [Fraction(1)] + [k1_moments(z, p) for p in range(1, 2 * m + 1)]
    return [
        2**j * sum(math.comb(2 * j, i) * powers[i] * shift ** (2 * j - i) for i in range(2 * j + 1))
        for j in range(1, m + 1)
    ]


def _reference_haar_rows(n: int, gen, k: int) -> np.ndarray:
    ginibre = gen.standard_normal((n, k)) + 1j * gen.standard_normal((n, k))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _reference_rows_covariance(V: np.ndarray, z) -> tuple:
    residual = float(np.abs(V @ V.conj().T - np.eye(V.shape[0])).max())
    if residual > UNITARITY_TOL:
        raise NonUnitaryInput(f"max |V V+ - I| = {residual:.3e} exceeds {UNITARITY_TOL}")
    k, n = V.shape
    W = np.empty((2 * k, 2 * n))
    W[:k, :n] = V.real
    W[:k, n:] = V.imag
    W[k:, :n] = -V.imag
    W[k:, n:] = V.real
    out = (W * np.concatenate([z, 1.0 / z])) @ W.T
    return 0.5 * (out + out.T), residual


def _reference_spectrum(M: np.ndarray) -> SymplecticSpectrum:
    k = M.shape[0] // 2
    if not np.array_equal(M, M.T):
        raise InvalidCovariance("covariance matrix is not symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise PairingFailure("covariance matrix is not positive definite") from None
    K = L.T @ np.vstack([-L[k:], L[:k]])
    w = np.linalg.eigvalsh(K.T @ K)[::-1]
    squares = w[0::2]
    lambdas = np.sqrt(np.maximum(squares, 0.0))
    if lambdas[-1] < 1.0 - WILLIAMSON_TOL:
        raise InvalidCovariance(f"symplectic eigenvalue {lambdas[-1]} below 1")
    return SymplecticSpectrum(lambdas, squares, float((squares - w[1::2]).max()))


# The spectrum route the package used before its Cholesky one: the eigenvalues
# of the non-symmetric J*M must come in pairs +-i*lambda_j.
PAIRING_RTOL = 1e-6  # times max-abs entry of M


def eigvals_spectrum(M: np.ndarray) -> tuple:
    """(lambdas sorted descending, max |Re eig(JM)|) of one covariance
    matrix from the eigenvalues of J*M; raises PairingFailure when they do
    not pair into +-i couples and InvalidCovariance below 1."""
    k = M.shape[0] // 2
    tol = PAIRING_RTOL * max(1.0, np.abs(M).max())
    w = np.linalg.eigvals(symplectic_form(k) @ M)
    residual = float(np.abs(w.real).max())
    if residual > tol:
        raise PairingFailure(f"max |Re eig(JM)| = {residual:.3e} exceeds {tol:.3e}")
    pos = np.sort(w.imag[w.imag > 0])[::-1]
    neg = np.sort(-w.imag[w.imag < 0])[::-1]
    if len(pos) != k or len(neg) != k or np.abs(pos - neg).max() > tol:
        raise PairingFailure(f"eigenvalues of JM do not pair into +-i couples at tol {tol:.3e}")
    if pos[-1] < 1.0 - WILLIAMSON_TOL:
        raise InvalidCovariance(f"symplectic eigenvalue {pos[-1]} below 1")
    return pos, residual


def reference_run_trial(z, k: int, rng, trial_id: int = 0) -> TrialRecord:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = z.size
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"k={k} outside 1..{n}")
    gen = _as_generator(rng)
    lam_bar = average_energy(z)
    # the first k columns of a Haar U are the first k rows of the Haar U^T
    V = _reference_haar_rows(n, gen, k).T
    M_red, purity_residual = _reference_rows_covariance(V, z)
    try:
        reduced = _reference_spectrum(M_red)
    except PairingFailure:
        nan = float("nan")
        return TrialRecord(
            trial_id=trial_id,
            n=n,
            k=k,
            lambda_bar=lam_bar,
            symplectic_spectrum=(nan,) * k,
            entropy=nan,
            f=nan,
            delta=nan,
            purity_residual=nan,
            tr_jm2=nan,
            tr_jm4=nan,
            flagged=True,
        )
    jm = symplectic_form(k) @ M_red
    P = jm @ jm
    tr_jm2 = float(np.trace(P).real)
    tr_jm4 = float(np.trace(P @ P).real)
    c = lam_bar * lam_bar
    f = tr_jm4 + 2.0 * c * tr_jm2 + 2.0 * k * c * c
    return TrialRecord(
        trial_id=trial_id,
        n=n,
        k=k,
        lambda_bar=lam_bar,
        symplectic_spectrum=tuple(float(x) for x in reduced.lambdas),
        entropy=gaussian_entropy(reduced),
        f=f,
        delta=spectral_deviation_delta(reduced, lam_bar),
        purity_residual=purity_residual,
        tr_jm2=tr_jm2,
        tr_jm4=tr_jm4,
        flagged=False,
    )


def reference_run_one(args) -> TrialRecord:
    spec, k, seed, trial_id = args
    gen = SeededStream(seed, trial_id).generator()
    # profile draws come off the same per-trial stream, before the unitary
    z = sample_profile(spec, gen)
    return reference_run_trial(z, k, gen, trial_id=trial_id)


def lipschitz_bound(z, k: int) -> float:
    """The proved ceiling for |f(U) - f(V)| / ||U - V||_F: the Lipschitz
    constant the measure-concentration tail bound on f is stated with."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return 32.0 * math.sqrt(2.0 * k) * float(np.max(z)) ** 4


def lipschitz_probe(z, k: int, pairs: int, rng) -> float:
    """Max observed difference quotient of f over random unitary pairs.

    Alternates independent Haar pairs with nearby pairs V = U expm(K), K a
    random skew-Hermitian step of Frobenius size log-uniform in [1e-4, 1e-1];
    the nearby pairs are what probe the local slope.  Distances use the
    Frobenius norm, matching the bound from lipschitz_bound.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = z.size
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"k={k} outside 1..{n}")
    if pairs < 1:
        raise DomainError(f"need pairs >= 1, got {pairs}")
    gen = _as_generator(rng)
    lam_bar = average_energy(z)

    def f_of(unitary):
        M_red, _residual = _reference_rows_covariance(unitary[:k], z)
        return concentration_f(M_red, lam_bar)

    worst = 0.0
    for i in range(pairs):
        U = _reference_haar_rows(n, gen, n)
        if i % 2 == 0:
            V = _reference_haar_rows(n, gen, n)
        else:
            A = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            K = 0.5 * (A - A.conj().T)
            size = np.linalg.norm(K)
            if size == 0.0:
                continue
            K *= 10.0 ** gen.uniform(-4.0, -1.0) / size
            V = U @ expm(K)
        dist = float(np.linalg.norm(U - V))
        if dist < 1e-13:
            continue
        worst = max(worst, abs(f_of(U) - f_of(V)) / dist)
    return worst


def summary_from_jsonable(payload: dict) -> RunSummary:
    """The inverse of harness.summary_to_jsonable."""
    # every field but tail_counts is an int or a float, restored by its type
    values = {
        name: kind(payload[name])
        for name, kind in get_type_hints(RunSummary).items()
        if name != "tail_counts"
    }
    values["tail_counts"] = {float(key): float(val) for key, val in payload["tail_counts"].items()}
    return RunSummary(**values)


def read_summary_json(path):
    """Read a summary JSON the CLI wrote, the inverse of summary_to_jsonable.

    Returns (RunSummary, provenance dict or None)."""
    with open(path) as handle:
        payload = json.load(handle)
    return summary_from_jsonable(payload), payload.get("provenance")


def table_from_records(records) -> TrialTable:
    """The TrialTable whose rows are records, which share n and k."""
    first = records[0]
    columns = (np.array([getattr(rec, name) for rec in records]) for name in _TABLE_COLUMNS)
    return TrialTable(first.n, first.k, *columns)


def reference_format_trials_csv(records, provenance: str | None = None) -> str:
    """The trial CSV text of a list of records, written row by row."""
    if not records:
        raise DomainError("refusing to format an empty trial list")
    k = records[0].k
    lines = []
    if provenance:
        lines.append("# " + provenance)
    lines.append(trial_csv_header(k))
    for r in records:
        if r.k != k:
            raise DomainError("records in one CSV must share k")
        # TRIAL_CSV_FIXED_COLUMNS in order, each cell the repr of its value as its field's type
        lines.append(
            f"{int(r.trial_id)!r},{int(r.n)!r},{int(r.k)!r},{float(r.lambda_bar)!r},"
            f"{float(r.entropy)!r},{float(r.f)!r},{float(r.delta)!r},"
            f"{float(r.purity_residual)!r},{','.join(map(repr, r.symplectic_spectrum))}"
        )
    return "\n".join(lines) + "\n"


def reference_summarize_records(records, seed: int, profile=None) -> RunSummary:
    """The RunSummary of a list of records, each column gathered record by
    record; the same checks as harness.summarize_records."""
    if not records:
        raise DomainError("cannot summarize an empty trial list")
    live = [r for r in records if not r.flagged]
    flagged = len(records) - len(live)
    first = records[0]
    if profile is not None and profile.is_deterministic:
        lambda_ref = float(average_energies(profile.fixed_spectrum()))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            lambda_ref = float(np.mean([r.lambda_bar for r in live or records]))

    f_vals = np.array([r.f for r in live])
    tr2 = np.array([r.tr_jm2 for r in live])
    tr4 = np.array([r.tr_jm4 for r in live])
    entropy = np.array([r.entropy for r in live])
    delta_sq = np.array([r.delta * r.delta for r in live])

    mean_f, se_f, _ = _mean_se_std(f_vals)
    mean_tr2, se_tr2, _ = _mean_se_std(tr2)
    mean_tr4, se_tr4, _ = _mean_se_std(tr4)
    mean_s, se_s, _ = _mean_se_std(entropy)
    std_s = _rescaled(np.std, entropy, ddof=1) if entropy.size >= 2 else float("nan")

    if math.isnan(lambda_ref):
        raise DomainError("trials need a lambda_bar that is a number, got nan")
    try:
        scale = lambda_ref ** 4
    except OverflowError:
        scale = math.inf
    if math.isinf(scale):
        raise DomainError(f"lambda_bar {lambda_ref!r} has a fourth power past the float range")
    tail_counts = {}
    for factor in TAIL_LADDER_FACTORS:
        eps = factor * scale
        tail_counts[eps] = float(np.mean(delta_sq > eps)) if live else float("nan")

    if live:
        fractions = [tail_counts[f * scale] for f in TAIL_LADDER_FACTORS]
        if not all(a >= b for a, b in zip(fractions, fractions[1:])):
            raise PairingFailure("tail fractions must not increase with the threshold")
        if math.isfinite(mean_f):
            for eps, q in tail_counts.items():
                if eps > 0.0:
                    bound = (max(mean_f, 0.0) / (2.0 * eps)) * (1.0 + 1e-9) + 1e-15
                    if not q <= bound:
                        raise PairingFailure(f"tail fraction {q} at eps={eps} beats Markov")

    return RunSummary(
        samples=len(records),
        n=first.n,
        k=first.k,
        lambda_bar=lambda_ref,
        seed=seed,
        flagged=flagged,
        mean_f=mean_f,
        se_f=se_f,
        mean_tr_jm2=mean_tr2,
        se_tr_jm2=se_tr2,
        mean_tr_jm4=mean_tr4,
        se_tr_jm4=se_tr4,
        mean_entropy=mean_s,
        se_entropy=se_s,
        std_entropy=std_s,
        tail_counts=tail_counts,
    )
