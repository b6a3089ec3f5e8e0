"""Reproducible sampling of Haar-distributed unitaries.

Randomness comes from counter-based Philox streams keyed by (seed, stream_id),
so trial t of a run with master seed s always sees the same, statistically
independent stream regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["SeededStream", "sample_haar_unitary"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, SeededStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected SeededStream or numpy Generator, got {type(rng).__name__}")


def sample_haar_unitary(n: int, rng, k: int | None = None) -> np.ndarray:
    """Draw the first k columns of an n x n unitary from the Haar measure.

    Fills an n x k matrix with iid standard complex Gaussians, takes its QR
    factorization, and rephases each column of Q so the diagonal of R becomes
    real positive. The rephasing is what makes the distribution Haar; plain QR
    is biased. QR orthonormalizes the columns left to right, so an n x k
    block gives what the first k columns of an n x n draw would: the first k
    columns of a Haar unitary (Mezzadri, Notices AMS 54 (2007),
    arXiv:math-ph/0609050), at O(n k^2) cost.

    Args:
        n: matrix dimension, >= 1.
        rng: a SeededStream or an already-constructed numpy Generator (the
            latter is consumed in place, for callers interleaving draws).
        k: column count, 1 <= k <= n; the default n draws the full unitary.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= {n}, got k={k}")
    gen = _as_generator(rng)
    ginibre = gen.standard_normal((n, k)) + 1j * gen.standard_normal((n, k))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
