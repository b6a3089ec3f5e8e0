"""Reproducible sampling of Haar-distributed unitaries.

Randomness comes from counter-based Philox streams keyed by (seed, stream_id),
so trial t of a run with master seed s always sees the same, statistically
independent stream regardless of scheduling. A block of trials draws its
Ginibre blocks off those streams, and haar_columns turns the whole stack
into the first k columns of Haar unitaries at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["SeededStream", "haar_columns"]

_MASK64 = (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return _reseat(np.random.Generator(np.random.Philox(key=0)), self.seed, self.stream_id)


def _reseat(gen: np.random.Generator, seed: int, stream_id: int) -> np.random.Generator:
    """Point gen, a Philox-backed generator, at the start of stream
    (seed, stream_id), the one place a stream is keyed.

    Key, counter 0 and an empty output buffer are the whole state of a fresh
    Philox, so gen then draws exactly what a new generator keyed with the
    two exact 64-bit halves [seed, stream_id] mod 2^64 would, at a fraction
    of the cost of building one.
    """
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, SeededStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected SeededStream or numpy Generator, got {type(rng).__name__}")


def haar_columns(ginibre: np.ndarray) -> np.ndarray:
    """The first k columns of a Haar unitary from each n x k Ginibre block
    (iid standard complex Gaussians) in a stack (..., n, k).

    Takes the QR factorization of each block and rephases each column of Q
    so the diagonal of R becomes real positive. The rephasing is what makes
    the distribution Haar; plain QR is biased. QR orthonormalizes the
    columns left to right, so an n x k block gives what the first k columns
    of an n x n draw would: the first k columns of a Haar unitary
    (Mezzadri, Notices AMS 54 (2007), arXiv:math-ph/0609050), at O(n k^2)
    cost.
    """
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
