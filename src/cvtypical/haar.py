"""Reproducible sampling of Haar-distributed unitaries.

Randomness comes from counter-based Philox streams keyed by (seed, stream_id),
two exact 64-bit halves, so trial t of a run with master seed s always sees
the same, statistically independent stream regardless of scheduling. A block
of trials draws its Ginibre blocks off those streams, and haar_columns turns
the whole stack into the first k columns of Haar unitaries at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_int

# A seed and a stream id are each an exact 64-bit half of a Philox key:
# _stream_keys refuses any outside 0..SEED_LIMIT-1, as the CLI's seed flags do.
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=_stream_keys(self.seed, [self.stream_id])[0]))


def _stream_keys(seed: int, stream_ids) -> np.ndarray:
    """The (B, 2) uint64 Philox keys [seed, t], exact 64-bit halves, of the
    streams for t in the ascending stream_ids: the one place a stream is
    keyed, and a seed or an id outside 0..2^64-1 is a DomainError here.  A
    fresh Philox's state is key, counter 0 and empty buffer, so that state
    with a row as key draws what a Philox keyed with it would, cheaply."""
    ends = [*stream_ids[:1], *stream_ids[-1:]]  # ascending, so they bound the rest
    for name, value in zip(("seed", "stream_id", "stream_id"), (seed, *ends)):
        if not 0 <= as_int(name, value) < SEED_LIMIT:
            raise DomainError(f"{name}={value} outside 0..2^64-1")
    keys = np.empty((len(stream_ids), 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = stream_ids
    return keys


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
