#!/usr/bin/env python3
"""Sanity checks on the Haar sampler: unitarity, phase invariance, and
the two first moments with known exact values."""

import numpy as np

from cvtypical.haar import SeededStream, haar_columns

N = 6
TRIALS = 20_000
SEED = 42


def haar_stack(gen, count):
    """count Haar unitaries of size N x N, drawn as a block of trials draws
    them: the real parts, then the imaginary parts of each Ginibre block."""
    draws = gen.standard_normal((count, 2, N, N))
    return haar_columns(draws[:, 0] + 1j * draws[:, 1])


def main():
    gen = SeededStream(SEED).generator()

    (U,) = haar_stack(gen, 1)
    err = np.max(np.abs(U @ U.conj().T - np.eye(N)))
    print(f"single sample, unitarity residual: {err:.2e}")

    stack = haar_stack(gen, TRIALS)
    mean_trace = np.trace(stack, axis1=1, axis2=2).mean()
    mean_corner = (np.abs(stack[:, 0, 0]) ** 2).mean()

    # E tr U = 0; a biased QR convention would show up here
    print(f"mean trace over {TRIALS} samples: "
          f"{mean_trace.real:+.4f} {mean_trace.imag:+.4f}i (exact 0)")
    print(f"mean |U_00|^2: {mean_corner:.5f} (exact 1/n = {1 / N:.5f})")

    (V,) = haar_stack(SeededStream(SEED).generator(), 1)
    (W,) = haar_stack(SeededStream(SEED, 1).generator(), 1)
    print("same key reproduces the sample:",
          bool(np.array_equal(V, haar_stack(SeededStream(SEED).generator(), 1)[0])))
    print("different stream id gives a different sample:",
          not np.allclose(V, W))


if __name__ == "__main__":
    main()
