import numpy as np
import pytest
from scipy.stats import ks_2samp

from cvtypical.errors import DomainError
from cvtypical.haar import SeededStream, haar_columns
from cvtypical.harness import run_trial


def haar_block(n, gen, k=None):
    """haar_columns on a stack of one n x k Ginibre block, drawn off gen as
    a trial draws it: the real parts, then the imaginary parts."""
    draws = gen.standard_normal((1, 2, n, n if k is None else k))
    (U,) = haar_columns(draws[:, 0] + 1j * draws[:, 1])
    return U


def full_unitary_reference(n, gen):
    """The full-unitary algorithm every frozen seed in the suite was drawn with."""
    ginibre = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_full_unitary_draw_is_pinned():
    """k = n reproduces the full-unitary draws bit for bit and consumes the
    generator as they did."""
    for n in (1, 2, 5, 16, 64):
        gen, ref = SeededStream(21, n).generator(), SeededStream(21, n).generator()
        for _ in range(2):
            assert np.array_equal(haar_block(n, gen), full_unitary_reference(n, ref))


def test_samples_are_unitary():
    """n x k blocks have orthonormal columns; k = n is the full unitary."""
    gen = SeededStream(1).generator()
    for n in (1, 2, 5, 16):
        for k in sorted({1, (n + 1) // 2, n}, reverse=True):
            U = haar_block(n, gen, k)
            assert U.shape == (n, k)
            assert np.max(np.abs(U.conj().T @ U - np.eye(k))) < 1e-12


def test_stream_determinism():
    for k in (6, 2):
        a = haar_block(6, SeededStream(42, 7).generator(), k)
        b = haar_block(6, SeededStream(42, 7).generator(), k)
        assert np.array_equal(a, b)


def test_streams_are_distinct():
    for k in (6, 1):
        a = haar_block(6, SeededStream(42, 0).generator(), k)
        b = haar_block(6, SeededStream(42, 1).generator(), k)
        c = haar_block(6, SeededStream(43, 0).generator(), k)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_rejects_other_rng_types():
    """A trial is one (seed, trial_id) stream of an ensemble; a generator,
    a plain Philox one too, names no stream."""
    for rng in (np.random.RandomState(0), np.random.Generator(np.random.Philox(key=[5, 0]))):
        with pytest.raises(DomainError):
            run_trial([2.0, 1.0, 1.0], 2, rng)


def test_entry_second_moment():
    """E|u_00|^2 = 1/n for the invariant measure, whatever the column count."""
    n, trials = 3, 4000
    gen = SeededStream(2).generator()
    for k in (n, 1):
        vals = np.empty(trials)
        for t in range(trials):
            vals[t] = abs(haar_block(n, gen, k)[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(trials)
        assert abs(vals.mean() - 1.0 / n) < 4.0 * se, k


def test_trace_is_centered():
    """E tr U[:k, :k] = 0; a QR factorization without the phase fix misses
    by O(k)."""
    n, trials = 3, 3000
    gen = SeededStream(3).generator()
    for k in (n, 2, 1):
        traces = np.empty(trials, dtype=complex)
        for t in range(trials):
            traces[t] = np.trace(haar_block(n, gen, k)[:k])
        se_re = traces.real.std(ddof=1) / np.sqrt(trials)
        se_im = traces.imag.std(ddof=1) / np.sqrt(trials)
        assert abs(traces.real.mean()) < 4.0 * se_re, k
        assert abs(traces.imag.mean()) < 4.0 * se_im, k


def test_left_invariance_of_entry_distribution():
    """|((WU))_00|^2 and |U_00|^2 must share one distribution for fixed W."""
    n, trials = 4, 2000
    gen = SeededStream(4).generator()
    W = haar_block(n, gen)
    plain = np.empty(trials)
    shifted = np.empty(trials)
    for t in range(trials):
        U = haar_block(n, gen)
        plain[t] = abs(U[0, 0]) ** 2
        shifted[t] = abs((W @ U)[0, 0]) ** 2
    assert ks_2samp(plain, shifted).pvalue > 1e-3
