import numpy as np
import pytest
from scipy.stats import ks_2samp

from cvtypical.errors import DomainError
from cvtypical.haar import SeededStream, sample_haar_unitary


def full_unitary_reference(n, gen):
    """The full-unitary algorithm every frozen seed in the suite was drawn with."""
    ginibre = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_full_unitary_draw_is_pinned():
    """k = n, given or defaulted, reproduces the full-unitary draws bit for
    bit and consumes the generator as they did."""
    for n in (1, 2, 5, 16, 64):
        for k in (None, n):
            gen, ref = SeededStream(21, n).generator(), SeededStream(21, n).generator()
            for _ in range(2):
                assert np.array_equal(sample_haar_unitary(n, gen, k), full_unitary_reference(n, ref))


def test_samples_are_unitary():
    """n x k blocks have orthonormal columns; k = n is the full unitary."""
    gen = SeededStream(1).generator()
    for n in (1, 2, 5, 16):
        for k in sorted({1, (n + 1) // 2, n}, reverse=True):
            U = sample_haar_unitary(n, gen, k)
            assert U.shape == (n, k)
            assert np.max(np.abs(U.conj().T @ U - np.eye(k))) < 1e-12


def test_rejects_nonpositive_dimension():
    with pytest.raises(DomainError):
        sample_haar_unitary(0, SeededStream(1).generator())
    for k in (0, 4):
        with pytest.raises(DomainError):
            sample_haar_unitary(3, SeededStream(1).generator(), k)


def test_stream_determinism():
    for k in (6, 2):
        a = sample_haar_unitary(6, SeededStream(42, 7).generator(), k)
        b = sample_haar_unitary(6, SeededStream(42, 7).generator(), k)
        assert np.array_equal(a, b)


def test_streams_are_distinct():
    for k in (6, 1):
        a = sample_haar_unitary(6, SeededStream(42, 0).generator(), k)
        b = sample_haar_unitary(6, SeededStream(42, 1).generator(), k)
        c = sample_haar_unitary(6, SeededStream(43, 0).generator(), k)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_accepts_plain_generator():
    gen = np.random.Generator(np.random.Philox(key=[5, 0]))
    U = sample_haar_unitary(3, gen)
    assert np.max(np.abs(U.conj().T @ U - np.eye(3))) < 1e-12


def test_rejects_other_rng_types():
    with pytest.raises(DomainError):
        sample_haar_unitary(3, np.random.RandomState(0))


def test_entry_second_moment():
    """E|u_00|^2 = 1/n for the invariant measure, whatever the column count."""
    n, trials = 3, 4000
    gen = SeededStream(2).generator()
    for k in (n, 1):
        vals = np.empty(trials)
        for t in range(trials):
            vals[t] = abs(sample_haar_unitary(n, gen, k)[0, 0]) ** 2
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
            traces[t] = np.trace(sample_haar_unitary(n, gen, k)[:k])
        se_re = traces.real.std(ddof=1) / np.sqrt(trials)
        se_im = traces.imag.std(ddof=1) / np.sqrt(trials)
        assert abs(traces.real.mean()) < 4.0 * se_re, k
        assert abs(traces.imag.mean()) < 4.0 * se_im, k


def test_left_invariance_of_entry_distribution():
    """|((WU))_00|^2 and |U_00|^2 must share one distribution for fixed W."""
    n, trials = 4, 2000
    gen = SeededStream(4).generator()
    W = sample_haar_unitary(n, gen)
    plain = np.empty(trials)
    shifted = np.empty(trials)
    for t in range(trials):
        U = sample_haar_unitary(n, gen)
        plain[t] = abs(U[0, 0]) ** 2
        shifted[t] = abs((W @ U)[0, 0]) ** 2
    assert ks_2samp(plain, shifted).pvalue > 1e-3
