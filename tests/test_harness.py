import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

import cvtypical
import cvtypical.harness as harness
from cvtypical.errors import (
    DomainError,
    InvalidCovariance,
    InvalidSubsystem,
    NonUnitaryInput,
    PairingFailure,
)
from cvtypical.haar import SeededStream, _reseat, sample_haar_unitary
from cvtypical.harness import (
    FLAG_BUDGET,
    TAIL_LADDER_FACTORS,
    RunSummary,
    TrialRecord,
    concentration_sweep,
    format_trials_csv,
    json_text,
    lipschitz_bound,
    read_summary_json,
    read_trials_csv,
    run_ensemble,
    run_trial,
    summarize_records,
    summary_from_jsonable,
    summary_to_jsonable,
    trial_csv_header,
    validate_trial_record,
    write_trials_csv,
)
from cvtypical.moments import (
    expected_f_exact,
    fourth_moment_trace_exact,
    moment_inputs_from_spectrum,
    second_moment_trace_exact,
)
from cvtypical.profiles import (
    ScalingConfig,
    constant_profile,
    microcanonical_profile,
    parse_profile,
)
from cvtypical.symplectic import (
    NOT_FINITE_SYMMETRIC,
    NOT_POSITIVE_DEFINITE,
    SymplecticSpectrum,
    average_energy,
    reduced_covariance_from_rows,
    symplectic_spectrum,
)
import oracles
from oracles import (
    concentration_f,
    entropy_G,
    eta_embed,
    fiducial_covariance,
    lipschitz_probe,
    reduce_covariance,
    reference_run_one,
    rotate_covariance,
)


def test_vacuum_trial_is_exactly_boring():
    """Rotating the vacuum goes nowhere: flat spectrum, zero entropy, zero f."""
    rec = run_trial(np.ones(4), 2, SeededStream(0))
    assert not rec.flagged
    assert rec.lambda_bar == 1.0
    assert np.max(np.abs(np.array(rec.symplectic_spectrum) - 1.0)) < 1e-12
    assert rec.entropy == 0.0
    assert abs(rec.f_value) < 1e-12
    assert rec.delta < 1e-6
    assert rec.purity_residual < 1e-12


def test_trial_is_bit_reproducible():
    a = run_trial([3.0, 1.0, 1.0, 1.0], 1, SeededStream(12, 5), trial_id=5)
    b = run_trial([3.0, 1.0, 1.0, 1.0], 1, SeededStream(12, 5), trial_id=5)
    assert a == b


@pytest.mark.parametrize("n, k", [(4, 1), (6, 3), (9, 9)])
def test_trial_matches_full_state_path(n, k):
    """run_trial's k Haar rows, completed to a full unitary, give the same
    reduced state through the full-state composition."""
    z = np.linspace(1.0, 4.0, n)
    rec = run_trial(z, k, SeededStream(61, n), trial_id=n)
    V = sample_haar_unitary(n, SeededStream(61, n), k).T  # the rows the trial drew
    U = np.vstack([V, null_space(V).conj().T])
    M = rotate_covariance(fiducial_covariance(z), eta_embed(U))
    assert np.max(np.abs(symplectic_spectrum(M).lambdas - 1.0)) <= 1e-10
    M_red = reduce_covariance(M, k)
    lambdas = symplectic_spectrum(M_red).lambdas
    assert np.max(np.abs(np.array(rec.symplectic_spectrum) - lambdas)) <= 1e-12 * lambdas.max()
    lam_bar = average_energy(z)
    assert rec.f_value == pytest.approx(concentration_f(M_red, lam_bar), abs=1e-10 * lam_bar**4)
    assert 0.0 <= rec.purity_residual <= 1e-13


def test_trial_rejects_bad_subsystem():
    with pytest.raises(InvalidSubsystem):
        run_trial(np.ones(3), 0, SeededStream(0))
    with pytest.raises(InvalidSubsystem):
        run_trial(np.ones(3), 4, SeededStream(0))


def test_trial_invariants_hold_in_bulk():
    z = np.array([3.0, 2.0, 1.0, 1.0, 1.0])
    gen = SeededStream(31).generator()
    cap = 2 * entropy_G(3.0)  # k modes, each eigenvalue at most max(z)
    for t in range(200):
        rec = run_trial(z, 2, gen, trial_id=t)
        validate_trial_record(rec)
        assert 0.0 <= rec.entropy <= cap + 1e-12
        assert all(lam >= 1.0 - 1e-10 for lam in rec.symplectic_spectrum)


def test_validate_trial_record_flags_violations():
    rec = run_trial(np.ones(3), 1, SeededStream(1))
    validate_trial_record(rec)
    broken = dataclasses.replace(rec, f_value=rec.f_value + 1.0)
    with pytest.raises(PairingFailure):
        validate_trial_record(broken)
    impure = dataclasses.replace(rec, purity_residual=1e-3)
    with pytest.raises(PairingFailure):
        validate_trial_record(impure)
    # flagged records are exempt: their fields are NaN by construction
    validate_trial_record(dataclasses.replace(broken, flagged=True))


def test_two_mode_splitter_respects_energy_ceiling():
    """On two modes every passive rotation keeps lambda_1 under the mode energy.

    For z = (z, 1) the reduced single-mode eigenvalue satisfies
    1 <= lambda_1 <= (z + 1/z)/2, and the real-rotation family attains its
    maximum (sqrt(z) + 1/sqrt(z))/2 ... squared ... at the balanced splitter.
    """
    z = 3.0
    fiducial = fiducial_covariance([z, 1.0])
    ceiling = 0.5 * (z + 1.0 / z)
    seen = []
    for theta in np.linspace(0.0, np.pi, 181):
        U = np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        M = rotate_covariance(fiducial, eta_embed(U))
        lam1 = symplectic_spectrum(reduce_covariance(M, 1)).lambdas[0]
        assert 1.0 - 1e-12 <= lam1 <= ceiling + 1e-12
        seen.append(lam1)
    balanced = 0.5 * (np.sqrt(z) + 1.0 / np.sqrt(z))
    assert max(seen) == pytest.approx(balanced, rel=1e-6)
    # complex rotations obey the same ceiling
    gen = SeededStream(32).generator()
    for _ in range(300):
        U = sample_haar_unitary(2, gen)
        M = rotate_covariance(fiducial, eta_embed(U))
        lam1 = symplectic_spectrum(reduce_covariance(M, 1)).lambdas[0]
        assert 1.0 - 1e-12 <= lam1 <= ceiling + 1e-12


def test_vacuum_ensemble_summary():
    summary, records = run_ensemble(constant_profile(1.0, 4), 2, 64, seed=9)
    assert summary.samples == 64
    assert summary.flagged == 0
    assert summary.lambda_bar == 1.0
    assert abs(summary.mean_f) < 1e-12
    assert summary.mean_entropy == 0.0
    assert summary.std_entropy == 0.0
    assert all(q == 0.0 for q in summary.tail_counts.values())
    assert len(records) == 64


def test_ensemble_mean_matches_exact_moments():
    z = (3.0, 1.0, 1.0, 1.0)
    mi = moment_inputs_from_spectrum((3, 1, 1, 1), 1)
    summary, _ = run_ensemble(z, 1, 4000, seed=17)
    for mean, se, exact in (
        (summary.mean_tr_jm2, summary.se_tr_jm2, second_moment_trace_exact(mi)),
        (summary.mean_tr_jm4, summary.se_tr_jm4, fourth_moment_trace_exact(mi)),
        (summary.mean_f, summary.se_f, expected_f_exact(mi)),
    ):
        assert abs(mean - float(exact)) < 5.0 * se


def test_worker_count_is_invisible(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)  # three threads on any host
    shapes = [
        (microcanonical_profile(16.0, 3), 2, 40),
        # blocks of 16 trials at one worker, so every worker takes several
        (microcanonical_profile(600.0, 256), 16, 100),
    ]
    for spec, k, samples in shapes:
        s1, r1 = run_ensemble(spec, k, samples, seed=5, workers=1)
        for workers in (2, 3):
            s2, r2 = run_ensemble(spec, k, samples, seed=5, workers=workers)
            assert r1 == r2
            assert s1 == s2


def test_workers_are_threads_in_this_process(monkeypatch):
    """Worker threads fork nothing and are all gone when run_ensemble
    returns or raises."""
    def no_fork():
        raise AssertionError("run_ensemble forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
    spec = microcanonical_profile(600.0, 256)
    before = threading.active_count()
    run_ensemble(spec, 16, 60, seed=2, workers=3)
    assert threading.active_count() == before
    _poison_trial_ids(monkeypatch, {20})
    with pytest.raises(DomainError, match="^trial 20: "):
        run_ensemble(spec, 16, 60, seed=2, workers=3)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "n, k, cpus, workers, threads",
    [
        (256, 16, 2, 8, 2),  # no more threads than CPUs
        (256, 16, 4, 3, 3),
        (256, 16, 1, 2, 1),
        (16, 16, 4, 2, 1),  # a full BLOCK_TRIALS block runs on the calling thread
    ],
)
def test_thread_count_follows_the_cpus_and_the_block(monkeypatch, n, k, cpus, workers, threads):
    """min(workers, CPUs) threads where n k shrinks a block below
    BLOCK_TRIALS, else none; blocks are sized from that count, and the
    records do not depend on it."""
    made, sizes = [], []
    real_block = harness._run_block

    class Recording(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    def recording_block(block):
        sizes.append(block[4] - block[3])
        return real_block(block)

    spec = microcanonical_profile(600.0, n)
    _, expected = run_ensemble(spec, k, 300, seed=4)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(harness, "_run_block", recording_block)
    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    _, records = run_ensemble(spec, k, 300, seed=4, workers=workers)
    assert made == ([] if threads == 1 else [threads])
    assert max(sizes) == -(-harness._block_size(n, k) // threads)
    assert records == expected


def test_cpu_count_is_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert harness._cpu_count() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._cpu_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._cpu_count() == 1


def test_seed_changes_the_ensemble():
    s1, _ = run_ensemble(constant_profile(2.0, 4), 1, 30, seed=1)
    s2, _ = run_ensemble(constant_profile(2.0, 4), 1, 30, seed=2)
    assert s1.mean_f != s2.mean_f


def test_tail_ladder_shape():
    z = (4.0,) + (1.0,) * 5
    summary, records = run_ensemble(z, 1, 500, seed=23)
    scale = summary.lambda_bar**4
    assert set(summary.tail_counts) == {f * scale for f in TAIL_LADDER_FACTORS}
    fractions = [summary.tail_counts[f * scale] for f in TAIL_LADDER_FACTORS]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    for eps, q in summary.tail_counts.items():
        assert q <= summary.mean_f / (2.0 * eps) + 1e-12
    # the ladder actually splits this ensemble instead of sitting at 0 or 1
    assert fractions[0] > 0.0


def poisoned_spectrum(poison):
    """Wrap the real stacked spectrum routine so the matrices at chosen
    positions, counted across calls, are not positive definite."""
    state = {"matrices": 0}
    real = symplectic_spectrum

    def wrapper(M):
        spectrum, codes = real(M)
        start = state["matrices"]
        state["matrices"] += len(codes)
        positions = np.arange(start, start + len(codes))
        return spectrum, np.where(np.isin(positions, list(poison)), NOT_POSITIVE_DEFINITE, codes)

    return wrapper


def test_flag_budget_enforced(monkeypatch):
    # first two trials fail: 2 flagged of 1000 beats the 0.1% budget
    monkeypatch.setattr(harness, "symplectic_spectrum", poisoned_spectrum({0, 1}))
    with pytest.raises(PairingFailure):
        run_ensemble(constant_profile(1.0, 2), 1, 1000, seed=3)


def test_flagged_trials_are_reported_not_dropped(monkeypatch):
    monkeypatch.setattr(harness, "symplectic_spectrum", poisoned_spectrum({0, 1}))
    summary, records = run_ensemble(constant_profile(1.0, 2), 1, 2000, seed=3)
    assert summary.flagged == 2 == int(FLAG_BUDGET * 2000)
    assert summary.samples == 2000
    assert records[0].flagged and records[1].flagged
    assert math.isnan(records[0].f_value)
    assert math.isnan(records[0].entropy)
    # aggregates come from the live trials only
    assert math.isfinite(summary.mean_f)
    assert summary.mean_entropy == 0.0


# (profile, n from context, k): every shape of the block kernel's reference
# check; random profiles draw their spectrum off the trial's stream first.
KERNEL_GRID = (
    ("fixed:3,1,1,1", None, 1),
    ("fixed:3,1,1,1,1,1,1,1", None, 2),
    ("micro:50", 16, 4),
    ("canonical:50", 16, 4),
    ("constant:2.0x32", None, 1),
    ("micro:200", 64, 8),
    ("canonical:400", 128, 11),
    ("constant:1.7x256", None, 16),
)
POISONED_TRIAL = 5  # in the middle of the first block at every shape


@pytest.mark.parametrize("profile, n, k", KERNEL_GRID)
def test_block_kernel_matches_trial_by_trial_reference(monkeypatch, profile, n, k):
    """Records from the block kernel are repr-equal to the trial-by-trial
    pipeline's, over blocks of every fill and with one trial flagged."""
    spec = parse_profile(profile, n=n)
    samples = harness._block_size(spec.n, k) + 3  # a full block and a partial one
    monkeypatch.setattr(harness, "FLAG_BUDGET", 1.0)  # the poisoned trial is over budget
    for seed in (0, 77, 2**41 + 9):
        monkeypatch.setattr(harness, "symplectic_spectrum", poisoned_spectrum({POISONED_TRIAL}))
        _, records = run_ensemble(spec, k, samples, seed)
        monkeypatch.setattr(
            oracles, "_reference_spectrum", poisoned_reference({POISONED_TRIAL})
        )
        reference = [reference_run_one((spec, k, seed, t)) for t in range(samples)]
        assert records[POISONED_TRIAL].flagged
        assert repr(records) == repr(reference)


@pytest.mark.parametrize("profile, n, k", KERNEL_GRID)
def test_cholesky_spectrum_matches_the_eigvals_route(profile, n, k):
    """The package's Cholesky route against the earlier eigenvalues-of-J*M
    route, on the reduced states of the block kernel's shapes."""
    spec = parse_profile(profile, n=n)
    stack = []
    for t in range(16):
        gen = SeededStream(5, t).generator()
        z = oracles.sample_profile(spec, gen)
        rows = sample_haar_unitary(spec.n, gen, k).T
        stack.append(reduced_covariance_from_rows(rows, z)[0])
    spectrum, _codes = symplectic_spectrum(np.array(stack))
    for M, lambdas in zip(stack, spectrum.lambdas):
        expected, _residual = oracles.eigvals_spectrum(M)
        assert np.allclose(lambdas, expected, rtol=1e-12, atol=0.0)


def poisoned_reference(poison):
    """The reference spectrum, failing on chosen call indices (one call per
    trial)."""
    state = {"calls": 0}
    real = oracles._reference_spectrum

    def wrapper(M):
        index = state["calls"]
        state["calls"] += 1
        if index in poison:
            raise PairingFailure(f"poisoned call {index}")
        return real(M)

    return wrapper


def test_run_trial_matches_reference():
    z = [3.0, 1.5, 1.0, 1.0, 1.0]
    gen, ref_gen = SeededStream(40, 2).generator(), SeededStream(40, 2).generator()
    for t in range(20):
        # both consume their generator in place, trial after trial
        assert repr(run_trial(z, 2, gen, trial_id=t)) == repr(
            oracles.reference_run_trial(z, 2, ref_gen, trial_id=t)
        )


@pytest.mark.parametrize("seed", [0, 12, -3, 2**40 + 1, 2**64 + 5])
def test_reseated_stream_draws_what_a_fresh_one_does(seed):
    """A re-seated generator and SeededStream.generator() both draw what a
    Philox keyed directly with the two exact uint64 halves draws."""
    gen = SeededStream(99, 99).generator()
    gen.standard_normal(7)  # leave it mid-buffer
    mask = (1 << 64) - 1
    for stream_id in (0, 1, 2**33, -1):
        key = np.array([seed & mask, stream_id & mask], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        stream = SeededStream(seed, stream_id).generator()
        reseated = _reseat(gen, seed, stream_id)
        for draw in ("standard_normal", "standard_exponential", "random"):
            expected = getattr(fresh, draw)(5)
            assert np.array_equal(getattr(reseated, draw)(5), expected)
            assert np.array_equal(getattr(stream, draw)(5), expected)
        expected = fresh.integers(2**62)
        assert reseated.integers(2**62) == expected and stream.integers(2**62) == expected


def _poison_domain(monkeypatch, trial):
    """Make the spectrum of one trial, its row counted across calls of the
    stacked profile transform, not finite."""
    real = harness.spectra_from_exponentials
    state = {"rows": 0}

    def wrapper(spec, g):
        z = real(spec, g)
        start = state["rows"]
        state["rows"] += len(z)
        if start <= trial < start + len(z):
            z = z.copy()
            z[trial - start, 0] = math.inf
        return z

    monkeypatch.setattr(harness, "spectra_from_exponentials", wrapper)


def _poison_rows(monkeypatch, trial):
    """Give one trial's rows a residual above UNITARITY_TOL; the run is one
    block, so the trial's position in it is its id."""
    real = harness.reduced_covariance_from_rows

    def wrapper(V, z):
        M_red, residuals = real(V, z)
        residuals[trial] = 1.0
        return M_red, residuals

    monkeypatch.setattr(harness, "reduced_covariance_from_rows", wrapper)


def _poison_covariance(monkeypatch, trial):
    """Mark one trial's reduced covariance not finite and symmetric."""
    real = harness.symplectic_spectrum

    def wrapper(M):
        spectrum, codes = real(M)
        codes[trial] = NOT_FINITE_SYMMETRIC
        return spectrum, codes

    monkeypatch.setattr(harness, "symplectic_spectrum", wrapper)


_POISONS = {
    DomainError: _poison_domain,
    NonUnitaryInput: _poison_rows,
    InvalidCovariance: _poison_covariance,
}


@pytest.mark.parametrize("first", list(_POISONS))
@pytest.mark.parametrize("second", list(_POISONS))
def test_block_raises_the_first_failing_trials_error(monkeypatch, first, second):
    """Two trials of one block fail; the error is the earlier trial's, as a
    trial-by-trial loop would raise it, whatever stage each fails in."""
    spec = microcanonical_profile(12.0, 4)
    assert harness._block_size(4, 1) > 20
    _POISONS[second](monkeypatch, 11)
    _POISONS[first](monkeypatch, 4)
    with pytest.raises(first, match="^trial 4: "):
        run_ensemble(spec, 1, 20, seed=8)


def test_a_failing_block_runs_each_stage_once(monkeypatch):
    """Trial 11 of a one-block run fails its spectrum; the trials ahead of
    it are not run a second time to look for an earlier error."""
    _poison_covariance(monkeypatch, 11)
    calls = []
    for name in ("reduced_covariance_from_rows", "symplectic_spectrum"):
        real = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    with pytest.raises(InvalidCovariance, match="^trial 11: "):
        run_ensemble(microcanonical_profile(12.0, 4), 1, 20, seed=8)
    assert sorted(calls) == ["reduced_covariance_from_rows", "symplectic_spectrum"]


def _poison_trial_ids(monkeypatch, poison, slow=frozenset()):
    """Give the trials with the chosen ids an infinite lambda_bar, whichever
    block and thread runs them; a block holding an id in `slow` first sleeps,
    so that later blocks fail before it does."""
    real = harness._block_records

    def wrapper(z, lam_bars, draws, k, trial_ids):
        if not slow.isdisjoint(trial_ids):
            time.sleep(0.05)
        lam_bars = [math.inf if t in poison else lam for t, lam in zip(trial_ids, lam_bars)]
        return real(z, lam_bars, draws, k, trial_ids)

    monkeypatch.setattr(harness, "_block_records", wrapper)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_block_raises_whatever_the_thread_timing(monkeypatch, workers):
    """Trials 20 and 45 fail in different blocks; the block holding 20
    fails last in time, yet its error is the one raised."""
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
    spec = microcanonical_profile(600.0, 256)
    assert harness._block_size(256, 16) == 16
    _poison_trial_ids(monkeypatch, {20, 45}, slow={20})
    with pytest.raises(DomainError, match=r"^trial 20: lambda_bar = inf "):
        run_ensemble(spec, 16, 60, seed=8, workers=workers)


def _poison_entropy(monkeypatch, trial):
    """Give one trial a spectrum below 1 - PURE_CLAMP (but above the
    Williamson slack), which only its entropy rejects."""
    real = harness.symplectic_spectrum

    def wrapper(M):
        (lams, squares, gaps), codes = real(M)
        lams[trial] = 1.0 - 1e-7
        squares[trial] = lams[trial] * lams[trial]
        return SymplecticSpectrum(lams, squares, gaps), codes

    monkeypatch.setattr(harness, "symplectic_spectrum", wrapper)


@pytest.mark.parametrize("entropy_first", [True, False])
@pytest.mark.parametrize("other", list(_POISONS))
def test_block_raises_an_entropy_error_in_trial_order(monkeypatch, entropy_first, other):
    """A trial whose entropy fails and a trial failing in any other stage:
    the earlier one's error is raised, as a trial-by-trial loop would."""
    spec = microcanonical_profile(12.0, 4)
    first, second = (4, 11) if entropy_first else (11, 4)
    _POISONS[other](monkeypatch, second)
    _poison_entropy(monkeypatch, first)
    if entropy_first:
        with pytest.raises(DomainError, match=r"^trial 4: need lambda >= 1, got 0\.9999999$"):
            run_ensemble(spec, 1, 20, seed=8)
    else:
        with pytest.raises(other, match="^trial 4: "):
            run_ensemble(spec, 1, 20, seed=8)


def test_summarize_rejects_empty():
    with pytest.raises(DomainError):
        summarize_records([], seed=0)


def test_single_record_has_nan_errors():
    rec = run_trial(np.ones(3), 1, SeededStream(2))
    summary = summarize_records([rec], seed=0)
    assert summary.samples == 1
    assert math.isnan(summary.se_f)
    assert math.isnan(summary.std_entropy)


def test_summarize_rejects_tails_beyond_markov():
    """f = 0 with delta = 10 puts every trial in every tail, which the Markov
    bound from mean_f forbids; the check must raise, also under python -O."""
    fields = dict(
        n=2, k=1, lambda_bar=1.0, symplectic_spectrum=(1.0,), entropy=0.0,
        f_value=0.0, delta=10.0, purity_residual=0.0, tr_jm2=0.0, tr_jm4=0.0,
    )
    records = [TrialRecord(trial_id=t, **fields) for t in range(3)]
    with pytest.raises(PairingFailure, match="Markov"):
        summarize_records(records, seed=0)

    code = (
        "assert False, 'this run must strip asserts'\n"
        "from cvtypical.harness import TrialRecord, summarize_records\n"
        f"records = [TrialRecord(trial_id=t, **{fields!r}) for t in range(3)]\n"
        "summarize_records(records, seed=0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cvtypical.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert "PairingFailure" in proc.stderr and "Markov" in proc.stderr


_INT_SUMMARY_FIELDS = {"samples", "n", "k", "seed", "flagged"}


@st.composite
def _summaries(draw):
    # st.floats() draws NaN, +-inf, -0.0 and subnormals among the rest
    values = {
        field.name: draw(st.integers() if field.name in _INT_SUMMARY_FIELDS else st.floats())
        for field in dataclasses.fields(RunSummary)
        if field.name != "tail_counts"
    }
    tails = draw(st.dictionaries(st.floats(allow_nan=False), st.floats(), max_size=6))
    return RunSummary(**values, tail_counts=tails)


@st.composite
def _csv_records(draw):
    k = draw(st.integers(1, 3))
    records = []
    for trial_id in range(draw(st.integers(1, 4))):
        f_value = draw(st.floats())
        records.append(
            TrialRecord(
                trial_id=trial_id,
                n=draw(st.integers(k, 10**6)),
                k=k,
                lambda_bar=draw(st.floats()),
                symplectic_spectrum=tuple(draw(st.floats()) for _ in range(k)),
                entropy=draw(st.floats()),
                f_value=f_value,
                delta=draw(st.floats()),
                purity_residual=draw(st.floats()),
                # the CSV carries neither trace; a NaN f marks a flagged row
                tr_jm2=float("nan"),
                tr_jm4=float("nan"),
                flagged=math.isnan(f_value),
            )
        )
    return records


@settings(max_examples=200, deadline=None)
@given(summary=_summaries(), records=_csv_records())
def test_serialization_round_trips_every_value(tmp_path_factory, summary, records):
    text = json.dumps(summary_to_jsonable(summary))
    assert repr(summary_from_jsonable(json.loads(text))) == repr(summary)

    path = tmp_path_factory.getbasetemp() / "property_trials.csv"
    path.write_text(format_trials_csv(records, provenance="property"))
    back, provenance = read_trials_csv(path)
    assert provenance == "property"
    assert repr(back) == repr(records)


def test_trial_csv_header_pinned():
    assert trial_csv_header(2) == (
        "trial_id,n,k,lambda_bar,entropy,f,delta,purity_residual,lambda_1,lambda_2"
    )


def test_trial_csv_round_trip(tmp_path):
    _, records = run_ensemble((2.0, 1.5, 1.0), 2, 25, seed=4)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, records, provenance="unit test run")
    back, provenance = read_trials_csv(path)
    assert provenance == "unit test run"
    assert len(back) == len(records)
    for mine, theirs in zip(records, back):
        assert mine.trial_id == theirs.trial_id
        assert mine.lambda_bar == theirs.lambda_bar  # repr round trip is exact
        assert mine.entropy == theirs.entropy
        assert mine.f_value == theirs.f_value
        assert mine.delta == theirs.delta
        assert mine.purity_residual == theirs.purity_residual
        assert mine.symplectic_spectrum == theirs.symplectic_spectrum
        assert math.isnan(theirs.tr_jm2) and math.isnan(theirs.tr_jm4)
    # a second pass through format produces identical bytes
    assert format_trials_csv(back, provenance="unit test run") == format_trials_csv(
        records, provenance="unit test run"
    )


def test_trial_csv_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(DomainError):
        read_trials_csv(path)
    path.write_text(trial_csv_header(2) + "\n0,2,2,1.0,0.0\n")
    with pytest.raises(DomainError):
        read_trials_csv(path)


def test_flagged_rows_survive_csv(tmp_path):
    nan = float("nan")
    flagged = TrialRecord(
        trial_id=0, n=2, k=1, lambda_bar=1.0, symplectic_spectrum=(nan,),
        entropy=nan, f_value=nan, delta=nan, purity_residual=nan,
        tr_jm2=nan, tr_jm4=nan, flagged=True,
    )
    live = run_trial(np.ones(2), 1, SeededStream(6), trial_id=1)
    path = tmp_path / "mixed.csv"
    write_trials_csv(path, [flagged, live])
    back, _ = read_trials_csv(path)
    assert back[0].flagged and not back[1].flagged


def test_summary_json_round_trip(tmp_path):
    summary, _ = run_ensemble((2.0, 1.0, 1.0), 1, 20, seed=8)
    path = tmp_path / "summary.json"
    text = json_text(summary_to_jsonable(summary, provenance={"version": "x"}))
    path.write_text(text)
    back, provenance = read_summary_json(path)
    assert provenance == {"version": "x"}
    assert back == summary
    # formatting is deterministic byte for byte
    assert json_text(summary_to_jsonable(back, provenance)) == text


def test_all_flagged_summary_round_trips():
    """With no live trial the tail thresholds come from the records' own
    lambda_bar, so the five keys stay distinct through JSON."""
    nan = float("nan")
    flagged = TrialRecord(
        trial_id=0, n=4, k=1, lambda_bar=1.5, symplectic_spectrum=(nan,),
        entropy=nan, f_value=nan, delta=nan, purity_residual=nan,
        tr_jm2=nan, tr_jm4=nan, flagged=True,
    )
    summary = summarize_records([flagged], seed=0)
    assert summary.flagged == 1
    assert sorted(summary.tail_counts) == [f * 1.5**4 for f in TAIL_LADDER_FACTORS]
    back = summary_from_jsonable(json.loads(json.dumps(summary_to_jsonable(summary))))
    assert repr(back) == repr(summary)


def test_summary_jsonable_handles_nan():
    rec = run_trial(np.ones(2), 1, SeededStream(9))
    summary = summarize_records([rec], seed=0)
    payload = summary_to_jsonable(summary)
    back = summary_from_jsonable(payload)
    assert math.isnan(back.se_f)
    assert back.samples == 1


def test_concentration_sweep_rows():
    scaling = ScalingConfig()
    rows = concentration_sweep(scaling, (4, 6), samples=30, seed=11)
    assert [n for n, _ in rows] == [4, 6]
    for index, (n, summary) in enumerate(rows):
        assert summary.n == n
        assert summary.k == 1
        assert summary.samples == 30
        assert summary.seed == 11 + index  # rows draw from disjoint streams


def test_concentration_sweep_vacuum_and_hooks():
    sunk = []
    rows = concentration_sweep(
        ScalingConfig(),
        (4, 5),
        samples=10,
        seed=13,
        k=2,
        base_profile="vacuum",
        record_sink=lambda n, summary, records: sunk.append((n, len(records))),
    )
    assert sunk == [(4, 10), (5, 10)]
    for _, summary in rows:
        assert summary.k == 2
        assert abs(summary.mean_f) < 1e-12
        assert summary.std_entropy == 0.0


def test_concentration_sweep_guards():
    with pytest.raises(DomainError):
        concentration_sweep(ScalingConfig(), (3,), samples=5, seed=0)
    with pytest.raises(DomainError):
        concentration_sweep(ScalingConfig(), (4,), samples=5, seed=0, base_profile="weird")


def test_lipschitz_bound_value():
    assert lipschitz_bound((2.0, 1.0, 1.0, 1.0), 1) == pytest.approx(
        32.0 * math.sqrt(2.0) * 16.0, rel=1e-14
    )
    assert lipschitz_bound(np.ones(3), 3) == pytest.approx(32.0 * math.sqrt(6.0), rel=1e-14)


def test_lipschitz_probe_stays_under_bound():
    z = (2.0, 1.0, 1.0, 1.0)
    worst = lipschitz_probe(z, 1, pairs=300, rng=SeededStream(14))
    assert 0.0 < worst <= lipschitz_bound(z, 1)


def test_lipschitz_probe_vacuum_is_flat():
    # f vanishes identically on the vacuum orbit, so every quotient is ~0
    worst = lipschitz_probe(np.ones(3), 1, pairs=40, rng=SeededStream(15))
    assert worst < 1e-10


def test_lipschitz_probe_guards():
    with pytest.raises(DomainError):
        lipschitz_probe((2.0, 1.0), 1, pairs=0, rng=SeededStream(0))
    with pytest.raises(InvalidSubsystem):
        lipschitz_probe((2.0, 1.0), 3, pairs=5, rng=SeededStream(0))
