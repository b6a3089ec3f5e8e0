import concurrent.futures
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
from hypothesis import example, given, settings
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
from cvtypical.haar import SeededStream, _stream_keys, haar_columns
from cvtypical.harness import (
    FLAG_BUDGET,
    TAIL_LADDER_FACTORS,
    RunSummary,
    TrialRecord,
    TrialTable,
    concentration_sweep,
    draw_block,
    format_trials_csv,
    json_text,
    read_trials_csv,
    run_ensemble,
    run_trial,
    summarize_records,
    summary_to_jsonable,
    trial_csv_header,
    validate_trial_record,
)
from cvtypical.moments import (
    _exact,
    _fourth_moment,
    _second_moment,
    expected_f_exact,
    moment_inputs_from_spectrum,
)
from cvtypical.profiles import ScalingConfig, constant_profile, parse_profile
from cvtypical.symplectic import (
    NOT_FINITE_SYMMETRIC,
    NOT_POSITIVE_DEFINITE,
    SymplecticSpectrum,
    average_energies,
    reduced_covariance_from_rows,
    symplectic_spectrum,
)
import oracles
from oracles import (
    concentration_f,
    entropy_G,
    eta_embed,
    fiducial_covariance,
    lipschitz_bound,
    lipschitz_probe,
    read_summary_json,
    reduce_covariance,
    reference_format_trials_csv,
    reference_run_one,
    reference_summarize_records,
    rotate_covariance,
    summary_from_jsonable,
    table_from_records,
)


def test_vacuum_trial_is_exactly_boring():
    """Rotating the vacuum goes nowhere: flat spectrum, zero entropy, zero f."""
    rec = run_trial(np.ones(4), 2, SeededStream(0))
    assert not rec.flagged
    assert rec.lambda_bar == 1.0
    assert np.max(np.abs(np.array(rec.symplectic_spectrum) - 1.0)) < 1e-12
    assert rec.entropy == 0.0
    assert abs(rec.f) < 1e-12
    assert rec.delta < 1e-6
    assert rec.purity_residual < 1e-12


def test_trial_is_bit_reproducible():
    a = run_trial([3.0, 1.0, 1.0, 1.0], 1, SeededStream(12, 5))
    b = run_trial([3.0, 1.0, 1.0, 1.0], 1, SeededStream(12, 5))
    assert a == b


@pytest.mark.parametrize("n, k", [(4, 1), (6, 3), (9, 9)])
def test_trial_matches_full_state_path(n, k):
    """run_trial's k Haar rows, completed to a full unitary, give the same
    reduced state through the full-state composition."""
    z = np.linspace(1.0, 4.0, n)
    rec = run_trial(z, k, SeededStream(61, n))
    # the rows the trial drew
    V = oracles._reference_haar_rows(n, SeededStream(61, n).generator(), k).T
    U = np.vstack([V, null_space(V).conj().T])
    M = rotate_covariance(fiducial_covariance(z), eta_embed(U))
    assert np.max(np.abs(symplectic_spectrum(M[None])[0].lambdas - 1.0)) <= 1e-10
    M_red = reduce_covariance(M, k)
    lambdas = symplectic_spectrum(M_red[None])[0].lambdas[0]
    assert np.max(np.abs(np.array(rec.symplectic_spectrum) - lambdas)) <= 1e-12 * lambdas.max()
    lam_bar = oracles.average_energy(z)
    assert rec.f == pytest.approx(concentration_f(M_red, lam_bar), abs=1e-10 * lam_bar**4)
    assert 0.0 <= rec.purity_residual <= 1e-13


def test_trial_rejects_bad_subsystem():
    with pytest.raises(InvalidSubsystem):
        run_trial(np.ones(3), 0, SeededStream(0))
    with pytest.raises(InvalidSubsystem):
        run_trial(np.ones(3), 4, SeededStream(0))


def test_trial_rejects_a_spectrum_that_is_not_a_vector():
    with pytest.raises(DomainError, match="nonempty vector"):
        run_trial(np.ones((1, 3)), 1, SeededStream(0))


@pytest.mark.parametrize("z", [np.ones((1, 3)), np.ones((3, 1)), []])
def test_ensemble_rejects_a_spectrum_that_is_not_a_vector(z):
    with pytest.raises(DomainError, match="nonempty vector"):
        run_ensemble(z, 1, 3, 0)


def test_numpy_integer_k_and_seed_act_as_ints():
    """A numpy k or seed gives the bytes the Python ints give: no np.int64(1)
    cell in the CSV, a summary JSON can encode, and stream keys that do not
    overflow."""
    z = [2.0, 1.0, 1.0]
    summary, table = run_ensemble(z, 1, 2, 3)
    np_summary, np_table = run_ensemble(z, np.int64(1), 2, np.int64(3))
    assert format_trials_csv(np_table) == format_trials_csv(table)
    assert json_text(summary_to_jsonable(np_summary)) == json_text(summary_to_jsonable(summary))
    rec = run_trial(z, np.int64(1), SeededStream(np.int64(3), 1))
    assert repr(rec) == repr(table.records()[1])


def test_k_and_seed_must_be_integers():
    for k in (1.0, 0.5, "1", True):  # True == 1, but would run k = 1
        with pytest.raises(InvalidSubsystem, match="need an integer k"):
            run_ensemble([2.0, 1.0, 1.0], k, 2, 0)
        with pytest.raises(InvalidSubsystem, match="need an integer k"):
            run_trial([2.0, 1.0, 1.0], k, SeededStream(0))
    for seed in (3.0, False):
        with pytest.raises(DomainError, match="need an integer seed"):
            run_ensemble([2.0, 1.0, 1.0], 1, 2, seed)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_a_seed_outside_64_bits_is_a_domain_error(seed):
    """A stream is keyed with its seed mod 2^64, so 2^64 would run seed 0's
    trials and -1 those of 2^64 - 1; such a seed is refused instead."""
    z = [3.0, 1.0, 1.0, 1.0]
    with pytest.raises(DomainError, match=rf"seed={seed} outside 0\.\.18446744073709551615"):
        run_ensemble(z, 1, 4, seed=seed)
    with pytest.raises(DomainError, match=rf"seed={seed} outside 0\.\.18446744073709551615"):
        run_trial(z, 1, SeededStream(seed, 0))


@pytest.mark.parametrize("stream_id", [-1, 2**64, 2**64 + 3], ids=["-1", "2^64", "2^64+3"])
def test_a_stream_id_outside_64_bits_is_a_domain_error(stream_id):
    """SeededStream keys its id mod 2^64, so run_trial would return trial 0's
    record labelled 2^64, and trial 2^64 - 1's labelled -1; it refuses them."""
    z = [3.0, 1.0, 1.0, 1.0]
    with pytest.raises(DomainError, match=rf"stream_id={stream_id} outside 0\.\.18446744073709551615"):
        run_trial(z, 1, SeededStream(5, stream_id))
    for bad in (1.0, True):
        with pytest.raises(DomainError, match="need an integer stream_id"):
            run_trial(z, 1, SeededStream(5, bad))
    # the last id in range is trial 2^64 - 1 of the ensemble
    assert run_trial(z, 1, SeededStream(5, 2**64 - 1)).trial_id == 2**64 - 1


def test_a_sweep_row_seed_past_64_bits_is_a_domain_error():
    """Row i runs on seed + i: a row that would pass 2^64 is refused, not
    run on seed 0's streams under a summary that names seed 2^64."""
    rows = concentration_sweep(ScalingConfig(), [4, 8], 3, 2**64 - 1)
    n, summary, _table = next(rows)
    assert (n, summary.seed) == (4, 2**64 - 1)
    with pytest.raises(DomainError, match=rf"seed={2**64} outside"):
        next(rows)


def test_sweep_n_must_be_an_integer():
    """n = 4.9 is an error, not a silent row at n = 4, and so is n = True."""
    for n in (4.9, True):
        with pytest.raises(DomainError, match=f"need an integer n, got n={n}"):
            next(concentration_sweep(ScalingConfig(), [n], 3, 0))


def test_samples_must_be_an_integer():
    with pytest.raises(DomainError, match="need an integer samples, got samples=2.5"):
        run_ensemble([2.0, 1, 1], 1, 2.5, 0)
    with pytest.raises(DomainError, match="need an integer samples, got samples=True"):
        run_ensemble([2.0, 1, 1], 1, True, 0)
    with pytest.raises(DomainError, match=r"samples=0 outside 1\.\.$"):
        run_ensemble([2.0, 1, 1], 1, 0, 0)


def test_workers_must_be_an_integer():
    with pytest.raises(DomainError, match="need an integer workers, got workers=1.5"):
        run_ensemble([2.0, 1, 1], 1, 2, 0, workers=1.5)
    with pytest.raises(DomainError, match="need an integer workers, got workers=True"):
        run_ensemble([2.0, 1, 1], 1, 2, 0, workers=True)
    with pytest.raises(DomainError, match=r"workers=0 outside 1\.\.$"):
        run_ensemble([2.0, 1, 1], 1, 2, 0, workers=0)


def test_numpy_integer_counts_act_as_ints():
    """numpy samples, workers and sweep n run as the Python ints would, and
    the sweep yields a Python int n."""
    z = [2.0, 1.0, 1.0]
    summary, table = run_ensemble(z, 1, 3, 0, workers=2)
    np_summary, np_table = run_ensemble(z, 1, np.int64(3), 0, workers=np.int64(2))
    assert format_trials_csv(np_table) == format_trials_csv(table)
    assert json_text(summary_to_jsonable(np_summary)) == json_text(summary_to_jsonable(summary))
    (n, row, _), = concentration_sweep(ScalingConfig(), [np.int64(4)], np.int64(3), 0)
    (_, expected, _), = concentration_sweep(ScalingConfig(), [4], 3, 0)
    assert type(n) is int and n == 4
    assert json_text(summary_to_jsonable(row)) == json_text(summary_to_jsonable(expected))


def test_trial_invariants_hold_in_bulk():
    z = np.array([3.0, 2.0, 1.0, 1.0, 1.0])
    cap = 2 * entropy_G(3.0)  # k modes, each eigenvalue at most max(z)
    for t in range(200):
        rec = run_trial(z, 2, SeededStream(31, t))
        validate_trial_record(rec)
        assert 0.0 <= rec.entropy <= cap + 1e-12
        assert all(lam >= 1.0 - 1e-10 for lam in rec.symplectic_spectrum)


def test_validate_trial_record_flags_violations():
    rec = run_trial(np.ones(3), 1, SeededStream(1))
    validate_trial_record(rec)
    broken = dataclasses.replace(rec, f=rec.f + 1.0)
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
        lam1 = symplectic_spectrum(reduce_covariance(M, 1)[None])[0].lambdas[0, 0]
        assert 1.0 - 1e-12 <= lam1 <= ceiling + 1e-12
        seen.append(lam1)
    balanced = 0.5 * (np.sqrt(z) + 1.0 / np.sqrt(z))
    assert max(seen) == pytest.approx(balanced, rel=1e-6)
    # complex rotations obey the same ceiling
    gen = SeededStream(32).generator()
    for _ in range(300):
        U = oracles._reference_haar_rows(2, gen, 2)
        M = rotate_covariance(fiducial, eta_embed(U))
        lam1 = symplectic_spectrum(reduce_covariance(M, 1)[None])[0].lambdas[0, 0]
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
        (summary.mean_tr_jm2, summary.se_tr_jm2, _exact(mi, _second_moment)),
        (summary.mean_tr_jm4, summary.se_tr_jm4, _exact(mi, _fourth_moment)),
        (summary.mean_f, summary.se_f, expected_f_exact(mi)),
    ):
        assert abs(mean - float(exact)) < 5.0 * se


def test_worker_count_is_invisible(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)  # three threads on any host
    shapes = [
        (parse_profile("micro:16.0", n=3), 2, 40),
        # blocks of 16 trials at one worker, so every worker takes several
        (parse_profile("micro:600.0", n=256), 16, 100),
    ]
    for spec, k, samples in shapes:
        s1, r1 = run_ensemble(spec, k, samples, seed=5, workers=1)
        for workers in (2, 3):
            s2, r2 = run_ensemble(spec, k, samples, seed=5, workers=workers)
            assert r1.records() == r2.records()
            assert s1 == s2


def test_workers_are_threads_in_this_process(monkeypatch):
    """Worker threads fork nothing and are all gone when run_ensemble
    returns or raises."""
    def no_fork():
        raise AssertionError("run_ensemble forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
    spec = parse_profile("micro:600.0", n=256)
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

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    def recording_block(block):
        sizes.append(block[4] - block[3])
        return real_block(block)

    spec = parse_profile("micro:600.0", n=n)
    _, expected = run_ensemble(spec, k, 300, seed=4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(harness, "_run_block", recording_block)
    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    _, table = run_ensemble(spec, k, 300, seed=4, workers=workers)
    assert made == ([] if threads == 1 else [threads])
    assert max(sizes) == -(-harness._block_size(n, k) // threads)
    assert table.records() == expected.records()


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
    summary, table = run_ensemble(constant_profile(1.0, 2), 1, 2000, seed=3)
    records = table.records()
    assert summary.flagged == 2 == int(FLAG_BUDGET * 2000)
    assert summary.samples == 2000
    assert records[0].flagged and records[1].flagged
    assert math.isnan(records[0].f)
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
        _, table = run_ensemble(spec, k, samples, seed)
        records = table.records()
        monkeypatch.setattr(
            oracles, "_reference_spectrum", poisoned_reference({POISONED_TRIAL})
        )
        reference = [reference_run_one((spec, k, seed, t)) for t in range(samples)]
        assert records[POISONED_TRIAL].flagged
        assert repr(records) == repr(reference)


@pytest.mark.parametrize("seed", [2**64 - 1, 2**63])
def test_block_keys_at_the_seed_edge(seed):
    """The block's prebuilt uint64 keys hold the exact seed and trial ids at
    the top of the seed range, and a full block and a partial one drawn from
    them give the rows of the per-trial SeededStream reference."""
    spec, k = parse_profile("micro:50", n=16), 4
    samples = harness._block_size(spec.n, k) + 3
    keys = _stream_keys(seed, range(samples))
    assert keys.dtype == np.uint64 and keys.shape == (samples, 2)
    assert keys[:, 0].tolist() == [seed] * samples
    assert keys[:, 1].tolist() == list(range(samples))
    _, table = run_ensemble(spec, k, samples, seed)
    reference = [reference_run_one((spec, k, seed, t)) for t in range(samples)]
    assert repr(table.records()) == repr(reference)


def test_the_table_lists_the_record_fields_in_order():
    """records() builds each TrialRecord from the table's columns by
    position, so after n and k the table holds the record's other fields in
    the record's order; a field added to one class only would shift every
    later column."""
    record = [field.name for field in dataclasses.fields(TrialRecord)]
    table = [field.name for field in dataclasses.fields(TrialTable)]
    assert table[:2] == ["n", "k"]
    assert table[2:] == [name for name in record if name not in ("n", "k")]


def _assert_same_table(got, expected):
    """Same n and k, and every column of the same dtype, shape and bytes."""
    assert (got.n, got.k) == (expected.n, expected.k)
    for name in harness._TABLE_COLUMNS:
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("profile, n, k", [("fixed:3,1,1,1", None, 1), ("micro:50", 16, 4)])
def test_joined_blocks_equal_one_block(monkeypatch, profile, n, k):
    """The table run_ensemble joins from blocks of every size, so of every
    fill of the last block, is the table of one block of all the trials."""
    spec = parse_profile(profile, n=n)
    samples = 23
    whole = harness._run_block((spec, k, 6, 0, samples))
    for size in range(1, samples + 1):
        monkeypatch.setattr(harness, "_block_size", lambda n, k: size)
        _, table = run_ensemble(spec, k, samples, seed=6)
        _assert_same_table(table, whole)


@pytest.mark.parametrize("profile, n, k", KERNEL_GRID)
def test_cholesky_spectrum_matches_the_eigvals_route(profile, n, k):
    """The package's Cholesky route against the earlier eigenvalues-of-J*M
    route, on the reduced states of the block kernel's shapes."""
    spec = parse_profile(profile, n=n)
    stack = []
    for t in range(16):
        gen = SeededStream(5, t).generator()
        z = oracles.sample_profile(spec, gen)
        rows = oracles._reference_haar_rows(spec.n, gen, k).T
        stack.append(reduced_covariance_from_rows(rows[None], z)[0][0])
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
    for t in range(20):
        assert repr(run_trial(z, 2, SeededStream(40, t))) == repr(
            oracles.reference_run_trial(z, 2, SeededStream(40, t), trial_id=t)
        )


@pytest.mark.parametrize("seed", [0, 40, 2**63 + 7])
def test_run_trial_is_its_row_of_the_ensemble(seed):
    """run_trial(z, k, SeededStream(s, t)) is trial t of the ensemble at
    seed s, drawn by the same blocks."""
    for z, k in (([3.0, 1.5, 1.0, 1.0, 1.0], 2), (np.linspace(1.0, 4.0, 9), 9)):
        table = run_ensemble(z, k, 6, seed=seed)[1]
        for t in (0, 1, 5):
            assert repr(run_trial(z, k, SeededStream(seed, t))) == repr(table.records()[t])


# 300 trials run as two blocks of BLOCK_TRIALS
@pytest.mark.parametrize(
    "profile, n, k, samples",
    [("micro:50", 16, 4, 300), ("canonical:400", 128, 11, 60)],
)
def test_draw_block_gives_each_trials_spectrum(profile, n, k, samples):
    """Row i of draw_block(spec, 0, s, 0, samples)'s spectra, one call past a
    block of trials, is the spectrum trial i of an ensemble at seed s draws:
    their average energies agree bit for bit."""
    spec = parse_profile(profile, n=n)
    spectra, draws = draw_block(spec, 0, 21, 0, samples)
    assert spectra.shape == (samples, n) and draws.shape == (samples, 2, n, 0)
    _summary, table = run_ensemble(spec, k, samples, seed=21)
    assert average_energies(spectra).tobytes() == table.lambda_bar.tobytes()


@pytest.mark.parametrize("seed", [0, 12, 2**40 + 1, 2**64 - 1])
def test_reseated_stream_draws_what_a_fresh_one_does(seed):
    """A re-seated generator and SeededStream.generator() both draw what a
    Philox keyed directly with the two exact uint64 halves draws."""
    gen = SeededStream(99, 99).generator()
    gen.standard_normal(7)  # leave it mid-buffer
    state = SeededStream(0).generator().bit_generator.state  # reused, as a block does
    for stream_id in (0, 1, 2**33, 2**64 - 1):
        key = np.array([seed, stream_id], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        stream = SeededStream(seed, stream_id).generator()
        state["state"]["key"] = _stream_keys(seed, [stream_id])[0]
        gen.bit_generator.state = state
        reseated = gen
        for draw in ("standard_normal", "standard_exponential", "random"):
            expected = getattr(fresh, draw)(5)
            assert np.array_equal(getattr(reseated, draw)(5), expected)
            assert np.array_equal(getattr(stream, draw)(5), expected)
        expected = fresh.integers(2**62)
        assert reseated.integers(2**62) == expected and stream.integers(2**62) == expected


@pytest.mark.parametrize(
    "seed, stream_id, name, value",
    [(-3, 0, "seed", -3), (2**64 + 5, 0, "seed", 2**64 + 5), (2**64 + 3, 0, "seed", 2**64 + 3),
     (5, -1, "stream_id", -1), (5, 2**64, "stream_id", 2**64)],
    ids=["seed-3", "seed2^64+5", "seed2^64+3", "id-1", "id2^64"],
)
def test_a_key_half_outside_64_bits_is_refused(seed, stream_id, name, value):
    """A seed and a stream id are each an exact 64-bit half of the key:
    one outside 0..2^64-1 would key the stream of its value mod 2^64
    (2^64 + 3 that of 3, -1 that of 2^64 - 1), so SeededStream and the
    block keys refuse it."""
    message = rf"{name}={value} outside 0\.\.18446744073709551615"
    with pytest.raises(DomainError, match=message):
        SeededStream(seed, stream_id).generator()
    with pytest.raises(DomainError, match=message):
        _stream_keys(seed, [stream_id])


@pytest.mark.parametrize(
    "seed, start, stop, message",
    [(2**64 + 3, 0, 2, rf"seed={2**64 + 3} outside"), (-1, 0, 2, "seed=-1 outside"),
     (5, -1, 1, "stream_id=-1 outside"), (5, 2**64 - 1, 2**64 + 1, rf"stream_id={2**64} outside")],
    ids=["seed2^64+3", "seed-1", "start-1", "stop2^64+1"],
)
def test_draw_block_refuses_a_key_outside_64_bits(seed, start, stop, message):
    """draw_block, the demo's route to a seed's spectra, keys its trials
    through the same check: seed 2^64 + 3 would draw seed 3's trials, and
    trial -1 trial 2^64 - 1's."""
    with pytest.raises(DomainError, match=message):
        draw_block(parse_profile("fixed:3,1,1,1"), 1, seed, start, stop)


@pytest.mark.parametrize(
    "start, stop, message",
    [(0, 3.0, r"need an integer stop, got stop=3\.0"), (0, True, "need an integer stop, got stop=True"),
     (5, 3, r"stop=3 outside 5\.\.$"), (2, 1, r"stop=1 outside 2\.\.$")],
    ids=["float", "bool", "below_start", "one_below_start"],
)
def test_draw_block_refuses_a_stop_that_is_no_end(start, stop, message):
    """stop is read as start is: a float stop would reach range() as a bare
    TypeError, True would draw a block of one, and a stop below start an
    empty block that no ensemble asked for."""
    with pytest.raises(DomainError, match=message):
        draw_block(parse_profile("fixed:3,1,1,1"), 1, 0, start, stop)


def test_draw_block_from_start_to_start_is_empty():
    spec = parse_profile("fixed:3,1,1,1")
    assert draw_block(spec, 1, 0, 5, 5)[1].shape == (0, 2, 4, 1)
    assert np.array_equal(draw_block(spec, 1, 0, 0, np.int64(2))[1], draw_block(spec, 1, 0, 0, 2)[1])


@pytest.mark.parametrize(
    "k, message",
    [(-1, r"k=-1 outside 0\.\.4"), (5, r"k=5 outside 0\.\.4"),
     (1.5, "need an integer k, got k=1.5"), (True, "need an integer k, got k=True")],
    ids=["negative", "past_n", "float", "bool"],
)
def test_draw_block_refuses_a_k_outside_0_to_n(k, message):
    """draw_block takes k in 0..n, k = 0 drawing the spectra only; any
    other k is refused through run_ensemble's check of k, not left to
    numpy's array shape or drawn as a block no trial can use."""
    with pytest.raises(InvalidSubsystem, match=message):
        draw_block(parse_profile("fixed:3,1,1,1"), k, 0, 0, 2)


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
    spec = parse_profile("micro:12.0", n=4)
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
        run_ensemble(parse_profile("micro:12.0", n=4), 1, 20, seed=8)
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
    spec = parse_profile("micro:600.0", n=256)
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
    spec = parse_profile("micro:12.0", n=4)
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
    empty = {
        name: np.empty((0, 1) if name == "symplectic_spectrum" else 0)
        for name in harness._TABLE_COLUMNS
    }
    with pytest.raises(DomainError):
        summarize_records(TrialTable(n=2, k=1, **empty), seed=0)
    with pytest.raises(DomainError, match="refusing to format an empty trial table"):
        format_trials_csv(TrialTable(n=2, k=1, **empty))


def test_single_record_has_nan_errors():
    rec = run_trial(np.ones(3), 1, SeededStream(2))
    summary = summarize_records(table_from_records([rec]), seed=0)
    assert summary.samples == 1
    assert math.isnan(summary.se_f)
    assert math.isnan(summary.std_entropy)


def test_summarize_rejects_tails_beyond_markov():
    """f = 0 with delta = 10 puts every trial in every tail, which the Markov
    bound from mean_f forbids; the check must raise, also under python -O."""
    fields = dict(
        n=2, k=1, lambda_bar=1.0, symplectic_spectrum=(1.0,), entropy=0.0,
        f=0.0, delta=10.0, purity_residual=0.0, tr_jm2=0.0, tr_jm4=0.0,
    )
    records = [TrialRecord(trial_id=t, **fields) for t in range(3)]
    with pytest.raises(PairingFailure, match="Markov"):
        summarize_records(table_from_records(records), seed=0)

    code = (
        "assert False, 'this run must strip asserts'\n"
        "from cvtypical.harness import TrialRecord, summarize_records\n"
        "from oracles import table_from_records\n"
        f"records = [TrialRecord(trial_id=t, **{fields!r}) for t in range(3)]\n"
        "summarize_records(table_from_records(records), seed=0)\n"
    )
    path = os.pathsep.join([str(Path(cvtypical.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path)
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
def _csv_tables(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 10**6))
    records = []
    for trial_id in range(draw(st.integers(1, 4))):
        f = draw(st.floats())
        records.append(
            TrialRecord(
                trial_id=trial_id,
                n=n,
                k=k,
                lambda_bar=draw(st.floats()),
                symplectic_spectrum=tuple(draw(st.floats()) for _ in range(k)),
                entropy=draw(st.floats()),
                f=f,
                delta=draw(st.floats()),
                purity_residual=draw(st.floats()),
                # the CSV carries neither trace; a NaN f marks a flagged row
                tr_jm2=float("nan"),
                tr_jm4=float("nan"),
                flagged=math.isnan(f),
            )
        )
    return table_from_records(records)


@settings(max_examples=200, deadline=None)
@given(summary=_summaries(), table=_csv_tables())
def test_serialization_round_trips_every_value(tmp_path_factory, summary, table):
    text = json.dumps(summary_to_jsonable(summary))
    assert repr(summary_from_jsonable(json.loads(text))) == repr(summary)

    path = tmp_path_factory.getbasetemp() / "property_trials.csv"
    path.write_text(format_trials_csv(table, provenance="property"))
    back, provenance = read_trials_csv(path)
    assert provenance == "property"
    assert repr(back) == repr(table.records())


# row values of a random table: any float, signed zeros, and values whose
# squares overflow, which sends the summary through _rescaled
_CELLS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0]), st.floats(1e153, 1e156), st.floats(-1e156, -1e153)
)


@st.composite
def _tables(draw):
    """A TrialTable as the kernel could build it: flagged rows NaN but for
    lambda_bar, live rows with f = 2 delta^2 or any f, lambda_bar shared by
    every row or drawn per row."""
    k = draw(st.integers(1, 4))
    nan = float("nan")
    every_flagged = draw(st.booleans())
    shared = draw(st.one_of(st.none(), st.floats(1.0, 1e3), st.sampled_from([0.0, -0.0])))
    records = []
    for trial_id in range(draw(st.integers(1, 6))):
        lambda_bar = shared if shared is not None else draw(st.one_of(st.floats(1.0, 1e3), _CELLS))
        if every_flagged or draw(st.booleans()):
            records.append(TrialRecord(
                trial_id, k + 2, k, lambda_bar, (nan,) * k, nan, nan, nan, nan, nan, nan, True
            ))
            continue
        delta = draw(st.one_of(st.floats(-1e3, 1e3), st.floats(1e76, 1e78), _CELLS))
        f = draw(st.one_of(st.just(2.0 * delta * delta), _CELLS))
        records.append(TrialRecord(
            trial_id, k + 2, k, lambda_bar, tuple(draw(_CELLS) for _ in range(k)),
            draw(_CELLS), f, delta, draw(_CELLS), draw(_CELLS), draw(_CELLS), False,
        ))
    return table_from_records(records)


def _outcome(function, *args):
    """repr of function(*args), or the type and text of what it raised."""
    try:
        return repr(function(*args))
    except Exception as exc:  # the two routes must fail alike
        return f"{type(exc).__name__}: {exc}"


def _rows(*lambda_bars, flagged=False):
    """A table of one row per lambda_bar, all live or all flagged as the
    kernel flags: NaN but for lambda_bar."""
    if flagged:
        nan = float("nan")
        cells = ((nan,), nan, nan, nan, nan, nan, nan, True)
    else:
        cells = ((0.0,), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False)
    return table_from_records([TrialRecord(i, 3, 1, bar, *cells) for i, bar in enumerate(lambda_bars)])


# rows whose lambda_bar, or their mean when all are flagged, is NaN: a live
# NaN, a lone flagged one, and a flagged inf - inf, whose mean numpy warned
# about before the summary refused it
_NAN_BAR_TABLES = [
    _rows(float("nan")), _rows(float("nan"), flagged=True), _rows(float("inf"), -float("inf"), flagged=True)
]
# rows whose lambda_bar**4 is past the float range: five inf thresholds; the
# mean of the flagged 1e308 pair overflows, which numpy warned about too
_HUGE_BAR_TABLES = [
    _rows(1e100), _rows(float("inf")), _rows(float("inf"), flagged=True), _rows(1e308, 1e308, flagged=True)
]


@settings(max_examples=300, deadline=None)
@given(table=_tables())
@example(table=_NAN_BAR_TABLES[0])
@example(table=_NAN_BAR_TABLES[1])
@example(table=_NAN_BAR_TABLES[2])
@example(table=_HUGE_BAR_TABLES[0])
@example(table=_HUGE_BAR_TABLES[1])
@example(table=_HUGE_BAR_TABLES[2])
@example(table=_HUGE_BAR_TABLES[3])
def test_columnar_outputs_match_the_record_references(table):
    """The columnar CSV writer and summary give what the record-by-record
    references give on the table's records: the same text, and a
    repr-equal RunSummary or the same error."""
    records = table.records()
    assert format_trials_csv(table, "p") == reference_format_trials_csv(records, "p")
    assert _outcome(summarize_records, table, 3) == _outcome(
        reference_summarize_records, records, 3
    )


def test_a_live_nan_lambda_bar_is_a_domain_error():
    """Tail thresholds are multiples of lambda_bar**4: a live trial whose
    lambda_bar is NaN would key all five by NaN, which JSON cannot tell
    apart, so both summary routes refuse it alike; so too when the table's
    only trial is flagged, whose lambda_bar then sets the thresholds, and
    when the flagged trials' inf and -inf average to NaN, with no warning
    first."""
    message = "trials need a lambda_bar that is a number, got nan"
    for table in _NAN_BAR_TABLES:
        with pytest.raises(DomainError, match=message):
            summarize_records(table, seed=3)
        with pytest.raises(DomainError, match=message):
            reference_summarize_records(table.records(), 3)


@pytest.mark.parametrize("table", _HUGE_BAR_TABLES, ids=["1e100", "inf", "flagged_inf", "flagged_1e308_pair"])
def test_a_live_lambda_bar_with_an_infinite_fourth_power_is_a_domain_error(table):
    """A lambda_bar of 1e100 overflowed lambda_bar**4 with a bare
    OverflowError, and inf keyed all five tail thresholds by inf (by NaN
    when the only trial was flagged); both summary routes refuse each
    alike, as they refuse two flagged 1e308, whose mean overflows, with no
    warning first."""
    message = "has a fourth power past the float range"
    with pytest.raises(DomainError, match=message):
        summarize_records(table, seed=3)
    with pytest.raises(DomainError, match=message):
        reference_summarize_records(table.records(), 3)


def test_trial_csv_header_pinned():
    assert trial_csv_header(2) == (
        "trial_id,n,k,lambda_bar,entropy,f,delta,purity_residual,lambda_1,lambda_2"
    )


def test_trial_csv_round_trip(tmp_path):
    _, table = run_ensemble((2.0, 1.5, 1.0), 2, 25, seed=4)
    records = table.records()
    path = tmp_path / "trials.csv"
    path.write_text(format_trials_csv(table, provenance="unit test run"))
    back, provenance = read_trials_csv(path)
    assert provenance == "unit test run"
    assert len(back) == len(records)
    for mine, theirs in zip(records, back):
        assert mine.trial_id == theirs.trial_id
        assert mine.lambda_bar == theirs.lambda_bar  # repr round trip is exact
        assert mine.entropy == theirs.entropy
        assert mine.f == theirs.f
        assert mine.delta == theirs.delta
        assert mine.purity_residual == theirs.purity_residual
        assert mine.symplectic_spectrum == theirs.symplectic_spectrum
        assert math.isnan(theirs.tr_jm2) and math.isnan(theirs.tr_jm4)
    # formatting the records read back produces identical bytes
    assert reference_format_trials_csv(back, provenance="unit test run") == format_trials_csv(
        table, provenance="unit test run"
    )


def test_trial_csv_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(DomainError):
        read_trials_csv(path)
    path.write_text(trial_csv_header(2) + "\n0,2,2,1.0,0.0\n")
    with pytest.raises(DomainError):
        read_trials_csv(path)
    for text in ("", "# provenance only\n\n"):
        path.write_text(text)
        with pytest.raises(DomainError, match="has no header row"):
            read_trials_csv(path)
    path.write_text(",".join(harness.TRIAL_CSV_FIXED_COLUMNS) + ",lambda_2\n")
    with pytest.raises(DomainError, match="has malformed spectrum columns"):
        read_trials_csv(path)


def test_a_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    """The output is written to a temporary file and moved into place; when
    the move fails, the temporary file goes and the error propagates."""

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(harness.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        harness._atomic_write_text(tmp_path / "out.csv", "text\n")
    assert list(tmp_path.iterdir()) == []


def test_flagged_rows_survive_csv(tmp_path):
    nan = float("nan")
    flagged = TrialRecord(
        trial_id=0, n=2, k=1, lambda_bar=1.0, symplectic_spectrum=(nan,),
        entropy=nan, f=nan, delta=nan, purity_residual=nan,
        tr_jm2=nan, tr_jm4=nan, flagged=True,
    )
    live = run_trial(np.ones(2), 1, SeededStream(6, 1))
    path = tmp_path / "mixed.csv"
    path.write_text(format_trials_csv(table_from_records([flagged, live])))
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
        entropy=nan, f=nan, delta=nan, purity_residual=nan,
        tr_jm2=nan, tr_jm4=nan, flagged=True,
    )
    summary = summarize_records(table_from_records([flagged]), seed=0)
    assert summary.flagged == 1
    assert sorted(summary.tail_counts) == [f * 1.5**4 for f in TAIL_LADDER_FACTORS]
    back = summary_from_jsonable(json.loads(json.dumps(summary_to_jsonable(summary))))
    assert repr(back) == repr(summary)


def test_summary_jsonable_handles_nan():
    rec = run_trial(np.ones(2), 1, SeededStream(9))
    summary = summarize_records(table_from_records([rec]), seed=0)
    payload = summary_to_jsonable(summary)
    back = summary_from_jsonable(payload)
    assert math.isnan(back.se_f)
    assert back.samples == 1


def test_concentration_sweep_rows():
    scaling = ScalingConfig()
    rows = list(concentration_sweep(scaling, (4, 6), samples=30, seed=11))
    assert [n for n, _, _ in rows] == [4, 6]
    for index, (n, summary, table) in enumerate(rows):
        assert len(table) == 30
        assert summary.n == n
        assert summary.k == 1
        assert summary.samples == 30
        assert summary.seed == 11 + index  # rows draw from disjoint streams


def test_concentration_sweep_vacuum_and_hooks(monkeypatch):
    """Each row is yielded as it finishes, before the next one runs."""
    ran = []
    real = harness.run_ensemble
    monkeypatch.setattr(harness, "run_ensemble", lambda spec, *args: ran.append(spec.n) or real(spec, *args))
    rows = concentration_sweep(
        ScalingConfig(scale_z=1.0),
        (4, 5),
        samples=10,
        seed=13,
        k=2,
    )
    sunk = []
    for n, summary, table in rows:
        assert ran == [4, 5][: len(sunk) + 1]
        sunk.append((n, len(table)))
        assert summary.k == 2
        assert abs(summary.mean_f) < 1e-12
        assert summary.std_entropy == 0.0
    assert sunk == [(4, 10), (5, 10)]


def test_concentration_sweep_guards():
    with pytest.raises(DomainError):
        list(concentration_sweep(ScalingConfig(), (3,), samples=5, seed=0))


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


@pytest.mark.parametrize("n, k, z", [(8, 3, 2.0), (16, 5, 3.7), (32, 16, 1.3), (6, 6, 2.5)])
def test_constant_spectrum_squares_follow_the_rows(n, k, z):
    """For a constant spectrum, lambda_j^2 = b^2 - a^2 s_j^2 with
    a = (z - 1/z)/2, b = (z + 1/z)/2 and s_j the singular values of V V^T,
    V the k Haar rows the trial drew, re-drawn here from its own stream."""
    seed, trials = 1919, 200
    _, table = run_ensemble(constant_profile(z, n), k, trials, seed)
    draws = np.stack([SeededStream(seed, t).generator().standard_normal((2, n, k)) for t in range(trials)])
    V = np.swapaxes(haar_columns(draws[:, 0] + 1j * draws[:, 1]), -1, -2)
    s = np.linalg.svd(V @ np.swapaxes(V, -1, -2), compute_uv=False)
    a, b = (z - 1.0 / z) / 2.0, (z + 1.0 / z) / 2.0
    predicted = np.sort(b * b - a * a * s * s, axis=1)
    squares = np.sort(table.symplectic_spectrum**2, axis=1)
    assert np.all(np.abs(squares - predicted) <= 1e-12 * squares)


# seeds fixed before the first run; a failure is a finding, not a reason to re-seed
@pytest.mark.parametrize(
    "n, z, seed", [(4, 2.0, 1901), (16, 2.0, 1902), (64, 2.0, 1903), (32, 5.0, 1904)]
)
def test_one_mode_delta_squared_follows_the_exact_law(n, z, seed):
    """At k = 1 the kernel's delta^2 passes a Kolmogorov-Smirnov test
    against its exact law at the 1% level: KS sqrt(N) < 1.63."""
    trials = 20_000
    _, table = run_ensemble(constant_profile(z, n), 1, trials, seed)
    cdf = oracles.delta_squared_cdf_one_mode(np.sort(table.delta**2), z, n)
    ranks = np.arange(1, trials + 1) / trials
    ks = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / trials)).max())
    assert ks * math.sqrt(trials) < 1.63
