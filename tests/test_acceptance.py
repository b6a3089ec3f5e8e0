"""Acceptance suite: ten numbered end-to-end checks, one test per criterion.

The expensive Monte Carlo inputs are module-scoped fixtures shared across
criteria: the three 1e5-trial moment ensembles feed criteria 4 and 5, and the
1e4-trial scaling sweep feeds criteria 5, 6 and 7.  Every check runs from a
frozen seed, so a pass here is bit-for-bit repeatable.

Full runtime was 34 s on a 2-core Xeon host (Python 3.11, numpy 2.4).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cvtypical.haar import SeededStream
from cvtypical.harness import (
    PURITY_TOL,
    F_IDENTITY_RTOL,
    concentration_sweep,
    format_trials_csv,
    run_ensemble,
)
from cvtypical.moments import (
    _exact,
    _fourth_moment,
    _second_moment,
    _tilde_lambda_squared,
    expected_f_exact,
    moment_inputs_from_spectrum,
)
from cvtypical.profiles import (
    ProfileSpec,
    ScalingConfig,
)
from cvtypical.weingarten import (
    gram_weingarten_oracle,
    partitions,
    weingarten,
)
from oracles import (
    _reference_haar_rows,
    entropy_G,
    haar_average_BB_minus_AA,
    lipschitz_bound,
    lipschitz_probe,
    sample_profile,
)

MOMENT_SUITES = ((4, 1, 1004), (5, 1, 1005), (8, 2, 1008))
SWEEP_NS = (16, 32, 64, 128)
SWEEP_SAMPLES = 10_000
SWEEP_SEED = 2024


def audit_records(records):
    """Worst-case per-trial diagnostics, so fixtures can drop the records."""
    worst_purity = 0.0
    worst_f_dev = 0.0
    flagged = 0
    for rec in records:
        if rec.flagged:
            flagged += 1
            continue
        worst_purity = max(worst_purity, rec.purity_residual)
        two_delta_sq = 2.0 * rec.delta * rec.delta
        scale = max(1.0, abs(rec.f), two_delta_sq)
        worst_f_dev = max(worst_f_dev, abs(rec.f - two_delta_sq) / scale)
    return {
        "total": len(records),
        "flagged": flagged,
        "worst_purity": worst_purity,
        "worst_f_dev": worst_f_dev,
    }


@pytest.fixture(scope="module")
def moment_ensembles():
    suites = {}
    for n, k, seed in MOMENT_SUITES:
        z = (3.0,) + (1.0,) * (n - 1)
        summary, table = run_ensemble(z, k, 100_000, seed=seed)
        suites[(n, k)] = (summary, audit_records(table.records()))
    return suites


@pytest.fixture(scope="module")
def scaling_sweep():
    rows, audits = [], {}
    for n, summary, table in concentration_sweep(
        ScalingConfig(),  # constant z = 2, k = 1
        SWEEP_NS,
        samples=SWEEP_SAMPLES,
        seed=SWEEP_SEED,
    ):
        rows.append((n, summary))
        audits[n] = audit_records(table.records())
    return rows, audits


def test_criterion_01_weingarten_exact():
    """Character sums equal closed forms and the Gram oracle, exactly."""
    for n in range(4, 9):
        assert weingarten(n, 2)[(1, 1)] == Fraction(1, n * n - 1)
        assert weingarten(n, 2)[(2,)] == Fraction(-1, n * (n * n - 1))
        for p in range(1, 5):
            oracle = gram_weingarten_oracle([n], p)[n]
            for ct in partitions(p):
                assert weingarten(n, p)[ct] == oracle[ct]
    print("ACCEPTANCE 1 PASS: Weingarten values exact for p in 1..4, n in 4..8")


def test_criterion_02_averaged_matrix_oracle():
    """Closed-form Haar average against a 1e5-sample entrywise Monte Carlo."""
    n, trials = 4, 100_000
    z = np.array([3.0, 1.0, 1.0, 1.0])
    a, b = 0.5 * (z - 1.0 / z), 0.5 * (z + 1.0 / z)
    pi = np.array([1.0, 0.0, 0.0, 0.0])
    A, B, P = np.diag(a), np.diag(b), np.diag(pi)
    gen = SeededStream(202).generator()
    acc = np.zeros((n, n), dtype=complex)
    acc_sq = np.zeros((n, n, 2))
    for _ in range(trials):
        U = _reference_haar_rows(n, gen, n)
        Ud = U.conj().T
        W = U @ B @ Ud @ P @ U @ B @ Ud - U @ A @ U.T @ P @ U.conj() @ A @ Ud
        acc += W
        acc_sq[..., 0] += W.real**2
        acc_sq[..., 1] += W.imag**2
    mean = acc / trials
    se_re = np.sqrt(np.maximum(acc_sq[..., 0] / trials - mean.real**2, 0.0) / (trials - 1))
    se_im = np.sqrt(np.maximum(acc_sq[..., 1] / trials - mean.imag**2, 0.0) / (trials - 1))
    exact = haar_average_BB_minus_AA(n, a, b, pi)
    assert np.all(np.abs(mean.real - exact) <= 3.0 * se_re + 1e-12)
    assert np.all(np.abs(mean.imag) <= 3.0 * se_im + 1e-12)
    print("ACCEPTANCE 2 PASS: averaged-matrix closed form within 3 se of Monte Carlo")


def test_criterion_03_vacuum_exact_identities():
    """Vacuum input: lambda~^2 = 1, fourth moment 2k, E f = 0, all exact."""
    for n in range(4, 65):
        vacuum = (1,) * n
        for k in range(1, n + 1):
            mi = moment_inputs_from_spectrum(vacuum, k)
            assert _exact(mi, _tilde_lambda_squared) == 1
            assert _exact(mi, _second_moment) == -2 * k
            assert _exact(mi, _fourth_moment) == 2 * k
            assert expected_f_exact(mi) == 0
    print("ACCEPTANCE 3 PASS: vacuum identities exact for 4 <= n <= 64, 1 <= k <= n")


def test_criterion_04_moment_agreement(moment_ensembles):
    """Empirical trace moments within 3 se of the closed forms, 1e5 trials."""
    for n, k, _seed in MOMENT_SUITES:
        summary, _audit = moment_ensembles[(n, k)]
        mi = moment_inputs_from_spectrum((3,) + (1,) * (n - 1), k)
        checks = (
            (summary.mean_tr_jm2, summary.se_tr_jm2, _exact(mi, _second_moment)),
            (summary.mean_tr_jm4, summary.se_tr_jm4, _exact(mi, _fourth_moment)),
            (summary.mean_f, summary.se_f, expected_f_exact(mi)),
        )
        for mean, se, exact in checks:
            assert abs(mean - float(exact)) <= 3.0 * se, (n, k, mean, float(exact), se)
    print("ACCEPTANCE 4 PASS: empirical moments within 3 se at (4,1), (5,1), (8,2)")


def test_criterion_05_purity_and_pairing(moment_ensembles, scaling_sweep):
    """Every trial in every suite: pure full state, f = 2 delta^2, no flags."""
    _rows, sweep_audits = scaling_sweep
    audits = [audit for _summary, audit in moment_ensembles.values()]
    audits += [sweep_audits[n] for n in SWEEP_NS]
    total = 0
    for audit in audits:
        assert audit["flagged"] == 0
        assert audit["worst_purity"] <= PURITY_TOL
        assert audit["worst_f_dev"] <= F_IDENTITY_RTOL
        total += audit["total"]
    assert total == 3 * 100_000 + len(SWEEP_NS) * SWEEP_SAMPLES
    print(f"ACCEPTANCE 5 PASS: purity and pairing identities held in all {total} trials")


def test_criterion_06_concentration_scaling(scaling_sweep):
    """mean_f falls strictly with n, on the exact 1/n^2 law, at 3 se.

    With a flat spectrum z = 2 and a fixed one-mode subsystem the exact moment
    formulas (validated by criteria 3 and 4) give
    E f = 81/5168, 27/6160, 81/69680, 27/90128 for n = 16, 32, 64, 128: a
    1/n^2 decay whose per-doubling ratios are 0.280, 0.265, 0.258.  Each
    mean_f must lie within 3 se of E f, and each per-doubling ratio of mean_f
    within 3 se of the exact ratio, where the se of a ratio of two
    independent means (every n has its own seed) comes from their relative
    standard errors.  The rms deviation sqrt(mean_f) decays like 1/n, so its
    per-doubling ratio must sit in the pinned window [0.35, 0.7].
    """
    rows, _audits = scaling_sweep
    means = {n: summary.mean_f for n, summary in rows}
    ses = {n: summary.se_f for n, summary in rows}
    values = [means[n] for n in SWEEP_NS]
    assert all(a > b for a, b in zip(values, values[1:])), "mean_f must decrease"

    exact = {
        n: float(expected_f_exact(moment_inputs_from_spectrum((Fraction(2),) * n, 1)))
        for n in SWEEP_NS
    }
    mean_dist = {n: (means[n] - exact[n]) / ses[n] for n in SWEEP_NS}
    observed, predicted, ratio_dist, rms = {}, {}, {}, {}
    for lo, hi in zip(SWEEP_NS, SWEEP_NS[1:]):
        pair = (lo, hi)
        observed[pair] = means[hi] / means[lo]
        predicted[pair] = exact[hi] / exact[lo]
        se_ratio = observed[pair] * math.hypot(ses[lo] / means[lo], ses[hi] / means[hi])
        ratio_dist[pair] = (observed[pair] - predicted[pair]) / se_ratio
        rms[pair] = math.sqrt(observed[pair])

    report = (
        "mean_f ratios "
        + ", ".join(f"{a}->{b}: {r:.3f}" for (a, b), r in observed.items())
        + "; exact ratios "
        + ", ".join(f"{r:.3f}" for r in predicted.values())
        + "; mean_f - E f in se "
        + ", ".join(f"n={n}: {d:+.2f}" for n, d in mean_dist.items())
        + "; ratio - exact ratio in se "
        + ", ".join(f"{a}->{b}: {d:+.2f}" for (a, b), d in ratio_dist.items())
        + "; sqrt(mean_f) ratios "
        + ", ".join(f"{r:.3f}" for r in rms.values())
    )
    failures = [f"n={n}" for n, d in mean_dist.items() if abs(d) > 3.0]
    failures += [f"ratio {a}->{b}" for (a, b), d in ratio_dist.items() if abs(d) > 3.0]
    failures += [f"sqrt ratio {a}->{b}" for (a, b), r in rms.items() if not 0.35 <= r <= 0.7]
    if failures:
        pytest.fail(
            "ACCEPTANCE 6 FAIL (" + ", ".join(failures) + "): " + report
            + ". Prediction: E f ~ 1/n^2 at flat squeezing with fixed k, so"
            " mean_f within 3 se of E f, its ratios within 3 se of the exact"
            " ratios, and sqrt(mean_f) ratios in [0.35, 0.7]."
        )
    print("ACCEPTANCE 6 PASS: mean_f decreasing on the exact 1/n^2 law within 3 se; " + report)


def test_criterion_07_entropy_typicality(scaling_sweep):
    """Reduced entropy tightens onto G(lambda) as n grows: bias and spread fall."""
    rows, _audits = scaling_sweep
    gaps, spreads = [], []
    for _n, summary in rows:
        target = entropy_G(summary.lambda_bar)
        gaps.append(abs(summary.mean_entropy - target))
        spreads.append(summary.std_entropy)
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert all(a > b for a, b in zip(spreads, spreads[1:])), spreads
    print("ACCEPTANCE 7 PASS: entropy bias and spread strictly decreasing in n")


def test_criterion_08_lipschitz_ceiling():
    """No observed difference quotient of f may beat the proved constant."""
    z = (2.0, 1.0, 1.0, 1.0)
    ceiling = lipschitz_bound(z, 1)
    assert ceiling == pytest.approx(32.0 * math.sqrt(2.0) * 16.0, rel=1e-14)
    worst = lipschitz_probe(z, 1, pairs=10_000, rng=SeededStream(888))
    assert 0.0 < worst <= ceiling
    print(f"ACCEPTANCE 8 PASS: worst quotient {worst:.3f} under ceiling {ceiling:.3f}")


def test_criterion_09_ensemble_sampler_means():
    """Sampler means against closed forms, 1e5 draws, 3 sigma."""
    spec = ProfileSpec(kind="microcanonical", n=3, energy=12.0)
    gen = SeededStream(909).generator()
    totals = np.empty(100_000)
    for t in range(totals.size):
        z = sample_profile(spec, gen)
        totals[t] = np.sum(z + 1.0 / z)
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    # E[sum E_j] = 2n + (E - 2n) n/(n+1) = 10.5 at (n, E) = (3, 12)
    assert abs(totals.mean() - 10.5) <= 3.0 * se

    spec = ProfileSpec(kind="canonical", n=4, energy=8.0)
    gen = SeededStream(910).generator()
    energies = np.empty((100_000, 4))
    for t in range(energies.shape[0]):
        z = sample_profile(spec, gen)
        energies[t] = z + 1.0 / z
    flat = energies.ravel()
    se = flat.std(ddof=1) / math.sqrt(flat.size)
    assert abs(flat.mean() - 4.0) <= 3.0 * se  # 2 + T with T = E/n = 2
    print("ACCEPTANCE 9 PASS: sampler means within 3 sigma of closed forms")


def test_criterion_10_reproducibility(tmp_path):
    """Same seed, different worker counts: identical summaries and CSV bytes."""
    spec = ProfileSpec(kind="microcanonical", n=4, energy=16.0)
    s1, r1 = run_ensemble(spec, 2, 2000, seed=55, workers=1)
    s2, r2 = run_ensemble(spec, 2, 2000, seed=55, workers=2)
    assert s1 == s2
    assert r1.records() == r2.records()
    blob1 = format_trials_csv(r1, provenance="acceptance")
    blob2 = format_trials_csv(r2, provenance="acceptance")
    assert blob1 == blob2
    path1, path2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    path1.write_text(blob1)
    path2.write_text(blob2)
    assert path1.read_bytes() == path2.read_bytes()
    print("ACCEPTANCE 10 PASS: worker count invisible in summaries and CSV bytes")
