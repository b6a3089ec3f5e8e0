"""Monte Carlo engine.

One trial: draw a squeezing spectrum, draw the k rows of a Haar-random
passive unitary that the first k modes see, build their reduced covariance
straight from those rows, and record its symplectic spectrum, its entropy,
the flatness functional f, and numerical-quality diagnostics.  Ensembles
run trials over independent counter-based streams keyed by
(seed, trial_id), so results are identical for any worker count, and
aggregate into a RunSummary.  CSV/JSON emission lives here too so the
formats stay pinned next to the records they serialize.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import DomainError, InvalidSubsystem, PairingFailure
from .haar import SeededStream, _as_generator, _haar_columns, _reseat
from .profiles import ProfileSpec, ScalingConfig, constant_profile, fixed_profile
from .profiles import exponential_count, spectra_from_exponentials
from .symplectic import (
    NOT_POSITIVE_DEFINITE,
    UNITARITY_TOL,
    average_energies,
    average_energy,
    gaussian_entropies,
    reduced_covariance_from_rows,
    spectral_deviation_deltas,
    spectrum_error,
    symplectic_form,
    symplectic_spectrum,
    unitarity_error,
)

# Exceedance thresholds are these multiples of lambda_bar**4; the natural
# scale of f is lambda_bar**4, so a fixed absolute ladder would go blind as
# the profile changes.
TAIL_LADDER_FACTORS = (0.01, 0.05, 0.1, 0.5, 1.0)

# A run fails outright when more than this fraction of trials flag
# PairingFailure; flagged trials are recorded, never dropped.
FLAG_BUDGET = 1e-3

F_IDENTITY_RTOL = 1e-8
PURITY_TOL = 1e-8

# run_ensemble runs trials in blocks of BLOCK_TRIALS, fewer when n is large
# enough that a block's stacked Ginibre draws would pass BLOCK_ENTRIES
# complex entries; the records do not depend on the block size.
BLOCK_TRIALS = 256
BLOCK_ENTRIES = 1 << 16

# smallest mode count a concentration sweep row may have
SWEEP_MIN_N = 4

# The trial CSV's fixed columns as (column, TrialRecord field, cell parser).
# A cell is written as repr(parser(value)), so reading it back is exact.
_TRIAL_CSV_SCHEMA = (
    ("trial_id", "trial_id", int),
    ("n", "n", int),
    ("k", "k", int),
    ("lambda_bar", "lambda_bar", float),
    ("entropy", "entropy", float),
    ("f", "f_value", float),
    ("delta", "delta", float),
    ("purity_residual", "purity_residual", float),
)
TRIAL_CSV_FIXED_COLUMNS = tuple(column for column, _field, _parse in _TRIAL_CSV_SCHEMA)


@dataclass(frozen=True)
class TrialRecord:
    """One realized trial.

    f_value and delta satisfy f = 2*delta**2 up to roundoff; purity_residual
    is max |V V^+ - I_k| over the k Haar rows V the trial drew: the n-mode
    state is pure exactly when those rows are orthonormal.
    tr_jm2/tr_jm4 are the raw trace powers feeding the moment comparisons.
    A flagged record means the reduced covariance matrix was not
    numerically positive definite, so its spectrum could not be taken; its
    numeric fields are NaN and it never enters summary statistics.
    """

    trial_id: int
    n: int
    k: int
    lambda_bar: float
    symplectic_spectrum: tuple
    entropy: float
    f_value: float
    delta: float
    purity_residual: float
    tr_jm2: float
    tr_jm4: float
    flagged: bool = False


@dataclass(frozen=True)
class RunSummary:
    """Aggregates over the unflagged trials of one ensemble.

    Standard errors are sample standard deviation (ddof=1) over sqrt(count).
    tail_counts maps a threshold eps to the fraction of trials whose squared
    spectral deviation delta**2 exceeds eps.  lambda_bar is the profile value
    for deterministic profiles and the mean per-trial value otherwise.
    """

    samples: int
    n: int
    k: int
    lambda_bar: float
    seed: int
    flagged: int
    mean_f: float
    se_f: float
    mean_tr_jm2: float
    se_tr_jm2: float
    mean_tr_jm4: float
    se_tr_jm4: float
    mean_entropy: float
    se_entropy: float
    std_entropy: float
    tail_counts: dict


def run_trial(z, k: int, rng, trial_id: int = 0) -> TrialRecord:
    """Run the pipeline once and record everything.

    Kept for perfbench, whose per-layer trace wraps it and whose self-test
    calls it.  A block of one: the k Haar rows come off rng (a
    SeededStream, or a Generator consumed in place), then _block_records
    does the rest.  A reduced covariance that is not positive definite
    yields a flagged record with NaN fields rather than an exception, so
    downstream tallies see every trial.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = z.size
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"k={k} outside 1..{n}")
    gen = _as_generator(rng)
    lam_bar = average_energy(z)
    draws = gen.standard_normal((1, 2, n, k))
    return _block_records(z, [lam_bar], draws, k, [trial_id])[0]


def _block_records(z, lam_bars, draws, k: int, trial_ids) -> list:
    """The records of a block of trials, in trial order.

    z is one spectrum (n,) shared by the block or one per trial (B, n),
    lam_bars the per-trial average_energy, draws (B, 2, n, k) the Ginibre
    blocks' real and imaginary parts.  Every stage runs once on the whole
    stack and computes each value as it would be alone, so a record does not
    depend on its block.  The stages mark the trials they fail instead of
    raising, and the error raised is that of the first failing trial, the
    one a trial-by-trial loop would meet first.  Within a trial the checks
    go: spectrum finite, lambda_bar**4 in the float range, rows unitary,
    reduced spectrum (a matrix that is not positive definite flags the
    trial instead), f finite, then entropy.
    """
    if not trial_ids:
        return []
    n = draws.shape[2]
    bars = np.array(lam_bars)
    # the first k columns of a Haar U are the first k rows of the Haar U^T
    V = np.swapaxes(_haar_columns(draws[:, 0] + 1j * draws[:, 1]), -1, -2)
    # a trial out of range, or past it on the way, runs on inf and NaN and
    # is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        M_red, residuals = reduced_covariance_from_rows(V, z)
        (lams, squares, _gaps), codes = symplectic_spectrum(M_red)
        # the scalar formula's operations in its order
        c = bars * bars
        jm = symplectic_form(k) @ M_red
        P = jm @ jm
        tr_jm2 = np.trace(P, axis1=1, axis2=2)
        tr_jm4 = np.trace(P @ P, axis1=1, axis2=2)
        f_values = tr_jm4 + 2.0 * c * tr_jm2 + 2.0 * k * c * c
        huge = ~np.isfinite(bars**4)
    flagged = codes == NOT_POSITIVE_DEFINITE
    lams[flagged] = squares[flagged] = np.nan
    nonfinite_z = np.broadcast_to(~np.isfinite(z).all(axis=-1), flagged.shape)
    nonunitary = residuals > UNITARITY_TOL
    nonfinite_f = ~(np.isfinite(f_values) | flagged)
    failing = nonfinite_z | huge | nonunitary | ((codes != 0) & ~flagged) | nonfinite_f
    bad = int(np.argmax(failing)) if failing.any() else len(trial_ids)
    # an earlier trial's entropy error comes first
    try:
        entropies = gaussian_entropies(lams[:bad])
    except DomainError as exc:
        raise DomainError(f"trial {trial_ids[exc.index]}: {exc}") from None
    if bad < len(trial_ids):
        # the first check the trial fails, in a lone trial's order
        if nonfinite_z[bad]:
            error = DomainError("squeezing spectrum is not finite")
        elif huge[bad]:
            error = DomainError(
                f"lambda_bar = {lam_bars[bad]!r} puts lambda_bar**4 beyond the float range"
            )
        elif nonunitary[bad]:
            error = unitarity_error(residuals[bad])
        elif codes[bad]:
            error = spectrum_error(codes[bad], lams[bad])
        else:
            error = DomainError(
                f"f = {f_values[bad].item()!r} is not finite"
                f" (lambda_bar = {lam_bars[bad]!r}, tr(JM)^4 = {tr_jm4[bad].item()!r})"
            )
        raise type(error)(f"trial {trial_ids[bad]}: {error}") from None
    deltas = spectral_deviation_deltas(squares, lam_bars)
    for column in (f_values, residuals, tr_jm2, tr_jm4):
        column[flagged] = np.nan
    columns = (entropies, f_values, deltas, residuals, tr_jm2, tr_jm4, flagged)
    return list(map(
        TrialRecord, trial_ids, itertools.repeat(n), itertools.repeat(k), lam_bars,
        map(tuple, lams.tolist()), *(column.tolist() for column in columns),
    ))


def validate_trial_record(rec: TrialRecord) -> None:
    """Assert the per-record invariants (skipped for flagged records).

    The f = 2*delta**2 comparison floors the relative scale at 1: both sides
    vanish together near flat spectra through a cancellation the trace route
    resolves only to absolute roundoff, so a purely relative test would be
    vacuously strict there.
    """
    if rec.flagged:
        return
    two_delta_sq = 2.0 * rec.delta * rec.delta
    scale = max(1.0, abs(rec.f_value), two_delta_sq)
    if abs(rec.f_value - two_delta_sq) > F_IDENTITY_RTOL * scale:
        raise PairingFailure(
            f"trial {rec.trial_id}: f={rec.f_value!r} vs 2*delta^2={two_delta_sq!r}"
        )
    if not rec.purity_residual <= PURITY_TOL:
        raise PairingFailure(
            f"trial {rec.trial_id}: n-mode state impure, row residual={rec.purity_residual!r}"
        )


def _as_profile(profile) -> ProfileSpec:
    if isinstance(profile, ProfileSpec):
        return profile
    return fixed_profile(profile)


def _run_block(args) -> list:
    """The records of trials start..stop-1, each drawn from its own
    (seed, trial_id) stream: one Philox, re-seated per trial."""
    spec, k, seed, start, stop = args
    n = spec.n
    trial_ids = list(range(start, stop))
    gen = SeededStream(seed, start).generator()
    draws = np.empty((len(trial_ids), 2, n, k))
    exponentials = None
    if not spec.is_deterministic:
        exponentials = np.empty((len(trial_ids), exponential_count(spec)))
    for b, t in enumerate(trial_ids):
        _reseat(gen, seed, t)
        if exponentials is not None:
            # profile draws come off the trial's stream, before the unitary
            gen.standard_exponential(out=exponentials[b])
        # the real parts, then the imaginary parts of the n x k Ginibre
        # block, in C order: the draws sample_haar_unitary(n, gen, k) makes
        gen.standard_normal(out=draws[b])
    if exponentials is None:
        z = spec.fixed_spectrum()
        lam_bars = [average_energy(z)] * len(trial_ids)
    else:
        # a huge energy squares to inf in the profile transform; the block
        # check reports the trial as out of range instead
        with np.errstate(over="ignore"):
            z = spectra_from_exponentials(spec, exponentials)
            lam_bars = average_energies(z).tolist()
    return _block_records(z, lam_bars, draws, k, trial_ids)


def _block_size(n: int, k: int) -> int:
    return max(1, min(BLOCK_TRIALS, BLOCK_ENTRIES // (n * k)))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _rescaled(statistic, values: np.ndarray, **options) -> float:
    """statistic(values, **options) as a float; if finite values overflow on
    the way (a square past about 1e154), it is taken on values scaled by a
    power of two and scaled back: exact, so other results keep their bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = statistic(values, **options)
        if math.isfinite(result) or not np.isfinite(values).all():
            return float(result)
        exponent = math.frexp(np.abs(values).max())[1]
        return float(np.ldexp(statistic(np.ldexp(values, -exponent), **options), exponent))


def _mean_se(values: np.ndarray) -> tuple:
    count = values.size
    if count == 0:
        return float("nan"), float("nan")
    mean = _rescaled(np.mean, values)
    if count < 2:
        return mean, float("nan")
    return mean, _rescaled(np.std, values, ddof=1) / math.sqrt(count)


def summarize_records(records, seed: int, profile: ProfileSpec | None = None) -> RunSummary:
    """Reduce a trial list to a RunSummary (order-insensitive aggregation).

    Raises PairingFailure when the tail fractions grow with the threshold or
    beat the Markov bound set by mean_f, which consistent records cannot do.
    """
    if not records:
        raise DomainError("cannot summarize an empty trial list")
    live = [r for r in records if not r.flagged]
    flagged = len(records) - len(live)
    first = records[0]
    if profile is not None and profile.is_deterministic:
        lambda_ref = average_energy(profile.fixed_spectrum())
    elif live:
        lambda_ref = float(np.mean([r.lambda_bar for r in live]))
    else:
        # flagged records still carry their profile's lambda_bar; NaN
        # thresholds would be five distinct keys that JSON cannot tell apart
        finite = [r.lambda_bar for r in records if math.isfinite(r.lambda_bar)]
        lambda_ref = float(np.mean(finite)) if finite else float("nan")

    f_vals = np.array([r.f_value for r in live])
    tr2 = np.array([r.tr_jm2 for r in live])
    tr4 = np.array([r.tr_jm4 for r in live])
    entropy = np.array([r.entropy for r in live])
    delta_sq = np.array([r.delta * r.delta for r in live])

    mean_f, se_f = _mean_se(f_vals)
    mean_tr2, se_tr2 = _mean_se(tr2)
    mean_tr4, se_tr4 = _mean_se(tr4)
    mean_s, se_s = _mean_se(entropy)
    std_s = _rescaled(np.std, entropy, ddof=1) if entropy.size >= 2 else float("nan")

    scale = lambda_ref ** 4
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
                    # empirical Markov bound; cushion covers the two float
                    # routes to mean(delta^2), and the clamp covers vacuum
                    # runs where the trace route leaves mean_f at -1e-17
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


def run_ensemble(profile, k: int, samples: int, seed: int, workers: int = 1):
    """Run `samples` independent trials and aggregate.

    Returns (RunSummary, list of TrialRecord in trial_id order).  The trial
    stream for trial t is keyed (seed, t), so any worker count reproduces the
    same records bit for bit.  Trials run in contiguous blocks of ids.
    Threads pay off only where the stacked LAPACK calls, which release the
    GIL, dominate a block, so only blocks that BLOCK_ENTRIES shrinks below
    BLOCK_TRIALS (n k > 256) go to w = min(workers, usable CPUs) threads,
    each taking whole blocks of at most 1/w of one worker's, so the memory
    in flight stays one worker's.  Raises PairingFailure when flagged trials
    exceed FLAG_BUDGET of the run; any other failing trial stops the run
    with its error, that of the lowest failing trial id whatever the worker
    count.
    """
    spec = _as_profile(profile)
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    if not 1 <= k <= spec.n:
        raise InvalidSubsystem(f"k={k} outside 1..{spec.n}")

    size = _block_size(spec.n, k)
    threads = min(workers, _cpu_count()) if size < BLOCK_TRIALS else 1
    size = -(-min(size, samples) // threads)
    blocks = [
        (spec, k, seed, start, min(start + size, samples)) for start in range(0, samples, size)
    ]
    if threads == 1:
        records = [rec for block in blocks for rec in _run_block(block)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = [rec for part in pool.map(_run_block, blocks) for rec in part]

    flagged = sum(1 for r in records if r.flagged)
    if flagged > FLAG_BUDGET * samples:
        raise PairingFailure(
            f"{flagged} of {samples} trials failed the Cholesky factorization "
            f"(budget {FLAG_BUDGET:.1%})"
        )
    return summarize_records(records, seed=seed, profile=spec), records


def concentration_sweep(
    scaling: ScalingConfig,
    n_list,
    samples: int,
    seed: int,
    k: int | None = None,
    base_profile: str = "constant",
    workers: int = 1,
    record_sink=None,
):
    """Run one ensemble per n and collect (n, RunSummary) pairs.

    The profile at each n is constant with z = scaling.z_value(n), or the
    vacuum when base_profile="vacuum".  Every row has k modes when k is
    given, else scaling.k_of(n).  Each n gets its own base seed
    (seed + index) so rows stay independent.  record_sink, when given,
    receives (n, summary, records) per row.
    """
    results = []
    for index, n in enumerate(n_list):
        n = int(n)
        if n < SWEEP_MIN_N:
            raise DomainError(f"sweep rows need n >= {SWEEP_MIN_N}, got {n}")
        if base_profile == "constant":
            spec = scaling.profile_for(n)
        elif base_profile == "vacuum":
            spec = constant_profile(1.0, n)
        else:
            raise DomainError(f"unknown base profile {base_profile!r}")
        k_n = scaling.k_of(n) if k is None else k
        summary, records = run_ensemble(spec, k_n, samples, seed + index, workers)
        if record_sink is not None:
            record_sink(n, summary, records)
        results.append((n, summary))
    return results


def lipschitz_bound(z, k: int) -> float:
    """The proved ceiling for |f(U) - f(V)| / ||U - V||_F: the Lipschitz
    constant the measure-concentration tail bound on f is stated with."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return 32.0 * math.sqrt(2.0 * k) * float(np.max(z)) ** 4


def _atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cvtypical-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def trial_csv_header(k: int) -> str:
    lambdas = [f"lambda_{j}" for j in range(1, k + 1)]
    return ",".join(TRIAL_CSV_FIXED_COLUMNS + tuple(lambdas))


def format_trials_csv(records, provenance: str | None = None) -> str:
    """Render records as CSV text.  Floats use repr so parsing the file back
    reproduces them exactly; a leading '#' line carries provenance."""
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
        # _TRIAL_CSV_SCHEMA's columns in its order, each cell repr(parse(value))
        lines.append(
            f"{int(r.trial_id)!r},{int(r.n)!r},{int(r.k)!r},{float(r.lambda_bar)!r},"
            f"{float(r.entropy)!r},{float(r.f_value)!r},{float(r.delta)!r},"
            f"{float(r.purity_residual)!r},{','.join(map(repr, r.symplectic_spectrum))}"
        )
    return "\n".join(lines) + "\n"


def write_trials_csv(path, records, provenance: str | None = None) -> None:
    _atomic_write_text(path, format_trials_csv(records, provenance))


def read_trials_csv(path):
    """Parse a trials CSV back into records.

    Returns (records, provenance line or None).  The CSV does not carry the
    tr_jm2/tr_jm4 diagnostics, so those come back NaN; a row whose f field is
    NaN is a flagged trial.
    """
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    provenance = None
    rows = [l for l in lines if l]
    if rows and rows[0].startswith("#"):
        provenance = rows[0][1:].strip()
        rows = rows[1:]
    if not rows:
        raise DomainError(f"{path} has no header row")
    header = rows[0].split(",")
    fixed = list(TRIAL_CSV_FIXED_COLUMNS)
    if header[: len(fixed)] != fixed or len(header) <= len(fixed):
        raise DomainError(f"{path} does not match the trial CSV schema")
    k = len(header) - len(fixed)
    if header[len(fixed):] != [f"lambda_{j}" for j in range(1, k + 1)]:
        raise DomainError(f"{path} has malformed spectrum columns")
    records = []
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != len(header):
            raise DomainError(f"{path}: row width {len(cells)} != {len(header)}")
        values = {
            field: parse(cell) for (_column, field, parse), cell in zip(_TRIAL_CSV_SCHEMA, cells)
        }
        records.append(
            TrialRecord(
                **values,
                symplectic_spectrum=tuple(float(c) for c in cells[len(fixed):]),
                tr_jm2=float("nan"),
                tr_jm4=float("nan"),
                flagged=math.isnan(values["f_value"]),
            )
        )
    return records, provenance


def summary_to_jsonable(summary: RunSummary, provenance: dict | None = None) -> dict:
    payload = {field.name: getattr(summary, field.name) for field in fields(RunSummary)}
    # repr keys survive JSON exactly; float(key) restores them
    payload["tail_counts"] = {repr(eps): frac for eps, frac in summary.tail_counts.items()}
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def summary_from_jsonable(payload: dict) -> RunSummary:
    # every field but tail_counts is an int or a float, restored by its type
    values = {
        name: kind(payload[name])
        for name, kind in get_type_hints(RunSummary).items()
        if name != "tail_counts"
    }
    values["tail_counts"] = {float(key): float(val) for key, val in payload["tail_counts"].items()}
    return RunSummary(**values)


def json_text(payload) -> str:
    """The JSON artifacts' text: two-space indent, sorted keys, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_summary_json(path):
    """Read a summary JSON the CLI wrote, the inverse of summary_to_jsonable.

    Returns (RunSummary, provenance dict or None)."""
    with open(path) as handle:
        payload = json.load(handle)
    return summary_from_jsonable(payload), payload.get("provenance")
