"""Monte Carlo engine.

One trial: draw a squeezing spectrum, draw the k rows of a Haar-random
passive unitary that the first k modes see, build their reduced covariance
straight from those rows, and record its symplectic spectrum, its entropy,
the flatness functional f, and numerical-quality diagnostics.  Ensembles
run in blocks over independent counter-based streams keyed by
(seed, trial_id), so results are identical for any worker count.
draw_block is the one place a stream's draws are laid out, for every
trial (run_trial's lone one is a block of one), and at k = 0 the one route
to the spectra the trials of a seed draw.  A block's TrialTable of columns
joins the ensemble's, which is summarized into a RunSummary and written as
CSV column by column, with no per-trial objects.  CSV/JSON emission lives
here too, next to the tables it serializes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .errors import DomainError, InvalidSubsystem, PairingFailure
from .haar import SEED_LIMIT, SeededStream, _stream_keys, haar_columns
from .profiles import ProfileSpec, ScalingConfig, exponential_count, fixed_profile, spectra_from_exponentials
from .symplectic import (
    NOT_POSITIVE_DEFINITE,
    UNITARITY_TOL,
    _j_times,
    average_energies,
    entropy_error,
    gaussian_entropies,
    reduced_covariance_from_rows,
    spectral_deviation_deltas,
    spectrum_error,
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
# complex entries; the trials' rows do not depend on the block size.
BLOCK_TRIALS = 256
BLOCK_ENTRIES = 1 << 16

# smallest mode count a concentration sweep row may have
SWEEP_MIN_N = 4

@dataclass(frozen=True)
class TrialRecord:
    """One realized trial, and one row of the trial CSV (see
    TRIAL_CSV_FIXED_COLUMNS).

    f and delta satisfy f = 2*delta**2 up to roundoff; purity_residual
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
    f: float
    delta: float
    purity_residual: float
    tr_jm2: float
    tr_jm4: float
    flagged: bool = False


# The trial CSV's fixed columns, each with the type that reads its cells
# (repr(value)) back exactly: TrialRecord's fields in order but the spectrum,
# which closes a row as lambda_1..lambda_k, and the three the CSV does not
# carry (a row whose f is NaN is flagged).  Annotations are strings here.
_TRIAL_CSV_TYPES = {
    field.name: {"int": int, "float": float}[field.type]
    for field in fields(TrialRecord)
    if field.name not in ("symplectic_spectrum", "tr_jm2", "tr_jm4", "flagged")
}
TRIAL_CSV_FIXED_COLUMNS = tuple(_TRIAL_CSV_TYPES)


@dataclass(frozen=True, eq=False)
class TrialTable:
    """The trials of a block or an ensemble in trial order: n and k, and one
    array per other TrialRecord field under its name, symplectic_spectrum
    (B, k) and the rest (B,).  records() builds the rows; compare those, as
    tables compare by identity."""

    n: int
    k: int
    trial_id: np.ndarray
    lambda_bar: np.ndarray
    symplectic_spectrum: np.ndarray
    entropy: np.ndarray
    f: np.ndarray
    delta: np.ndarray
    purity_residual: np.ndarray
    tr_jm2: np.ndarray
    tr_jm4: np.ndarray
    flagged: np.ndarray

    def __len__(self) -> int:
        return len(self.trial_id)

    def records(self) -> list:
        """One TrialRecord per row, in order."""
        size = len(self)
        return list(map(
            TrialRecord, self.trial_id.tolist(), itertools.repeat(self.n, size), itertools.repeat(self.k, size),
            self.lambda_bar.tolist(), map(tuple, self.symplectic_spectrum.tolist()),
            *(getattr(self, name).tolist() for name in _TABLE_COLUMNS[3:]),  # entropy .. flagged
        ))


_TABLE_COLUMNS = tuple(field.name for field in fields(TrialTable))[2:]  # all but n and k


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


def run_trial(z, k: int, stream: SeededStream) -> TrialRecord:
    """Trial stream.stream_id of the ensemble of fixed_profile(z) at seed
    stream.seed: the record run_ensemble's table holds for it, run as a
    block of one through _run_block.

    Kept for perfbench's self-test and the tests, which call it.  A reduced
    covariance that is not positive definite yields a flagged record with
    NaN fields rather than an exception.
    """
    if not isinstance(stream, SeededStream):
        raise DomainError(f"expected a SeededStream, got {type(stream).__name__}")
    spec = fixed_profile(z)
    k, seed = _checked_k_and_seed(k, stream.seed, spec.n)
    t = _as_int("stream_id", stream.stream_id)
    if not 0 <= t < SEED_LIMIT:  # SeededStream keys it mod 2^64, which would alias another trial
        raise DomainError(f"stream_id={t} outside 0..2^64-1")
    return _run_block((spec, k, seed, t, t + 1)).records()[0]


def _as_int(name: str, value, error=DomainError) -> int:
    """value as a Python int: a float count would be truncated or fail in
    numpy, and a numpy integer would be written as np.int64(1) in the CSV,
    fail the JSON encoder, and overflow the stream keys; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"need an integer {name}, got {name}={value!r}")
    return int(value)


def _checked_k_and_seed(k, seed, n: int) -> tuple:
    """(k, seed) as Python ints, k in 1..n and seed in 0..SEED_LIMIT-1."""
    k = _as_int("k", k, InvalidSubsystem)
    if not 1 <= k <= n:
        raise InvalidSubsystem(f"k={k} outside 1..{n}")
    seed = _as_int("seed", seed)
    if not 0 <= seed < SEED_LIMIT:
        raise DomainError(f"seed={seed} outside 0..2^64-1")
    return k, seed


def _block_records(z, lam_bars, draws, k: int, trial_ids) -> TrialTable:
    """The TrialTable of a block of trials, in trial order.

    z is one spectrum (n,) shared by the block or one per trial (B, n),
    lam_bars the (B,) per-trial average energies, draws (B, 2, n, k) the
    Ginibre blocks' real and imaginary parts.  Every stage runs once on the
    whole stack and computes each value as it would be alone, so a row does
    not depend on its block.  The stages mark the trials they fail instead of
    raising, and the error raised is that of the first failing trial, the
    one a trial-by-trial loop would meet first: within a trial, the first
    check it fails in the order of the checks table below.  A reduced
    matrix that is not positive definite flags the trial instead.
    """
    n = draws.shape[2]
    bars = np.asarray(lam_bars, dtype=float)
    # the first k columns of a Haar U are the first k rows of the Haar U^T
    V = np.swapaxes(haar_columns(draws[:, 0] + 1j * draws[:, 1]), -1, -2)
    # a trial out of range, or past it on the way, runs on inf and NaN and
    # is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        M_red, residuals = reduced_covariance_from_rows(V, z)
        (lams, squares, _gaps), codes = symplectic_spectrum(M_red)
        flagged = codes == NOT_POSITIVE_DEFINITE
        lams[flagged] = squares[flagged] = np.nan
        entropies, low = gaussian_entropies(lams)
        # the scalar formula's operations in its order
        c = bars * bars
        jm = _j_times(M_red)
        P = jm @ jm
        tr_jm2 = np.trace(P, axis1=1, axis2=2)
        tr_jm4 = np.trace(P @ P, axis1=1, axis2=2)
        f = tr_jm4 + 2.0 * c * tr_jm2 + 2.0 * k * c * c
        huge = ~np.isfinite(bars**4)
    # each check as (mask of the trials failing it, error of trial b), in a
    # lone trial's order; a trial raises the error of the first it fails
    checks = (
        (np.broadcast_to(~np.isfinite(z).all(axis=-1), flagged.shape),
         lambda b: DomainError("squeezing spectrum is not finite")),
        (huge, lambda b: DomainError(
            f"lambda_bar = {bars[b].item()!r} puts lambda_bar**4 beyond the float range")),
        (residuals > UNITARITY_TOL, lambda b: unitarity_error(residuals[b])),
        ((codes != 0) & ~flagged, lambda b: spectrum_error(codes[b], lams[b])),
        (~(np.isfinite(f) | flagged), lambda b: DomainError(
            f"f = {f[b].item()!r} is not finite"
            f" (lambda_bar = {bars[b].item()!r}, tr(JM)^4 = {tr_jm4[b].item()!r})")),
        (low, lambda b: entropy_error(lams[b])),
    )
    failing = np.logical_or.reduce([mask for mask, _make in checks])
    if failing.any():
        bad = int(np.argmax(failing))
        error = next(make(bad) for mask, make in checks if mask[bad])
        raise type(error)(f"trial {trial_ids[bad]}: {error}") from None
    deltas = spectral_deviation_deltas(squares, bars)
    for column in (f, residuals, tr_jm2, tr_jm4):
        column[flagged] = np.nan
    columns = (entropies, f, deltas, residuals, tr_jm2, tr_jm4, flagged)
    return TrialTable(n, k, np.asarray(trial_ids), bars, lams, *columns)


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
    scale = max(1.0, abs(rec.f), two_delta_sq)
    if abs(rec.f - two_delta_sq) > F_IDENTITY_RTOL * scale:
        raise PairingFailure(
            f"trial {rec.trial_id}: f={rec.f!r} vs 2*delta^2={two_delta_sq!r}"
        )
    if not rec.purity_residual <= PURITY_TOL:
        raise PairingFailure(
            f"trial {rec.trial_id}: n-mode state impure, row residual={rec.purity_residual!r}"
        )


def draw_block(spec: ProfileSpec, k: int, seed: int, start: int, stop: int) -> tuple:
    """The draws of trials start..stop-1, each off its own (seed, trial_id)
    stream, laid out as nowhere else: a random profile's unit exponentials
    first, then the real and the imaginary parts of the trial's n x k
    Ginibre block, in C order.  One Philox is re-keyed per trial from the
    block's prebuilt keys through one state dict, a fresh Philox's held in
    Python ints, which its setter takes in half the time numpy arrays take.

    Returns (z, draws): z is the profile's one spectrum (n,) when it is
    deterministic, else the trials' spectra (B, n), inf where an energy
    squares past the float range; draws is (B, 2, n, k).  At k = 0 a trial
    draws its spectrum only: row i of z is the spectrum trial i draws.
    """
    trial_ids = range(start, stop)
    gen = SeededStream(seed, start).generator()
    state = gen.bit_generator.state  # a fresh Philox's: key, counter 0, empty buffer
    state["state"]["counter"], state["buffer"] = state["state"]["counter"].tolist(), state["buffer"].tolist()
    draws = np.empty((len(trial_ids), 2, spec.n, k))
    exponentials = None
    if not spec.is_deterministic:
        exponentials = np.empty((len(trial_ids), exponential_count(spec)))
    for b, key in enumerate(_stream_keys(seed, trial_ids).tolist()):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        if exponentials is not None:
            gen.standard_exponential(out=exponentials[b])
        gen.standard_normal(out=draws[b])
    if exponentials is None:
        return spec.fixed_spectrum(), draws
    with np.errstate(over="ignore"):
        return spectra_from_exponentials(spec, exponentials), draws


def _run_block(args) -> TrialTable:
    """The TrialTable of trials start..stop-1, from draw_block's draws."""
    spec, k, seed, start, stop = args
    z, draws = draw_block(spec, k, seed, start, stop)
    # a huge spectrum's average may overflow; the block check reports the
    # trial as out of range instead
    with np.errstate(over="ignore"):
        lam_bars = np.full(stop - start, average_energies(z))
    return _block_records(z, lam_bars, draws, k, np.arange(start, stop))


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


def _mean_se_std(values: np.ndarray) -> tuple:
    """Mean, standard error and sample std (ddof=1); NaN where too few values."""
    mean = _rescaled(np.mean, values) if values.size else math.nan
    if values.size < 2:
        return mean, math.nan, math.nan
    std = _rescaled(np.std, values, ddof=1)
    return mean, std / math.sqrt(values.size), std


def summarize_records(table: TrialTable, seed: int, profile: ProfileSpec | None = None) -> RunSummary:
    """Reduce a TrialTable to a RunSummary (order-insensitive aggregation)
    over its unflagged rows.

    Raises PairingFailure when a tail fraction beats the Markov bound set by
    mean_f, which consistent trials cannot do.
    """
    if not len(table):
        raise DomainError("cannot summarize an empty trial table")
    live = ~table.flagged
    live_count = int(live.sum())
    if profile is not None and profile.is_deterministic:
        lambda_ref = float(average_energies(profile.fixed_spectrum()))
    else:  # with no live trial, the flagged ones carry their profile's value
        with np.errstate(over="ignore", invalid="ignore"):  # a mean past the range is refused below
            lambda_ref = float(np.mean(table.lambda_bar[live] if live_count else table.lambda_bar))

    entropy, delta = table.entropy[live], table.delta[live]
    with np.errstate(over="ignore"):  # a power past the float range is inf
        delta_sq = delta * delta
        scale = float(np.float64(lambda_ref) ** 4)

    mean_f, se_f, _ = _mean_se_std(table.f[live])
    mean_tr2, se_tr2, _ = _mean_se_std(table.tr_jm2[live])
    mean_tr4, se_tr4, _ = _mean_se_std(table.tr_jm4[live])
    mean_s, se_s, std_s = _mean_se_std(entropy)

    if math.isnan(lambda_ref):  # five NaN thresholds, which JSON would collapse
        raise DomainError("trials need a lambda_bar that is a number, got nan")
    if math.isinf(scale):  # five inf thresholds, which a dict would collapse
        raise DomainError(f"lambda_bar {lambda_ref!r} has a fourth power past the float range")
    tail_counts = {
        f * scale: float(np.mean(delta_sq > f * scale)) if live_count else float("nan")
        for f in TAIL_LADDER_FACTORS
    }

    if live_count and math.isfinite(mean_f):
        for eps, q in tail_counts.items():
            if eps > 0.0:
                # empirical Markov bound; cushion covers the two float
                # routes to mean(delta^2), and the clamp covers vacuum
                # runs where the trace route leaves mean_f at -1e-17
                bound = (max(mean_f, 0.0) / (2.0 * eps)) * (1.0 + 1e-9) + 1e-15
                if not q <= bound:
                    raise PairingFailure(f"tail fraction {q} at eps={eps} beats Markov")

    return RunSummary(
        len(table), table.n, table.k, lambda_ref, seed, len(table) - live_count,
        mean_f, se_f, mean_tr2, se_tr2, mean_tr4, se_tr4, mean_s, se_s, std_s, tail_counts,
    )


def run_ensemble(profile, k: int, samples: int, seed: int, workers: int = 1):
    """Run `samples` independent trials and aggregate.

    Returns (RunSummary, TrialTable in trial_id order).  The trial stream
    for trial t is keyed (seed, t), so any worker count reproduces the same
    table bit for bit.  Trials run in contiguous blocks of ids, whose tables
    are joined column by column; a run of one block keeps that block's.
    Threads pay off only where the stacked LAPACK calls, which release the
    GIL, dominate a block, so only blocks that BLOCK_ENTRIES shrinks below
    BLOCK_TRIALS (n k > 256) go to w = min(workers, usable CPUs) threads,
    each taking whole blocks of at most 1/w of one worker's, so the memory
    in flight stays one worker's.  Raises PairingFailure when flagged trials
    exceed FLAG_BUDGET of the run; any other failing trial stops the run
    with its error, that of the lowest failing trial id whatever the worker
    count.
    """
    spec = profile if isinstance(profile, ProfileSpec) else fixed_profile(profile)
    samples, workers = _as_int("samples", samples), _as_int("workers", workers)
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    k, seed = _checked_k_and_seed(k, seed, spec.n)

    size = _block_size(spec.n, k)
    threads = min(workers, _cpu_count()) if size < BLOCK_TRIALS else 1
    size = -(-min(size, samples) // threads)
    blocks = [
        (spec, k, seed, start, min(start + size, samples)) for start in range(0, samples, size)
    ]
    if threads == 1:
        tables = list(map(_run_block, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only by a threaded run
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tables = list(pool.map(_run_block, blocks))
    table = tables[0] if len(tables) == 1 else TrialTable(tables[0].n, tables[0].k, *(
        np.concatenate([getattr(part, column) for part in tables]) for column in _TABLE_COLUMNS
    ))

    flagged = int(table.flagged.sum())
    if flagged > FLAG_BUDGET * samples:
        raise PairingFailure(
            f"{flagged} of {samples} trials failed the Cholesky factorization "
            f"(budget {FLAG_BUDGET:.1%})"
        )
    return summarize_records(table, seed=seed, profile=spec), table


def concentration_sweep(
    scaling: ScalingConfig,
    n_list,
    samples: int,
    seed: int,
    k: int | None = None,
    workers: int = 1,
):
    """Run one ensemble per n and yield (n, RunSummary, TrialTable) as each
    row finishes.

    The profile at each n is scaling.profile_for(n), constant with
    z = scaling.z_value(n); the vacuum is ScalingConfig(scale_z=1.0).  Every
    row has k modes when k is given, else scaling.k_of(n).  Each n gets its
    own base seed (seed + index) so rows stay independent.
    """
    for index, n in enumerate(n_list):
        n = _as_int("n", n)
        if n < SWEEP_MIN_N:
            raise DomainError(f"sweep rows need n >= {SWEEP_MIN_N}, got {n}")
        k_n = scaling.k_of(n) if k is None else k
        yield (n, *run_ensemble(scaling.profile_for(n), k_n, samples, seed + index, workers))


def _atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cvtypical-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file 0600; give it the mode open(path, "w") would
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


def format_trials_csv(table: TrialTable, provenance: str | None = None) -> str:
    """Render a TrialTable as CSV text.  Floats use repr so parsing the file
    back reproduces them exactly; a leading '#' line carries provenance."""
    if not len(table):
        raise DomainError("refusing to format an empty trial table")
    lines = []
    if provenance:
        lines.append("# " + provenance)
    lines.append(trial_csv_header(table.k))
    bars, bits = table.lambda_bar, table.lambda_bar.view(np.uint64)
    if (bits == bits[0]).all():
        bars = bars[:1]  # one bit pattern, as a deterministic profile gives
    # the fixed columns in order, then the spectrum's; each cell is
    # repr(value) of a value its field's type returns unchanged, and a
    # column of one value (n, k, maybe lambda_bar) takes it once
    once = {"n": [table.n], "k": [table.k], "lambda_bar": bars.tolist()}
    columns = [once[name] if name in once else getattr(table, name).tolist() for name in TRIAL_CSV_FIXED_COLUMNS]
    columns += table.symplectic_spectrum.T.tolist()
    cells = (itertools.repeat(repr(c[0]), len(table)) if len(c) == 1 else map(repr, c) for c in columns)
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


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
    fixed = len(TRIAL_CSV_FIXED_COLUMNS)
    if header[:fixed] != list(TRIAL_CSV_FIXED_COLUMNS) or len(header) <= fixed:
        raise DomainError(f"{path} does not match the trial CSV schema")
    if rows[0] != trial_csv_header(len(header) - fixed):
        raise DomainError(f"{path} has malformed spectrum columns")
    records = []
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != len(header):
            raise DomainError(f"{path}: row width {len(cells)} != {len(header)}")
        values = {name: parse(cell) for (name, parse), cell in zip(_TRIAL_CSV_TYPES.items(), cells)}
        spectrum = tuple(float(c) for c in cells[fixed:])
        records.append(TrialRecord(
            **values, symplectic_spectrum=spectrum, tr_jm2=math.nan, tr_jm4=math.nan,
            flagged=math.isnan(values["f"]),
        ))
    return records, provenance


def summary_to_jsonable(summary: RunSummary, provenance: dict | None = None) -> dict:
    payload = {field.name: getattr(summary, field.name) for field in fields(RunSummary)}
    # repr keys survive JSON exactly; float(key) restores them
    payload["tail_counts"] = {repr(eps): frac for eps, frac in summary.tail_counts.items()}
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def json_text(payload) -> str:
    """The JSON artifacts' text: two-space indent, sorted keys, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
