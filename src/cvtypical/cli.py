"""Command-line entry point.

Subcommands:
    moments           exact ensemble moments for a deterministic profile (JSON)
    concentration     sweep ensembles over a list of n (CSV per n + JSON summary)
    weingarten-check  compare the character-sum values against the Gram oracle
    trial-dump        run one ensemble and emit its trials (CSV) and summary (JSON)

A JSON config file holds option values keyed by dest; explicit flags override it.
Outputs are deterministic given (seed, config): files are written atomically,
floats serialize via repr, and every file carries a one-line provenance
header with the version, seed, and a config digest.  Entropies are in nats.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import hashlib
import json
import math
import os
import stat
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Callable, NamedTuple

from . import __version__
from .errors import (
    CvTypicalError,
    DomainError,
    EnergyTooSmall,
    InvalidSpec,
    UsageError,
)
from .haar import SEED_LIMIT
from .harness import (
    SWEEP_MIN_N,
    concentration_sweep,
    format_trials_csv,
    json_text,
    run_ensemble,
    summary_to_jsonable,
    _atomic_write_text,
)
from .profiles import ProfileSpec, ScalingConfig, parse_profile, profile_to_string

@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int = 0
    workers: int = 1
    n: int | None = None
    k: int | None = None
    samples: int | None = None
    z_profile: ProfileSpec | None = None
    scaling: ScalingConfig | None = None
    output_path: str | None = None
    n_list: tuple | None = None
    p: int | None = None
    n_range: tuple | None = None
    output_dir: str = "."
    summary_output: str | None = None


# concentration's files in --output-dir: a trial CSV per --n-list entry, a summary
_SWEEP_TRIALS, _SWEEP_SUMMARY = "trials_n{}.csv", "sweep_summary.json"


def _integer(minimum: int):
    def check(value, opt):
        with contextlib.suppress(ValueError):  # text int() refuses stays a string, refused below
            value = int(value) if isinstance(value, str) else value
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(f"{opt.flag} must be an integer, got {value!r}")
        if value < minimum:
            raise UsageError(f"{opt.flag} must be >= {minimum}, got {value}")
        return value

    return check


def _seed(value, opt) -> int:
    value = _integer(0)(value, opt)
    if value >= SEED_LIMIT:
        raise UsageError(f"{opt.flag} must be < 2^64 = {SEED_LIMIT}, got {value}")
    return value


def _number(value, opt) -> float:
    with contextlib.suppress(ValueError):  # as in _integer, as float() reads text
        value = float(value) if isinstance(value, str) else value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{opt.flag} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int that float() cannot take
        raise UsageError(f"{opt.flag} must be finite, got {value!r}")
    return float(value)


def _text(value, opt) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{opt.flag} must be a string, got {value!r}")
    return value


def _parse_n_list(value, opt) -> tuple:
    if isinstance(value, str):
        try:
            value = [int(part) for part in value.split(",") if part.strip()]
        except ValueError:
            pass  # the text stays a string, which the list check below refuses
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"{opt.flag} must be a comma list of integers, got {value!r}")
    if not value:
        raise UsageError(f"{opt.flag} is empty")
    n_list = tuple(_integer(SWEEP_MIN_N)(n, opt) for n in value)
    repeated = sorted({n for n in n_list if n_list.count(n) > 1})
    if repeated:
        # each n writes trials_n<n>.csv, so a repeat would overwrite a row's trials
        raise UsageError(f"{opt.flag} repeats {', '.join(map(str, repeated))}")
    return n_list


def _parse_n_range(value, opt) -> tuple:
    if isinstance(value, str) and value.count(":") == 1:
        try:
            value = [int(part) for part in value.split(":")]
        except ValueError:
            raise UsageError(f"{opt.flag} must hold integers, got {value!r}") from None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise UsageError(f"{opt.flag} must look like a:b, got {value!r}")
    lo, hi = (_integer(1)(end, opt) for end in value)
    if hi < lo:
        raise UsageError(f"{opt.flag} needs 1 <= a <= b, got {lo}:{hi}")
    return lo, hi


class _Option(NamedTuple):
    flag: str
    # check(value, option) -> checked value; raises UsageError.  It is the one
    # reader of the value: the flag's text or the config file's JSON value.
    check: Callable
    help: str | None = None


# One entry per option; the key is the argparse dest, the config-file key,
# and (except for the four scaling values) the RunConfig field.
_OPTIONS = {
    "seed": _Option("--seed", _seed),
    "workers": _Option("--workers", _integer(1), "at most this many worker threads (default 1)"),
    "n": _Option("--n", _integer(1), "mode count"),
    "k": _Option("--k", _integer(1), "subsystem modes (concentration default: scaling rule)"),
    "samples": _Option("--samples", _integer(1)),
    "z_profile": _Option(
        "--z-profile", _text, "fixed:<csv>, constant:<z>x<n>, micro:<E> or canonical:<E>[:<T>]"
    ),
    "output_path": _Option("--output", _text, "output file (default: stdout)"),
    "summary_output": _Option(
        "--summary-output", _text, "summary JSON file (default: stdout when --output is a file)"
    ),
    "n_list": _Option("--n-list", _parse_n_list, "comma-separated mode counts"),
    "zeta": _Option("--zeta", _number, "squeezing growth exponent"),
    "kappa": _Option("--kappa", _number, "subsystem growth exponent"),
    "scale_z": _Option("--scale-z", _number, "squeezing prefactor"),
    "scale_k": _Option("--scale-k", _number, "subsystem prefactor"),
    "output_dir": _Option("--output-dir", _text),
    "p": _Option("--p", _integer(1), "moment order"),
    "n_range": _Option("--n-range", _parse_n_range, "inclusive range a:b of dimensions"),
}

_SCALING_KEYS = ("zeta", "kappa", "scale_z", "scale_k")


class _Subcommand(NamedTuple):
    help: str
    options: tuple  # dests after the shared seed and workers, in flag order
    required: tuple
    run: Callable  # run(cfg) -> exit code


def _dests(sub: str) -> tuple:
    return ("seed", "workers") + _SUBCOMMANDS[sub].options


@functools.cache
def _build_parser():
    """The parser, built once per process.  It only splits the command line:
    every value stays the flag's text for its option's check."""
    parser = argparse.ArgumentParser(
        prog="cvtypical",
        description="Typicality experiments for random pure Gaussian states.",
    )
    parser.add_argument("--version", action="version", version=f"cvtypical {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, spec in _SUBCOMMANDS.items():
        sp = subs.add_parser(sub, help=spec.help)
        sp.add_argument("--config", help="JSON config file keyed by option dest; flags override it")
        for dest in _dests(sub):
            opt = _OPTIONS[dest]
            # name the value after the flag, not the dest (--output OUTPUT)
            sp.add_argument(opt.flag, dest=dest, metavar=opt.flag[2:].replace("-", "_").upper(), help=opt.help)
    return parser


def _config_file_values(path: str, sub: str) -> dict:
    """The config file's values by dest.  Null values count as absent."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    allowed = ("subcommand",) + _dests(sub)
    for key in data:
        if key not in allowed:
            raise UsageError(f"config key {key!r} is not valid for subcommand {sub!r}")
    named = data.pop("subcommand", sub)
    if named != sub:
        raise UsageError(f"config file names subcommand {named!r} but {sub!r} was invoked")
    return {key: value for key, value in data.items() if value is not None}


def parse_config(argv) -> RunConfig:
    """Merge argv and the optional --config JSON file into a RunConfig.

    argv is parsed once, and its flags lie over the file's values: explicit
    flag, then config-file key, then default.  Each value then passes its
    option's check, in _dests order, which reads a flag's text and a file's
    JSON value alike.  Unknown config keys, missing required options,
    cross-field inconsistencies and a file output that cannot be written
    (see _check_output_path), concentration's in an existing --output-dir
    too, raise UsageError, before anything runs.
    """
    ns = _build_parser().parse_args(argv)
    sub = ns.subcommand
    merged = {} if ns.config is None else _config_file_values(ns.config, sub)
    merged.update((dest, text) for dest in _dests(sub) if (text := getattr(ns, dest)) is not None)
    values = {dest: _OPTIONS[dest].check(merged[dest], _OPTIONS[dest]) for dest in _dests(sub) if dest in merged}
    if "z_profile" in values:
        values["z_profile"] = parse_profile(values["z_profile"], n=values.get("n"))
    if sub == "concentration":
        scaling = {key: values.pop(key) for key in _SCALING_KEYS if key in values}
        try:
            values["scaling"] = ScalingConfig(**scaling)
        except DomainError as exc:
            raise UsageError(f"bad scaling config: {exc}") from None
        seed, n_list = values.get("seed", 0), values.get("n_list", ())
        if n_list and seed + len(n_list) - 1 >= SEED_LIMIT:
            index = SEED_LIMIT - seed
            raise UsageError(
                f"--seed {seed}: the row seed seed + {index} of --n-list entry {n_list[index]}"
                f" reaches 2^64 = {SEED_LIMIT}"
            )
        rule = values["scaling"]
        for n in n_list:
            if not math.isfinite(rule.z_value(n)):
                raise UsageError(
                    f"--zeta {rule.zeta!r}, --scale-z {rule.scale_z!r}: z overflows at --n-list entry {n}"
                )
        if n_list and values.get("k", 0) > min(n_list):
            raise UsageError(f"--k {values['k']} exceeds the smallest --n-list entry {min(n_list)}")
    for dest in _SUBCOMMANDS[sub].required:
        if dest not in values:
            raise UsageError(f"subcommand {sub!r} needs {_OPTIONS[dest].flag}")

    cfg = RunConfig(subcommand=sub, **values)
    if sub == "moments" and not cfg.z_profile.is_deterministic:
        raise UsageError("moments needs a deterministic profile (fixed:... or constant:...)")
    if cfg.k is not None and cfg.z_profile is not None and cfg.k > cfg.z_profile.n:
        raise UsageError(f"--k {cfg.k} exceeds the profile's n={cfg.z_profile.n}")
    outputs = [path for path in (cfg.output_path, cfg.summary_output) if path is not None]
    for path in outputs:
        _check_output_path(path)
    if len(outputs) == 2 and os.path.realpath(outputs[0]) == os.path.realpath(outputs[1]):
        raise UsageError(f"--output and --summary-output both name {outputs[0]}")
    if sub == "concentration" and os.path.isdir(cfg.output_dir):
        for name in [*map(_SWEEP_TRIALS.format, cfg.n_list), _SWEEP_SUMMARY]:
            _check_output_path(os.path.join(cfg.output_dir, name))
    return cfg


# RunConfig fields that cannot change results, so they stay out of the digest
_UNHASHED = ("workers", "output_path", "output_dir", "summary_output")


def config_digest(cfg: RunConfig) -> str:
    """Digest of every RunConfig field but _UNHASHED that is set, and of the retired
    base_profile and format; a profile enters as its string and a scaling rule as its four values."""
    # every 0.3.0 digest hashed these two former RunConfig defaults; 0.4.0 drops them
    semantic = {"base_profile": "constant", "format": "csv"}
    for field in fields(RunConfig):
        value = getattr(cfg, field.name)
        if field.name in _UNHASHED or value is None:
            continue
        if isinstance(value, ProfileSpec):
            value = profile_to_string(value)
        elif isinstance(value, ScalingConfig):
            value = astuple(value)
        semantic[field.name] = value
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _provenance(cfg: RunConfig) -> tuple:
    """The provenance dict of the JSON outputs and the '#' line of the CSV
    ones, from one config digest."""
    digest = config_digest(cfg)
    line = f"cvtypical {__version__} seed={cfg.seed} config=sha256:{digest} unit=nats"
    return {"version": __version__, "seed": cfg.seed, "config_sha256": digest, "entropy_unit": "nats"}, line


@contextlib.contextmanager
def _writing(path: str):
    """An OSError while writing path is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_output_path(path: str) -> None:
    """Find a file output that is empty, whose directory is missing, or that is
    itself a directory, before the run, with the error its write would give."""
    directory = os.path.dirname(os.path.abspath(path))
    with _writing(path):
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if not stat.S_ISDIR(os.stat(directory).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def _emit_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with _writing(path):
        _atomic_write_text(path, text)


def _run_moments(cfg: RunConfig) -> int:
    from .moments import compute_moment_report  # loaded here, so the trial subcommands never load it
    spec = cfg.z_profile  # the parsed floats, which the moments convert once per distinct value
    report = compute_moment_report(spec.z_values if spec.kind == "fixed" else [spec.z] * spec.n, cfg.k)
    # rendered once: the digest takes a profile string as it stands
    profile = profile_to_string(spec)
    payload = {
        "provenance": _provenance(replace(cfg, z_profile=profile))[0],
        "n": spec.n,
        "k": cfg.k,
        "z_profile": profile,
        **asdict(report),
    }
    _emit_text(json_text(payload), cfg.output_path)
    return 0


def _run_concentration(cfg: RunConfig) -> int:
    with _writing(cfg.output_dir):
        os.makedirs(cfg.output_dir, exist_ok=True)
    provenance, provenance_line = _provenance(cfg)
    written = []
    rows = []
    for n, summary, table in concentration_sweep(
        cfg.scaling,
        cfg.n_list,
        cfg.samples,
        cfg.seed,
        k=cfg.k,
        workers=cfg.workers,
    ):
        path = os.path.join(cfg.output_dir, _SWEEP_TRIALS.format(n))
        _emit_text(format_trials_csv(table, provenance_line), path)
        written.append(path)
        rows.append(summary_to_jsonable(summary))
    payload = {
        "provenance": provenance,
        "rows": rows,
    }
    summary_path = os.path.join(cfg.output_dir, _SWEEP_SUMMARY)
    _emit_text(json_text(payload), summary_path)
    written.append(summary_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _run_weingarten_check(cfg: RunConfig) -> int:
    from .weingarten import gram_weingarten_oracle, weingarten  # loaded here, as in _run_moments
    lo, hi = cfg.n_range
    lines = ["# " + _provenance(cfg)[1], "n,cycle_type,character_sum,gram_oracle,delta"]
    mismatches = 0
    for n, oracle in gram_weingarten_oracle(range(lo, hi + 1), cfg.p).items():
        for ct, wg in weingarten(n, cfg.p).items():
            delta = wg - oracle[ct]
            if delta != 0:
                mismatches += 1
            ct_text = "+".join(str(part) for part in ct)
            lines.append(f"{n},{ct_text},{wg},{oracle[ct]},{delta}")
    sys.stdout.write("\n".join(lines) + "\n")
    if mismatches:
        print(f"error: {mismatches} Weingarten values disagree", file=sys.stderr)
        return 1
    return 0


def _run_trial_dump(cfg: RunConfig) -> int:
    summary, table = run_ensemble(
        cfg.z_profile, cfg.k, cfg.samples, cfg.seed, workers=cfg.workers
    )
    provenance, provenance_line = _provenance(cfg)
    csv_text = format_trials_csv(table, provenance_line)
    _emit_text(csv_text, cfg.output_path)
    summary_payload = summary_to_jsonable(summary, provenance)
    # without --summary-output the summary goes to stdout, unless the CSV did
    if cfg.summary_output is not None or cfg.output_path is not None:
        _emit_text(json_text(summary_payload), cfg.summary_output)
    return 0


_SUBCOMMANDS = {
    "moments": _Subcommand(
        "exact moment formulas for one profile",
        ("n", "k", "z_profile", "output_path"),
        ("k", "z_profile"),
        _run_moments,
    ),
    "concentration": _Subcommand(
        "ensemble sweep over a list of n",
        ("n_list", "k", "samples", *_SCALING_KEYS, "output_dir"),
        ("n_list", "samples"),
        _run_concentration,
    ),
    "weingarten-check": _Subcommand(
        "character sum vs Gram-matrix oracle", ("p", "n_range"), ("p", "n_range"), _run_weingarten_check
    ),
    "trial-dump": _Subcommand(
        "run an ensemble, dump trials + summary",
        ("n", "k", "z_profile", "samples", "output_path", "summary_output"),
        ("k", "z_profile", "samples"),
        _run_trial_dump,
    ),
}


def execute(cfg: RunConfig) -> int:
    """Run a validated config; returns the process exit code."""
    return _SUBCOMMANDS[cfg.subcommand].run(cfg)


def main(argv=None) -> int:
    """Console entry point.  Exit codes: 0 success, 1 computational failure,
    2 configuration or usage problem."""
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return execute(cfg)
    except (UsageError, InvalidSpec, EnergyTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CvTypicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
