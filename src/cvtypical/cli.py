"""Command-line entry point.

Subcommands:
    moments           exact ensemble moments for a deterministic profile (JSON)
    concentration     sweep ensembles over a list of n (CSV per n + JSON summary)
    weingarten-check  compare the character-sum values against the Gram oracle
    profile-sample    draw squeezing spectra from a profile (CSV or JSON)
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
from dataclasses import astuple, dataclass, fields
from typing import Callable, NamedTuple

from . import __version__
from .errors import (
    CvTypicalError,
    DomainError,
    EnergyTooSmall,
    InvalidSpec,
    UsageError,
)
from .haar import SeededStream
from .harness import (
    SWEEP_MIN_N,
    concentration_sweep,
    format_trials_csv,
    json_text,
    run_ensemble,
    summary_to_jsonable,
    write_trials_csv,
    _atomic_write_text,
)
from .moments import compute_moment_report
from .profiles import ProfileSpec, ScalingConfig, parse_profile, profile_to_string
from .profiles import sample_profile
from .weingarten import gram_weingarten_oracle, partitions, weingarten

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
    format: str = "csv"
    n_list: tuple | None = None
    p: int | None = None
    n_range: tuple | None = None
    output_dir: str = "."
    summary_output: str | None = None
    base_profile: str = "constant"


# Philox is keyed with the seed as one exact 64-bit half (haar._reseat), so
# a seed must fit in 64 bits, as must every sweep row's seed + i.
SEED_LIMIT = 2**64


def _integer(minimum: int):
    def check(value, opt):
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{opt.flag} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise UsageError(f"{opt.flag} must be finite, got {value!r}")
    return float(value)


def _text(value, opt) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{opt.flag} must be a string, got {value!r}")
    return value


def _choice(value, opt) -> str:
    if value not in opt.choices:
        raise UsageError(f"{opt.flag} must be one of {', '.join(opt.choices)}, got {value!r}")
    return value


def _parse_n_list(value, opt) -> tuple:
    if isinstance(value, str):
        try:
            value = [int(part) for part in value.split(",") if part.strip()]
        except ValueError:
            raise UsageError(f"{opt.flag} must be a comma list of integers, got {value!r}") from None
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"{opt.flag} must be a comma list of integers, got {value!r}")
    if not value:
        raise UsageError(f"{opt.flag} is empty")
    return tuple(_integer(SWEEP_MIN_N)(n, opt) for n in value)


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
    # check(value, option) -> checked value; raises UsageError.  It runs on the
    # merged value, whether that came from the flag or from the config file.
    check: Callable
    help: str | None = None
    # how argparse reads the flag's text (and a config-file string value)
    type: Callable | None = None
    choices: tuple | None = None


# One entry per option; the key is the argparse dest, the config-file key,
# and (except for the four scaling values) the RunConfig field.
_OPTIONS = {
    "seed": _Option("--seed", _seed, type=int),
    "workers": _Option("--workers", _integer(1), "at most this many worker threads (default 1)", type=int),
    "n": _Option("--n", _integer(1), "mode count", type=int),
    "k": _Option("--k", _integer(1), "subsystem modes (concentration default: scaling rule)", type=int),
    "samples": _Option("--samples", _integer(1), type=int),
    "z_profile": _Option(
        "--z-profile", _text, "fixed:<csv>, constant:<z>x<n>, micro:<E> or canonical:<E>[:<T>]"
    ),
    "output_path": _Option("--output", _text, "output file (default: stdout)"),
    "summary_output": _Option(
        "--summary-output", _text, "summary JSON file (default: stdout when --output is a file)"
    ),
    "format": _Option("--format", _choice, choices=("csv", "json")),
    "n_list": _Option("--n-list", _parse_n_list, "comma-separated mode counts"),
    "zeta": _Option("--zeta", _number, "squeezing growth exponent", type=float),
    "kappa": _Option("--kappa", _number, "subsystem growth exponent", type=float),
    "scale_z": _Option("--scale-z", _number, "squeezing prefactor", type=float),
    "scale_k": _Option("--scale-k", _number, "subsystem prefactor", type=float),
    "output_dir": _Option("--output-dir", _text),
    "base_profile": _Option(
        "--base-profile", _choice, "spectrum family used at each n", choices=("constant", "vacuum")
    ),
    "p": _Option("--p", _integer(1), "moment order", type=int),
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
    """The parser and its subparsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cvtypical",
        description="Typicality experiments for random pure Gaussian states.",
    )
    parser.add_argument("--version", action="version", version=f"cvtypical {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}
    for sub, spec in _SUBCOMMANDS.items():
        sp = subparsers[sub] = subs.add_parser(sub, help=spec.help)
        sp.add_argument("--config", help="JSON config file keyed by option dest; flags override it")
        for dest in _dests(sub):
            opt = _OPTIONS[dest]
            # name the value after the flag, not the dest (--output OUTPUT)
            metavar = None if opt.choices else opt.flag[2:].replace("-", "_").upper()
            sp.add_argument(
                opt.flag, dest=dest, metavar=metavar, type=opt.type, choices=opt.choices, help=opt.help
            )
    return parser, subparsers


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _config_file_defaults(path: str, sub: str) -> dict:
    """The config file's values by dest.  Null values count as absent."""
    data = _load_config_file(path)
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

    The file's values become the subparser's defaults, so argparse applies
    the precedence: explicit flag, then config-file key, then default.  Each
    value then passes its option's check, whichever source it came from.
    Unknown config keys, missing required options, cross-field
    inconsistencies and a file output whose directory is missing raise
    UsageError, before anything runs.
    """
    parser, subparsers = _build_parser()
    ns = parser.parse_args(argv)
    sub = ns.subcommand
    if ns.config:
        defaults = _config_file_defaults(ns.config, sub)
        subparsers[sub].set_defaults(**defaults)
        try:
            ns = parser.parse_args(argv)
        finally:  # the parser is cached: the next call must not see the file
            subparsers[sub].set_defaults(**dict.fromkeys(defaults))

    values = {}
    for dest in _dests(sub):
        opt = _OPTIONS[dest]
        value = getattr(ns, dest)
        if value is not None:
            values[dest] = opt.check(value, opt)
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
        if values.get("base_profile", "constant") == "constant":
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
    for path in (cfg.output_path, cfg.summary_output):
        if path is not None:
            _check_output_directory(path)
    return cfg


# RunConfig fields that cannot change results, so they stay out of the digest
_UNHASHED = ("workers", "output_path", "output_dir", "summary_output")


def config_digest(cfg: RunConfig) -> str:
    """Digest of every RunConfig field but _UNHASHED that is set; a profile
    enters as its string and a scaling rule as its four values."""
    semantic = {}
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


def _provenance_line(cfg: RunConfig) -> str:
    return (
        f"cvtypical {__version__} seed={cfg.seed} "
        f"config=sha256:{config_digest(cfg)} unit=nats"
    )


def _provenance_dict(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "config_sha256": config_digest(cfg),
        "entropy_unit": "nats",
    }


@contextlib.contextmanager
def _writing(path: str):
    """An OSError while writing path is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_output_directory(path: str) -> None:
    """Find a file output whose directory is missing before the run, with
    the error its write would give."""
    directory = os.path.dirname(os.path.abspath(path))
    with _writing(path):
        if not stat.S_ISDIR(os.stat(directory).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))


def _emit_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with _writing(path):
        _atomic_write_text(path, text)


def _run_moments(cfg: RunConfig) -> int:
    z = cfg.z_profile.fixed_spectrum()
    report = compute_moment_report(z, cfg.k)
    payload = {
        "provenance": _provenance_dict(cfg),
        "n": cfg.z_profile.n,
        "k": cfg.k,
        "z_profile": profile_to_string(cfg.z_profile),
        "lambda_bar": report.lambda_bar,
        "tilde_lambda_sq": report.tilde_lambda_sq,
        "second_moment": report.second_moment,
        "fourth_moment": report.fourth_moment,
        "expected_f": report.expected_f,
    }
    _emit_text(json_text(payload), cfg.output_path)
    return 0


def _run_concentration(cfg: RunConfig) -> int:
    with _writing(cfg.output_dir):
        os.makedirs(cfg.output_dir, exist_ok=True)
    provenance_line = _provenance_line(cfg)
    written = []

    def sink(n, summary, records):
        path = os.path.join(cfg.output_dir, f"trials_n{n}.csv")
        with _writing(path):
            write_trials_csv(path, records, provenance_line)
        written.append(path)

    results = concentration_sweep(
        cfg.scaling,
        cfg.n_list,
        cfg.samples,
        cfg.seed,
        k=cfg.k,
        base_profile=cfg.base_profile,
        workers=cfg.workers,
        record_sink=sink,
    )
    payload = {
        "provenance": _provenance_dict(cfg),
        "rows": [summary_to_jsonable(summary) for _n, summary in results],
    }
    summary_path = os.path.join(cfg.output_dir, "sweep_summary.json")
    _emit_text(json_text(payload), summary_path)
    written.append(summary_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _run_weingarten_check(cfg: RunConfig) -> int:
    lo, hi = cfg.n_range
    lines = ["# " + _provenance_line(cfg), "n,cycle_type,character_sum,gram_oracle,delta"]
    mismatches = 0
    for n in range(lo, hi + 1):
        oracle = gram_weingarten_oracle(n, cfg.p)
        for ct in partitions(cfg.p):
            wg = weingarten(n, ct)
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


def _run_profile_sample(cfg: RunConfig) -> int:
    spec = cfg.z_profile
    spectra = []
    for i in range(cfg.samples):
        try:
            spectra.append(sample_profile(spec, SeededStream(cfg.seed, i)))
        except DomainError as exc:
            raise DomainError(f"sample {i}: {exc}") from None
    if cfg.format == "json":
        payload = {
            "provenance": _provenance_dict(cfg),
            "n": spec.n,
            "z_profile": profile_to_string(spec),
            "spectra": [[float(z) for z in zs] for zs in spectra],
        }
        text = json_text(payload)
    else:
        header = "sample_id," + ",".join(f"z_{j}" for j in range(1, spec.n + 1))
        lines = ["# " + _provenance_line(cfg), header]
        for i, zs in enumerate(spectra):
            lines.append(",".join([str(i)] + [repr(float(z)) for z in zs]))
        text = "\n".join(lines) + "\n"
    _emit_text(text, cfg.output_path)
    return 0


def _run_trial_dump(cfg: RunConfig) -> int:
    summary, records = run_ensemble(
        cfg.z_profile, cfg.k, cfg.samples, cfg.seed, workers=cfg.workers
    )
    csv_text = format_trials_csv(records, _provenance_line(cfg))
    _emit_text(csv_text, cfg.output_path)
    summary_payload = summary_to_jsonable(summary, _provenance_dict(cfg))
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
        ("n_list", "k", "samples", *_SCALING_KEYS, "output_dir", "base_profile"),
        ("n_list", "samples"),
        _run_concentration,
    ),
    "weingarten-check": _Subcommand(
        "character sum vs Gram-matrix oracle", ("p", "n_range"), ("p", "n_range"), _run_weingarten_check
    ),
    "profile-sample": _Subcommand(
        "draw squeezing spectra",
        ("z_profile", "n", "samples", "output_path", "format"),
        ("z_profile", "samples"),
        _run_profile_sample,
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
