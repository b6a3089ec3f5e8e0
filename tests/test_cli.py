import hashlib
import json
import os
import random
import shlex
import shutil
import stat
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

import cvtypical
import cvtypical.cli
import cvtypical.harness
import cvtypical.moments
from cvtypical import __version__
from cvtypical.cli import RunConfig, config_digest, main, parse_config
from cvtypical.errors import UsageError
from cvtypical.harness import read_trials_csv, run_ensemble
from cvtypical.profiles import ScalingConfig, parse_profile
from oracles import read_summary_json


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_moments_stdout(capsys):
    rc, out, err = run_main(
        capsys, ["moments", "--n", "4", "--k", "1", "--z-profile", "fixed:3,1,1,1"]
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["k"] == 1
    assert payload["expected_f"] == pytest.approx(float(Fraction(1667, 22680)), rel=1e-12)
    assert payload["second_moment"] == pytest.approx(-2.4, rel=1e-12)
    assert payload["lambda_bar"] == pytest.approx(7.0 / 6.0, rel=1e-12)
    prov = payload["provenance"]
    assert prov["version"] == __version__
    assert prov["entropy_unit"] == "nats"
    assert len(prov["config_sha256"]) == 16


def test_moments_to_file_and_repeatability(tmp_path, capsys):
    out_path = tmp_path / "moments.json"
    argv = ["moments", "--k", "2", "--z-profile", "constant:2x6", "--output", str(out_path)]
    assert main(argv) == 0
    first = out_path.read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first
    capsys.readouterr()
    payload = json.loads(first)
    assert payload["expected_f"] == pytest.approx(float(Fraction(153, 448)), rel=1e-12)


@pytest.mark.parametrize("profile", ["constant:1e200x4", "fixed:1e300,1,1,1"])
def test_moments_out_of_float_range_is_an_error(capsys, profile):
    rc, out, err = run_main(capsys, ["moments", "--k", "1", "--z-profile", profile])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "beyond the float range" in err


@pytest.mark.parametrize(
    "command",
    [
        "trial-dump --n 4 --k 1 --z-profile constant:1e100x4 --samples 2",
        "concentration --n-list 4 --samples 2 --zeta 400",
        "trial-dump --n 4 --k 1 --z-profile micro:1e200 --samples 2",
        "trial-dump --n 4 --k 1 --z-profile canonical:1e200 --samples 2",
        # lambda_bar**4 is a float, but f = tr4 + 2 c tr2 + 2k c^2 is inf - inf
        "trial-dump --n 4 --k 1 --z-profile constant:2e77x4 --samples 2",
        # tr(JM)^4 itself leaves the float range
        "trial-dump --n 16 --k 2 --z-profile constant:2e77x16 --samples 2",
    ],
)
def test_huge_squeezing_is_one_error_line(tmp_path, command):
    """A spectrum that is not finite, whose lambda_bar**4 leaves the float
    range, or whose f is not finite, stops the run with one error line: no
    traceback, no warning."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvtypical.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cvtypical.cli", *command.split()],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: trial 0: ") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_huge_f_summarizes_to_strict_json(tmp_path):
    """f near 1e237 squares past the float range inside the standard errors;
    the summary rescales instead, so the run warns about nothing and its
    JSON holds no Infinity or NaN."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvtypical.__file__).resolve().parents[1]))
    command = "trial-dump --n 4 --k 1 --z-profile constant:1e60x4 --samples 2 --output t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cvtypical.cli", *command.split()],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0 and proc.stderr == ""

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    payload = json.loads(proc.stdout, parse_constant=reject)
    assert payload["mean_f"] > 1e236 and payload["se_f"] > 1e236
    assert payload["se_tr_jm4"] > 1e237


# One fixed random n = 64 spectrum; the digest of its moments JSON was taken
# from the Fraction implementation the integer one replaced, and re-taken at
# 0.3.0, which changed only its "version" string.
def test_moments_json_is_pinned(capsys):
    rng = random.Random(64)
    profile = "fixed:" + ",".join(repr(1.0 + 2.0 * rng.random()) for _ in range(64))
    rc, out, err = run_main(capsys, ["moments", "--k", "3", "--z-profile", profile])
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "758337ae6ce5088fd8e1a368918df2a821169fd695617910c8e210c088a64909"
    )


def _near_one_profile():
    rng = random.Random(44)
    return "fixed:" + ",".join(repr(1.0 + 2.0**-44 * rng.random()) for _ in range(64))


def _repeats_profile():
    rng = random.Random(7)
    pool = [1.0, 2.0, 4.0] + [1.0 + 2.0 * rng.random() for _ in range(5)]
    return "fixed:" + ",".join(repr(rng.choice(pool)) for _ in range(256))


# sha256 of each moments stdout, taken at 0.3.0 with the interval sums in
# numpy object-array chunks: a spectrum within 2**-44 of 1, whose E f the
# intervals leave undecided, so it comes from the exact sums; 256 draws from
# z = 1, 2, 4 (exact divisions) and five random values, so every mode has
# m > 1; and a constant spectrum, one mode of 1024.
MOMENT_PINS = [
    (_near_one_profile, 3, True, "a4ec10218c21a6794fcbeaf342dda17934d9d4212d1fea1d68bb3ce7d89007f5"),
    (_repeats_profile, 5, False, "126f049cddc1e1ed75a899e7cd17b9e09c4b49d0287ce7d5205be7648c833530"),
    (lambda: "constant:2.718281828459045x1024", 2, False,
     "a9e465045feca660412fd4d6797daa59a116b8acf4d0d8c13fa6416d35a8ae91"),
]


@pytest.mark.parametrize("profile, k, exact, digest", MOMENT_PINS, ids=["near_one", "repeats", "constant"])
def test_moments_bytes_are_pinned_on_every_route(monkeypatch, capsys, profile, k, exact, digest):
    calls = []
    build = cvtypical.moments._power_sums
    monkeypatch.setattr(cvtypical.moments, "_power_sums", lambda mi: calls.append(mi) or build(mi))
    rc, out, err = run_main(capsys, ["moments", "--k", str(k), "--z-profile", profile()])
    assert rc == 0 and err == ""
    assert len(calls) == exact  # the near-1 spectrum takes the exact fallback
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The benchmark's four trial-dump shapes and one concentration sweep, and the
# vacuum sweep (z = 1 at every n); each output's sha256 was taken at 0.3.0
# (Cholesky spectrum, log1p entropy), with 1, 2 and 3 workers giving the same
# bytes.
TRIAL_PINS = [
    (
        "trial-dump --k 1 --z-profile fixed:3,1,1,1 --samples 300 --seed 11",
        {
            "summary.json": "4ed8d9923197d5db6e3933781f0016e858484a3d159f117898ce9d157313d1d2",
            "trials.csv": "2ddb1093a5c118af69413ef26a46103ec972cd59965bff88fb5d0536dea0aad6",
        },
    ),
    (
        "trial-dump --k 2 --z-profile fixed:3,1,1,1,1,1,1,1 --samples 300 --seed 12",
        {
            "summary.json": "e53d6887f1521097bae2867cf771b53ba763755291c9e559f86a8484d4b64364",
            "trials.csv": "2698ca1e9acf28d409a864351342eef378f729a7a71786156f64ae6e7fc690b8",
        },
    ),
    (
        "trial-dump --n 16 --k 4 --z-profile micro:48.0 --samples 300 --seed 13",
        {
            "summary.json": "64fde3f85baec3e2196b2d9dc3152139c8a735cb8efcbf8303687a3751e777ca",
            "trials.csv": "f501778d15437c227100e4666d70c286f884e92fbd260232066bf09fc7ce4f2c",
        },
    ),
    (
        "trial-dump --n 16 --k 4 --z-profile canonical:48.0 --samples 300 --seed 14",
        {
            "summary.json": "4faedfed1cb1c4f512f556cd57c67f9187fcd3f344f514413bd486ccfce2f3eb",
            "trials.csv": "0546677d243b199fa03db150c323495c23b227a51dd322dadedeeaf8ee7115e6",
        },
    ),
    (
        "concentration --n-list 32,64 --kappa 0.5 --samples 30 --seed 15",
        {
            "sweep_summary.json": "ad1c359449c33e6f43c642c0c6fbd697335339875ad47d00136bdda01d90c721",
            "trials_n32.csv": "a0ba5e3cae16eafac9aefedd390cc32e287bd6fc45619365624df7a0262f54f0",
            "trials_n64.csv": "bd26e04226d75c76bab1773df96861d4a3d5d12831847781b4780569608de4f2",
        },
    ),
    (
        "concentration --n-list 4,8 --samples 50 --seed 3 --scale-z 1",
        {
            "sweep_summary.json": "1da8b40ba04f6397b3cdebe6d7c083005808c463cadb7299ef9aa60d49d47871",
            "trials_n4.csv": "c57596d6aea34e55dc9f6661ac1dc7ab739458de9f04cd2fee1fe38435f7c041",
            "trials_n8.csv": "911cfb807f900bb1354888e33565886352f4ab33717f58699d957c9ac893fccc",
        },
    ),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command, digests", TRIAL_PINS)
def test_trial_dump_bytes_are_pinned(tmp_path, capsys, command, digests, workers):
    argv = command.split() + ["--workers", workers]
    if argv[0] == "trial-dump":
        argv += [
            "--output", str(tmp_path / "trials.csv"),
            "--summary-output", str(tmp_path / "summary.json"),
        ]
    else:
        argv += ["--output-dir", str(tmp_path)]
    rc, _, err = run_main(capsys, argv)
    assert rc == 0 and err == ""
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == digests


def test_moments_rejects_underfilled_energy(capsys):
    # micro:6 with four modes sits below the 2n ground-state floor
    rc, _, err = run_main(capsys, ["moments", "--n", "4", "--k", "1", "--z-profile", "micro:6"])
    assert rc == 2
    assert "error:" in err


def test_moments_rejects_random_profile(capsys):
    rc, _, err = run_main(capsys, ["moments", "--n", "4", "--k", "1", "--z-profile", "micro:14"])
    assert rc == 2
    assert "deterministic" in err


def test_moments_requires_subsystem_flag(capsys):
    rc, _, err = run_main(capsys, ["moments", "--z-profile", "fixed:2,1"])
    assert rc == 2
    assert "--k" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["moments", "--bogus", "1"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_weingarten_check_table(capsys):
    rc, out, err = run_main(capsys, ["weingarten-check", "--p", "4", "--n-range", "6:6"])
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("# cvtypical")
    assert lines[1] == "n,cycle_type,character_sum,gram_oracle,delta"
    body = [line.split(",") for line in lines[2:]]
    assert len(body) == 5  # five partitions of 4
    assert all(cells[-1] == "0" for cells in body)
    by_type = {cells[1]: cells[2] for cells in body}
    assert by_type["1+1+1+1"] == "169/181440"
    assert by_type["4"] == "-1/36288"


def test_weingarten_check_order_six(capsys):
    rc, out, err = run_main(capsys, ["weingarten-check", "--p", "6", "--n-range", "6:7"])
    assert rc == 0 and err == ""
    body = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(body) == 22  # eleven partitions of 6, two n
    assert [cells[0] for cells in body] == ["6"] * 11 + ["7"] * 11
    assert all(cells[-1] == "0" for cells in body)


# taken before the Gram oracle walked S_p once per call for the whole range
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--p 5 --n-range 5:9", "e09d46d28019c9c161f828e283a7f6c6c8174e9143d998efb1ba5eea73f975bc"),
        ("--p 6 --n-range 6:8", "79a8e78bdf0b20df052c00d9f54ec8e4f888d16ad5e1ffb4ec3d353521d91b05"),
    ],
)
def test_weingarten_check_bytes_are_pinned(capsys, argv, digest):
    rc, out, err = run_main(capsys, ["weingarten-check", *argv.split()])
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_weingarten_check_dimension_failure(capsys):
    # n below the moment order cannot support the Gram oracle
    rc, _, err = run_main(capsys, ["weingarten-check", "--p", "4", "--n-range", "2:3"])
    assert rc == 1
    assert "error:" in err


def test_weingarten_check_bad_range(capsys):
    rc, _, err = run_main(capsys, ["weingarten-check", "--p", "2", "--n-range", "6:4"])
    assert rc == 2


TRIAL_DUMP = "trial-dump --n 4 --k 1 --z-profile constant:2x4 --samples 2"


def _forbid_runs(monkeypatch):
    """Make any ensemble run fail the test."""
    def run_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran")

    monkeypatch.setattr(cvtypical.cli, "run_ensemble", run_ensemble)
    monkeypatch.setattr(cvtypical.harness, "run_ensemble", run_ensemble)


@pytest.mark.parametrize(
    "command, target",
    [
        (TRIAL_DUMP + " --output {missing}", "{missing}"),
        (TRIAL_DUMP + " --summary-output {missing}", "{missing}"),
        (TRIAL_DUMP + " --output {file}/out", "{file}/out"),
        (TRIAL_DUMP + " --summary-output {file}/out", "{file}/out"),
        ("moments --k 1 --z-profile constant:2x4 --output {missing}", "{missing}"),
        ("concentration --n-list 4 --samples 2 --output-dir {file}", "{file}"),
        (TRIAL_DUMP + " --output ''", ""),
        (TRIAL_DUMP + " --summary-output ''", ""),
    ],
    ids=[
        "trial_dump_output", "trial_dump_summary_output", "trial_dump_output_in_file",
        "trial_dump_summary_output_in_file", "moments_output", "concentration_output_dir",
        "trial_dump_empty_output", "trial_dump_empty_summary_output",
    ],
)
def test_unwritable_output_is_one_error_line(tmp_path, monkeypatch, capsys, command, target):
    """Found before the run: no ensemble runs and nothing reaches stdout, not
    even the CSV that precedes a --summary-output."""
    _forbid_runs(monkeypatch)
    paths = {"missing": tmp_path / "missing" / "out", "file": tmp_path / "file"}
    paths["file"].write_text("")
    rc, out, err = run_main(capsys, shlex.split(command.format(**paths)))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {target.format(**paths)}: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [paths["file"]]


@pytest.mark.parametrize("blocked", ["trials_n8.csv", "sweep_summary.json"])
def test_concentration_files_are_checked_before_the_first_row(tmp_path, monkeypatch, capsys, blocked):
    """A sweep output that is a directory stops the run before any row, so
    no earlier row's CSV is left behind."""
    _forbid_runs(monkeypatch)
    (tmp_path / blocked).mkdir()
    argv = ["concentration", "--n-list", "4,8", "--samples", "5", "--k", "1", "--output-dir", str(tmp_path)]
    rc, out, err = run_main(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {tmp_path / blocked}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [tmp_path / blocked]


@pytest.mark.parametrize("flag", ["--output", "--summary-output"])
def test_output_that_is_a_directory_is_found_before_the_run(tmp_path, capsys, flag):
    rc, out, err = run_main(capsys, TRIAL_DUMP.split() + [flag, str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_trial_dump_outputs_must_differ(tmp_path, capsys):
    """The summary JSON would replace the trial CSV; two spellings of one
    path count as the same."""
    argv = TRIAL_DUMP.split() + [
        "--output", str(tmp_path / "same.txt"), "--summary-output", str(tmp_path / "." / "same.txt")
    ]
    rc, out, err = run_main(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --output and --summary-output both name ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_trial_dump_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    summary_path = tmp_path / "summary.json"
    rc, out, _ = run_main(capsys, [
        "trial-dump", "--n", "4", "--k", "1", "--z-profile", "fixed:3,1,1,1",
        "--samples", "12", "--seed", "3",
        "--output", str(csv_path), "--summary-output", str(summary_path),
    ])
    assert rc == 0
    assert out == ""  # summary went to its file, not stdout
    records, provenance = read_trials_csv(csv_path)
    assert provenance.startswith("cvtypical")
    assert "seed=3" in provenance
    summary, _ = read_summary_json(summary_path)
    expected_summary, expected_table = run_ensemble(
        parse_profile("fixed:3,1,1,1"), 1, 12, seed=3
    )
    assert summary == expected_summary
    assert [r.f for r in records] == [r.f for r in expected_table.records()]


def test_trial_dump_summary_on_stdout(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    rc, out, _ = run_main(capsys, [
        "trial-dump", "--n", "3", "--k", "1", "--z-profile", "constant:2x3",
        "--samples", "5", "--seed", "1", "--output", str(csv_path),
    ])
    assert rc == 0
    payload = json.loads(out)
    assert payload["samples"] == 5
    assert "provenance" in payload


def test_trial_dump_worker_count_invisible(tmp_path, capsys):
    base = [
        "trial-dump", "--n", "3", "--k", "2", "--z-profile", "micro:16",
        "--samples", "40", "--seed", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--output", str(a), "--workers", "1"]) == 0
    assert main(base + ["--output", str(b), "--workers", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_concentration_outputs(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc, out, _ = run_main(capsys, [
        "concentration", "--n-list", "4,6", "--samples", "20", "--seed", "1",
        "--k", "1", "--output-dir", str(out_dir),
    ])
    assert rc == 0
    for name in ("trials_n4.csv", "trials_n6.csv", "sweep_summary.json"):
        assert (out_dir / name).exists()
        assert f"wrote {out_dir / name}" in out
    payload = json.loads((out_dir / "sweep_summary.json").read_text())
    assert [row["n"] for row in payload["rows"]] == [4, 6]
    records, _ = read_trials_csv(out_dir / "trials_n4.csv")
    assert len(records) == 20


def test_concentration_rerun_is_byte_identical(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = [
        "concentration", "--n-list", "4", "--samples", "10", "--seed", "2",
        "--k", "1", "--output-dir", str(out_dir),
    ]
    assert main(argv) == 0
    blobs = {name: (out_dir / name).read_bytes() for name in ("trials_n4.csv", "sweep_summary.json")}
    assert main(argv) == 0
    capsys.readouterr()
    for name, blob in blobs.items():
        assert (out_dir / name).read_bytes() == blob


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_output_files_get_the_mode_open_would_give(tmp_path, capsys, umask):
    """Every file output, new or replacing one, has mode 0o666 & ~umask."""
    existing = tmp_path / "t.csv"
    existing.write_text("old\n")
    os.chmod(existing, 0o640)
    calls = [
        ["trial-dump", "--n", "4", "--k", "1", "--z-profile", "fixed:3,1,1,1", "--samples", "5",
         "--output", str(existing), "--summary-output", str(tmp_path / "t.json")],
        ["concentration", "--n-list", "4", "--samples", "5", "--k", "1",
         "--output-dir", str(tmp_path / "c")],
        ["moments", "--k", "1", "--z-profile", "fixed:3,1,1,1", "--output", str(tmp_path / "m.json")],
    ]
    saved = os.umask(umask)
    try:
        assert [main(argv) for argv in calls] == [0, 0, 0]
    finally:
        os.umask(saved)
    capsys.readouterr()
    outputs = ["t.csv", "t.json", "c/trials_n4.csv", "c/sweep_summary.json", "m.json"]
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in outputs}
    assert modes == dict.fromkeys(outputs, 0o666 & ~umask)
    assert existing.read_text() != "old\n"


@pytest.mark.parametrize("command", ["trial-dump", "concentration"])
def test_a_run_digests_its_config_once(tmp_path, monkeypatch, capsys, command):
    calls = []
    monkeypatch.setattr(cvtypical.cli, "config_digest", lambda cfg: calls.append(cfg) or "0" * 16)
    argv = {
        "trial-dump": ["trial-dump", "--n", "4", "--k", "1", "--z-profile", "fixed:3,1,1,1",
                       "--samples", "5", "--output", str(tmp_path / "t.csv"),
                       "--summary-output", str(tmp_path / "t.json")],
        "concentration": ["concentration", "--n-list", "4,5", "--samples", "5", "--k", "1",
                          "--output-dir", str(tmp_path / "c")],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "subcommand": "moments", "n": 4, "k": 1, "z_profile": "fixed:3,1,1,1",
    }))
    rc, out, _ = run_main(capsys, ["moments", "--config", str(config), "--k", "2"])
    assert rc == 0
    assert json.loads(out)["k"] == 2  # the flag wins over the file


def test_empty_config_path_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """--config "" names no file to read; it is not the same as no --config."""
    monkeypatch.chdir(tmp_path)
    argv = ["moments", "--config", "", "--n", "4", "--k", "1", "--z-profile", "fixed:3,1,1,1"]
    rc, out, err = run_main(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot read config file : ") and err.count("\n") == 1


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 4, "k": 1, "z_profile": "fixed:2,1,1,1", "bogus": 7}))
    rc, _, err = run_main(capsys, ["moments", "--config", str(config)])
    assert rc == 2
    assert "bogus" in err


def test_config_file_subcommand_mismatch(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"subcommand": "trial-dump", "n": 4, "k": 1}))
    rc, _, err = run_main(capsys, ["moments", "--config", str(config)])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, config, flag",
    [
        (["concentration"], {"n_list": [4], "samples": 2, "output_dir": 5}, "--output-dir"),
        (["concentration"], {"n_list": [4], "samples": 2, "zeta": True}, "--zeta"),
        (["concentration"], {"n_list": [4], "samples": 2, "scale_k": float("inf")}, "--scale-k"),
        (["concentration"], {"n_list": [4], "samples": 2, "scale_z": "nan"}, "--scale-z"),
        (["concentration"], {"n_list": [3], "samples": 2}, "--n-list"),
        (["concentration"], {"n_list": [4, 16], "samples": 2, "zeta": 400}, "--n-list"),
        (["concentration"], {"n_list": [4, 8], "samples": 2, "k": 6}, "--k"),
        # the scaling values are flat keys only
        (["concentration"], {"n_list": [4], "samples": 2, "scaling": {"zeta": 0.5}}, "'scaling'"),
        (["concentration"], {"n_list": [4], "samples": 2, "seed": 2**64}, "--seed"),
        (["concentration"], {"n_list": [4, 8], "samples": 2, "seed": 2**64 - 1}, "--seed"),
        # list entries are integers by the rule the integer flags follow
        (["concentration"], {"n_list": [4.7, 8], "samples": 2}, "--n-list"),
        # each n writes trials_n<n>.csv: a repeat would overwrite a row's trials
        (["concentration"], {"n_list": [4, 8, 4], "samples": 2}, "--n-list repeats 4"),
        (["weingarten-check"], {"p": 2, "n_range": [1.9, 2]}, "--n-range"),
        (["weingarten-check"], {"p": 2, "n_range": [True, 2]}, "--n-range"),
        (["concentration"], {"n_list": 4, "samples": 2}, "--n-list must be a comma list of integers, got 4"),
        (["moments", "--k", "5"], {"z_profile": "fixed:2,1,1,1"}, "--k 5 exceeds the profile's n=4"),
        # a str is the file's text as it stands
        (["moments"], "{", "is not valid JSON"),
        (["concentration"], [4], "must hold a JSON object"),
    ],
    ids=[
        "output_dir", "scaling_zeta", "scale_k_inf", "scale_z_nan", "n_list_3",
        "zeta_400", "k_6", "scaling_object", "seed_2_64", "row_seed_2_64", "n_list_float",
        "n_list_repeat", "n_range_float", "n_range_bool", "n_list_int", "k_5_above_n",
        "not_json", "json_list",
    ],
)
def test_config_file_values_are_checked_like_flags(tmp_path, monkeypatch, capsys, argv, config, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(config if isinstance(config, str) else json.dumps(config))
    rc, out, err = run_main(capsys, argv + ["--config", "run.json"])
    assert rc == 2
    assert err.startswith("error:") and flag in err
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]  # nothing was written


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--scale-k", "inf"], "--scale-k"),
        (["--kappa", "inf"], "--kappa"),
        (["--zeta", "nan"], "--zeta"),
        (["--n-list", "3"], "--n-list"),
        (["--n-list", "8,2"], "--n-list"),
        (["--n-list", "4,4", "--output-dir", "d"], "--n-list repeats 4"),
        # 4**400 is a float, 16**400 is not
        (["--n-list", "4,16", "--zeta", "400"], "--n-list"),
        (["--zeta", "1", "--scale-z", "1e308"], "--n-list"),
        # a seed keys Philox as one 64-bit half; sweep row i runs on seed + i
        (["--seed", str(2**64)], "--seed"),
        (["--n-list", "4,8", "--seed", str(2**64 - 1)], "--seed"),
        # an explicit k runs in every row, so it must fit the smallest
        (["--n-list", "8,4", "--k", "6", "--output-dir", "d"], "--k 6 exceeds the smallest --n-list entry 4"),
        (["--zeta", "-1"], "bad scaling config: growth exponents must be >= 0"),
        (["--n-list", "a,b"], "--n-list must be a comma list of integers, got 'a,b'"),
        (["--n-list", ","], "--n-list is empty"),
    ],
    ids=[
        "scale_k_inf", "kappa_inf", "zeta_nan", "n_list_3", "n_list_8_2", "n_list_repeat", "zeta_400",
        "scale_z_1e308",
        "seed_2_64", "row_seed_2_64", "k_above_smallest_n", "zeta_negative", "n_list_letters",
        "n_list_empty",
    ],
)
def test_concentration_flag_values_are_usage_errors(tmp_path, monkeypatch, capsys, extra, flag):
    monkeypatch.chdir(tmp_path)
    argv = ["concentration", "--n-list", "4", "--samples", "2"]
    rc, out, err = run_main(capsys, argv + extra)
    assert rc == 2
    assert err.startswith("error:") and flag in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []  # nothing was written


TRIAL_DUMP_TO_FILE = "trial-dump --n 4 --k 1 --z-profile constant:2x4 --output out.csv"


@pytest.mark.parametrize(
    "command, config, message",
    [
        (TRIAL_DUMP_TO_FILE + " --samples 2 --seed abc", None, "--seed must be an integer, got 'abc'"),
        (TRIAL_DUMP_TO_FILE + " --samples 1.5", None, "--samples must be an integer, got '1.5'"),
        (TRIAL_DUMP_TO_FILE + " --samples 2", {"seed": "abc"}, "--seed must be an integer, got 'abc'"),
        # an integer float() cannot take
        ("concentration --n-list 4 --samples 2 --output-dir d", {"zeta": 10**400}, "--zeta must be finite, got 1000"),
    ],
    ids=["seed_flag", "samples_flag", "seed_config", "zeta_config_10_400"],
)
def test_a_bad_value_is_one_error_line(tmp_path, monkeypatch, capsys, command, config, message):
    """A flag's text goes through the check a config file's value does, so
    either gives one line naming the flag, not argparse's usage block, and
    nothing runs."""
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", "run.json"]
    rc, out, err = run_main(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["run.json"])


@pytest.mark.parametrize(
    "command, flag, text, value",
    [
        ("trial-dump --n 4 --k 1 --z-profile fixed:3,1,1,1 --samples 3", "--seed", "7", 7),
        ("trial-dump --n 4 --k 1 --z-profile fixed:3,1,1,1 --samples 3", "--workers", "2", 2),
        ("trial-dump --n 4 --k 1 --z-profile fixed:3,1,1,1", "--samples", "12", 12),
        ("concentration --n-list 4,8 --samples 2", "--zeta", "0.25", 0.25),
        ("concentration --samples 2", "--n-list", "4,8", [4, 8]),
        ("weingarten-check --p 3", "--n-range", "3:5", [3, 5]),
    ],
    ids=["seed", "workers", "samples", "zeta", "n_list", "n_range"],
)
def test_a_config_string_reads_as_the_flags_text(tmp_path, monkeypatch, command, flag, text, value):
    """A config file's string is read as the flag's text is, and gives the
    config, and so the digest, that the flag or the JSON value gives."""
    monkeypatch.chdir(tmp_path)
    dest = flag[2:].replace("-", "_")
    by_source = [parse_config(command.split() + [flag, text])]
    for file_value in (text, value):
        (tmp_path / "run.json").write_text(json.dumps({dest: file_value}))
        by_source.append(parse_config(command.split() + ["--config", "run.json"]))
    assert by_source[1:] == by_source[:1] * 2
    assert {config_digest(cfg) for cfg in by_source} == {config_digest(by_source[0])}
    read = tuple(value) if isinstance(value, list) else value
    assert f"{dest}={read!r}" in repr(by_source[0])  # the value was read, not left at its default


@pytest.mark.parametrize("source", ["flag", "config"])
def test_base_profile_is_gone(tmp_path, monkeypatch, capsys, source):
    """The vacuum sweep is --scale-z 1; neither the flag nor the config key
    that once chose it is accepted."""
    monkeypatch.chdir(tmp_path)
    argv = ["concentration", "--n-list", "4", "--samples", "2"]
    if source == "flag":
        argv += ["--base-profile", "vacuum"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({"base_profile": "vacuum"}))
        argv += ["--config", "run.json"]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag itself
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --base-profile" in err or "config key 'base_profile'" in err
    assert [p.name for p in tmp_path.iterdir()] == (["run.json"] if source == "config" else [])


def test_concentration_k_saturates_at_n(tmp_path, capsys):
    # scale_k * 16**400 is past every float; the rule's k is then all 16 modes
    out_dir = tmp_path / "sweep"
    argv = ["concentration", "--n-list", "16", "--samples", "2", "--kappa", "400", "--output-dir", str(out_dir)]
    rc, _, err = run_main(capsys, argv)
    assert rc == 0 and err == ""
    (row,) = json.loads((out_dir / "sweep_summary.json").read_text())["rows"]
    assert row["k"] == 16


# Provenance digests of known configs: a refactor of the option handling must
# leave every artifact's config=sha256 line as it was.
@pytest.mark.parametrize(
    "command, digest",
    [
        ("moments --n 4 --k 1 --z-profile fixed:3,1,1,1", "fec653a644690d7f"),
        ("moments --config m.json", "fec653a644690d7f"),
        ("concentration --n-list 4,6 --samples 20 --seed 1 --k 1", "395abdb4c424b287"),
        ("concentration --n-list 16,32 --samples 5 --zeta 0.25 --kappa 0.5", "f511f1aaaceff0ac"),
        ("weingarten-check --p 4 --n-range 6:6", "01c0a6856a2b5cb4"),
        (
            "trial-dump --n 4 --k 1 --z-profile fixed:3,1,1,1 --samples 12 --seed 3",
            "b49a93d319ba73bd",
        ),
    ],
)
def test_config_digest_pins(tmp_path, monkeypatch, command, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({"n": 4, "k": 1, "z_profile": "fixed:3,1,1,1"}))
    assert config_digest(parse_config(command.split())) == digest


def test_workers_come_from_the_flag_or_the_config_file(tmp_path, monkeypatch, capsys):
    """--workers, else the config key, else 1; the environment plays no part."""
    monkeypatch.setenv("CVTYPICAL_WORKERS", "zero")
    base = ["trial-dump", "--n", "3", "--k", "1", "--z-profile", "constant:2x3", "--samples", "2"]
    assert parse_config(base).workers == 1
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"workers": 3}))
    assert parse_config(base + ["--config", str(config)]).workers == 3
    assert parse_config(base + ["--config", str(config), "--workers", "2"]).workers == 2
    assert run_main(capsys, base)[0] == 0


def test_config_file_values_do_not_outlive_their_call(tmp_path):
    """The parser is built once per process; a config file's values must
    still reach only the call that named it."""
    base = ["trial-dump", "--n", "3", "--k", "1", "--z-profile", "constant:2x3"]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"samples": 5, "seed": 9, "workers": 2}))
    cfg = parse_config(base + ["--config", str(config)])
    assert (cfg.samples, cfg.seed, cfg.workers) == (5, 9, 2)
    cfg = parse_config(base + ["--samples", "3"])
    assert (cfg.samples, cfg.seed, cfg.workers) == (3, 0, 1)
    with pytest.raises(UsageError, match="--samples"):
        parse_config(base)


def test_config_digest_ignores_workers_and_paths(tmp_path):
    base = ["trial-dump", "--n", "3", "--k", "1", "--z-profile", "constant:2x3", "--samples", "2"]
    a = parse_config(base + ["--workers", "1"])
    b = parse_config(base + ["--workers", "4", "--output", str(tmp_path / "x.csv")])
    assert config_digest(a) == config_digest(b)
    c = parse_config(base[:-1] + ["3"])
    assert config_digest(a) != config_digest(c)

    # every RunConfig field set, then each changed on its own
    full = RunConfig(
        subcommand="trial-dump", seed=1, workers=1, n=4, k=1, samples=2,
        z_profile=parse_profile("constant:2x4"), scaling=ScalingConfig(), output_path="a.csv",
        n_list=(4, 6), p=2, n_range=(1, 2), output_dir="d", summary_output="s.json",
    )
    hashed = {
        "subcommand": "moments", "seed": 2, "n": 5, "k": 2, "samples": 3,
        "z_profile": parse_profile("constant:3x4"), "scaling": ScalingConfig(kappa=0.5),
        "n_list": (4, 8), "p": 3, "n_range": (1, 3),
    }
    unhashed = {"workers": 4, "output_path": "b.csv", "output_dir": "e", "summary_output": "t.json"}
    assert hashed.keys() | unhashed.keys() == {field.name for field in fields(RunConfig)}
    for name, value in hashed.items():
        assert config_digest(replace(full, **{name: value})) != config_digest(full), name
        if name != "subcommand":
            assert config_digest(replace(full, **{name: None})) != config_digest(full), name
    for name, value in unhashed.items():
        assert config_digest(replace(full, **{name: value})) == config_digest(full), name


def test_parse_config_types():
    cfg = parse_config([
        "concentration", "--n-list", "4,8", "--samples", "5", "--zeta", "0.25",
    ])
    assert isinstance(cfg, RunConfig)
    assert cfg.n_list == (4, 8)
    assert cfg.scaling.zeta == 0.25
    assert cfg.scaling.scale_z == 2.0
    assert cfg.seed == 0
    assert cfg.workers == 1


@pytest.mark.skipif(
    shutil.which("cvtypical") is None,
    reason="the cvtypical console script is not installed (pip install -e .)",
)
def test_console_script_version():
    proc = subprocess.run(["cvtypical", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"cvtypical {__version__}"


def test_entry_point_version():
    """--version through the entry point the console script is wired to."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["cvtypical"] == "cvtypical.cli:main"
    assert project["version"] == __version__

    env = dict(os.environ, PYTHONPATH=str(Path(cvtypical.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cvtypical.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"cvtypical {__version__}"


# the modules only moments and weingarten-check run (fractions loads decimal),
# and the thread pool only a threaded ensemble runs
_NOT_FOR_TRIALS = ("cvtypical.moments", "cvtypical.weingarten", "fractions", "decimal", "concurrent.futures")


def _loaded_by_fresh_process(code: str, cwd) -> set:
    """The _NOT_FOR_TRIALS modules in sys.modules after code ran in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvtypical.__file__).resolve().parents[1]))
    probe = f"{code}\nimport sys\nprint(*(m for m in {_NOT_FOR_TRIALS!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("trial-dump --k 1 --z-profile fixed:3,1,1,1 --samples 1 --output t.csv --summary-output t.json", set()),
        ("concentration --n-list 4 --samples 2 --output-dir out", set()),
        ("moments --z-profile fixed:3,1,1,1 --k 1 --output m.json", {"cvtypical.moments", "fractions", "decimal"}),
        ("weingarten-check --p 2 --n-range 2:3", {"cvtypical.weingarten", "fractions", "decimal"}),
    ],
    ids=["trial-dump", "concentration", "moments", "weingarten-check"],
)
def test_a_subcommand_loads_only_what_it_runs(tmp_path, command, loaded):
    """A fresh process compiles and runs every module it imports, so the
    trial subcommands load neither the exact-rational modules nor the thread
    pool, which only a threaded ensemble needs."""
    code = f"from cvtypical import cli\nassert cli.main({command.split()!r}) == 0"
    assert _loaded_by_fresh_process(code, tmp_path) == loaded


def test_a_threaded_ensemble_loads_the_pool_and_gives_the_one_thread_table(tmp_path):
    """n k > 256 on two threads: the pool loads on first use, and the table
    is the one a single thread gives."""
    code = (
        "from cvtypical import harness\n"
        "from cvtypical.profiles import parse_profile\n"
        "harness._cpu_count = lambda: 2\n"
        "spec = parse_profile('micro:600.0', n=256)\n"
        "one = harness.run_ensemble(spec, 16, 40, seed=2)[1].records()\n"
        "import sys\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "two = harness.run_ensemble(spec, 16, 40, seed=2, workers=2)[1].records()\n"
        "assert repr(two) == repr(one)"
    )
    assert _loaded_by_fresh_process(code, tmp_path) == {"concurrent.futures"}
