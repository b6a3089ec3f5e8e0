import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

import cvtypical
from cvtypical import __version__
from cvtypical.cli import RunConfig, config_digest, main, parse_config
from cvtypical.errors import UsageError
from cvtypical.harness import read_summary_json, read_trials_csv, run_ensemble
from cvtypical.profiles import ScalingConfig, parse_profile


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


# The benchmark's four trial-dump shapes and one concentration sweep; each
# output's sha256 was taken at 0.3.0 (Cholesky spectrum, log1p entropy),
# with 1, 2 and 3 workers giving the same bytes.
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


def test_weingarten_check_dimension_failure(capsys):
    # n below the moment order cannot support the Gram oracle
    rc, _, err = run_main(capsys, ["weingarten-check", "--p", "4", "--n-range", "2:3"])
    assert rc == 1
    assert "error:" in err


def test_weingarten_check_bad_range(capsys):
    rc, _, err = run_main(capsys, ["weingarten-check", "--p", "2", "--n-range", "6:4"])
    assert rc == 2


def test_profile_sample_deterministic_bytes(tmp_path, capsys):
    out_path = tmp_path / "spectra.csv"
    argv = [
        "profile-sample", "--z-profile", "micro:14", "--n", "4",
        "--samples", "6", "--seed", "3", "--output", str(out_path),
    ]
    assert main(argv) == 0
    first = out_path.read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first
    capsys.readouterr()
    lines = first.decode().strip().splitlines()
    assert lines[1] == "sample_id,z_1,z_2,z_3,z_4"
    assert len(lines) == 8


def test_profile_sample_json(capsys):
    rc, out, _ = run_main(
        capsys,
        ["profile-sample", "--z-profile", "canonical:8", "--n", "4", "--samples", "3", "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["z_profile"] == "canonical:8.0"
    assert len(payload["spectra"]) == 3
    assert all(len(row) == 4 and min(row) >= 1.0 for row in payload["spectra"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("profile", ["micro:1e200", "canonical:1e200"])
def test_profile_sample_huge_energy_is_an_error(capsys, profile):
    rc, out, err = run_main(capsys, ["profile-sample", "--z-profile", profile, "--n", "4", "--samples", "2"])
    assert rc == 1 and out == ""
    assert err == "error: sample 0: squeezing spectrum is not finite\n"


TRIAL_DUMP = "trial-dump --n 4 --k 1 --z-profile constant:2x4 --samples 2"


@pytest.mark.parametrize(
    "command, target",
    [
        (TRIAL_DUMP + " --output {missing}", "{missing}"),
        (TRIAL_DUMP + " --summary-output {missing}", "{missing}"),
        (TRIAL_DUMP + " --output {file}/out", "{file}/out"),
        (TRIAL_DUMP + " --summary-output {file}/out", "{file}/out"),
        ("moments --k 1 --z-profile constant:2x4 --output {missing}", "{missing}"),
        ("concentration --n-list 4 --samples 2 --output-dir {file}", "{file}"),
    ],
    ids=[
        "trial_dump_output", "trial_dump_summary_output", "trial_dump_output_in_file",
        "trial_dump_summary_output_in_file", "moments_output", "concentration_output_dir",
    ],
)
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command, target):
    """Found before the run: nothing reaches stdout, not even the CSV that
    precedes a --summary-output."""
    paths = {"missing": tmp_path / "missing" / "out", "file": tmp_path / "file"}
    paths["file"].write_text("")
    rc, out, err = run_main(capsys, command.format(**paths).split())
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {target.format(**paths)}: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [paths["file"]]


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
    expected_summary, expected_records = run_ensemble(
        parse_profile("fixed:3,1,1,1"), 1, 12, seed=3
    )
    assert summary == expected_summary
    assert [r.f_value for r in records] == [r.f_value for r in expected_records]


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


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "subcommand": "moments", "n": 4, "k": 1, "z_profile": "fixed:3,1,1,1",
    }))
    rc, out, _ = run_main(capsys, ["moments", "--config", str(config), "--k", "2"])
    assert rc == 0
    assert json.loads(out)["k"] == 2  # the flag wins over the file


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
        (
            ["profile-sample"],
            {"z_profile": "micro:14", "n": 4, "samples": 2, "format": "xml"},
            "--format",
        ),
        (["concentration"], {"n_list": [4], "samples": 2, "base_profile": "bogus"}, "--base-profile"),
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
        (["weingarten-check"], {"p": 2, "n_range": [1.9, 2]}, "--n-range"),
        (["weingarten-check"], {"p": 2, "n_range": [True, 2]}, "--n-range"),
    ],
    ids=[
        "format", "base_profile", "output_dir", "scaling_zeta", "scale_k_inf", "scale_z_nan", "n_list_3",
        "zeta_400", "k_6", "scaling_object", "seed_2_64", "row_seed_2_64", "n_list_float",
        "n_range_float", "n_range_bool",
    ],
)
def test_config_file_values_are_checked_like_flags(tmp_path, monkeypatch, capsys, argv, config, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(config))
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
        # 4**400 is a float, 16**400 is not
        (["--n-list", "4,16", "--zeta", "400"], "--n-list"),
        (["--zeta", "1", "--scale-z", "1e308"], "--n-list"),
        # a seed keys Philox as one 64-bit half; sweep row i runs on seed + i
        (["--seed", str(2**64)], "--seed"),
        (["--n-list", "4,8", "--seed", str(2**64 - 1)], "--seed"),
        # an explicit k runs in every row, so it must fit the smallest
        (["--n-list", "8,4", "--k", "6", "--output-dir", "d"], "--k 6 exceeds the smallest --n-list entry 4"),
    ],
    ids=[
        "scale_k_inf", "kappa_inf", "zeta_nan", "n_list_3", "n_list_8_2", "zeta_400", "scale_z_1e308",
        "seed_2_64", "row_seed_2_64", "k_above_smallest_n",
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
            "profile-sample --z-profile micro:14 --n 4 --samples 6 --seed 3 --format json",
            "486ce1251aafdc3f",
        ),
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
        format="csv", n_list=(4, 6), p=2, n_range=(1, 2), output_dir="d", summary_output="s.json",
        base_profile="constant",
    )
    hashed = {
        "subcommand": "moments", "seed": 2, "n": 5, "k": 2, "samples": 3,
        "z_profile": parse_profile("constant:3x4"), "scaling": ScalingConfig(kappa=0.5),
        "format": "json", "n_list": (4, 8), "p": 3, "n_range": (1, 3), "base_profile": "vacuum",
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
