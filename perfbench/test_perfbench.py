"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cvtypical  # noqa: E402
import cvtypical.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run_small_pass(tmp_path, samples):
    workload = workloads.TrialDump(seed=3, workers=1)
    workload.ROWS = (("fixed:3,1,1,1", None, 1, samples),)
    directory = str(tmp_path / "p0")
    calls = workload.make_pass(0, directory)
    result = run.run_pass(cvtypical, 0, calls, directory, run.CacheCounters(cvtypical))
    return workload, result


def test_perturbed_expected_moment_fails_the_row_gate(tmp_path, monkeypatch):
    workload, result = _run_small_pass(tmp_path, workloads.ROW_GATE_MIN_TRIALS)
    report = workload.gate(cvtypical, [result])
    assert report.failed_ops([result]) == 0
    (count, mean, se), = report.rows.values()
    exact = workload.expected_f(cvtypical, "fixed:3,1,1,1", 4, 1)
    monkeypatch.setattr(workloads.MonteCarloWorkload, "expected_f", staticmethod(lambda *a: exact + 10 * se))
    report = workload.gate(cvtypical, [result])
    assert report.failed_ops([result]) == count


def test_perturbed_moment_output_fails_the_exact_gate():
    payload = {"k": 2, "tilde_lambda_sq": 1.0, "second_moment": -4.0, "expected_f": 0.0}
    assert workloads.moment_problem(payload, "moments-vacuum") is None
    assert workloads.moment_problem(dict(payload, second_moment=-4.0 * (1 + 1e-9)), "moments-random")
    assert workloads.moment_problem(dict(payload, expected_f=-1e-3), "moments-random")
    assert workloads.moment_problem(dict(payload, tilde_lambda_sq=1.5, second_moment=-6.0), "moments-vacuum")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_decides_the_inputs(name):
    def argvs(seed, index):
        return [call.argv for call in workloads.WORKLOADS[name](seed).make_pass(index, "d")]

    assert argvs(1, 0) == argvs(1, 0)
    assert argvs(1, 0) != argvs(2, 0)
    assert argvs(1, 0) != argvs(1, 1)


def test_wrappers_return_the_wrapped_result_and_are_restored():
    harness = cvtypical.harness
    originals = {attr: vars(harness)[attr] for attr in ("run_trial", "symplectic_spectrum")}
    stream = cvtypical.SeededStream(5, 0)
    expected = harness.run_trial([3.0, 1.0, 1.0, 1.0], 2, stream)
    tracer = spans.Tracer(cvtypical)
    tracer.install()
    try:
        assert harness.run_trial is not originals["run_trial"]
        got = harness.run_trial([3.0, 1.0, 1.0, 1.0], 2, stream)
    finally:
        tracer.uninstall()
    assert repr(got) == repr(expected)
    assert tracer.restored()
    assert all(vars(harness)[attr] is fn for attr, fn in originals.items())
    assert tracer.calls["harness.run_trial"] == 1
    assert tracer.calls["symplectic.symplectic_spectrum.full"] == 1
    assert tracer.calls["symplectic.symplectic_spectrum.reduced"] == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-n-trials", "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-n-trials", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
