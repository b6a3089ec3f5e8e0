"""cvtypical benchmark: drives ``cvtypical.cli.main`` in-process on one
workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-n-trials --seed 1 --seconds 20 --trace 0

A run repeats the workload's pass (a fixed list of CLI calls, fresh inputs
each time) until ``--seconds`` have passed, then checks every output.  Time
metrics are rescaled by a reference job timed beside every call, to cancel
the host's speed drift.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass, then the timed passes with every layer wrapped, and
prints per-layer calls and self time.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit status is 0 when every correctness gate holds, 1 when one fails and 2
when the program cannot be found.  See perfbench/README.md for the
workloads and metrics.
"""

import os

# BLAS threads are pinned before numpy is imported anywhere in this process
# or in the processes it starts; threaded BLAS only adds noise at these sizes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Fresh-process set-up: interpreter start, import of cvtypical (numpy and
# scipy.linalg with it), parser build and a one-trial CLI call.
SETUP_REPEATS = 7
SETUP_CHILD = "import sys\nfrom cvtypical import cli\nsys.exit(cli.main(sys.argv[1:]))"
SETUP_ARGV = ["trial-dump", "--k", "1", "--z-profile", "fixed:3,1,1,1", "--samples", "1"]

# (counter, module, cached function); the package rebinds the name
# ``cvtypical.weingarten`` to a function, so modules are looked up by import
# The host's speed drifts by up to 2x over tens of seconds: it has other
# tenants, and a fixed Python loop alone swings that much.  So each workload
# has a fixed reference job shaped like its own work (numpy and fractions
# only, no cvtypical), run before every timed call and after the last one.
# Every time metric is rescaled by (the job's nominal time / its time
# measured beside the call), and so reads as seconds of this machine at its
# reference speed.  For set-up, the reference is a fresh process that only
# imports numpy.
SETUP_REFERENCE_S = 0.15
SETUP_REFERENCE_CHILD = "import numpy"

CACHES = (("moments.power_sums", "moments", "_power_sums"), ("weingarten.chi", "weingarten", "_chi"))


def fail_to_start(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not os.path.isfile(os.path.join(SRC, "cvtypical", "__init__.py")):
        fail_to_start(f"no src/cvtypical under {ROOT}; run it from a checkout of the repository")
    sys.path.insert(0, SRC)
    import cvtypical
    import cvtypical.cli

    if not os.path.abspath(cvtypical.__file__).startswith(SRC + os.sep):
        fail_to_start(f"imported cvtypical from {cvtypical.__file__}, not from {SRC}")
    return cvtypical


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


class CacheCounters:
    """Hits and misses of the program's in-process caches.

    Each CLI call is a fresh process for a user, so the caches are cleared
    before every call; their statistics are added up first.
    """

    def __init__(self, package):
        self._caches = {}
        for name, module, attribute in CACHES:
            fn = getattr(importlib.import_module(f"{package.__name__}.{module}"), attribute, None)
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
        self.hits = {name: 0 for name, _module, _attribute in CACHES}
        self.misses = dict(self.hits)

    def zero(self) -> None:
        self.clear()
        self.hits = dict.fromkeys(self.hits, 0)
        self.misses = dict.fromkeys(self.misses, 0)

    def clear(self) -> None:
        for name, fn in self._caches.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            fn.cache_clear()


def run_pass(package, index, calls, directory, caches, reference=None) -> workloads.PassResult:
    """Run one pass; with ``reference`` given, time it before every call and
    after the last, and keep the mean."""
    os.makedirs(directory)
    codes, wall, references = [], 0.0, []
    for call in calls:
        if reference is not None:
            references.append(reference())
        caches.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = package.cli.main(call.argv)
            except Exception:  # an uncaught error exits the real CLI with status 1
                traceback.print_exc()
                code = 1
            wall += time.perf_counter() - start
        codes.append(code)
        if call.stdout:
            with open(os.path.join(directory, call.stdout), "w") as handle:
                handle.write(out.getvalue())
        if code != 0:
            print(f"perfbench: {call.kind} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    caches.clear()
    if reference is not None:
        references.append(reference())
    mean_reference = statistics.mean(references) if references else 0.0
    return workloads.PassResult(index, directory, calls, codes, wall, mean_reference)


def timed_passes(package, workload, tag, seconds, caches, reference=None) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        directory = os.path.join(WORK, tag, f"p{len(passes)}")
        calls = workload.make_pass(len(passes), directory)
        passes.append(run_pass(package, len(passes), calls, directory, caches, reference))
    return passes


def output_bytes(result) -> dict:
    names = [name for call in result.calls for name in [*call.outputs, call.stdout] if name]
    out = {}
    for name in names:
        with open(os.path.join(result.directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def measure_setup() -> list:
    """Rescaled wall times of SETUP_REPEATS fresh-process one-trial calls."""
    directory = os.path.join(WORK, "setup")
    os.makedirs(directory)
    argv = SETUP_ARGV + ["--output", os.path.join(directory, "t.csv"), "--summary-output", os.path.join(directory, "t.json")]
    env = dict(os.environ, PYTHONPATH=SRC)

    def child(*args) -> float:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call exited {proc.returncode}: {proc.stderr.decode().strip()}")
        return time.perf_counter() - start

    times = []
    for _ in range(SETUP_REPEATS):
        reference = child(SETUP_REFERENCE_CHILD)
        times.append(child(SETUP_CHILD, *argv) * SETUP_REFERENCE_S / reference)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def gate_passes(package, workload, passes, caches):
    """Run the workload's gates, plus its worker-invariance rerun of pass 0."""
    report = workload.gate(package, passes)
    first = passes[0]
    reference = workload.reference_pass(first.index, os.path.join(WORK, "reference"))
    if reference is not None:
        rerun = run_pass(package, first.index, reference, os.path.join(WORK, "reference"), caches)
        if output_bytes(rerun) != output_bytes(first):
            report.fail_pass(first, "outputs differ from the --workers 1 run of the same pass")
        else:
            report.notes.append("worker invariance: pass 0 is byte-identical with --workers 1")
    return report


def spread(values) -> str:
    if len(values) < 2:
        return "one pass"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4g}..{q3:.4g}, max {max(values):.4g}"


def time_to_1pct(workload, walls, report) -> float:
    """Summed pass time x max over rows of (se_f / mean_f / 0.01)^2, se_f
    pooled over the passes; exact results need no more samples, so for them
    it is wall_s."""
    if not workload.monte_carlo:
        return statistics.median(walls)
    worst = max((se / mean / 0.01) ** 2 for _count, mean, se in report.rows.values())
    return sum(walls) * worst


def end_to_end(package, workload, seconds):
    caches = CacheCounters(package)
    run_pass(package, -1, workload.warmup(os.path.join(WORK, "warmup")), os.path.join(WORK, "warmup"), caches)
    passes = timed_passes(package, workload, "timed", seconds, caches, workload.reference)
    rss = peak_rss_mb()
    report = gate_passes(package, workload, passes, caches)
    setup = measure_setup()
    walls = [p.wall_s * workload.REFERENCE_S / p.reference_s for p in passes]
    wall = statistics.median(walls)
    ops_per_pass = sum(call.ops for call in passes[0].calls)
    attempted = ops_per_pass * len(passes)
    failed = report.failed_ops(passes)
    raw = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (wall, "s", f"median of {len(passes)} passes of {len(passes[0].calls)} CLI calls; {spread(walls)}; unscaled median {raw:.4g}"),
        "trials_per_s": (ops_per_pass / wall, "1/s", f"{ops_per_pass} {'trials' if workload.monte_carlo else 'calls'} per pass"),
        "peak_rss_mb": (rss, "MB", "max RSS of this process or any child it waited for"),
    }
    extra = {
        "time_to_1pct_s": (time_to_1pct(workload, walls, report), "s", "not gated: se of a heavy-tailed f is noisy"),
        "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted} ops; in the JSON as failed/attempted"),
        "reference_s": (statistics.median(p.reference_s for p in passes), "s", f"median per pass of the reference job; nominal {workload.REFERENCE_S}"),
    }
    return metrics, extra, report, attempted, failed


def per_layer(package, workload, seconds):
    """Alternate untraced and traced runs of the same pass until ``seconds``
    have passed: the traced bytes must equal the untraced ones, and the
    difference in wall time is the tracing overhead."""
    caches = CacheCounters(package)
    run_pass(package, -1, workload.warmup(os.path.join(WORK, "warmup")), os.path.join(WORK, "warmup"), caches)
    tracer = spans.Tracer(package)
    hits = {name: 0 for name, _module, _attribute in CACHES}
    misses = dict(hits)
    passes, overheads, mismatched = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        i = len(passes)
        plain_dir, traced_dir = os.path.join(WORK, "untraced", f"p{i}"), os.path.join(WORK, "traced", f"p{i}")
        plain = run_pass(package, i, workload.make_pass(i, plain_dir), plain_dir, caches)
        caches.zero()
        tracer.install()
        try:
            traced = run_pass(package, i, workload.make_pass(i, traced_dir), traced_dir, caches)
        finally:
            tracer.uninstall()
        for name in hits:
            hits[name] += caches.hits[name]
            misses[name] += caches.misses[name]
        caches.zero()
        passes.append(traced)
        overheads.append(traced.wall_s - plain.wall_s)
        if output_bytes(plain) != output_bytes(traced) or not tracer.restored():
            mismatched.append(traced)
        shutil.rmtree(plain_dir)
    report = gate_passes(package, workload, passes, caches)
    for traced in mismatched:
        report.fail_pass(traced, "traced outputs differ from the untraced run of the same pass, or a wrapper stayed")
    if not mismatched:
        report.notes.append(f"trace integrity: {len(passes)} traced passes byte-identical with untraced ones; wrappers restored")

    count = len(passes)
    metrics = {}
    for name in spans.span_names():
        metrics[f"{name}.calls"] = (tracer.calls[name] / count, "count")
        metrics[f"{name}.self_s"] = (tracer.self_ns[name] * 1e-9 / count, "s")
    trial_us = sorted(ns * 1e-3 for ns in tracer.trial_ns)
    metrics["harness.run_trial.p50_us"] = (statistics.median(trial_us) if trial_us else 0.0, "us")
    metrics["harness.run_trial.p99_us"] = (trial_us[int(0.99 * (len(trial_us) - 1))] if trial_us else 0.0, "us")
    trials = sum(call.ops for call in passes[0].calls) if workload.monte_carlo else 0
    metrics["harness.trials"] = (trials, "count")
    metrics["harness.useful_ratio"] = (1.0 - report.flagged / (trials * count) if trials else 0.0, "ratio")
    metrics["harness.csv_bytes"] = (report.csv_bytes / count, "bytes")
    metrics["moments.power_sums.hits"] = (hits["moments.power_sums"] / count, "count")
    metrics["moments.power_sums.misses"] = (misses["moments.power_sums"] / count, "count")
    metrics["weingarten.chi.misses"] = (misses["weingarten.chi"] / count, "count")
    for counter, value in tracer.gflop.items():
        metrics[counter] = (value / count, "GFLOP")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    attempted = sum(call.ops for p in passes for call in p.calls)
    return metrics, report, attempted, report.failed_ops(passes)


def print_layers(metrics) -> None:
    total_self = sum(value for name, (value, _unit) in metrics.items() if name.endswith(".self_s"))
    print(f"  {'span':44s} {'calls/pass':>12s} {'self_s/pass':>12s} {'share':>7s}")
    for name in spans.span_names():
        calls, self_s = metrics[f"{name}.calls"][0], metrics[f"{name}.self_s"][0]
        share = self_s / total_self if total_self else 0.0
        print(f"  {name:44s} {calls:12.6g} {self_s:12.6g} {share:7.1%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:44s} {value:12.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_package()
    env = environment(args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, report, attempted, failed = per_layer(package, workload, args.seconds)
            print("per layer, averaged per traced pass; self time is the span minus wrapped children")
            if getattr(workload, "workers", 1) > 1:
                print("note: pool workers are forked and their spans are not collected, so trial layers read 0")
            print_layers(metrics)
            shown = metrics
        else:
            metrics, extra, report, attempted, failed = end_to_end(package, workload, args.seconds)
            print(f"{'metric':16s} {'value':>14s} unit   samples")
            for name, (value, unit, note) in {**metrics, **extra}.items():
                print(f"  {name:16s} {value:14.6g} {unit:6s} {note}")
            shown = {name: (value, unit) for name, (value, unit, _note) in metrics.items()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for note in report.notes:
        print(f"gate: {note}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
