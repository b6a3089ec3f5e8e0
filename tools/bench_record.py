"""Record the benchmark's end-to-end metrics in a BENCH_*.json file.

Usage, from the root of a checkout:

    python3 tools/bench_record.py                 # the working tree
    python3 tools/bench_record.py --rev 192fb5c   # a commit, exported by git archive

For every workload in BENCHMARK.json it runs
``perfbench/run.py --trace 0`` once per seed (seeds 1..5) for the
benchmark's run length, and writes ``BENCH_<version>-<shorthash>.json``
at the root: per workload, the median and quartiles of each end-to-end
metric, the failed and attempted op counts, and the ``env`` line of its
first run.  A commit's files are measured with the benchmark code of that
commit.  The working tree's shorthash is HEAD's, with ``-dirty`` appended
when a tracked file differs from HEAD; such a file measures uncommitted
code, which its ``measured`` field says, and a later dirty measurement on
the same HEAD overwrites it.  ``writes_bytecode`` records whether the fresh
processes the benchmark starts may write bytecode (no non-empty
``PYTHONDONTWRITEBYTECODE``): where they may not, each one compiles every
module it imports, which adds 8-12% to ``setup_s`` on a 2-core Xeon, so
records whose values differ are not comparable there.  The exit status
is 1 when a run fails a gate.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 6)


def git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, directory: str) -> None:
    """The files of commit ``rev``, as the benchmark sees a fresh checkout."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def version(checkout: str) -> str:
    with open(os.path.join(checkout, "src", "cvtypical", "__init__.py")) as handle:
        return re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M).group(1)


def run(checkout: str, workload: str, seed: int, seconds: float):
    """(result line, env line) of one ``--trace 0`` run, both parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    env = next(line[len("env "):] for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), json.loads(env)


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="commit to measure (default: the working tree)")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-record-") if args.rev else None
    try:
        if args.rev:
            checkout = os.path.join(scratch, "checkout")
            export(args.rev, checkout)
            label = git("rev-parse", "--short", args.rev)
            measured = f"commit {git('rev-parse', args.rev)}"
        else:
            checkout = ROOT
            label = git("rev-parse", "--short", "HEAD")
            measured = f"commit {git('rev-parse', 'HEAD')}"
            if git("status", "--porcelain", "--untracked-files=no"):
                label += "-dirty"
                measured = f"the working tree: {measured} with uncommitted changes to tracked files"
        with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        metric_names = [metric["name"] for metric in benchmark["end_to_end"]]
        seconds = benchmark["run_seconds"]
        record = {
            "version": version(checkout), "rev": label, "measured": measured, "seconds": seconds,
            "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"), "workloads": {},
        }
        failed_any = False
        for workload in [entry["name"] for entry in benchmark["workloads"]]:
            results = [run(checkout, workload, seed, seconds) for seed in SEEDS]
            failed = sum(result["failed"] for result, _env in results)
            failed_any |= failed > 0
            metrics = {
                metric: {
                    "unit": results[0][0]["metrics"][metric]["unit"],
                    **summarize([result["metrics"][metric]["value"] for result, _env in results]),
                }
                for metric in metric_names
            }
            record["workloads"][workload] = {
                "env": results[0][1],
                "failed": failed,
                "attempted": sum(result["attempted"] for result, _env in results),
                "metrics": metrics,
            }
            medians = ", ".join(f"{metric} {metrics[metric]['median']:.4g}" for metric in metric_names)
            print(f"{workload}: {medians}, failed {failed}", flush=True)
    finally:
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    path = os.path.join(ROOT, f"BENCH_{record['version']}-{label}.json")
    with open(path, "w") as handle:
        handle.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
