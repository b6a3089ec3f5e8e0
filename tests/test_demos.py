"""Every demo runs to the end: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvtypical

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(cvtypical.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
