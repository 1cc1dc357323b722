"""Short runs of the benchmark in ``perfbench/``, end to end.

Each run sets up a workload through the library, solves it for half a
second and checks every solve; the traced runs also wrap the library's
public names.  A change that breaks the benchmark's use of the library
fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("axgd-h2", 0),
        ("reduce-s10", 0),
        ("rgd-h2", 0),
        ("verify-grid", 0),
        ("axgd-h2", 1),
        ("reduce-s10", 1),
        # The tracer first touches curvopt.checks after wrapping, so a lazily
        # loaded check suite binds the wrappers; these two runs cover that.
        ("rgd-h2", 1),
        ("verify-grid", 1),
    ],
)
def test_workload_runs_correct(workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=ROOT, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
