"""Each benchmark workload, run once through perfbench/run.py as the benchmark
runs it, is correct at its pinned iteration count: a renamed solver entry point
or result field fails here, not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, iterations", [
    ("wanet-cli", 2978), ("quad-200", 2494), ("wanet-race", 2004),
])
def test_workload_runs_correct(workload, iterations):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
    assert report["metrics"]["iterations"]["value"] == iterations
