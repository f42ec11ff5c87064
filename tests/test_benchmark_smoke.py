"""The traced benchmark, run once end to end at its reference seed.

The benchmark lives in ``perfbench/`` and imports the package by name, so
a change that breaks what it traces or checks shows here, not only when
the benchmark is next run by hand. Each workload's run also applies that
workload's own checks: on ``eval-ablate``, evaluation calls
``autodiff.backward`` 0 times, every report cell is present and every pass
has the first pass's output fingerprint.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["pretrain-gen", "distill-cross", "eval-ablate"])
def test_traced_benchmark_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1009", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
