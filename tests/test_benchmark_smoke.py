"""The traced benchmark, run once end to end at its reference seed.

The benchmark lives in ``perfbench/`` and imports the package by name, so
a change that breaks what it traces or checks shows here, not only when
the benchmark is next run by hand.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_distill_cross_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "distill-cross", "--seed", "1009", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
