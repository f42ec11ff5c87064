"""The traced benchmark, run once end to end at its reference seed.

The benchmark lives in ``perfbench/`` and imports the package by name, so
a change that breaks what it traces or checks shows here, not only when
the benchmark is next run by hand. Each workload's run also applies that
workload's own checks: on ``eval-ablate``, evaluation calls
``autodiff.backward`` 0 times, every report cell is present and every pass
has the first pass's output fingerprint. The test also pins what the
trace names as absent and the deterministic counts, so a change that moves
the work done or the bytes written shows here.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metric-table names the benchmark traces that the package no longer has.
ABSENT = [
    "distill.RankWorker.draw_batch", "distill.adversarial_step",
    "distill.mse_distill_step", "ranks.accumulate_and_update",
    "ranks.all_reduce_shared", "runner.Workspace.evaluate_ablation",
    "runner.Workspace.evaluate_main", "solvers.multistep_solve",
]

# The deterministic counts at seed 1009: work done and bytes written and
# read, which do not depend on the host's BLAS as float fingerprints do.
COUNTS = {
    "pretrain-gen": {
        "autodiff.backward.calls": 180, "autodiff.backward.nodes": 2940,
        "checkpoint.checkpoint_save.bytes": 520533,
        "datagen.load_dataset.bytes": 0, "datagen.save_dataset.bytes": 484649,
        "evalmetrics.energy_distance.pairs": 0, "nets.student_eps.rows": 232960,
        "ranks.all_reduce_shared.bytes": 0, "ranks.all_reduce_shared.calls": 0,
    },
    "distill-cross": {
        "autodiff.backward.calls": 50, "autodiff.backward.nodes": 2374,
        "checkpoint.checkpoint_save.bytes": 49740,
        "datagen.load_dataset.bytes": 157151, "datagen.save_dataset.bytes": 0,
        "evalmetrics.energy_distance.pairs": 0, "nets.student_eps.rows": 27648,
        "ranks.all_reduce_shared.bytes": 0, "ranks.all_reduce_shared.calls": 0,
    },
    "eval-ablate": {
        "autodiff.backward.calls": 0, "autodiff.backward.nodes": 0,
        "checkpoint.checkpoint_save.bytes": 77400,
        "datagen.load_dataset.bytes": 157151, "datagen.save_dataset.bytes": 0,
        "evalmetrics.energy_distance.pairs": 2150400,
        "nets.student_eps.rows": 95400,
        "ranks.all_reduce_shared.bytes": 0, "ranks.all_reduce_shared.calls": 0,
    },
}


@pytest.mark.parametrize("workload", ["pretrain-gen", "distill-cross", "eval-ablate"])
def test_traced_benchmark_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1009", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, detail, result = proc.stdout.strip().splitlines()
    result, detail = json.loads(result), json.loads(detail)["detail"]
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert detail["absent"] == ABSENT
    assert detail["counts"] == COUNTS[workload]
