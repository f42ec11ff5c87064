"""BENCHMARK.json, the result line and the bare-directory failure."""
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from flowdistill.checkpoint import checkpoint_save
from perfbench import bench, checks, layers
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import PIPELINE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER]


def test_workloads_override_only_counts():
    allowed = {"data": {"ground_truth_clips", "generated_clips"},
               "pretrain": {"base_steps", "motion_steps"},
               "distill": {"iterations", "mse_iterations"},
               "eval": {"n_conditions"}}
    for counts in [w.counts for w in WORKLOADS.values()]:
        for section, keys in counts.items():
            assert set(keys) <= allowed[section]
    for w in WORKLOADS.values():
        assert w.timed >= 1 and w.setup + w.timed <= len(PIPELINE)


def test_result_record_schema():
    ledger = bench.Ledger()
    ledger.attempted = 3
    ledger.check("boom", lambda: 1 / 0)
    units = dict(bench.END_TO_END)
    metrics = {name: 1.5 for name in units}
    metrics["wall_s"] = float("nan")
    result = bench.result_record(ledger, metrics, units)
    json.loads(json.dumps(result, allow_nan=False))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert set(result["metrics"]) == set(units)
    assert result["metrics"]["wall_s"] == {"value": 0.0, "unit": "s"}
    assert result["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_checks_reject_non_finite_and_missing_cells(tmp_path):
    path = str(tmp_path / "m.ckpt")
    checkpoint_save({"w": np.ones(3, dtype=np.float32)}, path)
    assert len(checks.check_artifact("checkpoint", path, None)) == 64
    checkpoint_save({"w": np.array([1.0, np.nan], dtype=np.float32)}, path)
    with pytest.raises(ValueError):
        checks.check_artifact("checkpoint", path, None)
    report = tmp_path / "main.csv"
    report.write_text("style,steps,metric,n,seed\nreal_b,1,0.5,8,0\n")
    cells = {("real_b", 1), ("real_b", 2)}
    with pytest.raises(ValueError):
        checks.check_artifact("report", str(report), cells)
    report.write_text("style,steps,metric,n,seed\nreal_b,1,0.5,8,0\nreal_b,2,nan,8,0\n")
    with pytest.raises(ValueError):
        checks.check_artifact("report", str(report), cells)
    report.write_text("style,steps,metric,n,seed\nreal_b,1,0.5,8,0\nreal_b,2,0.25,8,0\n")
    checks.check_artifact("report", str(report), cells)
    with pytest.raises(OSError):
        checks.check_artifact("dataset", str(tmp_path / "missing.ds"), None)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distill-cross",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_command_walls_are_scaled_by_the_probes_around_them(monkeypatch):
    probes = iter([0.004, 0.006, 0.010])
    walls = iter([1.0, 2.0])
    monkeypatch.setattr(bench, "host_probe", lambda: next(probes))
    monkeypatch.setattr(bench, "_run_command", lambda ledger, command, workdir: next(walls))
    ledger = bench.Ledger()
    out = bench._run_pass(ledger, PIPELINE[:2], "unused")
    ref = bench.REFERENCE_PROBE_S
    assert [phase for phase, _, _ in out] == ["pretrain", "gen"]
    assert [s for _, _, s in out] == pytest.approx([1.0 * ref / 0.005, 2.0 * ref / 0.008])
    assert ledger.commands == [("pretrain", 1.0, pytest.approx(0.005)),
                               ("gen-data", 2.0, pytest.approx(0.008))]
