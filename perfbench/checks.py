"""Output checks and fingerprints for the pipeline commands.

Each command of the pipeline has a list of artifacts it must leave in its
workdir. Every artifact is loaded through flowdistill's public readers,
checked (finite arrays, every report cell present and finite), and hashed
from its loaded content, so a change of file layout that keeps the numbers
keeps the fingerprint.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter

import numpy as np

from flowdistill.checkpoint import checkpoint_load
from flowdistill.config import plan_from_config
from flowdistill.datagen import STYLES, load_dataset

__all__ = ["artifacts", "check_artifact", "report_cells", "generated_clips"]


def artifacts(command: tuple, cfg: dict, ws) -> list:
    """(kind, path, expected cells) of every output ``command`` writes."""
    verb = command[0]
    if verb == "pretrain":
        return ([("checkpoint", ws.ckpt_path(f"base_{s.name}"), None) for s in STYLES]
                + [("checkpoint", ws.ckpt_path("motion_pretrained"), None)])
    if verb == "gen-data":
        names = sorted({row["dataset"] for row in cfg["ranks"]})
        return [("dataset", ws.data_path(name), None) for name in names]
    if verb == "distill":
        arm = command[command.index("--arm") + 1]
        return [("checkpoint", ws.ckpt_path(f"motion_{stage.name}", arm=arm), None)
                for stage in plan_from_config(cfg).stages]
    if verb == "eval":
        ev = cfg["eval"]
        cells = {(style, steps) for style in ev["styles"] for steps in ev["step_counts"]}
        return [("report", ws.report_path("main.csv"), cells),
                ("plot", ws.report_path("main_plot.json"), cells)]
    if verb == "ablate":
        # The ablation scores every registered style at one step count.
        cells = {(s.name, None) for s in STYLES}
        return [(kind, ws.report_path(f"ablation_{arm}{suffix}"), cells)
                for arm in ("cross", "single")
                for kind, suffix in (("report", ".csv"), ("plot", "_plot.json"))]
    raise ValueError(f"no artifacts known for {command!r}")


def _check_cells(found: list, expected: set) -> None:
    """``found`` holds (style, steps, metric); each expected cell once.

    Expected cells with steps ``None`` match on the style alone.
    """
    for _, _, metric in found:
        if not math.isfinite(metric):
            raise ValueError(f"non-finite report cell {metric!r}")
    style_only = any(steps is None for _, steps in expected)
    keys = Counter((style, None if style_only else steps) for style, steps, _ in found)
    if keys != Counter(expected):
        raise ValueError(f"report cells {sorted(keys, key=str)} != expected "
                         f"{sorted(expected, key=str)}")


def _read_report(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(r["style"], int(r["steps"]), float(r["metric"])) for r in rows]


def check_artifact(kind: str, path: str, cells) -> str:
    """Load and check one artifact; returns its content fingerprint.

    Raises on a missing, unreadable or invalid artifact.
    """
    digest = hashlib.sha256()
    if kind == "checkpoint":
        arrays, _ = checkpoint_load(path)
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{path}: entry {name!r} is not finite")
            digest.update(f"{name}:{arr.shape}".encode())
            digest.update(arr.tobytes())
    elif kind == "dataset":
        ds = load_dataset(path)
        if len(ds) == 0 or not np.all(np.isfinite(ds.clips)):
            raise ValueError(f"{path}: empty or non-finite dataset")
        digest.update(f"{ds.provenance}:{ds.group}:{ds.style_id}".encode())
        digest.update(np.ascontiguousarray(ds.clips, dtype="<f4").tobytes())
        digest.update(np.ascontiguousarray(ds.conditions, dtype="<i4").tobytes())
    elif kind == "report":
        rows = _read_report(path)
        _check_cells(rows, cells)
        digest.update(repr(rows).encode())
    elif kind == "plot":
        with open(path) as fh:
            series = json.load(fh)["series"]
        found = [(style, steps, metric) for style, s in series.items()
                 for steps, metric in zip(s["steps"], s["metric"], strict=True)]
        _check_cells(found, cells)
        digest.update(json.dumps(series, sort_keys=True).encode())
    else:
        raise ValueError(f"unknown artifact kind {kind!r}")
    return digest.hexdigest()


def report_cells(command: tuple, cfg: dict, ws) -> int:
    """Number of report cells ``command`` wrote (0 if it writes no report)."""
    return sum(len(_read_report(path)) for kind, path, _ in artifacts(command, cfg, ws)
               if kind == "report")


def generated_clips(cfg: dict, ws) -> int:
    """Clips the teacher generated into the gen-data datasets.

    The datasets hold every generated clip and its flipped copy.
    """
    total = 0
    for _, path, _ in artifacts(("gen-data",), cfg, ws):
        ds = load_dataset(path)
        if ds.provenance == "teacher_generated":
            total += len(ds) // 2
    return total
