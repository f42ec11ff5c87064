"""One benchmark run: rounds of the whole pipeline, checks, result record.

The run drives flowdistill through ``flowdistill.cli.cli`` in this
process, one command at a time (a closed loop with one caller, no
threads). It repeats rounds until ``--seconds`` have passed and at least
``MIN_ROUNDS`` have run. Each round runs the whole pipeline on a fresh
workdir at the workload's config: the set-up commands, the timed
commands, then the commands that finish the pipeline. Set-up time is the
time of every untimed command of the round. Times are in reference
seconds (see ``REFERENCE_PROBE_S``). The timed commands' outputs
are then checked and fingerprinted. With ``--trace 1`` the rounds
alternate untraced and traced timed sections, and only the traced ones
feed the per-layer metrics.

Every command and every check is one operation; a non-zero exit, an
exception or a failed check counts as failed and the run goes on.
"""
from __future__ import annotations

import contextlib
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from flowdistill.cli import cli
from flowdistill.config import config_hash, load_config
from flowdistill.runner import Workspace

from . import checks, layers
from .tracer import Tracer
from .workloads import WORKLOADS, bench_config, phase_work

__all__ = ["MIN_ROUNDS", "END_TO_END", "REFERENCE_PROBE_S", "Ledger", "host_probe",
           "result_record", "run"]

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # two untraced and two traced
CONFIG_NAME = "bench_config.json"

# Times are reported in reference seconds: a command's wall scaled by
# REFERENCE_PROBE_S over the host probe time measured around it. The shared
# machine this was tuned on switches between a fast and a slow state, about
# 1.6x apart, for seconds to minutes at a time; the probe slows with it, so
# the scaled time stays put while the raw wall jumps. The constant is the
# probe time of that machine in its fast state, which keeps reference
# seconds close to wall seconds there.
REFERENCE_PROBE_S = 0.005
_PROBE_A = np.random.default_rng(0).standard_normal((128, 16))
_PROBE_B = np.random.default_rng(1).standard_normal((16, 16))

# (name, unit); every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pretrain_samples_per_s", "samples/s"),
    ("gen_clips_per_s", "clips/s"),
    ("distill_samples_per_s", "samples/s"),
    ("eval_cells_per_s", "cells/s"),
)
PHASE_METRICS = {"pretrain": "pretrain_samples_per_s", "gen": "gen_clips_per_s",
                 "distill": "distill_samples_per_s", "eval": "eval_cells_per_s"}


class Ledger:
    """Counts operations, keeps the label of each failure and the raw
    timing of each command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.commands: list = []  # (command, raw seconds, probe seconds)

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(label)
        print(f"FAILED {label}\n{detail}", file=sys.stderr, flush=True)

    def check(self, label: str, fn):
        """Run one check; returns its value, or None if it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failed check is recorded and the run goes on
            self.fail(label, traceback.format_exc())
            return None


def _run_command(ledger: Ledger, command: tuple, workdir: str) -> float | None:
    """Run one CLI command; its wall seconds, or None if it failed."""
    ledger.attempted += 1
    argv = [*command, "--config", os.path.join(workdir, CONFIG_NAME),
            "--workdir", workdir]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli(argv)
    except Exception:  # e.g. DistillDivergence, which escapes cli()
        ledger.fail(" ".join(command), captured.getvalue() + traceback.format_exc())
        return None
    seconds = time.perf_counter() - start
    if code != 0:
        ledger.fail(" ".join(command), f"exit code {code}\n{captured.getvalue()}")
        return None
    return seconds


def _new_workdir(path: str, counts: dict, seed: int) -> None:
    os.makedirs(path)
    with open(os.path.join(path, CONFIG_NAME), "w") as fh:
        json.dump(bench_config(counts, seed), fh)


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    The median of three repetitions of about 5 ms each.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for i in range(20000):
            total += math.sqrt(i)
        for _ in range(500):
            np.tanh(_PROBE_A @ _PROBE_B)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_pass(ledger: Ledger, commands, workdir: str, tracer=None) -> list:
    """Run commands in order; [(phase, command, reference seconds or None)].

    A host probe runs before the first command and after each one. A
    command's wall is scaled by ``REFERENCE_PROBE_S`` over the mean of the
    probes on either side of it. The raw walls and probe times are kept in
    ``ledger.commands`` for the detail line.
    """
    out = []
    probe = host_probe()
    with tracer if tracer is not None else contextlib.nullcontext():
        for phase, command in commands:
            seconds = _run_command(ledger, command, workdir)
            after = host_probe()
            scaled = (None if seconds is None
                      else seconds * REFERENCE_PROBE_S / ((probe + after) / 2))
            ledger.commands.append((" ".join(command), seconds, (probe + after) / 2))
            out.append((phase, command, scaled))
            probe = after
    return out


def _throughputs(ledger: Ledger, timings: list, workdir: str) -> dict:
    """Per phase of one pass: work / seconds over its successful commands."""
    cfg = load_config(os.path.join(workdir, CONFIG_NAME))
    ws = Workspace(cfg, workdir)
    pooled: dict = {}
    for phase, command, seconds in timings:
        if seconds is None:
            continue
        work = ledger.check(f"work of {' '.join(command)}",
                            lambda: phase_work(phase, command, cfg, ws))
        if work is not None:
            acc = pooled.setdefault(phase, [0, 0.0])
            acc[0] += work
            acc[1] += seconds
    return {phase: work / seconds for phase, (work, seconds) in pooled.items()}


def _check_outputs(ledger: Ledger, commands, workdir: str) -> dict:
    """Check every artifact the commands write; {relative path: digest}."""
    cfg = load_config(os.path.join(workdir, CONFIG_NAME))
    ws = Workspace(cfg, workdir)
    digests = {}
    for _, command in commands:
        for kind, path, cells in checks.artifacts(command, cfg, ws):
            rel = os.path.relpath(path, workdir)
            digest = ledger.check(f"{kind} {rel}",
                                  lambda: checks.check_artifact(kind, path, cells))
            digests[rel] = digest
    return digests


def _fingerprint(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def _same(ledger: Ledger, label: str, first, value) -> None:
    def compare():
        if value != first:
            raise ValueError(f"{label}: {value!r} differs from the first pass {first!r}")
    ledger.check(label, compare)


def _blas_threads():
    """Threads OpenBLAS uses, read from the library numpy loaded, or None."""
    import ctypes

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: str):
    """HEAD commit of a git checkout at ``root``, read from files, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "flowdistill", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, config: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "config_hash": config,
    }


def _config_hash(workdir: str) -> str:
    return config_hash(load_config(os.path.join(workdir, CONFIG_NAME)))


def run(root: str, workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    ledger = Ledger()
    parent = os.path.join(root, ".perfbench_work")
    scratch = os.path.join(parent, f"{workload_name}-{seed}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        return _run(root, scratch, workload, seed, seconds, trace, ledger)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(parent)


def _run(root, scratch, workload, seed, seconds, trace, ledger) -> int:
    rounds = []
    targets, missing = layers.targets() if trace else ([], [])
    first_digests = first_counts = None
    start = time.perf_counter()
    while True:
        n = len(rounds)
        traced = trace and n % 2 == 1
        work_dir = os.path.join(scratch, f"round{n}")
        gc.collect()
        _new_workdir(work_dir, workload.counts, seed)
        timings = _run_pass(ledger, workload.setup_commands, work_dir)
        tracer = Tracer(targets) if traced else None
        gc.collect()
        timed = _run_pass(ledger, workload.timed_commands, work_dir, tracer)
        timings += _run_pass(ledger, workload.finish_commands, work_dir)
        record = {"traced": traced,
                  "setup_s": sum(s for _, _, s in timings if s is not None),
                  "wall_s": sum(s for _, _, s in timed if s is not None),
                  "per_s": {"timed": _throughputs(ledger, timed, work_dir),
                            "untimed": _throughputs(ledger, timings, work_dir)}}
        digests = _check_outputs(ledger, workload.timed_commands, work_dir)
        if first_digests is None:
            first_digests = digests
        _same(ledger, "output fingerprint", _fingerprint(first_digests),
              _fingerprint(digests))
        if traced:
            record["layers"] = layers.layer_metrics(tracer.spans, tracer.counts)
            counts = {k: record["layers"][k] for k in layers.DETERMINISTIC}
            if first_counts is None:
                first_counts = counts
            _same(ledger, "deterministic counts", first_counts, counts)
            if not workload.trains:
                _same(ledger, "no backward in evaluation", 0,
                      record["layers"]["autodiff.backward.calls"])
        rounds.append(record)
        config = _config_hash(work_dir)
        shutil.rmtree(work_dir)
        if (time.perf_counter() - start >= seconds
                and len(rounds) >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)):
            break

    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = layers.median_metrics([r["layers"] for r in traced_rounds])
        base = statistics.median(untraced)
        overhead = statistics.median(r["wall_s"] for r in traced_rounds) - base
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / base if base else 0.0
        units = {name: unit for name, (unit, _) in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for phase, name in PHASE_METRICS.items():
            section = "timed" if workload.timed_phase(phase) else "untimed"
            values = [r["per_s"][section][phase] for r in rounds
                      if phase in r["per_s"][section]]
            metrics[name] = statistics.median(values) if values else 0.0
        units = dict(END_TO_END)

    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(root, config),
        "rounds": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "per_s")}
                   for r in rounds],
        "fingerprint": _fingerprint(first_digests or {}),
        "artifacts": first_digests,
        "counts": first_counts,
        "absent": missing,
        "errors": ledger.errors,
        "commands": ledger.commands,
    }
    for name, value in metrics.items():
        print(f"{workload.name:>14} {name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_record(ledger, metrics, units)), flush=True)
    return 0


def result_record(ledger: Ledger, metrics: dict, units: dict) -> dict:
    """The run's last output line: correctness, operation counts, metrics."""
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": _finite(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _finite(value):
    """Counts stay integers; a non-finite time (a failed run) reads 0."""
    if isinstance(value, int):
        return value
    value = float(value)
    return value if np.isfinite(value) else 0.0
