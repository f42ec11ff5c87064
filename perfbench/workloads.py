"""Workloads: which slice of the pipeline each one times.

Every workload runs the whole six-command pipeline in each round, on a
fresh workdir: the ``setup`` commands before the timed section build its
inputs, the ``timed`` commands are the timed section, and the commands
after it finish the pipeline, so every workload measures every phase.
Bench configs are the shipped default config with only count keys (data
sizes, step and iteration counts, ``eval.n_conditions``) and ``seed``
overridden, so dims, batch sizes, T, the rank table and the worker mode
keep their shipped values. Counts are large for the timed phases and small
for the rest.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

from flowdistill.config import plan_from_config
from flowdistill.datagen import STYLES

from . import checks

__all__ = ["PIPELINE", "Workload", "WORKLOADS", "bench_config", "phase_work"]

# (phase, command); a phase's throughput pools the commands it names.
PIPELINE = (
    ("pretrain", ("pretrain",)),
    ("gen", ("gen-data",)),
    ("distill", ("distill", "--arm", "cross")),
    ("distill", ("distill", "--arm", "single")),
    ("eval", ("eval",)),
    ("eval", ("ablate",)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    counts: dict
    setup: int  # pipeline commands run before the timed ones
    timed: int  # pipeline commands timed

    @property
    def setup_commands(self) -> tuple:
        return PIPELINE[:self.setup]

    @property
    def timed_commands(self) -> tuple:
        return PIPELINE[self.setup:self.setup + self.timed]

    @property
    def finish_commands(self) -> tuple:
        return PIPELINE[self.setup + self.timed:]

    @property
    def trains(self) -> bool:
        """False when the timed section must never call backward."""
        return any(p in ("pretrain", "distill") for p, _ in self.timed_commands)

    def timed_phase(self, phase: str) -> bool:
        return phase in {p for p, _ in self.timed_commands}


_SMALL_DATA = {"ground_truth_clips": 512, "generated_clips": 128}
_SMALL_PRETRAIN = {"base_steps": 4, "motion_steps": 4}
_SMALL_EVAL = {"n_conditions": 16}

WORKLOADS = {w.name: w for w in (
    Workload(
        "pretrain-gen",
        "large-batch work: base fwd/bwd at batch 128, Adam, 32-step guided "
        "multistep generation at batch 512, checkpoint and dataset writes",
        {"data": {"ground_truth_clips": 1000, "generated_clips": 512},
         "pretrain": {"base_steps": 60, "motion_steps": 60},
         "distill": {"iterations": 1, "mse_iterations": 1},
         "eval": _SMALL_EVAL},
        setup=0, timed=2),
    Workload(
        "distill-cross",
        "small Python-bound calls: tape build and backward, guided teacher "
        "traversal, discriminator, per-rank reduction over 8 ranks",
        # Two iterations per phase: an adversarial phase alternates a
        # discriminator and a student update, so both sides run.
        {"data": _SMALL_DATA, "pretrain": _SMALL_PRETRAIN,
         "distill": {"iterations": 2, "mse_iterations": 2},
         "eval": _SMALL_EVAL},
        setup=2, timed=1),
    Workload(
        "eval-ablate",
        "tape-free inference, quadratic exact energy distance, checkpoint "
        "and dataset reads; no training may run here",
        {"data": _SMALL_DATA, "pretrain": _SMALL_PRETRAIN,
         "distill": {"iterations": 1, "mse_iterations": 1},
         "eval": {"n_conditions": 150}},
        setup=4, timed=2),
)}


def bench_config(counts: dict, seed: int) -> dict:
    """The override document: ``counts`` plus the workload seed."""
    return {"seed": int(seed), **copy.deepcopy(counts)}


def phase_work(phase: str, command: tuple, cfg: dict, ws) -> int:
    """Units of work one command did; read after the command has run.

    pretrain: samples, (styles x base_steps + motion_steps) x batch;
    gen: clips the teacher generated; distill: samples, summed over phases
    of iterations x ranks x micro_batch x grad_accum (the single arm
    trains on one rank); eval: report cells written.
    """
    if phase == "pretrain":
        pt = cfg["pretrain"]
        return (len(STYLES) * pt["base_steps"] + pt["motion_steps"]) * pt["batch"]
    if phase == "gen":
        return checks.generated_clips(cfg, ws)
    if phase == "distill":
        d = cfg["distill"]
        ranks = len(cfg["ranks"]) if command[-1] == "cross" else 1
        iterations = sum(s.iterations * len(s.phases())
                         for s in plan_from_config(cfg).stages)
        return iterations * ranks * d["micro_batch"] * d["grad_accum"]
    if phase == "eval":
        return checks.report_cells(command, cfg, ws)
    raise ValueError(f"unknown phase {phase!r}")
