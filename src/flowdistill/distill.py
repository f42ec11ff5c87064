"""Distillation losses and the progressive stage machine.

A stage teaches the student to cover ``n`` teacher strides in one step:
the teacher traverses ``n = from_steps / to_steps`` strides of
``s = T / from_steps`` timesteps while the student takes a single stride of
``n * s``. The first stage matches trajectories under mean squared error
with the teacher guided at the stage's ``cfg_scale`` (the config's
``guidance``); later stages train adversarially,
first with the trajectory-conditional discriminator head and then with a
fresh relaxed single-pass head in its place on the same backbone
(``nets.relaxed_discriminator``). A stage's student is
the next stage's teacher; ``Workspace.distill_arm`` chains the stages and
caches each one.

Training timesteps are drawn from the stage's source grid (the
``from_steps`` discretisation), restricted to points whose full student
stride stays inside the schedule, so every student jump is realisable by
the teacher.

A rank is plain data (``Rank``): its id, its frozen base model, its
dataset and its flow index. One iteration is a data-parallel step over
the ranks in ascending id. Each rank draws its ``grad_accum``
micro-batches of ``micro_batch`` rows in order from its own generator and
concatenates them; the frozen teacher traverses all of them in one untaped
call (``teacher_stride``). ``rank_step`` then tapes the side being updated
and the rank's loss (``mse_loss``, or ``adversarial_losses`` in an
adversarial phase) once over its ``micro_batch * grad_accum`` rows and
runs one ``backward``. Every loss is a mean over rows and the
micro-batches are the same size, so this is the mean of the micro-batch
gradients up to summation order. The ranks' gradients are averaged in rank
order and one optimizer step follows. An adversarial loss scores the
teacher's and the student's next state in one discriminator call on the
two stacked on the row axis.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .checkpoint import atomic_write, checkpoint_save
from .nets import (
    Adam,
    StudentBundle,
    disc_pair_prob,
    disc_single_prob,
    draw_rows,
    init_discriminator,
    relaxed_discriminator,
)
from .schedule import NoiseSchedule, add_noise, substitute_terminal_noise
from .solvers import euler_solve, predictor

__all__ = [
    "StageConfig",
    "DistillPlan",
    "Rank",
    "DistillContext",
    "DistillDivergence",
    "teacher_stride",
    "mse_loss",
    "adversarial_losses",
    "rank_step",
    "run_stage",
    "stage_strides",
    "stage_timesteps",
]

PROB_CLAMP = 1e-6

# Tags the stage generators of the discriminator's initial weights (phase
# 0) and relaxed head (phase 1). Rank r draws from the one tagged r, so no
# rank may take this id.
DISC_STREAM = 104729

LOSS_KINDS = ("mse_cfg", "adversarial")
PHASES = ("trajectory_conditional", "relaxed")


@dataclass(frozen=True)
class StageConfig:
    """One progressive stage (steps ``from_steps`` down to ``to_steps``).

    Each rank draws ``grad_accum`` micro-batches of ``micro_batch`` rows per
    iteration and takes one step over all ``micro_batch * grad_accum`` of
    them.
    """

    from_steps: int
    to_steps: int
    loss_kind: str
    iterations: int
    micro_batch: int = 16
    grad_accum: int = 4
    lr_student: float = 1e-3
    lr_disc: float = 2e-3
    cfg_scale: float = 0.0

    def __post_init__(self):
        if self.from_steps <= self.to_steps:
            raise ValueError("from_steps must exceed to_steps")
        if self.from_steps % self.to_steps != 0:
            raise ValueError("from_steps must be divisible by to_steps")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.micro_batch < 1 or self.grad_accum < 1:
            raise ValueError("micro_batch and grad_accum must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.from_steps}to{self.to_steps}"

    def phases(self) -> tuple:
        return PHASES if self.loss_kind == "adversarial" else (None,)


@dataclass(frozen=True)
class DistillPlan:
    """Chained stages: each stage's output step count feeds the next."""

    stages: tuple

    def __post_init__(self):
        if not self.stages:
            raise ValueError("empty plan")
        for a, b in zip(self.stages, self.stages[1:]):
            if a.to_steps != b.from_steps:
                raise ValueError(
                    f"broken chain: stage {a.name} feeds {b.name}")


def stage_strides(stage: StageConfig, T: int) -> tuple:
    """(n, s): teacher takes n strides of s timesteps; student takes n*s."""
    if T % stage.from_steps != 0:
        raise ValueError(
            f"schedule length {T} is not divisible by from_steps {stage.from_steps}")
    s = T // stage.from_steps
    n = stage.from_steps // stage.to_steps
    return n, s


def stage_timesteps(stage: StageConfig, T: int) -> np.ndarray:
    """Source-grid timesteps whose full student stride fits the schedule."""
    n, s = stage_strides(stage, T)
    grid = T - 1 - s * np.arange(stage.from_steps)
    return grid[grid - n * s >= -1]


class DistillDivergence(RuntimeError):
    """Raised when a stage produces a non-finite loss; carries a dump path."""

    def __init__(self, message: str, dump_path: str | None = None):
        super().__init__(message)
        self.dump_path = dump_path


class Rank(NamedTuple):
    """One data-parallel rank: its id, frozen base model, training dataset
    and flow index (the discriminator's per-base conditioning)."""

    rank: int
    base: dict
    dataset: "ClipDataset"
    flow_idx: int


@dataclass
class DistillContext:
    """Everything a stage needs besides the motion parameters."""

    sched: NoiseSchedule
    dims: "NetDims"
    ranks: list  # of Rank, in any order
    pretrained: StudentBundle  # discriminator backbone initialiser
    seed: int
    workdir: str | None = None

    @property
    def num_flows(self) -> int:
        return max(r.flow_idx for r in self.ranks) + 1


def teacher_stride(base_arrays, teacher_arrays, batch, stage: StageConfig,
                   sched: NoiseSchedule, dims) -> dict:
    """Inputs of the stride losses for a drawn batch of any number of rows.

    Returns ``x_t``, ``t``, ``tokens``, the strides ``n`` and ``s``, and
    ``target``: the guided teacher's endpoint after ``n`` strides, computed
    without a tape, so it is a detached constant. Rows never interact, so
    a call on concatenated micro-batches equals one call per micro-batch.
    """
    n, s = stage_strides(stage, sched.T)
    t = np.asarray(batch["t"])
    if not np.all(np.isin(t, stage_timesteps(stage, sched.T))):
        raise ValueError(f"timesteps misaligned with stage {stage.name} grid")
    x_t = add_noise(batch["x0"], batch["eps"], t, sched)
    x_t = substitute_terminal_noise(x_t, batch["eps"], t, sched)
    target = euler_solve(predictor(base_arrays, teacher_arrays, sched.T, dims,
                                   stage.cfg_scale),
                         x_t, t, batch["tokens"], n, s, sched)
    return {"x_t": x_t, "t": t, "tokens": batch["tokens"], "n": n, "s": s,
            "target": target}


def _student_stride(base_arrays, motion, b, sched: NoiseSchedule, dims):
    return euler_solve(predictor(base_arrays, motion, sched.T, dims),
                       b["x_t"], b["t"], b["tokens"], 1, b["n"] * b["s"], sched)


def mse_loss(base_arrays, motion, b: dict, sched: NoiseSchedule, dims):
    """Mean squared gap between the student's single stride and the
    teacher's ``target``. ``motion`` holds Vars (taped) or plain arrays."""
    pred = _student_stride(base_arrays, motion, b, sched, dims)
    return ad.mean_all(ad.square(pred - b["target"]))


def _nonsat_losses(p_real, p_fake):
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    l_d = -ad.mean_all(ad.log(ad.clamp(p_real, lo, hi))) \
        - ad.mean_all(ad.log(1.0 - ad.clamp(p_fake, lo, hi)))
    l_g = -ad.mean_all(ad.log(ad.clamp(p_fake, lo, hi)))
    return l_d, l_g


def adversarial_losses(base_arrays, motion, disc_arrays, b: dict, phase: str,
                       flow_idx: int, sched: NoiseSchedule, dims) -> tuple:
    """Non-saturating (l_d, l_g) with the teacher's ``target`` as the real
    sample and the student's stride as the fake one.

    Real and fake are stacked on the row axis and scored by one
    discriminator call, whose probabilities are split back into the real
    and the fake rows. ``motion`` and ``disc_arrays`` each hold Vars or
    plain arrays; the side given as arrays is a constant of the returned
    losses.
    """
    t_next = b["t"] - b["n"] * b["s"]
    fake_next = _student_stride(base_arrays, motion, b, sched, dims)
    x_next = ad.concat([b["target"], fake_next], axis=0)
    if phase == "trajectory_conditional":
        p = disc_pair_prob(disc_arrays, b["x_t"], x_next, b["t"], t_next,
                           b["tokens"], flow_idx, sched.T, dims)
    else:
        p = disc_single_prob(disc_arrays, x_next, t_next, b["tokens"],
                             flow_idx, sched.T, dims)
    real = np.arange(len(b["tokens"]))
    return _nonsat_losses(ad.take_rows(p, real), ad.take_rows(p, real + len(real)))


def _taped(arrays: dict) -> dict:
    return {k: ad.Var(v) for k, v in arrays.items()}


def rank_step(base, motion, disc, b: dict, phase, flow_idx: int, side: str,
              sched: NoiseSchedule, dims) -> tuple:
    """One rank's local losses and gradients on its stride batch ``b`` (as
    ``teacher_stride`` returns it): (losses, grads).

    ``phase`` None is the MSE stage, which updates the student. In an
    adversarial phase, ``side`` selects which parameters receive gradients:
    the discriminator sees the student's stride as a detached sample, the
    student differentiates through the (frozen this iteration)
    discriminator. Only the side being updated is taped; base parameters
    never receive an entry.
    """
    if phase is not None and phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    if side not in (("student",) if phase is None else ("disc", "student")):
        raise ValueError(f"unknown side {side!r} for phase {phase!r}")
    pvars = _taped(disc if side == "disc" else motion)
    if phase is None:
        loss = mse_loss(base, pvars, b, sched, dims)
        ad.backward(loss)
        return {"mse": float(loss.value)}, {k: v.grad for k, v in pvars.items()}
    l_d, l_g = adversarial_losses(
        base, pvars if side == "student" else motion,
        pvars if side == "disc" else disc, b, phase, flow_idx, sched, dims)
    ad.backward(l_d if side == "disc" else l_g)
    return ({"l_d": float(ad.value_of(l_d)), "l_g": float(ad.value_of(l_g))},
            {k: v.grad for k, v in pvars.items()})


def _dump_diagnostics(ctx: DistillContext, stage: StageConfig, phase, iteration,
                      motion, disc, losses) -> str | None:
    if ctx.workdir is None:
        return None
    path = os.path.join(ctx.workdir, f"diverged_{stage.name}.json")
    state = {
        "stage": stage.name,
        "phase": phase,
        "iteration": iteration,
        "losses": losses,
    }

    def write(tmp):
        with open(tmp, "w") as fh:
            json.dump(state, fh, indent=2)

    atomic_write(path, write)
    checkpoint_save(motion,
                    os.path.join(ctx.workdir, f"diverged_{stage.name}_motion.ckpt"))
    if disc is not None:
        checkpoint_save(disc,
                        os.path.join(ctx.workdir, f"diverged_{stage.name}_disc.ckpt"))
    return path


def _stage_rng(seed: int, stage: StageConfig, phase_idx: int, *tail) -> np.random.Generator:
    return np.random.default_rng(
        [seed, stage.from_steps, stage.to_steps, phase_idx, *tail])


def _mean(grads: list) -> dict:
    """Elementwise mean of gradient dicts, summed in list order."""
    out = {}
    for name in grads[0]:
        acc = np.array(grads[0][name], dtype=np.float64, copy=True)
        for g in grads[1:]:
            acc += g[name]
        out[name] = acc / len(grads)
    return out


def run_stage(stage: StageConfig, ctx: DistillContext,
              teacher_motion: dict) -> tuple:
    """Train one stage; returns (distilled motion, per-iteration history).

    Each phase of the stage (``stage.phases()``) draws from fresh per-rank
    generators and starts fresh optimizers. Adversarial stages run the
    trajectory-conditional phase and then the relaxed phase with a fresh
    relaxed head on the trained backbone, alternating discriminator and
    student iterations.
    """
    motion = {k: v.copy() for k, v in teacher_motion.items()}
    disc = None
    if stage.loss_kind == "adversarial":
        disc = init_discriminator(ctx.dims, ctx.num_flows,
                                  _stage_rng(ctx.seed, stage, 0, DISC_STREAM),
                                  ctx.pretrained)
    t_grid = stage_timesteps(stage, ctx.sched.T)
    ranks = sorted(ctx.ranks, key=lambda r: r.rank)
    history: list = []
    for phase_idx, phase in enumerate(stage.phases()):
        if phase == "relaxed":
            disc = relaxed_discriminator(
                disc, ctx.dims, _stage_rng(ctx.seed, stage, 1, DISC_STREAM))
        rngs = [_stage_rng(ctx.seed, stage, phase_idx, r.rank) for r in ranks]
        opt = {"student": Adam(stage.lr_student), "disc": Adam(stage.lr_disc)}
        for it in range(stage.iterations):
            side = "disc" if disc is not None and it % 2 == 0 else "student"
            # Data-parallel step: one teacher traversal and one taped step
            # per rank over all its rows, then the mean over ranks in rank
            # order, then one optimizer update.
            rank_grads: list = []
            step_losses: list = []
            for r, rng in zip(ranks, rngs):
                draws = [draw_rows(r.dataset, stage.micro_batch, rng, t_grid)
                         for _ in range(stage.grad_accum)]
                batch = {k: np.concatenate([d[k] for d in draws]) for k in draws[0]}
                b = teacher_stride(r.base, teacher_motion, batch,
                                   stage, ctx.sched, ctx.dims)
                losses, grads = rank_step(r.base, motion, disc, b, phase,
                                          r.flow_idx, side, ctx.sched, ctx.dims)
                rank_grads.append(grads)
                step_losses.append(losses)
            mean_losses = {k: float(np.mean([d[k] for d in step_losses]))
                           for k in step_losses[0]}
            if not all(np.isfinite(v) for v in mean_losses.values()):
                dump = _dump_diagnostics(ctx, stage, phase, it, motion, disc,
                                         mean_losses)
                raise DistillDivergence(
                    f"non-finite loss at stage {stage.name} iteration {it}", dump)
            opt[side].step(disc if side == "disc" else motion,
                           _mean(rank_grads))
            history.append({"stage": stage.name, "phase": phase or "mse",
                            "iteration": it, "side": side, **mean_losses})
    return motion, history
