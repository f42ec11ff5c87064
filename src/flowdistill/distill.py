"""Distillation losses and the progressive stage machine.

A stage teaches the student to cover ``n`` teacher strides in one step:
the teacher traverses ``n = from_steps / to_steps`` strides of
``s = T / from_steps`` timesteps while the student takes a single stride of
``n * s``. The first stage matches trajectories under mean squared error
with the teacher guided at scale 7.5; later stages train adversarially,
first with the trajectory-conditional discriminator head and then with the
relaxed single-pass head (fresh head, same backbone). A stage's student is
the next stage's teacher; ``Workspace.distill_arm`` chains the stages and
caches each one.

Training timesteps are drawn from the stage's source grid (the
``from_steps`` discretisation), restricted to points whose full student
stride stays inside the schedule, so every student jump is realisable by
the teacher.

One iteration is a data-parallel step. Each rank draws its ``grad_accum``
micro-batches of ``micro_batch`` rows in order and concatenates them; the
frozen teacher traverses all of them in one untaped call
(``teacher_stride``). Each rank then tapes its student stride and loss
(``mse_distill_step`` or ``adversarial_step``) once over its
``micro_batch * grad_accum`` rows and runs one ``backward``. Every loss is
a mean over rows and the micro-batches are the same size, so this is the
mean of the micro-batch gradients up to summation order. The ranks'
gradients are averaged in rank order and one optimizer step follows. An
adversarial loss scores the teacher's and the student's next state in one
discriminator call on the two stacked on the row axis.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import atomic_write, checkpoint_save
from .nets import (
    Adam,
    DiscriminatorParams,
    MotionParams,
    StudentBundle,
    disc_pair_prob,
    disc_single_prob,
    init_discriminator,
    reset_single_head,
    student_eps,
)
from .ranks import RankAssignment
from .schedule import NoiseSchedule, add_noise, substitute_terminal_noise
from .solvers import euler_solve

__all__ = [
    "StageConfig",
    "DistillPlan",
    "default_plan",
    "RankWorker",
    "DistillContext",
    "DistillDivergence",
    "teacher_stride",
    "mse_loss",
    "adversarial_losses",
    "mse_distill_step",
    "adversarial_step",
    "run_stage",
    "stage_strides",
    "stage_timesteps",
]

PROB_CLAMP = 1e-6

# Traversals during training clamp the predicted clean sample well outside
# the data range; scale-7.5 guidance diverges on a few trajectories without
# it. Teacher targets and the student's trained stride use the same clamp,
# so a student identical to its teacher at n = 1 reproduces it exactly.
# Inference-time sampling stays unclamped.
TEACHER_X0_CLIP = 4.0

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


def default_plan(iterations: int, micro_batch: int = 16, grad_accum: int = 4,
                 lr_student: float = 1e-3, lr_disc: float = 2e-3,
                 include_one_step: bool = False,
                 mse_iterations: int | None = None) -> DistillPlan:
    """128 -> 32 -> 8 -> 4 -> 2 (optionally -> 1, which is experimental:
    the one-step epsilon formulation is known to be noisy).

    The MSE stage runs ``mse_iterations``, or ``iterations`` when that is
    None; the adversarial stages run ``iterations`` per phase."""
    common = dict(micro_batch=micro_batch, grad_accum=grad_accum,
                  lr_student=lr_student, lr_disc=lr_disc)
    if mse_iterations is None:
        mse_iterations = iterations
    stages = [
        StageConfig(128, 32, "mse_cfg", mse_iterations,
                    cfg_scale=7.5, **common),
        StageConfig(32, 8, "adversarial", iterations, **common),
        StageConfig(8, 4, "adversarial", iterations, **common),
        StageConfig(4, 2, "adversarial", iterations, **common),
    ]
    if include_one_step:
        stages.append(StageConfig(2, 1, "adversarial", iterations, **common))
    return DistillPlan(tuple(stages))


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


@dataclass
class RankWorker:
    """One logical data-parallel worker: frozen base + dataset + flow index."""

    assignment: RankAssignment
    base: "BaseParams"
    dataset: "ClipDataset"
    flow_idx: int
    rng: np.random.Generator | None = None

    def draw_batch(self, stage: StageConfig, t_grid: np.ndarray) -> dict:
        rng = self.rng
        idx = rng.integers(0, len(self.dataset.clips), size=stage.micro_batch)
        x0 = self.dataset.clips[idx].astype(np.float64)
        tokens = self.dataset.conditions[idx].astype(np.intp)
        t = t_grid[rng.integers(0, len(t_grid), size=stage.micro_batch)]
        eps = rng.standard_normal(x0.shape)
        return {"x0": x0, "tokens": tokens, "t": t, "eps": eps}


@dataclass
class DistillContext:
    """Everything a stage needs besides the motion parameters."""

    sched: NoiseSchedule
    dims: "NetDims"
    workers: list
    pretrained: StudentBundle  # discriminator backbone initialiser
    seed: int
    workdir: str | None = None

    @property
    def num_flows(self) -> int:
        return max(w.flow_idx for w in self.workers) + 1


def _predictor(base_data, motion_arrays, T, dims):
    def f(x, t, tokens):
        return student_eps(base_data, motion_arrays, x, t, tokens, T, dims)
    return f


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
    teacher_f = _predictor(base_arrays, teacher_arrays, sched.T, dims)
    target = euler_solve(teacher_f, x_t, t, batch["tokens"], n, s, sched,
                         w=stage.cfg_scale, null_token=dims.null_token,
                         x0_clip=TEACHER_X0_CLIP)
    return {"x_t": x_t, "t": t, "tokens": batch["tokens"], "n": n, "s": s,
            "target": target}


def _rank_strides(worker: RankWorker, teacher_motion, stage: StageConfig,
                  sched: NoiseSchedule, dims, t_grid) -> dict:
    """One rank's stride batch for an iteration: its ``grad_accum``
    micro-batches, drawn in order, concatenated and traversed by the
    teacher in one call."""
    draws = [worker.draw_batch(stage, t_grid) for _ in range(stage.grad_accum)]
    batch = {k: np.concatenate([d[k] for d in draws]) for k in draws[0]}
    return teacher_stride(worker.base.data, teacher_motion.data, batch, stage,
                          sched, dims)


def _student_stride(base_arrays, motion, b, sched: NoiseSchedule, dims):
    student_f = _predictor(base_arrays, motion, sched.T, dims)
    return euler_solve(student_f, b["x_t"], b["t"], b["tokens"], 1,
                       b["n"] * b["s"], sched, w=0.0, x0_clip=TEACHER_X0_CLIP)


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
                       flow_idx: int, sched: NoiseSchedule, dims,
                       num_flows: int) -> tuple:
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
                           b["tokens"], flow_idx, sched.T, dims, num_flows)
    else:
        p = disc_single_prob(disc_arrays, x_next, t_next, b["tokens"],
                             flow_idx, sched.T, dims, num_flows)
    real = np.arange(len(b["tokens"]))
    return _nonsat_losses(ad.take_rows(p, real), ad.take_rows(p, real + len(real)))


def _taped(arrays: dict) -> dict:
    return {k: ad.Var(v) for k, v in arrays.items()}


def _grads(pvars: dict) -> dict:
    return {k: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for k, v in pvars.items()}


def mse_distill_step(base, motion, b: dict, sched: NoiseSchedule,
                     dims) -> tuple:
    """Trajectory-matching loss and motion gradients for one stride batch
    ``b`` (as ``teacher_stride`` returns it).

    Gradients exist only for the motion parameters.
    """
    mvars = _taped(motion.data)
    loss = mse_loss(base.data, mvars, b, sched, dims)
    ad.backward(loss)
    return float(loss.value), _grads(mvars)


def adversarial_step(base, motion, disc: DiscriminatorParams, b: dict,
                     phase: str, flow_idx: int, sched: NoiseSchedule, dims,
                     side: str) -> tuple:
    """Non-saturating adversarial losses for one stride batch ``b`` (as
    ``teacher_stride`` returns it).

    ``side`` selects which parameters receive gradients this iteration:
    the discriminator sees the student's stride as a detached sample, the
    student differentiates through the (frozen this iteration)
    discriminator. Returns (l_d, l_g, grads).
    """
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    if side not in ("disc", "student"):
        raise ValueError(f"unknown side {side!r}")
    pvars = _taped(disc.data if side == "disc" else motion.data)
    l_d, l_g = adversarial_losses(
        base.data, pvars if side == "student" else motion.data,
        pvars if side == "disc" else disc.data, b, phase, flow_idx, sched,
        dims, disc.num_flows)
    ad.backward(l_d if side == "disc" else l_g)
    return float(ad.value_of(l_d)), float(ad.value_of(l_g)), _grads(pvars)


def rank_step(worker: RankWorker, b: dict, motion, disc, stage: StageConfig,
              phase, side: str, sched: NoiseSchedule, dims) -> tuple:
    """One rank's gradient contribution on its stride batch ``b``, plus its
    local losses.

    Gradients are emitted only for the side being updated; base parameters
    never receive an entry.
    """
    if stage.loss_kind == "mse_cfg":
        loss, grads = mse_distill_step(worker.base, motion, b, sched, dims)
        return grads, {"mse": loss}
    l_d, l_g, grads = adversarial_step(worker.base, motion, disc, b, phase,
                                       worker.flow_idx, sched, dims, side)
    return grads, {"l_d": l_d, "l_g": l_g}


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
    checkpoint_save(dict(motion.data),
                    os.path.join(ctx.workdir, f"diverged_{stage.name}_motion.ckpt"))
    if disc is not None:
        checkpoint_save(dict(disc.data),
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


def _run_phase(stage: StageConfig, phase, ctx: DistillContext,
               motion: MotionParams, teacher_motion: MotionParams,
               disc, history: list) -> None:
    phase_idx = 0 if phase in (None, PHASES[0]) else 1
    for w in ctx.workers:
        w.rng = _stage_rng(ctx.seed, stage, phase_idx, w.assignment.rank)
    t_grid = stage_timesteps(stage, ctx.sched.T)
    opt_student = Adam(stage.lr_student)
    opt_disc = Adam(stage.lr_disc) if disc is not None else None
    workers = sorted(ctx.workers, key=lambda w: w.assignment.rank)

    for it in range(stage.iterations):
        if stage.loss_kind == "mse_cfg":
            side = "student"
        else:
            side = "disc" if it % 2 == 0 else "student"
        # Data-parallel step: one teacher traversal and one taped step per
        # rank over all its rows, then the mean over ranks in rank order,
        # then one optimizer update.
        rank_grads: list = []
        step_losses: list = []
        for w in workers:
            b = _rank_strides(w, teacher_motion, stage, ctx.sched, ctx.dims,
                              t_grid)
            grads, losses = rank_step(w, b, motion, disc, stage, phase, side,
                                      ctx.sched, ctx.dims)
            rank_grads.append(grads)
            step_losses.append(losses)
        mean_losses = {k: float(np.mean([d[k] for d in step_losses]))
                       for k in step_losses[0]}
        if not all(np.isfinite(v) for v in mean_losses.values()):
            dump = _dump_diagnostics(ctx, stage, phase, it, motion, disc, mean_losses)
            raise DistillDivergence(
                f"non-finite loss at stage {stage.name} iteration {it}", dump)
        if side == "student":
            opt_student.step(motion.data, _mean(rank_grads))
        else:
            opt_disc.step(disc.data, _mean(rank_grads))
        history.append({"stage": stage.name, "phase": phase or "mse",
                        "iteration": it, "side": side, **mean_losses})


def run_stage(stage: StageConfig, ctx: DistillContext,
              teacher_motion: MotionParams) -> tuple:
    """Train one stage; returns (distilled motion, per-iteration history).

    Adversarial stages run the trajectory-conditional phase and then the
    relaxed phase with a fresh relaxed head on the trained backbone.
    """
    motion = teacher_motion.copy()
    history: list = []
    if stage.loss_kind == "mse_cfg":
        _run_phase(stage, None, ctx, motion, teacher_motion, None, history)
        return motion, history

    disc = init_discriminator(ctx.dims, ctx.num_flows,
                              _stage_rng(ctx.seed, stage, 0, 104729),
                              backbone_from=ctx.pretrained)
    for phase in stage.phases():
        if phase == "relaxed":
            reset_single_head(disc, _stage_rng(ctx.seed, stage, 1, 104729))
        _run_phase(stage, phase, ctx, motion, teacher_motion, disc, history)
    return motion, history
