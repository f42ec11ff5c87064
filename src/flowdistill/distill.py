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
micro-batches of ``micro_batch`` rows in order from its own generator,
and all ranks' rows are concatenated in rank order and checked and noised
once (``_noised_stride``). Every untaped solve of the iteration then runs
once over all those rows (``solvers.traverse``), with the ranks' bases
stacked on a leading rank axis so that each rank's rows run through its
own base: the frozen teacher's ``target`` where the loss reads it, on
every MSE iteration and every discriminator iteration, and on a
discriminator iteration also the student's single stride, ``fake``. Both
are constants of the loss that reads them. ``rank_step`` then runs once
per block of ranks (``solvers.rank_blocks``) on their rows and holds only
taped work, laid out by ``nets``'s layout rule: it tapes the side being
updated as one copy per rank, stacked on the rank axis beside the block's
bases, while a frozen discriminator enters once, shared by every rank,
and it tapes the one loss that side minimises (``mse_loss``, or
``adversarial_loss``'s ``l_d`` or ``l_g``) over each rank's
``micro_batch * grad_accum`` rows, and runs one ``backward``. A block
holds as many whole ranks as keep the rows its taped encoders take within
``SAMPLE_BATCH``: per rank, its rows once for the MSE stage, three times
for the pair head (the student's stride or none, ``x_t`` and one or two
candidates) and twice for the single head. The block's loss is the sum of
its ranks' means, so rank r's copy gets exactly rank r's gradient. Every
loss is a mean over rows and the micro-batches are the same size, so this
is the mean of the micro-batch gradients up to summation order. Each
block's (R, ...) gradients are summed along the rank axis in float64,
rank by rank in rank order, and one optimizer step takes their mean over
all ranks. A discriminator iteration scores the teacher's endpoint (the
real sample) and the student's stride (the fake one) in one
discriminator pass, each rank's two stacked on the row axis. A student
iteration scores the student's taped stride alone, since the teacher's
rows carry no gradient to the student, so it traverses nothing untaped:
its batch is noised and nothing more.
Rows never interact and every layer of a block is one product per rank,
so in float32 a stacked traversal or step gives each rank the bits,
losses and gradients included, of one on its rows alone.
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
    _check_tokens,
    disc_pair_prob,
    disc_single_prob,
    draw_rows,
    init_discriminator,
    rank_means,
    rank_sum,
    ranked_mse,
    relaxed_discriminator,
    stack_size,
)
from .schedule import NoiseSchedule, add_noise, substitute_terminal_noise
from .solvers import euler_solve, predictor, rank_blocks, traverse

__all__ = [
    "StageConfig",
    "DistillPlan",
    "Rank",
    "DistillContext",
    "DistillDivergence",
    "mse_loss",
    "adversarial_loss",
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
# The entries of a stride batch that hold one value per row.
_ROW_KEYS = ("x_t", "t", "tokens", "target", "fake")
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


def _noised_stride(batch, stage: StageConfig, sched: NoiseSchedule,
                   dims) -> dict:
    """A drawn batch of any number of rows checked and noised: ``x_t``,
    ``t``, ``tokens`` and the strides ``n`` and ``s``, every input of the
    stride losses but the untaped traversals ``run_stage`` adds: the
    teacher's ``target`` and, for ``l_d``, the student's ``fake``.

    The batch is checked here, once: its timesteps must be integers that
    :func:`stage_timesteps` lists, tested arithmetically, and its tokens
    known condition tokens.
    """
    n, s = stage_strides(stage, sched.T)
    t = np.asarray(batch["t"])
    if not np.issubdtype(t.dtype, np.integer):
        raise TypeError("timesteps must be integers")
    # The grid T-1, T-1-s, ... down to the last point with a full student
    # stride n*s above the clean boundary.
    if t.size and (t.max() > sched.T - 1 or t.min() < n * s - 1
                   or (s > 1 and np.any((sched.T - 1 - t) % s))):
        raise ValueError(f"timesteps misaligned with stage {stage.name} grid")
    tokens = _check_tokens(batch["tokens"], dims)
    x_t = add_noise(batch["x0"], batch["eps"], t, sched)
    x_t = substitute_terminal_noise(x_t, batch["eps"], t, sched)
    return {"x_t": x_t, "t": t, "tokens": tokens, "n": n, "s": s}


def _student_stride(base_arrays, motion, b, sched: NoiseSchedule, dims):
    return euler_solve(predictor(base_arrays, motion, sched.T, dims),
                       b["x_t"], b["t"], b["tokens"], 1, b["n"] * b["s"], sched)


def mse_loss(base_arrays, motion, b: dict, sched: NoiseSchedule, dims):
    """Mean squared gap between the student's single stride and the
    teacher's ``target``, and each rank's: ``(loss, losses)``. ``motion``
    holds Vars (taped) or plain arrays.

    ``base_arrays`` is one base, or R bases stacked on a leading rank axis
    with ``b``'s rows grouped by rank; ``motion`` may stack R copies too,
    one per rank. The loss is R times the mean over the stack, so each
    rank gets exactly its own mean's gradient, and ``losses`` holds the R
    per-rank means (``nets.ranked_mse``).
    """
    pred = _student_stride(base_arrays, motion, b, sched, dims)
    return ranked_mse(pred, b["target"], stack_size(base_arrays))


def _rank_major(ranks: int, *parts) -> np.ndarray:
    """``parts``, each with its rows grouped by rank, interleaved by rank:
    rank 0's rows of each part in turn, then rank 1's, and so on."""
    shape = parts[0].shape
    return np.stack([p.reshape((ranks, -1) + shape[1:]) for p in parts],
                    axis=1).reshape((-1,) + shape[1:])


def adversarial_loss(base_arrays, motion, disc_arrays, b: dict, flow_idx,
                     side: str, sched: NoiseSchedule, dims):
    """The non-saturating loss that ``side`` minimises, with the teacher's
    ``target`` as the real sample and the student's stride as the fake one,
    and each rank's: ``(loss, losses)``.

    ``flow_idx`` is one flow index, or one per rank over R ranks whose rows
    ``b`` groups by rank; the loss is R times the mean over the stack and
    ``losses`` holds the R per-rank losses, as in :func:`mse_loss`.
    ``side`` "disc" gives ``l_d``: each rank's ``target`` and ``fake`` (the
    student's untaped stride) rows are stacked on the row axis, and one
    discriminator pass scores them all; it runs no student, so
    ``base_arrays`` and ``motion`` go unread. ``side`` "student" gives
    ``l_g`` from a pass over the student's stride alone. The head is the
    one ``disc_arrays`` holds: the pair head of the trajectory-conditional
    phase when it holds ``hp1_w``, else the relaxed single head.
    ``motion`` and ``disc_arrays`` each hold Vars or plain arrays, either
    one model or R copies stacked, one per rank; the side given as arrays
    is a constant of the returned loss.
    """
    if side not in ("disc", "student"):
        raise ValueError(f"unknown side {side!r}")
    ranks = np.size(flow_idx)
    t_next = b["t"] - b["n"] * b["s"]
    if side == "disc":
        x_next = _rank_major(ranks, b["target"], b["fake"])
    else:
        x_next = _student_stride(base_arrays, motion, b, sched, dims)
    if "hp1_w" in disc_arrays:
        p = disc_pair_prob(disc_arrays, b["x_t"], x_next, b["t"], t_next,
                           b["tokens"], flow_idx, sched.T, dims)
    else:
        p = disc_single_prob(disc_arrays, x_next, t_next, b["tokens"],
                             flow_idx, sched.T, dims)
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    if side == "student":
        log_p = ad.log(ad.clamp(p, lo, hi))
        return (rank_sum(-ad.mean_all(log_p), ranks),
                -rank_means(ad.value_of(log_p), ranks))
    per_rank = len(b["tokens"]) // ranks
    real = (2 * per_rank * np.arange(ranks)[:, None] + np.arange(per_rank)).ravel()
    log_real = ad.log(ad.clamp(ad._take_rows(p, real), lo, hi))
    log_fake = ad.log(1.0 - ad.clamp(ad._take_rows(p, real + per_rank), lo, hi))
    loss = -ad.mean_all(log_real) - ad.mean_all(log_fake)
    return rank_sum(loss, ranks), (-rank_means(ad.value_of(log_real), ranks)
                                   - rank_means(ad.value_of(log_fake), ranks))


def _copies(arrays: dict, ranks: int) -> dict:
    """``ranks`` copies of each array, stacked on a leading rank axis."""
    return {k: np.stack([v] * ranks) for k, v in arrays.items()}


def rank_step(bases, motion, disc, b: dict, flows, side: str,
              sched: NoiseSchedule, dims) -> tuple:
    """The local losses and gradients of a block of R ranks on their rows
    of the stride batch ``b``: ``({name: (R,) losses}, {key: (R, ...)
    gradients})``. ``bases`` stacks the block's R bases on a leading rank
    axis, ``b`` holds their rows of the stride batch that ``run_stage``
    builds for all ranks' rows, grouped by rank, and ``flows`` their R
    flow indices. It runs no untaped solve: ``run_stage`` traversed every
    rank's ``target`` and ``fake`` before it.

    ``disc`` None is the MSE stage, which updates the student and returns
    ``mse`` against ``b``'s ``target``. Otherwise ``side`` selects which
    parameters receive gradients and the loss they minimise: the
    discriminator's ``l_d`` scores ``b``'s ``target`` and ``fake`` (the
    student's stride as a detached sample), the student's ``l_g``
    differentiates through the (frozen this iteration) discriminator and
    reads the noised rows alone. Only the side being updated is taped, as
    R copies of its arrays stacked on a leading rank axis, so rank r's
    copy receives exactly rank r's gradient; base parameters never receive
    an entry. The frozen discriminator enters the student's loss once,
    shared by every rank (``nets``'s layout rule). One ``backward`` runs
    over the block's loss, the sum of its ranks' losses, so in float32
    each rank gets the losses and gradients of a call on its rows alone.
    """
    if disc is None and side != "student":
        raise ValueError(f"unknown side {side!r} for the MSE stage")
    ranks = stack_size(bases)
    if np.shape(flows) != (ranks,):
        raise ValueError(f"{np.size(flows)} flow indices for {ranks} stacked bases")
    pvars = {k: ad.Var(v)
             for k, v in _copies(disc if side == "disc" else motion, ranks).items()}
    if disc is None:
        name, (loss, losses) = "mse", mse_loss(bases, pvars, b, sched, dims)
    elif side == "disc":
        name, (loss, losses) = "l_d", adversarial_loss(
            bases, motion, pvars, b, flows, side, sched, dims)
    else:
        name, (loss, losses) = "l_g", adversarial_loss(
            bases, pvars, disc, b, flows, side, sched, dims)
    ad.backward(loss)
    return {name: losses}, {k: v.grad for k, v in pvars.items()}


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
    bases = {k: np.stack([r.base[k] for r in ranks]) for k in ranks[0].base}
    flows = np.array([r.flow_idx for r in ranks])
    rows = stage.micro_batch * stage.grad_accum
    history: list = []
    for phase_idx, phase in enumerate(stage.phases()):
        if phase == "relaxed":
            disc = relaxed_discriminator(
                disc, ctx.dims, _stage_rng(ctx.seed, stage, 1, DISC_STREAM))
        rngs = [_stage_rng(ctx.seed, stage, phase_idx, r.rank) for r in ranks]
        opt = {"student": Adam(stage.lr_student), "disc": Adam(stage.lr_disc)}
        # The rows each rank puts through a taped encoder: the student's
        # stride, x_t and one candidate for the pair head, or the stride
        # and one candidate for the single head, on either side.
        passes = {None: 1, "trajectory_conditional": 3, "relaxed": 2}[phase]
        blocks = rank_blocks(len(ranks), rows * passes)
        for it in range(stage.iterations):
            side = "disc" if disc is not None and it % 2 == 0 else "student"
            # Data-parallel step: each rank draws its rows from its own
            # stream, and all ranks' rows are noised at once. The untaped
            # traversals run once over them, each rank's rows on its own
            # base: the teacher's where the loss reads the target (the MSE
            # loss, and l_d's real sample), and the student's stride on a
            # discriminator iteration (l_d's fake sample). Then one taped
            # step per block of ranks on their rows, the mean over ranks in
            # rank order and one optimizer update. The float64 sum runs
            # rank by rank: np.sum(axis=0) pair-sums an (R, 1) stack of 8 or
            # more ranks, which moves its last bits.
            draws = [draw_rows(r.dataset, stage.micro_batch, rng, t_grid)
                     for r, rng in zip(ranks, rngs)
                     for _ in range(stage.grad_accum)]
            b = _noised_stride({k: np.concatenate([d[k] for d in draws])
                                for k in draws[0]}, stage, ctx.sched, ctx.dims)
            args = b["x_t"], b["t"], b["tokens"]
            if disc is None or side == "disc":
                b["target"] = traverse(bases, teacher_motion, *args, b["n"], b["s"],
                                       ctx.sched, ctx.dims, stage.cfg_scale)
            if side == "disc":
                b["fake"] = traverse(bases, motion, *args, 1, b["n"] * b["s"],
                                     ctx.sched, ctx.dims)
            summed: dict = {}
            rank_losses: dict = {}
            for lo, hi in blocks:
                own = {k: v[lo * rows:hi * rows] if k in _ROW_KEYS else v
                       for k, v in b.items()}
                losses, grads = rank_step({k: v[lo:hi] for k, v in bases.items()},
                                          motion, disc, own, flows[lo:hi], side,
                                          ctx.sched, ctx.dims)
                for k, g in grads.items():
                    acc = summed.setdefault(k, np.zeros(g.shape[1:]))
                    for g_r in g:
                        acc += g_r
                for k, v in losses.items():
                    rank_losses.setdefault(k, []).extend(map(float, v))
            mean_losses = {k: float(np.mean(v)) for k, v in rank_losses.items()}
            if not all(np.isfinite(v) for v in mean_losses.values()):
                dump = _dump_diagnostics(ctx, stage, phase, it, motion, disc,
                                         mean_losses)
                raise DistillDivergence(
                    f"non-finite loss at stage {stage.name} iteration {it}", dump)
            opt[side].step(disc if side == "disc" else motion,
                           {k: v / len(ranks) for k, v in summed.items()})
            history.append({"stage": stage.name, "phase": phase or "mse",
                            "iteration": it, "side": side, **mean_losses})
    return motion, history
