"""Differentiable networks: frozen per-frame base models, the shared
temporal motion module, their composition, and the flow-conditional
discriminator.

Architecture at desk scale:

* Base model: a per-frame two-hidden-layer network. The first hidden state
  receives a projected sinusoidal time embedding and a learned condition
  embedding; frames never interact inside the base model.
* Motion module: one residual temporal-mixing block inserted after the
  base's first hidden layer. The block mixes hidden channels across frames
  (a full frames-by-frames learned matrix per channel), adds its own
  projections of the time features and the condition token, applies the
  nonlinearity, and mixes across frames again before the residual add.
  The output mixing matrices start at zero, so a freshly initialised
  composition reproduces the base model bit-exactly.
* Discriminator: the same encoder shape as the student (through the second
  hidden layer), made flow-conditional by adding a learned per-flow
  embedding (one row per flow) to the time embedding, plus the head its
  phase trains: the pair head consumes the channel-concatenated features
  of x_t and of a next state; the relaxed single head, a next state's.
  Both heads score a stack of candidate next states (the teacher's and the
  student's, or the student's alone) with one backbone pass over the
  stack, and the pair head encodes x_t once and tiles its features to
  every candidate. One pass takes the rows of R ranks, grouped by rank,
  with one flow index per rank: each rank's rows read their own flow's
  embedding, and each rank's candidates are tiled within its own block of
  rows (rank major, then candidate, then row).

Each layer is one tape node: ``autodiff.dense`` for the base's layers and
the heads, ``autodiff.temporal_mix`` for the motion block's mixes.

The layout rule, which ``autodiff``, ``solvers`` and ``distill`` follow:
inside the encoder a frame stack is always a C-contiguous channel-major
(R, hidden, F, B) array, R ranks of B rows each; one model's call, its
arrays as a checkpoint holds them, is R = 1. An array carries a leading
rank axis only when it differs per rank: the R bases of a stacked call
(every base array (R, ...)), the R copies of the side that a
distillation step tapes, one per rank, so that each rank's copy receives
exactly its own gradient, and the rows themselves. A model that every
rank shares enters once, with no rank axis: the motion module in a
traversal or in pretraining, and the frozen discriminator on a student
iteration. The public forwards take and return rows on one leading
axis, grouped by rank, rank r's the r-th block of N / R: ``student_eps``
takes (N, F, D) and transposes it into the encoder's layout once, as
(R, D, F, N / R), and its output back. Inside, row-major arrays are
(R, B, ...) as well: the time features and their projections, which the
fused layers add over frames as (R, hidden, 1, B) row terms, and the
(R, B, F * hidden) features, frame-major, that a discriminator's head
scores. Every layer is one product per rank, against a shared or a
per-rank weight, so in float32 each rank gets the bits of a call on its
rows alone, losses and gradients included (see ``autodiff``). Untaped
float32 outputs have the bits of the row-major layout; a taped gradient
sums over rows and frames in another order than a row-major layer does,
so it may differ from the row-major one in its last bits.

The pretraining loss is ``ranked_mse``, the one squared-error definition
that MSE distillation shares: over R ranks' rows it is the sum of the
per-rank means (``rank_sum``), which the adversarial losses use too.

Pretraining takes the same rank axis taped: ``pretrain_base`` trains one
base per dataset, all of them stacked, with one taped ``denoise_loss``
over every base's rows, one backward and one ``Adam`` update per step.
The loss is the sum of the per-base means, so each base gets its own
mean's gradient, and its rows come from its own generator: in float32
each base gets the weights and loss history of training it alone. Both
pretraining loops read one learning rate, ``PRETRAIN_LR``, and one
condition dropout, ``COND_DROPOUT``.

Inputs are checked once, where they enter: ``student_eps``,
``disc_pair_prob`` and ``disc_single_prob`` check their timesteps
(integers in ``[-1, T)``) and condition tokens (in ``[0, vocab]``, ``vocab``
being the null token) in one pass each, and the encoder below them indexes
its time and embedding tables unchecked. A predictor built by
``solvers.predictor`` checks its tokens on first use and calls
``student_eps`` with ``checked=True``, because the traversal that drives it
checked the timesteps at its entry.

A model is its arrays: each network's parameters are one dict of named
float32 arrays (the checkpoint's entries and element type). A forward
pass computes in its inputs' dtype: training and sampling feed float32
clips, noise and time features, so every forward and backward runs in
float32, and a float64 input (a gradient check's) runs in float64.
``StudentBundle`` pairs a base model's arrays with the motion module's
and the run's ``NetDims``. ``Adam`` keeps float64 moments and updates a
model's arrays as one flat float64 buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from . import autodiff as ad
from .schedule import (
    NoiseSchedule,
    _check_timesteps,
    add_noise,
    substitute_terminal_noise,
)

__all__ = [
    "NetDims",
    "StudentBundle",
    "student_eps",
    "disc_pair_prob",
    "disc_single_prob",
    "Adam",
    "denoise_loss",
    "draw_rows",
    "pretrain_base",
    "pretrain_motion",
]

BASE_KEYS = ("w1", "b1", "time_w", "cond_emb", "w2", "b2", "w3", "b3")
MOTION_KEYS = ("mix", "tproj", "cproj", "mix_out")
DISC_BACKBONE_KEYS = ("w1", "b1", "time_w", "cond_emb", "w2", "b2") + MOTION_KEYS
DISC_HEAD_PAIR_KEYS = ("hp1_w", "hp1_b", "hp2_w", "hp2_b")
DISC_HEAD_SINGLE_KEYS = ("hs1_w", "hs1_b", "hs2_w", "hs2_b")


@dataclass(frozen=True)
class NetDims:
    """Shared width configuration for every network in a run."""

    frame_dim: ClassVar[int] = 2  # every style is defined on 2 coordinates
    frames: int = 8
    hidden: int = 16
    time_dim: int = 16
    head_hidden: int = 32
    vocab: int = 8  # condition tokens 0..vocab-1; vocab itself is the null token

    @property
    def null_token(self) -> int:
        return self.vocab


def _f32(arrs: dict) -> dict:
    return {k: np.ascontiguousarray(v, dtype=np.float32) for k, v in arrs.items()}


class StudentBundle(NamedTuple):
    """Composition of a frozen base model with the shared motion module:
    the arrays of each, and the run's widths."""

    base: dict
    motion: dict
    dims: NetDims


def init_base(dims: NetDims, rng: np.random.Generator) -> dict:
    d, h, e, v = dims.frame_dim, dims.hidden, dims.time_dim, dims.vocab
    scale = 1.0
    data = {
        "w1": rng.normal(0.0, scale / np.sqrt(d), (d, h)),
        "b1": np.zeros(h),
        "time_w": rng.normal(0.0, scale / np.sqrt(e), (e, h)),
        "cond_emb": rng.normal(0.0, 0.1, (v + 1, h)),
        "w2": rng.normal(0.0, scale / np.sqrt(h), (h, h)),
        "b2": np.zeros(h),
        "w3": rng.normal(0.0, scale / np.sqrt(h), (h, d)),
        "b3": np.zeros(d),
    }
    return _f32(data)


def init_motion(dims: NetDims, rng: np.random.Generator,
                out_scale: float = 0.0) -> dict:
    """Motion block with zero output mixing by default (base-only start).

    The inner layers are always non-zero so gradients reach every motion
    parameter from the first step.
    """
    h, f, e, v = dims.hidden, dims.frames, dims.time_dim, dims.vocab
    mix_out = (rng.normal(0.0, out_scale, (h, f, f)) if out_scale > 0.0
               else np.zeros((h, f, f)))
    return _f32({
        "mix": rng.normal(0.0, 0.3, (h, f, f)),
        "tproj": rng.normal(0.0, 0.3, (e, h)),
        "cproj": rng.normal(0.0, 0.3, (v + 1, h)),
        "mix_out": mix_out,
    })


# Final head layers start near (not exactly at) zero: pre-sigmoid scores of
# a few 1e-2 keep the first logged discriminator loss within 1e-3 of
# 2*ln(2) while letting gradients reach the earlier layers immediately.
HEAD_OUT_INIT = 0.001


def _head_init(rng: np.random.Generator, fan_in: int, g: int, keys) -> dict:
    """A fresh head named ``keys``; its output layer starts near zero."""
    w1, b1, w2, b2 = keys
    return _f32({w1: rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, g)),
                 b1: np.zeros(g),
                 w2: rng.normal(0.0, HEAD_OUT_INIT, (g, 1)),
                 b2: np.zeros(1)})


def init_discriminator(dims: NetDims, num_flows: int, rng: np.random.Generator,
                       backbone_from: StudentBundle) -> dict:
    """Backbone copied from a pretrained student, zero flows, fresh pair head."""
    data = {k: backbone_from.base[k].copy()
            for k in DISC_BACKBONE_KEYS if k not in MOTION_KEYS}
    data.update({k: backbone_from.motion[k].copy() for k in MOTION_KEYS})
    data["flow_emb"] = np.zeros((num_flows, dims.time_dim), dtype=np.float32)
    data.update(_head_init(rng, 2 * dims.hidden * dims.frames, dims.head_hidden,
                           DISC_HEAD_PAIR_KEYS))
    return data


def relaxed_discriminator(disc: dict, dims: NetDims,
                          rng: np.random.Generator) -> dict:
    """``disc``'s arrays with a fresh single head in place of its pair head."""
    data = {k: v for k, v in disc.items() if k not in DISC_HEAD_PAIR_KEYS}
    data.update(_head_init(rng, dims.hidden * dims.frames, dims.head_hidden,
                           DISC_HEAD_SINGLE_KEYS))
    return data


# -- time and condition features ----------------------------------------


@lru_cache(maxsize=8)
def _sinusoid_table(T: int, dim: int) -> np.ndarray:
    """Float32 sinusoidal features for integer timesteps -1..T-1, indexed
    by t + 1; computed in float64 and rounded once."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    t = np.arange(-1, T, dtype=np.float64)
    ang = t[:, None] * freqs[None, :]
    table = np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)
    table.setflags(write=False)
    return table


def time_features(t, T: int, dim: int) -> np.ndarray:
    """(B, dim) or (dim,) sinusoidal embedding of integer timesteps in
    ``[-1, T)``; the caller checks ``t``."""
    return _sinusoid_table(T, dim)[np.asarray(t) + 1]


def _ranked_time_features(t, T: int, dims: NetDims, rows: int, ranks: int):
    """(R, rows / R, time_dim) features of a scalar ``t`` or of one
    timestep per row, the rows grouped by rank; the caller checks ``t``."""
    feats = np.broadcast_to(time_features(t, T, dims.time_dim), (rows, dims.time_dim))
    return feats.reshape(ranks, -1, dims.time_dim)


def _check_tokens(tokens, dims: NetDims):
    """``tokens`` as an array, after one pass that rejects any token outside
    ``[0, vocab]``."""
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() > dims.vocab):
        raise ValueError(f"unknown condition token (vocab={dims.vocab}, null={dims.vocab})")
    return tokens


def _check_inputs(tokens, dims: NetDims, T: int, *ts):
    """The checked ``tokens`` of a forward pass, after each timestep array
    in ``ts`` is checked against ``[-1, T)``."""
    for t in ts:
        _check_timesteps(t, T)
    return _check_tokens(tokens, dims)


# -- forward passes ------------------------------------------------------


def _encode(params, x, tfeat, tokens, motion):
    """Shared encoder: layer 1 with the time and condition embeddings as
    its row terms, the motion block, layer 2.

    `params`/`motion` values may be Var or ndarray; `x` is the
    channel-major (R, frame_dim, F, B) frame stack, Var or ndarray; `tfeat`
    is the (R, B, time_dim) time features, Var for the discriminator's flow
    conditioning. `tokens` were checked by the public forward that called
    this. Returns (R, hidden, F, B) features.
    """
    h = ad.dense(x, params["w1"], params["b1"],
                 ad.dense(tfeat, params["time_w"]),
                 ad._take_rows(params["cond_emb"], tokens), act="silu")
    if motion is not None:
        h = h + _motion_branch(motion, h, tfeat, tokens)
    return ad.dense(h, params["w2"], params["b2"], act="silu")


def _motion_branch(motion, h, tfeat, tokens):
    """The motion block's residual branch: a frame mix with the time and
    condition projections as row terms and silu, then the output mix.

    Untaped, at most three (R, hidden, F, B) arrays are live at once, ``h``
    included, and the branch state is freed on return, before the residual
    add.
    """
    z = ad.temporal_mix(motion["mix"], h, ad.dense(tfeat, motion["tproj"]),
                        ad._take_rows(motion["cproj"], tokens), act="silu")
    return ad.temporal_mix(motion["mix_out"], z)


def student_eps(base_arrays, motion_arrays, x, t, tokens, T: int, dims: NetDims,
                *, checked=False):
    """Noise prediction of the composed model. Accepts Var or ndarray params.

    x: (N, F, D); t: scalar or (N,) ints in ``[-1, T)``; tokens: (N,) ints
    in ``[0, vocab]``. Both are checked in one pass each, unless
    ``checked``: the caller checked them where they entered. Returns
    (N, F, D), C-contiguous. ``base_arrays`` is one base model (R = 1), or
    R of them stacked on a leading rank axis (every array (R, ...)): then
    the N rows are grouped by rank, rank r's the r-th block of N / R, and
    each block runs through its own base beside the shared motion module.
    """
    if not checked:
        tokens = _check_inputs(tokens, dims, T, t)
    shape, ranks = ad.value_of(x).shape, stack_size(base_arrays)
    if shape[0] % ranks:
        raise ValueError(f"{shape[0]} rows do not split evenly over "
                         f"{ranks} stacked bases")
    tfeat = _ranked_time_features(t, T, dims, shape[0], ranks)
    x = ad.transpose(ad.reshape(x, (ranks, -1) + shape[1:]))
    h = _encode(base_arrays, x, tfeat, tokens, motion_arrays)
    eps = ad.transpose(ad.dense(h, base_arrays["w3"], base_arrays["b3"]))
    return ad.reshape(eps, shape)


def _disc_features(disc_arrays, x, t, tokens, flows, T: int, dims: NetDims):
    """(R, B, frames * hidden) features of the N = R·B rows of ``x``,
    grouped by rank over the R ranks of ``flows``: rank r's rows take flow
    ``flows[r]``. A rank-stacked discriminator (every array (R, ...)) runs
    each rank's rows through its own arrays, a shared one every rank's
    through its arrays. ``t``, ``tokens`` and ``flows`` were checked by the
    public caller."""
    shape, ranks = ad.value_of(x).shape, len(flows)
    flow_rows = ad._take_rows(disc_arrays["flow_emb"],
                              np.repeat(flows, shape[0] // ranks).reshape(ranks, -1))
    tfeat = flow_rows + _ranked_time_features(t, T, dims, shape[0], ranks)
    x = ad.transpose(ad.reshape(x, (ranks, -1) + shape[1:]))
    motion = {k: disc_arrays[k] for k in MOTION_KEYS}
    h = ad.transpose(_encode(disc_arrays, x, tfeat, tokens, motion))
    return ad.reshape(h, (ranks, -1, dims.frames * dims.hidden))


def _head(arrays, feats, w1, b1, w2, b2):
    """One score per row of the (R, B, K) ``feats``, as (R·B,)."""
    z = ad.dense(feats, arrays[w1], arrays[b1], act="silu")
    return ad.reshape(ad.dense(z, arrays[w2], arrays[b2]), (-1,))


def _candidates(x_next, tokens) -> int:
    """How many candidate next states ``x_next`` stacks per condition row."""
    k, rem = divmod(ad.value_of(x_next).shape[0], len(tokens))
    if k < 1 or rem:
        raise ValueError(f"x_next rows are not a multiple of the {len(tokens)} "
                         "condition rows")
    return k


def _check_flows(disc_arrays, flow_idx, rows: int) -> np.ndarray:
    """``flow_idx``, one flow index or one per rank, as an (R,) index
    array, after checking that each is a row of the flow table, that the
    ``rows`` condition rows split evenly over the R ranks, and that a
    rank-stacked discriminator stacks R ranks."""
    flows = np.atleast_1d(np.asarray(flow_idx, dtype=np.intp))
    table = ad.value_of(disc_arrays["flow_emb"])
    bad = flows[(flows < 0) | (flows >= table.shape[-2])]
    if bad.size:
        raise ValueError(f"unregistered flow index {bad[0]}")
    if table.ndim == 3 and len(table) != len(flows):
        raise ValueError(f"{len(table)} stacked discriminators for "
                         f"{len(flows)} flow indices")
    if rows % len(flows):
        raise ValueError(f"{rows} rows do not split evenly over {len(flows)} ranks")
    return flows


def _tiled(a, k: int, ranks: int):
    """``a``, its rows grouped by rank, with each rank's rows repeated ``k``
    times: rank major, then candidate, then row. A scalar is kept."""
    a = np.asarray(a)
    if a.ndim == 0 or k == 1:
        return a
    return np.repeat(a.reshape(ranks, 1, -1), k, axis=1).reshape(-1)


def disc_pair_prob(disc_arrays, x_t, x_next, t, t_next, tokens, flow_idx,
                   T: int, dims: NetDims):
    """Probability that each (x_t -> x_next) is a teacher transition.

    The ``B`` rows of ``x_t``, ``t``, ``t_next`` and ``tokens`` are grouped
    by rank over the R ranks of ``flow_idx`` (one flow index, or one per
    rank). ``x_next`` stacks ``k`` candidate next states for each rank's
    rows: ``k * B`` rows, rank major, then candidate, then row. One
    backbone pass encodes every candidate and one encodes ``x_t``; each
    rank's ``x_t`` features are tiled to its candidates and concatenated
    with their features along the channel axis before the pair head.
    Returns ``k * B`` probabilities.
    """
    if not np.all(np.asarray(t_next) < np.asarray(t)):
        raise ValueError("t_next must precede t")
    tokens = _check_inputs(tokens, dims, T, t, t_next)
    k = _candidates(x_next, tokens)
    flows = _check_flows(disc_arrays, flow_idx, len(tokens))
    ranks = len(flows)
    f_cur = _disc_features(disc_arrays, x_t, t, tokens, flows, T, dims)
    f_next = _disc_features(disc_arrays, x_next, _tiled(t_next, k, ranks),
                            _tiled(tokens, k, ranks), flows, T, dims)
    if k > 1:
        f_cur = ad.reshape(ad.concat([ad.reshape(f_cur, (ranks, 1, -1))] * k, axis=1),
                           ad.value_of(f_next).shape)
    feats = ad.concat([f_next, f_cur], axis=-1)
    return ad.sigmoid(_head(disc_arrays, feats, "hp1_w", "hp1_b", "hp2_w", "hp2_b"))


def disc_single_prob(disc_arrays, x_next, t_next, tokens, flow_idx,
                     T: int, dims: NetDims):
    """Probability from the relaxed (single-pass) head.

    ``x_next`` stacks ``k`` candidates for each rank's rows of ``t_next``
    and ``tokens``, as in :func:`disc_pair_prob`; one backbone pass
    encodes them all. Returns ``k * B`` probabilities.
    """
    tokens = _check_inputs(tokens, dims, T, t_next)
    k = _candidates(x_next, tokens)
    flows = _check_flows(disc_arrays, flow_idx, len(tokens))
    feats = _disc_features(disc_arrays, x_next, _tiled(t_next, k, len(flows)),
                           _tiled(tokens, k, len(flows)), flows, T, dims)
    return ad.sigmoid(_head(disc_arrays, feats, "hs1_w", "hs1_b", "hs2_w", "hs2_b"))


# -- optimisation --------------------------------------------------------


class Adam:
    """Adam with float64 moments; parameters are stored back as float32.

    One step updates one flat float64 buffer holding every parameter of the
    model, in sorted name order; the first step fixes that layout. The
    arithmetic is elementwise, so each entry gets the bits a per-array
    update would give it.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.layout: tuple | None = None
        self.m = self.v = None

    def step(self, params: dict, grads: dict) -> None:
        layout = tuple((name, np.shape(params[name])) for name in sorted(params))
        for name, shape in layout:
            if grads.get(name) is None:
                raise ValueError(f"no gradient for parameter {name!r}")
            if np.shape(grads[name]) != shape:
                raise ValueError(f"gradient for parameter {name!r} has shape "
                                 f"{np.shape(grads[name])}, not {shape}")
        unknown = sorted(grads.keys() - params.keys())
        if unknown:
            raise ValueError(f"gradient for unknown parameter {unknown[0]!r}")
        if self.layout is None:
            self.layout = layout
            self.m = np.zeros(sum(math.prod(s) for _, s in layout))
            self.v = np.zeros_like(self.m)
        elif layout != self.layout:
            raise ValueError("parameter names or shapes changed since the first step")
        g = np.concatenate([np.ravel(grads[n]) for n, _ in layout], dtype=np.float64)
        p = np.concatenate([np.ravel(params[n]) for n, _ in layout], dtype=np.float64)
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g * g
        mhat = self.m / bc1
        vhat = self.v / bc2
        new = (p - self.lr * mhat / (np.sqrt(vhat) + self.EPS)).astype(np.float32)
        start = 0
        for name, shape in layout:
            stop = start + math.prod(shape)
            params[name] = new[start:stop].reshape(shape)
            start = stop


# -- pretraining ---------------------------------------------------------

# The pretraining rates, read by both pretraining loops. No run varies
# them, and ``config.config_hash`` hashes them, so an edit of either
# refuses the artifacts built before it.
PRETRAIN_LR = 3e-3
COND_DROPOUT = 0.15  # share of rows trained on the null token


def stack_size(arrays) -> int:
    """R for a model whose arrays are stacked on a leading rank axis, 1 for
    one model; read from its first layer's weight."""
    w1 = ad.value_of(arrays["w1"])
    return len(w1) if w1.ndim == 3 else 1


def rank_sum(loss, ranks: int):
    """A mean over R ranks' equal shares of rows as their sum of per-rank
    means: R times ``loss``. Each rank then gets exactly the gradient of
    its own mean, since R / (R·n) rounds as 1 / n does."""
    return ranks * loss


def rank_means(values, ranks: int) -> np.ndarray:
    """The R per-rank means of ``values``, its rows grouped by rank: each
    has the bits of the mean over that rank's rows alone."""
    return np.mean(np.reshape(values, (ranks, -1)), axis=1)


def ranked_mse(pred, target, ranks: int):
    """``autodiff.mse`` over R ranks' rows, grouped by rank, summed over
    ranks (:func:`rank_sum`), and each rank's own: ``(loss, means)``."""
    d = ad.value_of(pred) - target
    return rank_sum(ad.mse(pred, target), ranks), rank_means(d * d, ranks)


def denoise_loss(base_arrays, motion_arrays, x0, tokens, t, eps, sched, dims):
    """Pretraining loss, the mean squared error of the predicted noise, and
    each base's mean of it: ``(loss, means)``.

    ``base_arrays`` may stack R bases on a leading rank axis, the rows
    grouped by rank (``student_eps``). The loss is then R times the mean
    over the stack, the sum of the R per-base means, so each base gets
    exactly its own mean's gradient. ``means`` holds the R per-base means,
    each with the bits of one base's loss on its rows alone.
    """
    x_t = add_noise(x0, eps, t, sched)
    x_t = substitute_terminal_noise(x_t, eps, t, sched)
    pred = student_eps(base_arrays, motion_arrays, x_t, t, tokens, sched.T, dims)
    return ranked_mse(pred, eps, stack_size(base_arrays))


def draw_rows(dataset, n: int, rng: np.random.Generator, t_grid,
              cond_dropout: float = 0.0, null_token: int | None = None) -> dict:
    """``n`` training rows of ``dataset``: clip ``x0``, condition
    ``tokens``, timestep ``t`` from ``t_grid`` and noise ``eps``.

    Draws in the order clip index, dropout (only when ``cond_dropout`` is
    positive: a dropped row's token becomes ``null_token``), timestep index,
    noise. With ``t_grid = np.arange(T)`` the timesteps are those of
    ``rng.integers(0, T, n)``. ``x0`` and ``eps`` are float32; the noise
    is drawn in float64 and rounded, so its stream does not depend on the
    element type.
    """
    if cond_dropout > 0.0 and null_token is None:
        raise ValueError("cond_dropout needs a null_token")
    idx = rng.integers(0, len(dataset.clips), size=n)
    x0 = dataset.clips[idx]
    tokens = dataset.conditions[idx].astype(np.intp)
    if cond_dropout > 0.0:
        drop = rng.random(n) < cond_dropout
        tokens = np.where(drop, null_token, tokens)
    t = t_grid[rng.integers(0, len(t_grid), size=n)]
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    return {"x0": x0, "tokens": tokens, "t": t, "eps": eps}


def _decayed(lr: float, step: int, steps: int) -> float:
    # Exponential decay to lr / 10 over the run; flattens the late loss.
    return lr * 0.1 ** (step / max(steps - 1, 1))


def _pretrain(params: dict, keys, loss_of, datasets, sched: NoiseSchedule,
              dims: NetDims, steps: int, rngs, lr: float, batch: int,
              cond_dropout: float) -> list:
    """Adam on the arrays ``params[k]`` for ``k`` in ``keys``, in place;
    ``loss_of(vars, x0, tokens, t, eps)`` is ``denoise_loss`` with those
    arrays taped. Each step draws ``batch`` rows of each dataset from its
    own generator in ``rngs`` and concatenates them in that order. Returns
    one loss history per dataset."""
    if any(len(ds.clips) == 0 for ds in datasets):
        raise ValueError("empty dataset")
    opt = Adam(lr)
    histories = [[] for _ in datasets]
    t_grid = np.arange(sched.T)
    for step in range(steps):
        draws = [draw_rows(ds, batch, rng, t_grid, cond_dropout, dims.null_token)
                 for ds, rng in zip(datasets, rngs)]
        b = {k: np.concatenate([d[k] for d in draws]) for k in draws[0]}
        pvars = {k: ad.Var(params[k]) for k in keys}
        loss, means = loss_of(pvars, b["x0"], b["tokens"], b["t"], b["eps"])
        ad.backward(loss)
        opt.lr = _decayed(lr, step, steps)
        opt.step(params, {k: pvars[k].grad for k in keys})
        for history, mean in zip(histories, means):
            history.append(float(mean))
    return histories


def pretrain_base(datasets, sched: NoiseSchedule, dims: NetDims, steps: int,
                  seeds, lr: float = PRETRAIN_LR, batch: int = 128,
                  cond_dropout: float = COND_DROPOUT) -> list:
    """Denoising pretraining of frozen-to-be base models, one per dataset
    of ``datasets``, with one seed per dataset in ``seeds``.

    The bases train together, stacked on a leading rank axis: each step is
    one taped ``denoise_loss`` over every base's ``batch`` rows, one
    backward and one Adam update of the stack. Base r starts from
    ``init_base`` on the generator of ``seeds[r]``, and each step draws its
    rows from that generator and ``datasets[r]``, so in float32 every base
    gets the bits, weights and history, of training it alone. One base is
    a stack of one. The stack's rows are the caller's to bound: ``runner``
    trains in the blocks of ``solvers.rank_blocks``.

    Returns one ``(base arrays, loss history)`` per dataset.
    """
    if len(datasets) != len(seeds):
        raise ValueError(f"{len(datasets)} datasets for {len(seeds)} seeds")
    rngs = list(map(np.random.default_rng, seeds))
    bases = [init_base(dims, rng) for rng in rngs]
    stack = {k: np.stack([base[k] for base in bases]) for k in BASE_KEYS}
    histories = _pretrain(
        stack, BASE_KEYS,
        lambda pvars, *b: denoise_loss(pvars, None, *b, sched, dims),
        datasets, sched, dims, steps, rngs, lr, batch, cond_dropout)
    return [({k: v[r] for k, v in stack.items()}, history)
            for r, history in enumerate(histories)]


def pretrain_motion(base: dict, dataset, sched: NoiseSchedule, dims: NetDims,
                    steps: int, seed, lr: float = PRETRAIN_LR, batch: int = 128,
                    cond_dropout: float = COND_DROPOUT):
    """Train the temporal module against correlated clips; base stays frozen.

    Returns (motion arrays, loss_history).
    """
    rng = np.random.default_rng(seed)
    motion = init_motion(dims, rng)
    (history,) = _pretrain(
        motion, MOTION_KEYS,
        lambda mvars, *b: denoise_loss(base, mvars, *b, sched, dims),
        [dataset], sched, dims, steps, [rng], lr, batch, cond_dropout)
    return motion, history
