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
  student's) with one backbone pass over the stack, and the pair head
  encodes x_t once and tiles its features to every candidate.

A model is its arrays: each network's parameters are one dict of named
float32 arrays (the checkpoint's entries and element type), upcast to
float64 inside every forward pass. ``StudentBundle`` pairs a base model's
arrays with the motion module's and the run's ``NetDims``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from . import autodiff as ad
from .schedule import NoiseSchedule, add_noise, substitute_terminal_noise

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
    """Sinusoidal features for integer timesteps -1..T-1, indexed by t + 1."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    t = np.arange(-1, T, dtype=np.float64)
    ang = t[:, None] * freqs[None, :]
    table = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    table.setflags(write=False)
    return table


def time_features(t, T: int, dim: int) -> np.ndarray:
    """(B, dim) or (dim,) sinusoidal embedding of integer timesteps."""
    return _sinusoid_table(T, dim)[np.asarray(t) + 1]


def _check_tokens(tokens, dims: NetDims):
    tokens = np.asarray(tokens)
    if np.any(tokens < 0) or np.any(tokens > dims.vocab):
        raise ValueError(f"unknown condition token (vocab={dims.vocab}, null={dims.vocab})")
    return tokens


# -- forward passes ------------------------------------------------------


def _expand_frame_axis(v):
    return ad.reshape(v, (ad.value_of(v).shape[0], 1, -1))


def _encode(params, x, tfeat, tokens, motion):
    """Shared encoder: per-frame affine + embeddings, motion block, layer 2.

    `params`/`motion` values may be Var or ndarray; `x` may be Var or
    ndarray; `tfeat` may be Var (discriminator flow conditioning).
    Returns (B, F, hidden) features.
    """
    temb = _expand_frame_axis(ad.matmul(tfeat, params["time_w"]))
    cemb = _expand_frame_axis(ad.take_rows(params["cond_emb"], tokens))
    h = ad.matmul(x, params["w1"]) + params["b1"] + temb + cemb
    h = ad.silu(h)
    if motion is not None:
        h = h + _motion_branch(motion, h, tfeat, tokens)
    return ad.silu(ad.matmul(h, params["w2"]) + params["b2"])


def _motion_branch(motion, h, tfeat, tokens):
    """The motion block's residual branch.

    Untaped, at most three (B, F, hidden) arrays are live at once, ``h``
    included: ``z`` is rebound after each op, so no superseded state
    outlives the next one, and it is freed on return, before the residual
    add.
    """
    z = ad.temporal_mix(motion["mix"], h)
    z = z + _expand_frame_axis(ad.matmul(tfeat, motion["tproj"]))
    z = z + _expand_frame_axis(ad.take_rows(motion["cproj"], tokens))
    z = ad.silu(z)
    return ad.temporal_mix(motion["mix_out"], z)


def student_eps(base_arrays, motion_arrays, x, t, tokens, T: int, dims: NetDims):
    """Noise prediction of the composed model. Accepts Var or ndarray params.

    x: (B, F, D); t: scalar or (B,) ints; tokens: (B,) ints.
    """
    tokens = _check_tokens(tokens, dims)
    tfeat = time_features(t, T, dims.time_dim)
    if tfeat.ndim == 1:
        tfeat = np.broadcast_to(tfeat, (ad.value_of(x).shape[0], dims.time_dim))
    h = _encode(base_arrays, x, tfeat, tokens, motion_arrays)
    return ad.matmul(h, base_arrays["w3"]) + base_arrays["b3"]


def _disc_features(disc_arrays, x, t, tokens, flow_idx, T: int, dims: NetDims):
    if not 0 <= flow_idx < ad.value_of(disc_arrays["flow_emb"]).shape[0]:
        raise ValueError(f"unregistered flow index {flow_idx}")
    tfeat = np.asarray(time_features(t, T, dims.time_dim), dtype=np.float64)
    if tfeat.ndim == 1:
        tfeat = np.broadcast_to(tfeat, (ad.value_of(x).shape[0], dims.time_dim))
    flow_rows = ad.take_rows(disc_arrays["flow_emb"],
                             np.full(ad.value_of(x).shape[0], flow_idx, dtype=np.intp))
    tfeat = flow_rows + tfeat
    motion = {k: disc_arrays[k] for k in MOTION_KEYS}
    h = _encode(disc_arrays, x, tfeat, tokens, motion)
    return ad.reshape(h, (ad.value_of(h).shape[0], dims.frames * dims.hidden))


def _head(arrays, feats, w1, b1, w2, b2):
    z = ad.silu(ad.matmul(feats, arrays[w1]) + arrays[b1])
    score = ad.matmul(z, arrays[w2]) + arrays[b2]
    return ad.reshape(score, (ad.value_of(score).shape[0],))


def _candidates(x_next, tokens) -> int:
    """How many candidate next states ``x_next`` stacks per condition row."""
    k, rem = divmod(ad.value_of(x_next).shape[0], len(tokens))
    if k < 1 or rem:
        raise ValueError(f"x_next rows are not a multiple of the {len(tokens)} "
                         "condition rows")
    return k


def _tiled(a, k: int):
    """``a`` repeated ``k`` times along the row axis; a scalar is kept."""
    a = np.asarray(a)
    return a if a.ndim == 0 or k == 1 else np.concatenate([a] * k)


def disc_pair_prob(disc_arrays, x_t, x_next, t, t_next, tokens, flow_idx,
                   T: int, dims: NetDims):
    """Probability that each (x_t -> x_next) is a teacher transition.

    ``x_next`` stacks ``k`` candidate next states for the same ``B`` rows
    of ``x_t``, ``t``, ``t_next`` and ``tokens`` (``k * B`` rows, candidate
    major). One backbone pass encodes every candidate and one encodes
    ``x_t``; the ``x_t`` features are tiled to each candidate and
    concatenated with its features along the channel axis before the pair
    head. Returns ``k * B`` probabilities.
    """
    if not np.all(np.asarray(t_next) < np.asarray(t)):
        raise ValueError("t_next must precede t")
    tokens = _check_tokens(tokens, dims)
    k = _candidates(x_next, tokens)
    f_next = _disc_features(disc_arrays, x_next, _tiled(t_next, k),
                            _tiled(tokens, k), flow_idx, T, dims)
    f_cur = _disc_features(disc_arrays, x_t, t, tokens, flow_idx, T, dims)
    if k > 1:
        f_cur = ad.concat([f_cur] * k, axis=0)
    feats = ad.concat([f_next, f_cur], axis=-1)
    score = _head(disc_arrays, feats, "hp1_w", "hp1_b", "hp2_w", "hp2_b")
    return ad.sigmoid(score)


def disc_single_prob(disc_arrays, x_next, t_next, tokens, flow_idx,
                     T: int, dims: NetDims):
    """Probability from the relaxed (single-pass) head.

    ``x_next`` stacks ``k`` candidates for the ``B`` rows of ``t_next`` and
    ``tokens``, as in :func:`disc_pair_prob`; one backbone pass encodes
    them all. Returns ``k * B`` probabilities.
    """
    tokens = _check_tokens(tokens, dims)
    k = _candidates(x_next, tokens)
    feats = _disc_features(disc_arrays, x_next, _tiled(t_next, k),
                           _tiled(tokens, k), flow_idx, T, dims)
    score = _head(disc_arrays, feats, "hs1_w", "hs1_b", "hs2_w", "hs2_b")
    return ad.sigmoid(score)


# -- optimisation --------------------------------------------------------


class Adam:
    """Adam with float64 moments; parameters are stored back as float32."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in sorted(grads):
            g = np.asarray(grads[name], dtype=np.float64)
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            new = params[name].astype(np.float64) - self.lr * mhat / (np.sqrt(vhat) + self.EPS)
            params[name] = new.astype(np.float32)


# -- pretraining ---------------------------------------------------------


def denoise_loss(base_arrays, motion_arrays, x0, tokens, t, eps, sched, dims):
    """Pretraining loss: mean squared error of the predicted noise."""
    x_t = add_noise(x0, eps, t, sched)
    x_t = substitute_terminal_noise(x_t, eps, t, sched)
    pred = student_eps(base_arrays, motion_arrays, x_t, t, tokens, sched.T, dims)
    return ad.mean_all(ad.square(pred - eps))


def draw_rows(dataset, n: int, rng: np.random.Generator, t_grid,
              cond_dropout: float = 0.0, null_token: int | None = None) -> dict:
    """``n`` training rows of ``dataset``: clip ``x0``, condition
    ``tokens``, timestep ``t`` from ``t_grid`` and noise ``eps``.

    Draws in the order clip index, dropout (only when ``cond_dropout`` is
    positive: a dropped row's token becomes ``null_token``), timestep index,
    noise. With ``t_grid = np.arange(T)`` the timesteps are those of
    ``rng.integers(0, T, n)``.
    """
    idx = rng.integers(0, len(dataset.clips), size=n)
    x0 = dataset.clips[idx].astype(np.float64)
    tokens = dataset.conditions[idx].astype(np.intp)
    if cond_dropout > 0.0:
        drop = rng.random(n) < cond_dropout
        tokens = np.where(drop, null_token, tokens)
    t = t_grid[rng.integers(0, len(t_grid), size=n)]
    eps = rng.standard_normal(x0.shape)
    return {"x0": x0, "tokens": tokens, "t": t, "eps": eps}


def _decayed(lr: float, step: int, steps: int) -> float:
    # Exponential decay to lr / 10 over the run; flattens the late loss.
    return lr * 0.1 ** (step / max(steps - 1, 1))


def _pretrain(params: dict, keys, loss_of, dataset, sched: NoiseSchedule,
              dims: NetDims, steps: int, rng: np.random.Generator, lr: float,
              batch: int, cond_dropout: float) -> list:
    """Adam on the arrays ``params[k]`` for ``k`` in ``keys``, in place;
    ``loss_of(vars, x0, tokens, t, eps)`` is the loss with those arrays
    taped. Returns the loss history."""
    if len(dataset.clips) == 0:
        raise ValueError("empty dataset")
    opt = Adam(lr)
    history = []
    t_grid = np.arange(sched.T)
    for step in range(steps):
        b = draw_rows(dataset, batch, rng, t_grid, cond_dropout, dims.null_token)
        pvars = {k: ad.Var(params[k]) for k in keys}
        loss = loss_of(pvars, b["x0"], b["tokens"], b["t"], b["eps"])
        ad.backward(loss)
        opt.lr = _decayed(lr, step, steps)
        opt.step(params, {k: pvars[k].grad for k in keys})
        history.append(float(loss.value))
    return history


def pretrain_base(dataset, sched: NoiseSchedule, dims: NetDims, steps: int,
                  seed, lr: float = 3e-3, batch: int = 128,
                  cond_dropout: float = 0.15):
    """Denoising pretraining of one frozen-to-be base model.

    Returns (base arrays, loss_history).
    """
    rng = np.random.default_rng(seed)
    base = init_base(dims, rng)
    history = _pretrain(
        base, BASE_KEYS,
        lambda pvars, *b: denoise_loss(pvars, None, *b, sched, dims),
        dataset, sched, dims, steps, rng, lr, batch, cond_dropout)
    return base, history


def pretrain_motion(base: dict, dataset, sched: NoiseSchedule, dims: NetDims,
                    steps: int, seed, lr: float = 3e-3, batch: int = 128,
                    cond_dropout: float = 0.15):
    """Train the temporal module against correlated clips; base stays frozen.

    Returns (motion arrays, loss_history).
    """
    rng = np.random.default_rng(seed)
    motion = init_motion(dims, rng)
    history = _pretrain(
        motion, MOTION_KEYS,
        lambda mvars, *b: denoise_loss(base, mvars, *b, sched, dims),
        dataset, sched, dims, steps, rng, lr, batch, cond_dropout)
    return motion, history
