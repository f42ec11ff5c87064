"""Finite-difference verification of every trainable gradient path.

Each check evaluates one of the training losses (the functions the
training loops call) on a small random batch and compares the taped
gradients against central differences (h = 1e-5) in float64 for every
parameter coordinate. Head and motion parameters are randomised so all
paths carry signal.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .distill import _rank_views, _student_stride, adversarial_loss, mse_loss
from .nets import (
    NetDims,
    StudentBundle,
    denoise_loss,
    init_base,
    init_discriminator,
    init_motion,
    relaxed_discriminator,
)
from .schedule import SCHEDULE, add_noise

__all__ = ["gradcheck_battery", "REL_TOL"]

REL_TOL = 1e-4


def _setup(dims: NetDims, seed: int = 7):
    rng = np.random.default_rng(seed)
    base = init_base(dims, rng)
    motion = init_motion(dims, rng, out_scale=0.05)
    pair = init_discriminator(dims, 3, rng, StudentBundle(base, motion, dims))
    pair["flow_emb"] = rng.normal(0.0, 0.2, pair["flow_emb"].shape).astype(np.float32)
    relaxed = relaxed_discriminator(pair, dims, rng)
    # Randomise the near-zero final head layers so gradients flow through
    # every discriminator parameter.
    for data, w2, b2 in ((pair, "hp2_w", "hp2_b"), (relaxed, "hs2_w", "hs2_b")):
        data[w2] = rng.normal(0.0, 0.3, data[w2].shape).astype(np.float32)
        data[b2] = rng.normal(0.0, 0.1, data[b2].shape).astype(np.float32)

    batch = 2
    x0 = rng.normal(0.0, 0.7, (batch, dims.frames, dims.frame_dim))
    eps = rng.standard_normal(x0.shape)
    tokens = rng.integers(0, dims.vocab, batch)
    t = np.asarray([SCHEDULE.T // 2, SCHEDULE.T // 3])
    noise = dict(x0=x0, tokens=tokens, t=t, eps=eps)
    stride = _stride_batch(base, motion, x0, eps, tokens, t, rng, dims)
    # A second base, stacked with the first: two ranks of two rows each.
    bases = {k: np.stack([base[k], v]) for k, v in init_base(dims, rng).items()}
    x0 = rng.normal(0.0, 0.7, (2 * batch, dims.frames, dims.frame_dim))
    stacked = _stride_batch(bases, motion, x0, rng.standard_normal(x0.shape),
                            rng.integers(0, dims.vocab, 2 * batch),
                            np.tile(t, 2), rng, dims)
    x0 = rng.normal(0.0, 0.7, x0.shape)
    noises = dict(x0=x0, tokens=rng.integers(0, dims.vocab, 2 * batch),
                  t=np.tile(t, 2), eps=rng.standard_normal(x0.shape))
    return base, motion, pair, relaxed, noise, stride, bases, stacked, noises


def _stride_batch(base, motion, x0, eps, tokens, t, rng, dims):
    """A stride batch as ``distill.run_stage`` builds it on a discriminator
    iteration, with a random target and the untaped stride of ``motion``
    as the fake sample; ``base`` may stack one base per rank."""
    b = dict(x_t=add_noise(x0, eps, t, SCHEDULE), t=t, tokens=tokens,
             n=4, s=SCHEDULE.T // 16, target=rng.normal(0.0, 0.7, x0.shape))
    b["fake"] = _student_stride(base, motion, b, SCHEDULE, dims)
    return b


def gradcheck_battery(dims: NetDims, seed: int = 7) -> list:
    """Returns one record per checked loss, on the shipped schedule: name,
    worst error, pass flag.

    The rows named ``…/2 ranks`` check the losses on two bases stacked,
    two rows each: pretraining as ``nets.pretrain_base`` tapes the stack,
    and distillation as ``distill.rank_step`` calls its losses on a block
    of ranks, the taped side as one view per rank, a frozen discriminator
    shared by both, and the discriminator at flow indices (1, 2).
    """
    base, motion, pair, relaxed, noise, b, bases, stacked, noises = _setup(dims, seed)

    def denoise(base_arrays, motion_arrays, noise=noise):
        return denoise_loss(base_arrays, motion_arrays, noise["x0"], noise["tokens"],
                            noise["t"], noise["eps"], SCHEDULE, dims)[0]

    def adversarial(motion_arrays, disc_arrays, side):
        return adversarial_loss(base, motion_arrays, disc_arrays, b, 1, side,
                                SCHEDULE, dims)[0]

    def ranked(motion_arrays, disc_arrays, side):
        return adversarial_loss(bases, motion_arrays, disc_arrays, stacked,
                                np.array([1, 2]), side, SCHEDULE, dims)[0]

    motions = _rank_views(motion, 2)
    checks = [
        ("pretrain_eps_mse/base", lambda p: denoise(p, None), base),
        ("pretrain_eps_mse/motion", lambda p: denoise(base, p), motion),
        ("distill_mse/motion",
         lambda p: mse_loss(base, p, b, SCHEDULE, dims)[0], motion),
        ("disc_conditional/disc", lambda p: adversarial(motion, p, "disc"), pair),
        ("disc_relaxed/disc", lambda p: adversarial(motion, p, "disc"), relaxed),
        ("generator_conditional/motion",
         lambda p: adversarial(p, pair, "student"), motion),
        ("generator_relaxed/motion", lambda p: adversarial(p, relaxed, "student"),
         motion),
        ("pretrain_eps_mse/base/2 ranks", lambda p: denoise(p, None, noises),
         bases),
        ("distill_mse/motion/2 ranks",
         lambda p: mse_loss(bases, p, stacked, SCHEDULE, dims)[0], motions),
        ("disc_conditional/disc/2 ranks", lambda p: ranked(motion, p, "disc"),
         _rank_views(pair, 2)),
        ("disc_relaxed/disc/2 ranks", lambda p: ranked(motion, p, "disc"),
         _rank_views(relaxed, 2)),
        ("generator_conditional/motion/2 ranks",
         lambda p: ranked(p, pair, "student"), motions),
        ("generator_relaxed/motion/2 ranks",
         lambda p: ranked(p, relaxed, "student"), motions),
    ]

    results = []
    for name, loss_fn, params in checks:
        report = ad.gradcheck(loss_fn, dict(params))
        results.append({
            "name": name,
            "max_rel_err": report["max_rel_err"],
            "n_params": report["n_params"],
            "passed": report["max_rel_err"] < REL_TOL,
        })
    return results
