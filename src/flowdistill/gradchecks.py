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
from .distill import adversarial_losses, mse_loss
from .nets import (
    NetDims,
    StudentBundle,
    denoise_loss,
    init_base,
    init_discriminator,
    init_motion,
    relaxed_discriminator,
)
from .schedule import NoiseSchedule, add_noise

__all__ = ["gradcheck_battery", "REL_TOL"]

REL_TOL = 1e-4


def _setup(sched: NoiseSchedule, dims: NetDims, seed: int = 7):
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
    t = np.asarray([sched.T // 2, sched.T // 3])
    noise = dict(x0=x0, tokens=tokens, t=t, eps=eps)
    # A stride batch as ``teacher_stride`` returns it, with a random target.
    stride = dict(x_t=add_noise(x0, eps, t, sched), t=t, tokens=tokens,
                  n=4, s=sched.T // 16,
                  target=rng.normal(0.0, 0.7, x0.shape))
    return base, motion, pair, relaxed, noise, stride


def gradcheck_battery(sched: NoiseSchedule, dims: NetDims, seed: int = 7) -> list:
    """Returns one record per checked loss: name, worst error, pass flag."""
    base, motion, pair, relaxed, noise, b = _setup(sched, dims, seed)

    def denoise(base_arrays, motion_arrays):
        return denoise_loss(base_arrays, motion_arrays, noise["x0"], noise["tokens"],
                            noise["t"], noise["eps"], sched, dims)

    def adversarial(motion_arrays, disc_arrays, phase):
        return adversarial_losses(base, motion_arrays, disc_arrays, b, phase,
                                  1, sched, dims)

    checks = [
        ("pretrain_eps_mse/base", lambda p: denoise(p, None), base),
        ("pretrain_eps_mse/motion", lambda p: denoise(base, p), motion),
        ("distill_mse/motion", lambda p: mse_loss(base, p, b, sched, dims), motion),
        ("disc_conditional/disc",
         lambda p: adversarial(motion, p, "trajectory_conditional")[0], pair),
        ("disc_relaxed/disc", lambda p: adversarial(motion, p, "relaxed")[0], relaxed),
        ("generator_conditional/motion",
         lambda p: adversarial(p, pair, "trajectory_conditional")[1], motion),
        ("generator_relaxed/motion", lambda p: adversarial(p, relaxed, "relaxed")[1],
         motion),
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
