"""Deterministic samplers: guided combination, stride-`s` Euler traversal,
and a second-order multistep solver used for teacher data generation.

All solvers treat timestep ``-1`` as the clean boundary (``alpha_bar = 1``),
so a full traversal of a ``T``-step schedule takes ``n * s = T`` strides
from ``t = T - 1`` down to ``t = -1``.

Predictors are callables ``f(x, t, tokens) -> eps_hat``. The one-step
arithmetic is written against the generic autodiff ops, so a predictor that
returns a taped :class:`~flowdistill.autodiff.Var` yields a differentiable
update (this is how the student's single stride is trained).

Sampling starts from noise that :func:`start_noise` draws, one stream for
all the clips of a call, and :func:`sample_batch` takes the drawn states.
The stream fills in clip order, so clip ``i`` is the same however many
clips are drawn after it. A caller that samples the same states many times
(every arm and step count of an evaluation) draws them once.

Timesteps are checked where they enter: ``NoiseSchedule`` rejects a
schedule whose ``alpha_bar`` underflows when it is built, and
:func:`solve_grid` makes every grid of Python ints, strictly decreasing,
from ``T - 1`` to ``-1``.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .schedule import NoiseSchedule, _coef

__all__ = [
    "cfg_combine",
    "euler_step",
    "euler_solve",
    "multistep_solve",
    "solve_grid",
    "start_noise",
    "sample_batch",
]

# Teacher traversals (data generation, references, distillation targets)
# and the student's trained stride clamp the predicted clean sample: guided
# trajectories diverge without it, and one clamp lets a student equal to
# its teacher at n = 1 reproduce it. Distilled arms sample unclamped.
TEACHER_X0_CLIP = 4.0

SAMPLE_BATCH = 512  # rows per sample_batch call when sampling many clips


def cfg_combine(eps_cond, eps_uncond, w: float):
    """Guided prediction: eps_uncond + w * (eps_cond - eps_uncond)."""
    if ad.value_of(eps_cond).shape != ad.value_of(eps_uncond).shape:
        raise ValueError("conditional/unconditional shapes differ")
    return eps_uncond + w * (eps_cond - eps_uncond)


def _predict(f, x, t, tokens, w: float, null_token):
    eps = f(x, t, tokens)
    if w > 0.0:
        if null_token is None:
            raise ValueError("guided prediction needs the null condition token")
        null = np.full_like(np.asarray(tokens), null_token)
        eps = cfg_combine(eps, f(x, t, null), w)
    return eps


def _ddim_update(x, eps, t, t_next, sched: NoiseSchedule, x0_clip=None):
    """sqrt(ab')·x0_hat + sqrt(1-ab')·eps, with x0_hat recovered from x.

    ``x0_clip`` optionally clips the recovered clean sample; guided teacher
    traversals use it to keep strongly extrapolated trajectories bounded.
    """
    ndim = ad.value_of(x).ndim
    a_t = _coef(sched.sqrt_alpha_bar(t), ndim)
    b_t = _coef(sched.sqrt_one_minus_alpha_bar(t), ndim)
    a_n = _coef(sched.sqrt_alpha_bar(t_next), ndim)
    b_n = _coef(sched.sqrt_one_minus_alpha_bar(t_next), ndim)
    x0_hat = (x - b_t * eps) / a_t
    if x0_clip is not None:
        x0_hat = ad.clamp(x0_hat, -x0_clip, x0_clip)
    return a_n * x0_hat + b_n * eps


def euler_step(f, x_t, t, t_next, tokens, sched: NoiseSchedule,
               w: float = 0.0, null_token=None, x0_clip=None):
    """One deterministic stride from t to t_next (< t)."""
    t_a, tn_a = np.asarray(t), np.asarray(t_next)
    if not np.all(tn_a < t_a):
        raise ValueError("t_next must precede t")
    eps = _predict(f, x_t, t, tokens, w, null_token)
    return _ddim_update(x_t, eps, t, t_next, sched, x0_clip=x0_clip)


def euler_solve(f, x_t, t, tokens, n: int, s: int, sched: NoiseSchedule,
                w: float = 0.0, null_token=None, x0_clip=None):
    """n successive Euler strides of s timesteps each; n = 0 returns x_t."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise ValueError("s must be a positive integer")
    t_a = np.asarray(t)
    if np.any(n * s > t_a + 1):
        raise ValueError(f"stride plan n*s={n * s} overruns the clean boundary")
    x = x_t
    for k in range(n):
        x = euler_step(f, x, t_a - k * s, t_a - (k + 1) * s, tokens, sched,
                       w=w, null_token=null_token, x0_clip=x0_clip)
    return x


def solve_grid(T: int, steps: int) -> list:
    """Integer timestep grid for a k-step traversal: T-1 down to -1.

    Interior points are rounded from the uniform spacing; when ``steps``
    divides ``T`` the grid is exactly uniform with stride ``T // steps``.
    """
    if steps < 1 or steps > T:
        raise ValueError(f"steps must be in [1, {T}]")
    grid = [int(np.floor(T * (steps - j) / steps + 0.5)) - 1 for j in range(steps + 1)]
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("degenerate solver grid; reduce steps")
    return grid


def multistep_solve(f, x_start, steps: int, tokens, sched: NoiseSchedule,
                    w: float = 0.0, null_token=None, x0_clip=None):
    """Second-order multistep traversal in x0 parameterisation.

    With a = sqrt(ab), sig = sqrt(1-ab), lam = ln(a/sig), h = lam' - lam,
    the interior update is

        x' = (sig'/sig) * x - a' * (exp(-h) - 1) * D

    where D extrapolates the current and previous x0 predictions:
    D = (1 + 1/(2r)) * x0 - (1/(2r)) * x0_prev with r = h_prev / h.
    The first step has no history and the final step lands on the clean
    boundary (sig' = 0, h infinite), so both use the first-order update,
    which coincides with a single Euler stride.
    """
    grid = solve_grid(sched.T, steps)
    ab = sched.alpha_bar(np.asarray(grid))
    alphas = np.sqrt(ab)
    sigmas = np.sqrt(1.0 - ab)
    with np.errstate(divide="ignore"):
        lams = np.log(alphas) - np.log(sigmas)

    x = x_start
    x0_prev = None
    h_prev = None
    for j in range(steps):
        t_cur, t_next = grid[j], grid[j + 1]
        eps = _predict(f, x, t_cur, tokens, w, null_token)
        ndim = ad.value_of(x).ndim
        a_c = _coef(alphas[j], ndim)
        s_c = _coef(sigmas[j], ndim)
        x0 = (x - s_c * eps) / a_c
        if x0_clip is not None:
            x0 = ad.clamp(x0, -x0_clip, x0_clip)
        h = lams[j + 1] - lams[j]
        if x0_prev is None or not np.isfinite(h):
            x = _ddim_update(x, eps, t_cur, t_next, sched, x0_clip=x0_clip)
        else:
            r = h_prev / h
            d = (1.0 + 1.0 / (2.0 * r)) * x0 - (1.0 / (2.0 * r)) * x0_prev
            a_n = _coef(alphas[j + 1], ndim)
            s_n = _coef(sigmas[j + 1], ndim)
            x = (s_n / s_c) * x - a_n * np.expm1(-h) * d
        x0_prev = x0
        h_prev = h
    return x


def start_noise(entropy, n: int, dims) -> np.ndarray:
    """(n, frames, frame_dim) starting noise from the stream
    ``default_rng(entropy)``, filled in clip order: row ``i`` is the same
    for every ``n > i``."""
    return np.random.default_rng(entropy).standard_normal(
        (n, dims.frames, dims.frame_dim))


def sample_batch(bundle, sched: NoiseSchedule, steps: int, tokens, x_start,
                 w: float = 0.0, solver: str = "euler", x0_clip=None):
    """Deterministic batch sampling from start states drawn by
    :func:`start_noise`, one row per entry of ``tokens``.

    Rows never interact, so the result does not depend on how the clips are
    partitioned into batches, up to the last bits that BLAS rounding of
    different batch sizes can move.
    """
    from .nets import _check_tokens, student_eps  # local import to avoid a cycle

    dims = bundle.dims
    tokens = _check_tokens(tokens, dims)
    x = np.asarray(x_start, dtype=np.float64)
    if tokens.ndim != 1 or x.shape[:1] != tokens.shape:
        raise ValueError(f"start states {x.shape} for tokens {tokens.shape}; "
                         "need one per clip")

    def f(xv, t, tok):
        return student_eps(bundle.base.data, bundle.motion.data, xv, t, tok,
                           sched.T, dims)

    if solver == "euler":
        grid = solve_grid(sched.T, steps)
        for j in range(steps):
            x = euler_step(f, x, grid[j], grid[j + 1], tokens, sched,
                           w=w, null_token=dims.null_token, x0_clip=x0_clip)
        return x
    if solver == "multistep":
        return multistep_solve(f, x, steps, tokens, sched,
                               w=w, null_token=dims.null_token, x0_clip=x0_clip)
    raise ValueError(f"unknown solver {solver!r}")
