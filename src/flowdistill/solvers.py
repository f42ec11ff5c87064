"""Deterministic samplers: stride-`s` Euler traversal and a second-order
multistep solver used for teacher data generation.

All solvers treat timestep ``-1`` as the clean boundary (``alpha_bar = 1``),
so a full traversal of a ``T``-step schedule takes ``n * s = T`` strides
from ``t = T - 1`` down to ``t = -1``.

Predictors are callables ``f(x, t, tokens) -> eps_hat``; :func:`predictor`
builds one from a model, and classifier-free guidance is part of the
predictor it returns, not of the solvers. The one-step arithmetic is written
against the generic autodiff ops, so a predictor that returns a taped
:class:`~flowdistill.autodiff.Var` yields a differentiable update (this is
how the student's single stride is trained). Every update clamps the
predicted clean sample at ``±X0_CLIP``, so teacher traversals, the
student's trained stride and sampling follow one rule.

A traversal computes in its states' dtype: each stride reads the
schedule's coefficients in that dtype (``schedule._coef``), so float32
states stay float32 and float64 states stay float64.

Sampling starts from noise that :func:`start_noise` draws, one stream for
all the clips of a call, and :func:`sample_batch` takes the drawn states.
The stream fills in clip order, so clip ``i`` is the same however many
clips are drawn after it. A caller that samples the same states many times
(every arm and step count of an evaluation) draws them once.

Inputs are checked once, where they enter a traversal, and never per
stride. ``NoiseSchedule`` rejects a schedule whose ``alpha_bar`` underflows
when it is built. :func:`euler_solve` checks its start timesteps (integer
dtype, range, and that ``n * s`` strides stay inside the schedule) and
:func:`euler_step` checks its pair and their order; :func:`solve_grid`
makes every grid of :func:`multistep_solve` and :func:`sample_batch` of
Python ints, strictly decreasing, from ``T - 1`` to ``-1``. The strides
then read the schedule's tables unchecked. Condition tokens are checked by
:func:`sample_batch` at entry and by a :func:`predictor` on the first call
with each token array; its evals call ``student_eps`` with
``checked=True``.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .nets import _check_tokens, student_eps
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

# Every update clamps the predicted clean sample at this bound: guided
# trajectories diverge without it, and with one rule for teacher traversals,
# the student's trained stride and sampling, a student equal to its teacher
# at n = 1 reproduces it and an arm samples as it was trained.
X0_CLIP = 4.0

SAMPLE_BATCH = 512  # rows per solve when sample_batch samples many clips


def cfg_combine(eps_cond, eps_uncond, w: float):
    """Guided prediction: eps_uncond + w * (eps_cond - eps_uncond)."""
    if ad.value_of(eps_cond).shape != ad.value_of(eps_uncond).shape:
        raise ValueError("conditional/unconditional shapes differ")
    return eps_uncond + w * (eps_cond - eps_uncond)


def predictor(base: dict, motion: dict, T: int, dims, w: float = 0.0):
    """The composed model as a predictor ``f(x, t, tokens) -> eps_hat``,
    guided at scale ``w`` against the null condition token when ``w > 0``.

    ``f`` checks a token array on the first call that passes it (a
    traversal passes one array to every stride) and takes ``t`` as checked
    by the traversal that calls it.
    """
    last_checked = None

    def f(x, t, tokens):
        nonlocal last_checked
        if tokens is not last_checked:
            tokens = last_checked = _check_tokens(tokens, dims)
        eps = student_eps(base, motion, x, t, tokens, T, dims, checked=True)
        if w > 0.0:
            null = np.full_like(tokens, dims.null_token)
            eps = cfg_combine(eps, student_eps(base, motion, x, t, null, T, dims,
                                               checked=True), w)
        return eps
    return f


def _ddim_update(x, eps, t, t_next, sched: NoiseSchedule):
    """sqrt(ab')·x0_hat + sqrt(1-ab')·eps, with x0_hat recovered from x and
    clamped at ``±X0_CLIP``. ``t`` and ``t_next`` index the schedule's
    tables unchecked: the traversal checked them at its entry."""
    xv = ad.value_of(x)
    a_t = _coef(sched._sqrt_ab_ext[t + 1], xv)
    b_t = _coef(sched._sqrt_1m_ab_ext[t + 1], xv)
    a_n = _coef(sched._sqrt_ab_ext[t_next + 1], xv)
    b_n = _coef(sched._sqrt_1m_ab_ext[t_next + 1], xv)
    x0_hat = ad.clamp((x - b_t * eps) / a_t, -X0_CLIP, X0_CLIP)
    return a_n * x0_hat + b_n * eps


def _stride(f, x, t, t_next, tokens, sched: NoiseSchedule):
    return _ddim_update(x, f(x, t, tokens), t, t_next, sched)


def euler_step(f, x_t, t, t_next, tokens, sched: NoiseSchedule):
    """One deterministic stride from t to t_next (< t), both checked here."""
    t, t_next = sched._check_t(t), sched._check_t(t_next)
    if not np.all(np.asarray(t_next) < np.asarray(t)):
        raise ValueError("t_next must precede t")
    return _stride(f, x_t, t, t_next, tokens, sched)


def euler_solve(f, x_t, t, tokens, n: int, s: int, sched: NoiseSchedule):
    """n successive Euler strides of s timesteps each; n = 0 returns x_t.

    ``t`` is checked once, here: integers in ``[-1, T)`` whose smallest
    entry leaves room for ``n * s`` timesteps above the clean boundary.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise ValueError("s must be a positive integer")
    t = sched._check_t(t)
    if np.size(t) and n * s > np.min(t) + 1:
        raise ValueError(f"stride plan n*s={n * s} overruns the clean boundary")
    x = x_t
    for k in range(n):
        x = _stride(f, x, t - k * s, t - (k + 1) * s, tokens, sched)
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


def multistep_solve(f, x_start, steps: int, tokens, sched: NoiseSchedule):
    """Second-order multistep traversal in x0 parameterisation.

    With a = sqrt(ab), sig = sqrt(1-ab), lam = ln(a/sig), h = lam' - lam,
    the interior update is

        x' = (sig'/sig) * x - a' * (exp(-h) - 1) * D

    where D extrapolates the current and previous x0 predictions:
    D = (1 + 1/(2r)) * x0 - (1/(2r)) * x0_prev with r = h_prev / h, and each
    x0 prediction is clamped at ``±X0_CLIP``.
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
        eps = f(x, t_cur, tokens)
        xv = ad.value_of(x)
        a_c = _coef(alphas[j], xv)
        s_c = _coef(sigmas[j], xv)
        x0 = ad.clamp((x - s_c * eps) / a_c, -X0_CLIP, X0_CLIP)
        # Python floats, so they take the dtype of the clips they scale.
        h = float(lams[j + 1] - lams[j])
        if x0_prev is None or not np.isfinite(h):
            x = _ddim_update(x, eps, t_cur, t_next, sched)
        else:
            r = h_prev / h
            d = (1.0 + 1.0 / (2.0 * r)) * x0 - (1.0 / (2.0 * r)) * x0_prev
            a_n = _coef(alphas[j + 1], xv)
            s_n = _coef(sigmas[j + 1], xv)
            x = (s_n / s_c) * x - a_n * float(np.expm1(-h)) * d
        x0_prev = x0
        h_prev = h
    return x


def start_noise(entropy, n: int, dims) -> np.ndarray:
    """(n, frames, frame_dim) float32 starting noise from the stream
    ``default_rng(entropy)``, filled in clip order: row ``i`` is the same
    for every ``n > i``. It is drawn in float64 and rounded, so the stream
    does not depend on the element type."""
    return np.random.default_rng(entropy).standard_normal(
        (n, dims.frames, dims.frame_dim)).astype(np.float32)


def sample_batch(bundle, sched: NoiseSchedule, steps: int, tokens, x_start,
                 w: float = 0.0, solver: str = "euler"):
    """Deterministic batch sampling from start states drawn by
    :func:`start_noise`, one row per entry of ``tokens``, guided at scale
    ``w`` (unguided at 0). The samples have the start states' float dtype:
    float32 from :func:`start_noise`, float64 from float64 states.

    The rows are solved in blocks of ``SAMPLE_BATCH``. Rows never interact,
    so the result does not depend on how the clips are partitioned into
    blocks, up to the last bits that BLAS rounding of different block
    sizes can move. In float32 those are float32 bits, and a guided
    traversal amplifies them (about 2e-5 at w 7.5 and 4 steps).
    """
    dims = bundle.dims
    tokens = _check_tokens(tokens, dims)
    x = ad.value_of(x_start)
    if tokens.ndim != 1 or x.shape[:1] != tokens.shape:
        raise ValueError(f"start states {x.shape} for tokens {tokens.shape}; "
                         "need one per clip")
    if solver not in ("euler", "multistep"):
        raise ValueError(f"unknown solver {solver!r}")
    f = predictor(bundle.base, bundle.motion, sched.T, dims, w)
    grid = solve_grid(sched.T, steps)

    def solve(xb, tok):
        if solver == "multistep":
            return multistep_solve(f, xb, steps, tok, sched)
        for j in range(steps):
            xb = _stride(f, xb, grid[j], grid[j + 1], tok, sched)
        return xb

    out = np.empty_like(x)
    for lo in range(0, len(x), SAMPLE_BATCH):
        rows = slice(lo, lo + SAMPLE_BATCH)
        out[rows] = solve(x[rows], tokens[rows])
    return out
