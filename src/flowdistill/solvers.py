"""Deterministic sampling: one traversal, :func:`euler_solve`, of
stride-``s`` Euler (DDIM) updates.

Every traversal treats timestep ``-1`` as the clean boundary
(``alpha_bar = 1``), so a full traversal of a ``T``-step schedule takes
``n`` strides of ``s = T // n`` timesteps from ``t = T - 1`` down to
``t = -1``. Every untaped solve is one :func:`traverse`: the teacher's
datasets, the evaluation's reference and arm sets (every style's at once)
and the ``sample`` command through :func:`sample_batch`, and each
distillation iteration's teacher target and the student's detached stride
over all ranks at once.
:func:`rank_blocks` is the one rule that groups stacked ranks into blocks
of at most ``SAMPLE_BATCH`` rows: :func:`traverse` solves in its blocks,
``runner`` pretrains the base models in them and ``distill.run_stage``
tapes its steps in them, sized by the rows that the taped side encodes.

Predictors are callables ``f(x, t, tokens) -> eps_hat`` on row-major
(B, frames, frame_dim) states, their rows grouped by rank over a stack of
bases; the frame stacks of ``nets``'s layout rule stay inside ``nets``,
whose untaped float32 outputs keep the row-major layout's bits.
:func:`predictor` builds one from a model, and classifier-free
guidance is part of the predictor it returns, not of the traversal. The
one-step arithmetic is written against the generic autodiff ops, so a
predictor that returns a taped :class:`~flowdistill.autodiff.Var` yields a
differentiable update (this is how the student's single stride is
trained). Every update clamps the predicted clean sample at ``±X0_CLIP``,
so teacher traversals, the student's trained stride and sampling follow
one rule.

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
when it is built. :func:`euler_solve` checks its stride count and length
and its start timesteps (integer dtype, range, and that ``n * s`` strides
stay inside the schedule); :func:`sample_batch` checks that its step count
divides ``T``. The strides then read the schedule's tables unchecked.
Condition tokens are checked by :func:`sample_batch` at entry and by a
:func:`predictor` on the first call with each token array; its evals call
``student_eps`` with ``checked=True``.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .nets import _check_tokens, stack_size, student_eps
from .schedule import NoiseSchedule, _coef

__all__ = [
    "cfg_combine",
    "euler_solve",
    "start_noise",
    "sample_batch",
    "rank_blocks",
    "traverse",
]

# Every update clamps the predicted clean sample at this bound: guided
# trajectories diverge without it, and with one rule for teacher traversals,
# the student's trained stride and sampling, a student equal to its teacher
# at n = 1 reproduces it and an arm samples as it was trained.
X0_CLIP = 4.0

SAMPLE_BATCH = 512  # rows per block of a rank-stacked call


def cfg_combine(eps_cond, eps_uncond, w: float):
    """Guided prediction: eps_uncond + w * (eps_cond - eps_uncond)."""
    if ad.value_of(eps_cond).shape != ad.value_of(eps_uncond).shape:
        raise ValueError("conditional/unconditional shapes differ")
    return eps_uncond + w * (eps_cond - eps_uncond)


def predictor(base: dict, motion: dict, T: int, dims, w: float = 0.0):
    """The composed model as a predictor ``f(x, t, tokens) -> eps_hat``,
    guided at scale ``w`` against the null condition token when ``w > 0``.
    ``base`` may stack R bases on a leading rank axis; ``f`` then takes
    rows grouped by rank (``nets.student_eps``).

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


def _stride(f, x, t, t_next, tokens, sched: NoiseSchedule):
    """One Euler (DDIM) stride from ``t`` to ``t_next``:
    sqrt(ab')·x0_hat + sqrt(1-ab')·eps, with eps = f(x, t, tokens) and
    x0_hat recovered from x and clamped at ``±X0_CLIP``. ``t`` and
    ``t_next`` index the schedule's tables unchecked: the traversal checked
    them at its entry."""
    eps = f(x, t, tokens)
    xv = ad.value_of(x)
    a_t = _coef(sched._sqrt_ab_ext[t + 1], xv)
    b_t = _coef(sched._sqrt_1m_ab_ext[t + 1], xv)
    a_n = _coef(sched._sqrt_ab_ext[t_next + 1], xv)
    b_n = _coef(sched._sqrt_1m_ab_ext[t_next + 1], xv)
    x0_hat = ad.clamp((x - b_t * eps) / a_t, -X0_CLIP, X0_CLIP)
    return a_n * x0_hat + b_n * eps


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


def start_noise(entropy, n: int, dims) -> np.ndarray:
    """(n, frames, frame_dim) float32 starting noise from the stream
    ``default_rng(entropy)``, filled in clip order: row ``i`` is the same
    for every ``n > i``. It is drawn in float64 and rounded, so the stream
    does not depend on the element type."""
    return np.random.default_rng(entropy).standard_normal(
        (n, dims.frames, dims.frame_dim)).astype(np.float32)


def rank_blocks(ranks: int, per_rank: int) -> list:
    """The blocks of a rank-stacked call as ``(lo, hi)`` rank ranges:
    whole ranks of ``per_rank`` rows each go together up to
    ``SAMPLE_BATCH`` rows, and a rank whose rows alone exceed that is a
    block by itself.

    ``per_rank`` counts the rows a rank puts through the encoder that the
    bound is for: a traversal's rows, a pretraining step's batch, or the
    rows that one side of a distillation step tapes, which
    ``distill.run_stage`` counts per phase and side (``TAPED_PASSES``)."""
    span = max(1, SAMPLE_BATCH // max(per_rank, 1))  # ranks per block
    return [(lo, min(lo + span, ranks)) for lo in range(0, ranks, span)]


def traverse(base: dict, motion: dict, x_t, t, tokens, n: int, s: int,
             sched: NoiseSchedule, dims, w: float = 0.0) -> np.ndarray:
    """The untaped :func:`euler_solve` of ``n`` strides of ``s`` from
    ``x_t`` at ``t`` (a scalar, or one timestep per row), through the
    :func:`predictor` of ``base`` and ``motion`` guided at ``w``.

    ``base`` is one base, or R bases stacked on a leading rank axis with
    the rows grouped by rank (``nets.student_eps``). The rows are solved in
    the blocks of :func:`rank_blocks`: a block of every rank takes ``base``
    as it is, which is how one base is solved, and a rank whose rows alone
    exceed ``SAMPLE_BATCH`` is split into blocks of ``SAMPLE_BATCH`` rows.
    Rows never interact, so in float32 a block gives each rank the bits of
    a call on its rows and base alone; a rank split differently is equal
    up to the last bits that BLAS rounding of different block sizes can
    move.
    """
    ranks = stack_size(base)
    per_rank, rem = divmod(len(x_t), ranks)
    if rem:
        raise ValueError(f"{len(x_t)} rows do not split evenly over "
                         f"{ranks} stacked bases")
    out = np.empty_like(x_t)
    for lo, hi in rank_blocks(ranks, per_rank):
        block = base if hi - lo == ranks else {k: v[lo:hi] for k, v in base.items()}
        f = predictor(block, motion, sched.T, dims, w)
        for a in range(lo * per_rank, hi * per_rank, SAMPLE_BATCH):
            rows = slice(a, min(a + SAMPLE_BATCH, hi * per_rank))
            out[rows] = euler_solve(f, x_t[rows], t[rows] if np.ndim(t) else t,
                                    tokens[rows], n, s, sched)
    return out


def sample_batch(bundle, sched: NoiseSchedule, steps: int, tokens, x_start,
                 w: float = 0.0):
    """Deterministic batch sampling from start states drawn by
    :func:`start_noise`, one row per entry of ``tokens``, guided at scale
    ``w`` (unguided at 0): a full :func:`traverse` in ``steps`` strides of
    ``T // steps``, where ``steps`` must divide ``T``. The samples have the
    start states' float dtype: float32 from :func:`start_noise`, float64
    from float64 states.

    Rows never interact, so the result does not depend on how
    :func:`traverse` partitions the clips into blocks, up to the last bits
    that BLAS rounding of different block sizes can move. In float32 those
    are float32 bits, and a guided traversal amplifies them (about 2e-5 at
    w 7.5 and 4 steps).
    """
    dims = bundle.dims
    T = sched.T
    if steps < 1 or T % steps:
        raise ValueError(f"steps must divide T = {T}, got {steps}")
    tokens = _check_tokens(tokens, dims)
    x = ad.value_of(x_start)
    if tokens.ndim != 1 or x.shape[:1] != tokens.shape:
        raise ValueError(f"start states {x.shape} for tokens {tokens.shape}; "
                         "need one per clip")
    return traverse(bundle.base, bundle.motion, x, T - 1, tokens, steps, T // steps,
                    sched, dims, w)
