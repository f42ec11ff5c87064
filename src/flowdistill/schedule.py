"""Discrete variance-preserving diffusion schedule and forward-process ops.

The schedule is a linearly spaced sequence of per-step variance increments
``betas`` with cumulative signal fractions ``alpha_bars``. Timestep ``-1``
is the clean-data boundary (``alpha_bar == 1``) so that a full solver
traversal may end one stride past ``t = 0``.

Every ``alpha_bar`` is positive: a schedule whose cumulative product
underflows to 0 is rejected when it is built, so no lookup has to check.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "NoiseSchedule",
    "build_schedule",
    "add_noise",
    "substitute_terminal_noise",
]


class NoiseSchedule:
    """Linear beta schedule over ``T`` discrete timesteps.

    Attributes:
        T:          Number of timesteps.
        betas:      (T,) per-step variance increments, each in (0, 1).
        alpha_bars: (T,) cumulative products of ``1 - beta``.
    """

    def __init__(self, betas: np.ndarray):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 2:
            raise ValueError("schedule needs at least 2 timesteps")
        if not np.all(np.isfinite(betas)):
            raise ValueError("betas must be finite")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if np.any(np.diff(betas) < 0.0):
            raise ValueError("betas must be non-decreasing")
        self.T = int(betas.size)
        self.betas = betas
        self.alpha_bars = np.cumprod(1.0 - betas)
        if self.alpha_bars[-1] <= 0.0:
            raise ValueError("alpha_bar underflows to 0; shorten the schedule "
                             "or lower the betas")
        # Lookup tables indexed by t + 1 so that t = -1 maps to the clean
        # boundary alpha_bar = 1.
        self._ab_ext = np.concatenate([[1.0], self.alpha_bars])
        self._sqrt_ab_ext = np.sqrt(self._ab_ext)
        self._sqrt_1m_ab_ext = np.sqrt(1.0 - self._ab_ext)
        for arr in (self.betas, self.alpha_bars, self._ab_ext,
                    self._sqrt_ab_ext, self._sqrt_1m_ab_ext):
            arr.setflags(write=False)

    def _check_t(self, t, lo: int = -1):
        # Solver grids are Python ints: one comparison checks them.
        if type(t) is int:
            if not lo <= t < self.T:
                raise ValueError(f"timestep out of range [{lo}, {self.T})")
            return t
        t = np.asarray(t)
        if not np.issubdtype(t.dtype, np.integer):
            raise TypeError("timesteps must be integers")
        if np.any(t < lo) or np.any(t >= self.T):
            raise ValueError(f"timestep out of range [{lo}, {self.T})")
        return t

    def alpha_bar(self, t):
        """alpha_bar at integer timestep(s) t, with alpha_bar(-1) = 1."""
        return self._ab_ext[self._check_t(t) + 1]

    def sqrt_alpha_bar(self, t):
        return self._sqrt_ab_ext[self._check_t(t) + 1]

    def sqrt_one_minus_alpha_bar(self, t):
        return self._sqrt_1m_ab_ext[self._check_t(t) + 1]

    def __repr__(self):
        return (f"NoiseSchedule(T={self.T}, beta_start={self.betas[0]:.6g}, "
                f"beta_end={self.betas[-1]:.6g})")


def build_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly spaced schedule from ``beta_start`` to ``beta_end`` inclusive."""
    if not isinstance(T, (int, np.integer)) or T < 2:
        raise ValueError("T must be an integer >= 2")
    for v in (beta_start, beta_end):
        if not np.isfinite(v):
            raise ValueError("beta endpoints must be finite")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, T))


def _coef(values: np.ndarray, ndim: int):
    """Reshape per-sample coefficients to broadcast over clip axes."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return arr
    return arr.reshape(arr.shape + (1,) * (ndim - arr.ndim))


def add_noise(x0, eps, t, sched: NoiseSchedule):
    """Forward process: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps.

    ``t`` may be a scalar or a per-sample integer array broadcast over the
    leading axis of ``x0``.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    sched._check_t(t, lo=0)
    a = _coef(sched.sqrt_alpha_bar(t), x0.ndim)
    b = _coef(sched.sqrt_one_minus_alpha_bar(t), x0.ndim)
    return a * x0 + b * eps


def substitute_terminal_noise(x_t, eps, t, sched: NoiseSchedule):
    """Replace the model input with pure noise at the last timestep.

    Returns ``eps`` where ``t == T - 1`` and ``x_t`` elsewhere, bit-exactly.
    """
    x_t = np.asarray(x_t)
    eps = np.asarray(eps)
    if x_t.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x_t.shape} vs {eps.shape}")
    t_arr = np.asarray(t)
    if t_arr.ndim == 0:
        return eps if int(t_arr) == sched.T - 1 else x_t
    mask = (t_arr == sched.T - 1).reshape(t_arr.shape + (1,) * (x_t.ndim - t_arr.ndim))
    return np.where(mask, eps, x_t)
