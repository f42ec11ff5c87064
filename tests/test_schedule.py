import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowdistill.schedule import (
    add_noise,
    build_schedule,
    substitute_terminal_noise,
)
from flowdistill.solvers import euler_solve


def eps_to_x0(x_t, eps, t, sched):
    """The clean sample, clamped at +-4, that the Euler stride to the clean
    boundary (t = -1) recovers from ``x_t`` with ``eps`` as the noise
    prediction: one stride of ``t + 1`` timesteps. A stride has one length,
    so per-row timesteps take one stride per row."""
    if np.ndim(t):
        return np.concatenate([eps_to_x0(x_t[i:i + 1], eps[i:i + 1], int(t[i]), sched)
                               for i in range(len(t))])
    return euler_solve(lambda x, t, tokens: eps, x_t, t, None, 1, t + 1, sched)


def test_classic_linear_endpoints():
    sched = build_schedule(1000, 0.00085, 0.012)
    assert sched.betas[0] == pytest.approx(0.00085, abs=0)
    assert sched.betas[-1] == pytest.approx(0.012, abs=0)
    assert sched.T == 1000


def test_two_step_equal_betas():
    beta = 0.125
    sched = build_schedule(2, beta, beta)
    assert np.allclose(sched.alpha_bars, [1 - beta, (1 - beta) ** 2], atol=0, rtol=1e-15)


def test_alpha_bar_first_entry():
    sched = build_schedule(1000, 0.00085, 0.012)
    assert sched.alpha_bars[0] == pytest.approx(0.99915, abs=1e-12)


def test_alpha_bars_match_high_precision_product():
    # Oracle: 50-digit cumulative product of the same linearly spaced betas.
    T = 1000
    sched = build_schedule(T, 0.00085, 0.012)
    with mpmath.workdps(50):
        betas = [mpmath.mpf("0.00085")
                 + (mpmath.mpf("0.012") - mpmath.mpf("0.00085")) * i / (T - 1)
                 for i in range(T)]
        prod = mpmath.mpf(1)
        exact = []
        for b in betas:
            prod *= (1 - b)
            exact.append(float(prod))
    np.testing.assert_allclose(sched.alpha_bars, exact, rtol=1e-12)


def test_alpha_bars_recurrence_exact():
    sched = build_schedule(77, 0.003, 0.09)
    rebuilt = np.cumprod(1.0 - sched.betas)
    assert np.array_equal(sched.alpha_bars, rebuilt)
    for t in range(1, sched.T):
        assert sched.alpha_bars[t] == sched.alpha_bars[t - 1] * (1.0 - sched.betas[t])


def test_alpha_bars_strictly_decreasing_and_betas_increasing():
    sched = build_schedule(128, 0.002, 0.0985)
    assert np.all(np.diff(sched.betas) > 0)
    assert np.all(np.diff(sched.alpha_bars) < 0)


def test_clean_boundary_alpha_bar():
    sched = build_schedule(16, 0.01, 0.2)
    assert sched.alpha_bar(-1) == 1.0
    assert np.sqrt(1 - sched.alpha_bar(-1)) == 0.0


def test_the_shipped_schedule_ends_at_one_percent_signal(sched):
    # What ``schedule.SCHEDULE``'s rationale states: 128 timesteps, the
    # first stage's teacher's step count, and a terminal signal fraction
    # of 1%.
    assert sched.T == 128
    assert (sched.betas[0], sched.betas[-1]) == (0.0018, 0.068487)
    assert sched.alpha_bar(sched.T - 1) == pytest.approx(0.0099997, abs=1e-7)


@pytest.mark.parametrize("bad", [
    dict(T=1, beta_start=0.1, beta_end=0.2),
    dict(T=10, beta_start=0.0, beta_end=0.2),
    dict(T=10, beta_start=0.3, beta_end=0.2),
    dict(T=10, beta_start=0.1, beta_end=1.0),
    dict(T=10, beta_start=float("nan"), beta_end=0.2),
    dict(T=10, beta_start=0.1, beta_end=float("inf")),
])
def test_build_schedule_rejects_bad_inputs(bad):
    with pytest.raises(ValueError):
        build_schedule(**bad)


def test_build_schedule_rejects_an_alpha_bar_that_underflows():
    # prod(1 - beta) over 2000 steps of beta in [0.5, 0.9] is below 1e-1000.
    with pytest.raises(ValueError, match="underflows"):
        build_schedule(2000, 0.5, 0.9)
    # At 560 steps the last alpha_bar is a subnormal, still positive.
    sched = build_schedule(560, 0.5, 0.9)
    assert 0.0 < sched.alpha_bar(sched.T - 1) < 1e-300


def test_integer_timesteps_are_range_checked_like_arrays():
    sched = build_schedule(16, 0.01, 0.2)
    for t in (16, -2):
        for form in (t, np.int64(t), np.array([0, t])):
            with pytest.raises(ValueError, match="out of range"):
                sched.alpha_bar(form)
    assert sched.alpha_bar(-1) == sched.alpha_bar(np.int64(-1)) == 1.0
    assert np.sqrt(sched.alpha_bar(7)) == np.sqrt(sched.alpha_bar(np.array(7)))
    with pytest.raises(TypeError):
        sched.alpha_bar(3.0)


# A float64 test's tolerance carried to its float32 twin: the same multiple
# of the machine epsilon.
TO_FLOAT32 = float(np.finfo(np.float32).eps / np.finfo(np.float64).eps)


def _round_trip(x0, eps, t, sched):
    """``x0`` back from ``add_noise``, in the dtype of ``x0`` and ``eps``."""
    x_t = add_noise(x0, eps, t, sched)
    back = eps_to_x0(x_t, eps, t, sched)
    assert x_t.dtype == back.dtype == x0.dtype
    return back


def test_add_noise_boundaries(sched):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((8, 2))
    eps = rng.standard_normal((8, 2))
    # alpha_bar = 1 at the clean boundary is only reachable via t = -1,
    # which add_noise rejects; emulate with the identity checks instead.
    almost_clean = add_noise(x0, np.zeros_like(eps), 0, sched)
    assert np.allclose(almost_clean, np.sqrt(sched.alpha_bar(0)) * x0)
    scaled = add_noise(np.zeros_like(x0), eps, sched.T - 1, sched)
    assert np.allclose(scaled, np.sqrt(1 - sched.alpha_bar(sched.T - 1)) * eps)


def test_add_noise_scalar_example(sched):
    # x0 = 2u, eps = u, alpha_bar = 0.25 -> output = u + sqrt(0.75) u.
    u = np.random.default_rng(1).standard_normal((4, 2))
    t = int(np.argmin(np.abs(sched.alpha_bars - 0.25)))
    ab = sched.alpha_bars[t]
    out = add_noise(2 * u, u, t, sched)
    expected = (2 * np.sqrt(ab) + np.sqrt(1 - ab)) * u
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_add_noise_shape_and_range_errors(sched):
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        add_noise(x, np.zeros((3, 2)), 5, sched)
    with pytest.raises(ValueError):
        add_noise(x, x, sched.T, sched)
    with pytest.raises(ValueError):
        add_noise(x, x, -1, sched)


def _inverts_add_noise(sched, dtype, tol):
    rng = np.random.default_rng(2)
    for _ in range(25):
        x0 = rng.standard_normal((6, 3)).astype(dtype)
        eps = rng.standard_normal((6, 3)).astype(dtype)
        t = int(rng.integers(0, sched.T))
        back = _round_trip(x0, eps, t, sched)
        assert np.max(np.abs(back - x0)) < tol


def test_eps_to_x0_inverts_add_noise(sched):
    _inverts_add_noise(sched, np.float64, 1e-10)


def test_eps_to_x0_inverts_add_noise_float32(sched):
    _inverts_add_noise(sched, np.float32, 1e-10 * TO_FLOAT32)


def _inverts_per_row(sched, dtype, tol):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((32, 8, 2)).astype(dtype)
    eps = rng.standard_normal(x0.shape).astype(dtype)
    t = rng.integers(0, sched.T, size=32)
    back = _round_trip(x0, eps, t, sched)
    assert np.max(np.abs(back - x0)) < tol


def test_eps_to_x0_vector_timesteps(sched):
    _inverts_per_row(sched, np.float64, 1e-10)


def test_eps_to_x0_vector_timesteps_float32(sched):
    _inverts_per_row(sched, np.float32, 1e-10 * TO_FLOAT32)


def test_eps_to_x0_zero_eps(sched):
    x_t = np.random.default_rng(4).standard_normal((5, 2))
    out = eps_to_x0(x_t, np.zeros_like(x_t), 10, sched)
    np.testing.assert_allclose(out, x_t / np.sqrt(sched.alpha_bar(10)), rtol=1e-15)


def test_substitute_terminal_noise(sched):
    rng = np.random.default_rng(5)
    x_t = rng.standard_normal((8, 2))
    eps = rng.standard_normal((8, 2))
    out = substitute_terminal_noise(x_t, eps, sched.T - 1, sched)
    assert out is eps  # bit-identical by construction
    assert substitute_terminal_noise(x_t, eps, 0, sched) is x_t
    assert substitute_terminal_noise(x_t, eps, sched.T - 2, sched) is x_t


def test_substitute_terminal_noise_vectorised(sched):
    rng = np.random.default_rng(6)
    x_t = rng.standard_normal((4, 8, 2))
    eps = rng.standard_normal((4, 8, 2))
    t = np.array([0, sched.T - 1, sched.T - 2, sched.T - 1])
    out = substitute_terminal_noise(x_t, eps, t, sched)
    assert np.array_equal(out[1], eps[1]) and np.array_equal(out[3], eps[3])
    assert np.array_equal(out[0], x_t[0]) and np.array_equal(out[2], x_t[2])


@settings(max_examples=60, deadline=None)
@given(
    t_frac=st.floats(0.0, 1.0),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(t_frac, scale, seed):
    _round_trip_within(t_frac, scale, seed, np.float64, 1e-10)


@settings(max_examples=60, deadline=None)
@given(
    t_frac=st.floats(0.0, 1.0),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property_float32(t_frac, scale, seed):
    _round_trip_within(t_frac, scale, seed, np.float32, 1e-10 * TO_FLOAT32)


def _round_trip_within(t_frac, scale, seed, dtype, tol):
    sched = build_schedule(64, 0.001, 0.2)
    rng = np.random.default_rng(seed)
    x0 = (scale * rng.standard_normal((3, 2))).astype(dtype)
    eps = rng.standard_normal((3, 2)).astype(dtype)
    t = min(int(t_frac * sched.T), sched.T - 1)
    back = _round_trip(x0, eps, t, sched)
    # Every stride clamps the recovered clean sample at +-4.
    assert np.max(np.abs(back - np.clip(x0, -4, 4))) <= tol * max(1.0, scale)
