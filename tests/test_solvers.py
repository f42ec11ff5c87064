import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
from flowdistill.datagen import ANALYTIC_VAR, analytic_eps_star, analytic_mean
from flowdistill.solvers import predictor, solve_grid


@pytest.fixture(scope="module")
def sched():
    return fd.build_schedule(128, 0.002, 0.0985703125)


def analytic_f(sched):
    return lambda x, t, tokens: analytic_eps_star(x, t, sched)


def test_cfg_combine_identities():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal((4, 2))
    assert np.array_equal(fd.cfg_combine(a, b, 1.0), b + 1.0 * (a - b))
    np.testing.assert_allclose(fd.cfg_combine(a, b, 1.0), a, rtol=0, atol=1e-15)
    assert np.array_equal(fd.cfg_combine(a, b, 0.0), b)
    assert np.array_equal(fd.cfg_combine(a, a, 3.7), a)


def test_cfg_scale_example():
    u = np.random.default_rng(1).standard_normal((8, 2))
    out = fd.cfg_combine(u, np.zeros_like(u), 7.5)
    np.testing.assert_allclose(out, 7.5 * u, rtol=1e-15)


def test_cfg_combine_shape_mismatch():
    with pytest.raises(ValueError):
        fd.cfg_combine(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)


@settings(max_examples=40, deadline=None)
@given(w=st.floats(-3.0, 10.0), seed=st.integers(0, 2**31 - 1))
def test_cfg_combine_affine_in_w(w, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 3, 2))
    lhs = fd.cfg_combine(a, b, w)
    np.testing.assert_allclose(lhs, b + w * (a - b), rtol=0, atol=0)


def test_euler_step_consistent_noise_recovers_forward_process(sched):
    # Predictor that always returns the exact noise used for corruption.
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((5, 8, 2))
    eps = rng.standard_normal(x0.shape)
    t, t_next = 100, 60
    x_t = fd.add_noise(x0, eps, t, sched)
    out = fd.euler_step(lambda x, tt, c: eps, x_t, t, t_next, None, sched)
    np.testing.assert_allclose(out, fd.add_noise(x0, eps, t_next, sched),
                               rtol=0, atol=1e-12)


def test_euler_step_to_clean_boundary_returns_x0_hat(sched):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((3, 8, 2))
    eps = rng.standard_normal(x0.shape)
    x_t = fd.add_noise(x0, eps, 40, sched)
    out = fd.euler_step(lambda x, tt, c: eps, x_t, 40, -1, None, sched)
    np.testing.assert_allclose(out, x0, rtol=0, atol=1e-12)


def test_euler_step_rejects_non_decreasing_t(sched):
    x = np.zeros((1, 8, 2))
    with pytest.raises(ValueError):
        fd.euler_step(lambda *a: x, x, 10, 10, None, sched)
    with pytest.raises(ValueError):
        fd.euler_step(lambda *a: x, x, 10, 12, None, sched)


def test_euler_solve_zero_steps_is_identity(sched):
    x = np.random.default_rng(4).standard_normal((2, 8, 2))
    out = fd.euler_solve(lambda *a: x, x, 100, None, 0, 4, sched)
    assert out is x


def test_euler_solve_composition_identity(sched):
    f = analytic_f(sched)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 8, 2))
    for n, s in [(4, 8), (2, 16), (8, 4), (1, 32), (31, 4)]:
        t = sched.T - 1
        full = fd.euler_solve(f, x, t, None, n, s, sched)
        one = fd.euler_solve(f, x, t, None, 1, s, sched)
        rest = fd.euler_solve(f, one, t - s, None, n - 1, s, sched)
        assert np.array_equal(full, rest), (n, s)


def test_euler_solve_stride_overrun(sched):
    x = np.zeros((1, 8, 2))
    with pytest.raises(ValueError):
        fd.euler_solve(lambda *a: x, x, 10, None, 3, 4, sched)


def test_analytic_one_step_matches_scalar_arithmetic(sched):
    # Independent oracle: scalar evaluation of the update coefficients.
    f = analytic_f(sched)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 8, 2))
    t, t_next = 90, 58
    ab_t = float(sched.alpha_bar(t))
    ab_n = float(sched.alpha_bar(t_next))
    eps = np.sqrt(1 - ab_t) * x / (ab_t * ANALYTIC_VAR + 1 - ab_t)
    x0_hat = (x - np.sqrt(1 - ab_t) * eps) / np.sqrt(ab_t)
    expect = np.sqrt(ab_n) * x0_hat + np.sqrt(1 - ab_n) * eps
    got = fd.euler_step(f, x, t, t_next, None, sched)
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_student_teacher_gap_nonzero_before_distillation(sched):
    # One big stride differs from many small strides with the same exact
    # predictor; this is the gap progressive distillation minimises.
    f = analytic_f(sched)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((16, 8, 2))
    many = fd.euler_solve(f, x, sched.T - 1, None, 32, 4, sched)
    one = fd.euler_solve(f, x, sched.T - 1, None, 1, 128, sched)
    assert np.sqrt(np.mean((many - one) ** 2)) > 0.01


def test_solve_grid_uniform_when_divisible(sched):
    grid = solve_grid(128, 4)
    assert grid == [127, 95, 63, 31, -1]
    assert solve_grid(128, 1) == [127, -1]


def test_solve_grid_rejects_bad_steps(sched):
    with pytest.raises(ValueError):
        solve_grid(128, 0)
    with pytest.raises(ValueError):
        solve_grid(128, 129)


def test_multistep_single_step_equals_euler(sched):
    f = analytic_f(sched)
    x = np.random.default_rng(8).standard_normal((4, 8, 2))
    ms = fd.multistep_solve(f, x, 1, None, sched)
    eu = fd.euler_step(f, x, 127, -1, None, sched)
    assert np.array_equal(ms, eu)


def test_multistep_deterministic(sched):
    f = analytic_f(sched)
    x = np.random.default_rng(9).standard_normal((4, 8, 2))
    assert np.array_equal(
        fd.multistep_solve(f, x, 8, None, sched),
        fd.multistep_solve(f, x, 8, None, sched),
    )


def test_multistep_convergence_to_fine_euler_reference():
    # Error against a 1000-step Euler traversal decreases as 4 -> 8 -> 16 -> 32.
    sched = fd.build_schedule(1000, 0.00085, 0.012)
    f = analytic_f(sched)
    x = np.random.default_rng(10).standard_normal((64, 8, 2))
    ref = fd.euler_solve(f, x, 999, None, 1000, 1, sched)
    errs = []
    for k in (4, 8, 16, 32):
        got = fd.multistep_solve(f, x, k, None, sched)
        errs.append(float(np.sqrt(np.mean((got - ref) ** 2))))
    assert errs == sorted(errs, reverse=True), errs
    assert errs[-1] < 0.02


def test_multistep_terminal_statistics_match_target(sched):
    # Monte Carlo oracle: with the exact predictor the 32-step solve has to
    # reproduce the analytic Gaussian within sampling error.
    n = 10000
    rng = np.random.default_rng([7, 314159])
    x = rng.standard_normal((n, 8, 2))
    out = fd.multistep_solve(analytic_f(sched), x, 32, None, sched)
    flat = out.reshape(n, -1)
    mu = analytic_mean(8, 2).reshape(-1)
    z_mean = np.abs(flat.mean(axis=0) - mu) / np.sqrt(ANALYTIC_VAR / n)
    assert z_mean.max() < 3.0
    z_var = np.abs(flat.var(axis=0, ddof=1) - ANALYTIC_VAR)
    z_var /= ANALYTIC_VAR * np.sqrt(2.0 / (n - 1))
    assert z_var.max() < 3.0


def _bundle(seed):
    dims = fd.NetDims()
    rng = np.random.default_rng(seed)
    return fd.StudentBundle(fd.init_base(dims, rng), fd.init_motion(dims, rng, 0.05), dims)


def _sample_one(bundle, sched, steps, token, seed, **kw):
    """One clip: a one-row sample_batch from the noise stream ``seed``."""
    x = fd.start_noise(seed, 1, bundle.dims)
    return fd.sample_batch(bundle, sched, steps, [token], x, **kw)[0]


def test_sampling_determinism(sched):
    bundle = _bundle(11)
    a = _sample_one(bundle, sched, 4, 3, 1234)
    b = _sample_one(bundle, sched, 4, 3, 1234)
    assert np.array_equal(a, b)
    c = _sample_one(bundle, sched, 4, 3, 1235)
    assert not np.array_equal(a, c)


def test_sample_batch_independent_of_batch_partition(sched):
    bundle = _bundle(12)
    tokens = np.array([0, 1, 2, 3])
    x = fd.start_noise(10, len(tokens), bundle.dims)
    full = fd.sample_batch(bundle, sched, 4, tokens, x)
    singles = np.concatenate([
        fd.sample_batch(bundle, sched, 4, tokens[i:i + 1], x[i:i + 1])
        for i in range(len(tokens))
    ])
    np.testing.assert_allclose(full, singles, rtol=0, atol=1e-12)


def test_guided_predictor_combines_the_conditional_and_null_predictions(sched):
    bundle = _bundle(15)
    base, motion, dims = bundle
    x = fd.start_noise(3, 4, dims)
    tokens = np.array([0, 1, 2, 3])
    plain = predictor(base, motion, sched.T, dims)
    null = plain(x, 90, np.full(4, dims.null_token))
    guided = predictor(base, motion, sched.T, dims, 7.5)(x, 90, tokens)
    assert np.array_equal(guided, fd.cfg_combine(plain(x, 90, tokens), null, 7.5))


def test_sample_unconditional_null_token_path(sched):
    bundle = _bundle(13)
    dims = bundle.dims
    clip = _sample_one(bundle, sched, 2, dims.null_token, 7, w=0.0)
    assert clip.shape == (dims.frames, dims.frame_dim)
    assert np.all(np.isfinite(clip))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(entropy=st.one_of(st.integers(0, 2 ** 64),
                         st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=6)),
       k=st.integers(1, 60), n=st.integers(1, 60))
def test_start_noise_of_fewer_clips_is_a_prefix(entropy, k, n):
    k, n = min(k, n), max(k, n)
    dims = fd.NetDims(frames=3)
    many = fd.start_noise(entropy, n, dims)
    assert many.shape == (n, dims.frames, dims.frame_dim)
    assert fd.start_noise(entropy, k, dims).tobytes() == many[:k].tobytes()
    assert many.tobytes() == np.random.default_rng(entropy).standard_normal(
        (n, dims.frames, dims.frame_dim)).tobytes()


@pytest.mark.parametrize("tokens, rows", [
    ([0, 8 + 1], 2),   # past the null token of the default vocab of 8
    ([0, -1], 2),
    ([0, 1, 2], 2),    # one start state short
    ([0, 1], 3),
])
def test_sample_batch_rejects_bad_rows_before_any_forward(sched, monkeypatch,
                                                          tokens, rows):
    import flowdistill.solvers as solvers

    calls = []
    monkeypatch.setattr(solvers, "student_eps", lambda *a: calls.append(a))
    bundle = _bundle(14)
    x = fd.start_noise(0, rows, bundle.dims)
    with pytest.raises(ValueError):
        fd.sample_batch(bundle, sched, 4, np.array(tokens), x)
    assert calls == []
