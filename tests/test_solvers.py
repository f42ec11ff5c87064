import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
from flowdistill.datagen import oracle_eps, style_by_name
from flowdistill.solvers import predictor, traverse


# A float64 test's tolerance carried to its float32 twin: the same multiple
# of the machine epsilon.
TO_FLOAT32 = float(np.finfo(np.float32).eps / np.finfo(np.float64).eps)


def analytic_f(sched):
    """The exact predictor of ``real_a``, N(0, I), on which every token
    predicts alike."""
    real_a = style_by_name("real_a")
    return lambda x, t, tokens: oracle_eps(real_a, x, t, np.zeros(len(x), int), sched)


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


def _consistent_noise_stride(sched, dtype):
    # Predictor that always returns the exact noise used for corruption.
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((5, 8, 2)).astype(dtype)
    eps = rng.standard_normal(x0.shape).astype(dtype)
    t, t_next = 100, 60
    x_t = fd.add_noise(x0, eps, t, sched)
    out = fd.euler_solve(lambda x, tt, c: eps, x_t, t, None, 1, t - t_next, sched)
    assert out.dtype == dtype
    return out, fd.add_noise(x0, eps, t_next, sched)


def test_euler_step_consistent_noise_recovers_forward_process(sched):
    out, want = _consistent_noise_stride(sched, np.float64)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_euler_step_consistent_noise_recovers_forward_process_float32(sched):
    out, want = _consistent_noise_stride(sched, np.float32)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * TO_FLOAT32)


def _stride_to_clean_boundary(sched, dtype):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((3, 8, 2)).astype(dtype)
    eps = rng.standard_normal(x0.shape).astype(dtype)
    t, t_next = 40, -1
    x_t = fd.add_noise(x0, eps, t, sched)
    out = fd.euler_solve(lambda x, tt, c: eps, x_t, t, None, 1, t - t_next, sched)
    assert out.dtype == dtype
    return out, x0


def test_euler_step_to_clean_boundary_returns_x0_hat(sched):
    out, x0 = _stride_to_clean_boundary(sched, np.float64)
    np.testing.assert_allclose(out, x0, rtol=0, atol=1e-12)


def test_euler_step_to_clean_boundary_returns_x0_hat_float32(sched):
    out, x0 = _stride_to_clean_boundary(sched, np.float32)
    np.testing.assert_allclose(out, x0, rtol=0, atol=1e-12 * TO_FLOAT32)


def test_euler_step_rejects_non_decreasing_t(sched):
    # A stride to the same or a later timestep: euler_solve's s < 1.
    x = np.zeros((1, 8, 2))
    with pytest.raises(ValueError):
        fd.euler_solve(lambda *a: x, x, 10, None, 1, 10 - 10, sched)
    with pytest.raises(ValueError):
        fd.euler_solve(lambda *a: x, x, 10, None, 1, 10 - 12, sched)


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


def _analytic_one_step(sched, dtype):
    """One analytic stride of ``dtype`` states, and its independent oracle:
    scalar evaluation of the update coefficients, in float64."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 8, 2)).astype(dtype)
    t, t_next = 90, 58
    ab_t = float(sched.alpha_bar(t))
    ab_n = float(sched.alpha_bar(t_next))
    x64 = x.astype(np.float64)
    eps = np.sqrt(1 - ab_t) * x64 / (ab_t * 1.0 + 1 - ab_t)
    x0_hat = (x64 - np.sqrt(1 - ab_t) * eps) / np.sqrt(ab_t)
    expect = np.sqrt(ab_n) * x0_hat + np.sqrt(1 - ab_n) * eps
    f = analytic_f(sched)
    got = fd.euler_solve(lambda x, t, c: f(x, t, c).astype(dtype), x, t, None, 1,
                         t - t_next, sched)
    assert got.dtype == dtype
    return got, expect


def test_analytic_one_step_matches_scalar_arithmetic(sched):
    got, expect = _analytic_one_step(sched, np.float64)
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_analytic_one_step_matches_scalar_arithmetic_float32(sched):
    got, expect = _analytic_one_step(sched, np.float32)
    np.testing.assert_allclose(got, expect, rtol=1e-13 * TO_FLOAT32)


def test_student_teacher_gap_nonzero_before_distillation(sched):
    # One big stride differs from many small strides with the same exact
    # predictor; this is the gap progressive distillation minimises.
    f = analytic_f(sched)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((16, 8, 2))
    many = fd.euler_solve(f, x, sched.T - 1, None, 32, 4, sched)
    one = fd.euler_solve(f, x, sched.T - 1, None, 1, 128, sched)
    assert np.sqrt(np.mean((many - one) ** 2)) > 0.01


def test_euler_terminal_statistics_match_target(sched):
    # Monte Carlo oracle for what ``schedule.SCHEDULE``'s endpoints were
    # chosen for: with the exact predictor, the teacher's 32-step traversal
    # reproduces the analytic Gaussian's mean within sampling error (largest
    # z 1.43; 1.48 at 128 steps). Deterministic Euler strides shrink its
    # variance, to 0.93 of the target's on average (0.89-0.96 per
    # coordinate), and by less as they shorten: 0.99 at 128 steps
    # (0.94-1.01), where the largest variance error halves.
    n = 10000
    rng = np.random.default_rng([7, 314159])
    x = rng.standard_normal((n, 8, 2))
    mu = np.zeros(16)
    var_err = []
    for steps, mean_kept, lo, hi in ((32, 0.93, 0.88, 0.96), (128, 0.99, 0.94, 1.02)):
        out = fd.euler_solve(analytic_f(sched), x, sched.T - 1, None, steps,
                             sched.T // steps, sched)
        flat = out.reshape(n, -1)
        z_mean = np.abs(flat.mean(axis=0) - mu) / np.sqrt(1.0 / n)
        assert z_mean.max() < 1.5, steps
        kept = flat.var(axis=0, ddof=1)  # of the target's unit variance
        assert round(kept.mean(), 2) == mean_kept and lo < kept.min() < kept.max() < hi
        var_err.append(np.abs(flat.var(axis=0, ddof=1) - 1.0).max())
    assert var_err[1] < var_err[0]


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


def _whole_and_one_by_one(sched, dtype):
    bundle = _bundle(12)
    tokens = np.array([0, 1, 2, 3])
    x = fd.start_noise(10, len(tokens), bundle.dims).astype(dtype)
    full = fd.sample_batch(bundle, sched, 4, tokens, x)
    singles = np.concatenate([
        fd.sample_batch(bundle, sched, 4, tokens[i:i + 1], x[i:i + 1])
        for i in range(len(tokens))
    ])
    assert full.dtype == singles.dtype == dtype
    return full, singles


def test_sample_batch_independent_of_batch_partition(sched):
    full, singles = _whole_and_one_by_one(sched, np.float64)
    np.testing.assert_allclose(full, singles, rtol=0, atol=1e-12)


def test_sample_batch_independent_of_batch_partition_float32(sched):
    full, singles = _whole_and_one_by_one(sched, np.float32)
    np.testing.assert_allclose(full, singles, rtol=0, atol=1e-12 * TO_FLOAT32)


def test_float32_guided_sampling_tracks_the_float64_reference(sched):
    # The same 32-step guided traversal from the same start states, once in
    # float32 (start_noise's states) and once in float64. The norm-wise
    # relative gap measured 1.0e-6 to 5.6e-6 (10 to 50 float32 epsilons)
    # over six bundles at w 7.5, clamp binding included; the bound is 5e-5.
    bundle = _bundle(30)
    tokens = np.arange(bundle.dims.vocab + 1).repeat(4)
    x = fd.start_noise(40, len(tokens), bundle.dims)
    got = fd.sample_batch(bundle, sched, 32, tokens, x, w=7.5)
    ref = fd.sample_batch(bundle, sched, 32, tokens, x.astype(np.float64), w=7.5)
    assert got.dtype == np.float32 and ref.dtype == np.float64
    assert np.linalg.norm(got - ref) <= 5e-5 * np.linalg.norm(ref)


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
        (n, dims.frames, dims.frame_dim)).astype(np.float32).tobytes()


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


@pytest.fixture
def check_counts(monkeypatch):
    """Counts of timestep checks (``NoiseSchedule._check_t``) and token
    checks (``nets._check_tokens``, under each of its bindings) made while
    a test runs."""
    import flowdistill.distill as distill
    import flowdistill.nets as nets
    import flowdistill.solvers as solvers

    counts = {"t": 0, "tokens": 0}
    check_t, check_tokens = fd.NoiseSchedule._check_t, nets._check_tokens

    def spy_t(self, *a, **kw):
        counts["t"] += 1
        return check_t(self, *a, **kw)

    def spy_tokens(*a, **kw):
        counts["tokens"] += 1
        return check_tokens(*a, **kw)

    monkeypatch.setattr(fd.NoiseSchedule, "_check_t", spy_t)
    for module in (nets, solvers, distill):
        monkeypatch.setattr(module, "_check_tokens", spy_tokens)
    return counts


def _counted(counts, run):
    counts.update(t=0, tokens=0)
    run()
    return dict(counts)


@pytest.mark.parametrize("w", [0.0, 7.5])
def test_euler_solve_checks_its_inputs_once_whatever_n(sched, check_counts, w):
    bundle = _bundle(16)
    x = fd.start_noise(4, 3, bundle.dims)
    t, tokens = np.array([127, 100, 64]), np.array([0, 1, bundle.dims.null_token])

    def solve(n):
        f = predictor(bundle.base, bundle.motion, sched.T, bundle.dims, w)
        return fd.euler_solve(f, x, t, tokens, n, 2, sched)

    got = [_counted(check_counts, lambda: solve(n)) for n in (1, 4, 16)]
    assert got[0] == got[1] == got[2] == {"t": 1, "tokens": 1}


def test_teacher_stride_checks_its_batch_a_fixed_number_of_times(sched, check_counts):
    from flowdistill.distill import StageConfig, _noised_stride, stage_timesteps

    bundle = _bundle(17)
    dims = bundle.dims
    rng = np.random.default_rng(18)

    def stride(to_steps, traversed):
        stage = StageConfig(128, to_steps, "mse_cfg", 1, cfg_scale=7.5)
        batch = {"x0": rng.standard_normal((8, dims.frames, dims.frame_dim)),
                 "eps": rng.standard_normal((8, dims.frames, dims.frame_dim)),
                 "t": rng.choice(stage_timesteps(stage, sched.T), 8),
                 "tokens": rng.integers(0, dims.vocab, 8)}
        if not traversed:
            return lambda: _noised_stride(batch, stage, sched, dims)

        def noised_and_traversed():
            b = _noised_stride(batch, stage, sched, dims)
            return traverse(bundle.base, bundle.motion, b["x_t"], b["t"],
                            b["tokens"], b["n"], b["s"], sched, dims,
                            stage.cfg_scale)
        return noised_and_traversed

    at_4, at_16 = (_counted(check_counts, stride(32, True)),
                   _counted(check_counts, stride(8, True)))
    assert at_4 == at_16
    assert at_4["t"] <= 2 and at_4["tokens"] <= 2
    # A student iteration's batch is noised and not traversed: its checks
    # run once, whatever the stage's stride count.
    noised = [_counted(check_counts, stride(to_steps, False)) for to_steps in (32, 8)]
    assert noised[0] == noised[1] == {"t": 1, "tokens": 1}


def test_sample_batch_checks_its_inputs_a_fixed_number_of_times(sched, check_counts):
    bundle = _bundle(19)
    tokens = np.array([0, 3, bundle.dims.null_token])
    x = fd.start_noise(5, len(tokens), bundle.dims)
    got = [_counted(check_counts, lambda: fd.sample_batch(
        bundle, sched, steps, tokens, x, w=2.0)) for steps in (2, 32)]
    assert got[0] == got[1]
    assert got[0]["t"] <= 1 and got[0]["tokens"] <= 2


def test_euler_solve_rejects_timesteps_at_entry(sched):
    x = np.zeros((2, 8, 2))
    f = lambda *a: x  # noqa: E731
    with pytest.raises(ValueError):
        fd.euler_solve(f, x, sched.T, None, 1, 1, sched)
    with pytest.raises(ValueError):
        fd.euler_solve(f, x, np.array([sched.T - 1, sched.T]), None, 1, 1, sched)
    with pytest.raises(TypeError):
        fd.euler_solve(f, x, 40.0, None, 1, 1, sched)
    with pytest.raises(TypeError):
        fd.euler_solve(f, x, np.array([40.0, 41.0]), None, 1, 1, sched)


def test_euler_solve_with_a_predictor_rejects_unknown_tokens(sched):
    bundle = _bundle(20)
    f = predictor(bundle.base, bundle.motion, sched.T, bundle.dims)
    x = fd.start_noise(6, 2, bundle.dims)
    for bad in ([0, bundle.dims.null_token + 1], [-1, 0]):
        with pytest.raises(ValueError):
            fd.euler_solve(f, x, np.array([40, 40]), np.array(bad), 2, 4, sched)
