import tracemalloc

import numpy as np
import pytest

import flowdistill as fd
from flowdistill import autodiff as ad
from flowdistill.datagen import oracle_eps, sample_ground_truth, style_by_name
from flowdistill.nets import (
    BASE_KEYS,
    MOTION_KEYS,
    disc_pair_prob,
    disc_single_prob,
    draw_rows,
    DISC_BACKBONE_KEYS,
    DISC_HEAD_PAIR_KEYS,
    DISC_HEAD_SINGLE_KEYS,
    init_discriminator,
    relaxed_discriminator,
    student_eps,
    time_features,
)


@pytest.fixture(scope="module")
def bundle(dims):
    rng = np.random.default_rng(0)
    return fd.StudentBundle(fd.init_base(dims, rng), fd.init_motion(dims, rng, 0.05), dims)


def test_zero_motion_matches_base_bitwise(sched, dims):
    rng = np.random.default_rng(1)
    base = fd.init_base(dims, rng)
    zero = fd.StudentBundle(base, fd.init_motion(dims, np.random.default_rng(1729)), dims)
    x = rng.standard_normal((6, dims.frames, dims.frame_dim))
    tokens = rng.integers(0, dims.vocab, 6)
    with_motion = student_eps(base, zero.motion, x, 50, tokens,
                              sched.T, dims)
    base_only = student_eps(base, None, x, 50, tokens, sched.T, dims)
    assert np.array_equal(with_motion, base_only)


def test_forward_student_deterministic(sched, bundle, dims):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, dims.frames, dims.frame_dim))
    tokens = np.array([0, 1, dims.null_token])
    args = (bundle.base, bundle.motion, x, 17, tokens, sched.T, dims)
    a, b = student_eps(*args), student_eps(*args)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("per_row_t", [False, True], ids=["scalar t", "per-row t"])
@pytest.mark.parametrize("ranks", [1, 3, 8])
def test_rank_stacked_student_eps_equals_the_per_rank_calls_bitwise(
        sched, bundle, dims, ranks, per_row_t):
    # R distinct float32 bases stacked on a leading axis, rows grouped by
    # rank: each rank's block is the call on its rows and its base alone.
    rows = 64
    rng = np.random.default_rng(40 + ranks)
    bases = [fd.init_base(dims, rng) for _ in range(ranks)]
    stacked = {k: np.stack([b[k] for b in bases]) for k in BASE_KEYS}
    x = fd.start_noise(ranks, ranks * rows, dims)
    tokens = rng.integers(0, dims.vocab + 1, ranks * rows)
    t = rng.integers(-1, sched.T, ranks * rows) if per_row_t else 37
    got = student_eps(stacked, bundle.motion, x, t, tokens, sched.T, dims)
    assert got.shape == x.shape and got.dtype == np.float32
    assert got.flags.c_contiguous
    for r, base in enumerate(bases):
        own = slice(r * rows, (r + 1) * rows)
        want = student_eps(base, bundle.motion, x[own],
                           t[own] if per_row_t else t, tokens[own], sched.T, dims)
        np.testing.assert_array_equal(got[own], want, strict=True)


def test_rank_stacked_student_eps_refuses_rows_that_do_not_split(sched, bundle, dims):
    stacked = {k: np.stack([v, v]) for k, v in bundle.base.items()}
    x = fd.start_noise(0, 5, dims)
    with pytest.raises(ValueError, match="5 rows do not split evenly over 2"):
        student_eps(stacked, bundle.motion, x, 3, np.zeros(5, int), sched.T, dims)


def test_untaped_student_forward_peak_memory_at_batch_512(sched, bundle, dims):
    # Measured in (B, F, hidden) float64 arrays: 5.26 when every pointwise
    # op made a fresh temporary, 4.38 with one buffer per sigmoid chain,
    # 3.63 once the motion branch also frees its state before the residual.
    B = 512
    rng = np.random.default_rng(3)
    x = rng.standard_normal((B, dims.frames, dims.frame_dim))
    tokens = rng.integers(0, dims.vocab, B)
    args = (bundle.base, bundle.motion, x, 60, tokens, sched.T, dims)
    student_eps(*args)  # fill the time-feature cache first
    tracemalloc.start()
    try:
        student_eps(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * B * dims.frames * dims.hidden * 8


def test_forward_student_rejects_unknown_token(sched, bundle, dims):
    x = np.zeros((1, dims.frames, dims.frame_dim))
    with pytest.raises(ValueError):
        student_eps(bundle.base, bundle.motion, x, 5,
                    np.array([dims.vocab + 1]), sched.T, dims)


@pytest.mark.parametrize("t", [np.array([-3, -3]), np.array([5, 128]), 128, -2])
def test_forward_student_rejects_out_of_range_timesteps(sched, bundle, dims, t):
    # time_features indexes its table with t + 1, so t = -3 read row -2,
    # which is t = 126's.
    x = np.zeros((2, dims.frames, dims.frame_dim))
    with pytest.raises(ValueError, match="timestep"):
        student_eps(bundle.base, bundle.motion, x, t, np.array([0, 1]),
                    sched.T, dims)


@pytest.mark.parametrize("t, t_next", [(np.array([5, 5]), np.array([-3, -3])),
                                       (np.array([128, 40]), np.array([20, 20]))])
def test_discriminators_reject_out_of_range_timesteps(sched, dims, bundle, t, t_next):
    rng = np.random.default_rng(21)
    disc = init_discriminator(dims, 1, rng, backbone_from=bundle)
    relaxed = relaxed_discriminator(disc, dims, rng)
    x = rng.standard_normal((2, dims.frames, dims.frame_dim))
    tokens = np.array([0, 1])
    with pytest.raises(ValueError, match="timestep"):
        _pair(disc, x, x, t, t_next, tokens, 0, sched)
    if np.min(t_next) < -1:
        with pytest.raises(ValueError, match="timestep"):
            _single(relaxed, x, t_next, tokens, 0, sched)
    else:
        with pytest.raises(ValueError, match="timestep"):
            _single(relaxed, x, t, tokens, 0, sched)


def test_time_features_cover_clean_boundary(dims):
    feats = time_features(np.array([-1, 0, 5]), 128, dims.time_dim)
    assert feats.shape == (3, dims.time_dim)
    assert np.all(np.isfinite(feats))


def _pair(disc, x_t, x_next, t, t_next, tokens, flow_idx, sched):
    return disc_pair_prob(disc, x_t, x_next, t, t_next, tokens, flow_idx,
                          sched.T, fd.NetDims())


def _single(disc, x_next, t_next, tokens, flow_idx, sched):
    return disc_single_prob(disc, x_next, t_next, tokens, flow_idx,
                            sched.T, fd.NetDims())


def test_discriminator_probability_range_and_determinism(sched, dims, bundle):
    rng = np.random.default_rng(3)
    disc = init_discriminator(dims, 3, rng, backbone_from=bundle)
    # Randomise heads so scores are generic.
    disc["hp2_w"] = rng.normal(0, 0.5, disc["hp2_w"].shape).astype(np.float32)
    relaxed = relaxed_discriminator(disc, dims, rng)
    relaxed["hs2_w"] = rng.normal(0, 0.5, relaxed["hs2_w"].shape).astype(np.float32)
    x_t = rng.standard_normal((5, dims.frames, dims.frame_dim))
    x_n = rng.standard_normal((5, dims.frames, dims.frame_dim))
    tokens = rng.integers(0, dims.vocab, 5)
    p = _pair(disc, x_t, x_n, 60, 28, tokens, 1, sched)
    q = _single(relaxed, x_n, 28, tokens, 1, sched)
    for probs in (p, q):
        vals = np.asarray(ad.value_of(probs))
        assert np.all((vals > 0) & (vals < 1))
    assert np.array_equal(
        ad.value_of(_pair(disc, x_t, x_n, 60, 28, tokens, 1, sched)),
        ad.value_of(p))


def test_fresh_heads_output_near_half(sched, dims, bundle):
    # Head output layers start near zero, so fresh probabilities sit at 0.5
    # up to a percent-level wobble (which keeps gradients flowing).
    rng = np.random.default_rng(4)
    disc = init_discriminator(dims, 2, rng, backbone_from=bundle)
    x = rng.standard_normal((4, dims.frames, dims.frame_dim))
    tokens = np.zeros(4, dtype=int)
    p = _pair(disc, x, x + 0.1, 40, 8, tokens, 0, sched)
    assert np.all(np.abs(np.asarray(p) - 0.5) < 0.02)
    q = _single(relaxed_discriminator(disc, dims, rng), x, 8, tokens, 0, sched)
    assert np.all(np.abs(np.asarray(q) - 0.5) < 0.02)


def test_flow_index_changes_score_when_embeddings_differ(sched, dims, bundle):
    rng = np.random.default_rng(5)
    disc = init_discriminator(dims, 2, rng, backbone_from=bundle)
    disc["flow_emb"] = rng.normal(0, 0.5, disc["flow_emb"].shape).astype(np.float32)
    disc["hp2_w"] = rng.normal(0, 0.5, disc["hp2_w"].shape).astype(np.float32)
    x_t = rng.standard_normal((2, dims.frames, dims.frame_dim))
    x_n = rng.standard_normal((2, dims.frames, dims.frame_dim))
    tokens = np.zeros(2, dtype=int)
    p0 = np.asarray(_pair(disc, x_t, x_n, 70, 38, tokens, 0, sched))
    p1 = np.asarray(_pair(disc, x_t, x_n, 70, 38, tokens, 1, sched))
    assert not np.array_equal(p0, p1)


def test_unregistered_flow_index_rejected(sched, dims, bundle):
    # The flow count is the row count of flow_emb, here 2.
    disc = init_discriminator(dims, 2, np.random.default_rng(6), backbone_from=bundle)
    relaxed = relaxed_discriminator(disc, dims, np.random.default_rng(7))
    x = np.zeros((1, dims.frames, dims.frame_dim))
    tokens = np.zeros(1, dtype=int)
    for flow_idx in (2, -1):
        with pytest.raises(ValueError, match=f"unregistered flow index {flow_idx}"):
            _pair(disc, x, x, 50, 10, tokens, flow_idx, sched)
        with pytest.raises(ValueError, match=f"unregistered flow index {flow_idx}"):
            _single(relaxed, x, 10, tokens, flow_idx, sched)


def test_conditional_disc_requires_ordered_timesteps(sched, dims, bundle):
    disc = init_discriminator(dims, 2, np.random.default_rng(7), backbone_from=bundle)
    x = np.zeros((1, dims.frames, dims.frame_dim))
    with pytest.raises(ValueError):
        _pair(disc, x, x, 10, 50, np.zeros(1, dtype=int), 0, sched)


def test_stacked_candidates_score_as_separate_calls(sched, dims, bundle):
    rng = np.random.default_rng(9)
    disc = init_discriminator(dims, 2, rng, backbone_from=bundle)
    disc["hp2_w"] = rng.normal(0, 0.5, disc["hp2_w"].shape).astype(np.float32)
    relaxed = relaxed_discriminator(disc, dims, rng)
    relaxed["hs2_w"] = rng.normal(0, 0.5, relaxed["hs2_w"].shape).astype(np.float32)
    x_t = rng.standard_normal((3, dims.frames, dims.frame_dim))
    a, b = rng.standard_normal((2, 3, dims.frames, dims.frame_dim))
    t, t_next = np.array([70, 40, 90]), np.array([38, 8, 58])
    tokens = rng.integers(0, dims.vocab, 3)
    stacked = np.concatenate([a, b])
    np.testing.assert_allclose(
        _pair(disc, x_t, stacked, t, t_next, tokens, 1, sched),
        np.concatenate([_pair(disc, x_t, x, t, t_next, tokens, 1, sched) for x in (a, b)]),
        rtol=1e-12)
    np.testing.assert_allclose(
        _single(relaxed, stacked, t_next, tokens, 1, sched),
        np.concatenate([_single(relaxed, x, t_next, tokens, 1, sched) for x in (a, b)]),
        rtol=1e-12)
    with pytest.raises(ValueError, match="multiple"):
        _single(relaxed, stacked[:5], t_next, tokens, 1, sched)


def test_relaxed_backbone_gradients_nonzero(sched, dims, bundle):
    # The whole discriminator trains, including the shared backbone.
    rng = np.random.default_rng(8)
    disc = relaxed_discriminator(init_discriminator(dims, 2, rng, backbone_from=bundle),
                                 dims, rng)
    disc["hs2_w"] = rng.normal(0, 0.5, disc["hs2_w"].shape).astype(np.float32)
    x = rng.standard_normal((3, dims.frames, dims.frame_dim))
    tokens = rng.integers(0, dims.vocab, 3)
    dvars = {k: ad.Var(v) for k, v in disc.items()}
    p = disc_single_prob(dvars, x, 20, tokens, 0, sched.T, dims)
    ad.backward(ad.mean_all(ad.log(p)))
    for key in ("w1", "w2", "mix", "time_w"):
        assert dvars[key].grad is not None
        assert np.any(dvars[key].grad != 0), key


def test_relaxed_discriminator_swaps_the_head_and_keeps_backbone(dims, bundle):
    rng = np.random.default_rng(9)
    disc = init_discriminator(dims, 2, rng, backbone_from=bundle)
    disc["flow_emb"] = rng.normal(0, 0.5, disc["flow_emb"].shape).astype(np.float32)
    assert set(disc) == {*DISC_BACKBONE_KEYS, "flow_emb", *DISC_HEAD_PAIR_KEYS}
    relaxed = relaxed_discriminator(disc, dims, np.random.default_rng(10))
    assert set(relaxed) == {*DISC_BACKBONE_KEYS, "flow_emb", *DISC_HEAD_SINGLE_KEYS}
    assert np.abs(relaxed["hs2_w"]).max() < 0.05  # near-zero fresh head
    assert np.any(relaxed["hs2_w"] != 0)
    for key in (*DISC_BACKBONE_KEYS, "flow_emb"):
        assert relaxed[key] is disc[key], key
    # A fresh head from another stream differs.
    other = relaxed_discriminator(disc, dims, np.random.default_rng(11))
    assert not np.array_equal(relaxed["hs1_w"], other["hs1_w"])


def test_pretrain_base_learns_analytic_predictor(sched, dims):
    ds = sample_ground_truth(style_by_name("real_a"), 8000, [99, 1],
                             frames=dims.frames, vocab=dims.vocab)
    [(base, history)] = fd.pretrain_base([ds], sched, dims, 4000, [[99, 2]])
    assert np.mean(history[-50:]) < np.mean(history[:50])
    bundle = fd.StudentBundle(base, fd.init_motion(dims, np.random.default_rng(1729)), dims)
    rng = np.random.default_rng(11)
    for t in (32, 64, 96):
        x0 = rng.standard_normal((512, dims.frames, dims.frame_dim))  # real_a: N(0, I)
        eps = rng.standard_normal(x0.shape)
        x_t = fd.add_noise(x0, eps, t, sched)
        tokens = rng.integers(0, dims.vocab, 512)
        pred = student_eps(bundle.base, bundle.motion, x_t, t, tokens, sched.T, dims)
        star = oracle_eps(style_by_name("real_a"), x_t, t, tokens, sched, dims.vocab)
        rms = float(np.sqrt(np.mean((pred - star) ** 2)))
        assert rms < 5e-2, (t, rms)
        assert float(np.mean((pred - star) ** 2)) < 0.1


def test_pretrain_zero_lr_keeps_parameters(sched, dims):
    ds = sample_ground_truth(style_by_name("real_a"), 256, [98, 1],
                             frames=dims.frames, vocab=dims.vocab)
    [(base, _)] = fd.pretrain_base([ds], sched, dims, 3, [[98, 2]], lr=0.0)
    fresh = fd.init_base(dims, np.random.default_rng([98, 2]))
    for key in BASE_KEYS:
        assert np.array_equal(base[key], fresh[key]), key


def test_pretrain_motion_trains_only_motion(sched, dims):
    ds = sample_ground_truth(style_by_name("default"), 2048, [97, 1],
                             frames=dims.frames, vocab=dims.vocab)
    [(base, _)] = fd.pretrain_base([ds], sched, dims, 400, [[97, 2]])
    frozen = {k: v.copy() for k, v in base.items()}
    motion, history = fd.pretrain_motion(base, ds, sched, dims, 300, [97, 3])
    assert np.mean(history[-20:]) < np.mean(history[:20])
    for key in BASE_KEYS:
        assert np.array_equal(base[key], frozen[key]), key
    assert np.any(motion["mix_out"] != 0)


def test_draw_rows_on_the_full_grid_draws_integer_timesteps(sched, dims):
    # Pretraining draws over np.arange(T): the same draws as timesteps from
    # rng.integers(0, T), in the order index, dropout, timestep, noise.
    ds = sample_ground_truth(style_by_name("real_a"), 64, [96, 1],
                             frames=dims.frames, vocab=dims.vocab)
    got = draw_rows(ds, 32, np.random.default_rng(5), np.arange(sched.T),
                    cond_dropout=0.5, null_token=dims.null_token)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(ds.clips), size=32)
    drop = rng.random(32) < 0.5
    # The clips and the noise are float32; the noise is drawn in float64
    # and rounded, so the stream is the one a float64 draw reads.
    want = {"x0": ds.clips[idx],
            "tokens": np.where(drop, dims.null_token, ds.conditions[idx]),
            "t": rng.integers(0, sched.T, size=32),
            "eps": rng.standard_normal((32, dims.frames, dims.frame_dim)).astype(
                np.float32)}
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key
    for key in ("x0", "t", "eps"):
        assert got[key].dtype == want[key].dtype, key
    assert np.any(got["tokens"] == dims.null_token)


def test_pretrain_empty_dataset_rejected(sched, dims):
    from flowdistill.datagen import ClipDataset
    empty = ClipDataset(np.zeros((0, dims.frames, dims.frame_dim), np.float32),
                        np.zeros(0, np.int32), "ground_truth", "default", 0)
    with pytest.raises(ValueError):
        fd.pretrain_base([empty], sched, dims, 10, [0])


def test_adam_zero_lr_is_bit_exact_noop():
    params = {"w": np.random.default_rng(12).standard_normal((4, 4)).astype(np.float32)}
    before = params["w"].copy()
    opt = fd.Adam(0.0)
    opt.step(params, {"w": np.ones((4, 4))})
    assert np.array_equal(params["w"], before)


def _per_array_adam(lr, steps, params, grads_per_step):
    """Adam one array at a time, as the update was written before it ran
    over one flat buffer: the reference for the flat update's bits."""
    b1, b2, eps = fd.Adam.BETA1, fd.Adam.BETA2, fd.Adam.EPS
    m = {k: np.zeros(np.shape(v)) for k, v in params.items()}
    v2 = {k: np.zeros(np.shape(v)) for k, v in params.items()}
    for t, grads in zip(range(1, steps + 1), grads_per_step):
        for name in sorted(grads):
            g = np.asarray(grads[name], dtype=np.float64)
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v2[name] = b2 * v2[name] + (1.0 - b2) * g * g
            mhat = m[name] / (1.0 - b1 ** t)
            vhat = v2[name] / (1.0 - b2 ** t)
            new = params[name].astype(np.float64) - lr * mhat / (np.sqrt(vhat) + eps)
            params[name] = new.astype(np.float32)
    return params


def test_flat_adam_matches_the_per_array_update_bitwise():
    rng = np.random.default_rng(13)
    shapes = {"w": (4, 3), "b": (3,), "mix": (2, 5, 5), "s": (1,), "k": (6, 1)}
    params = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    grads = [{k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)
              for k, s in shapes.items()} for _ in range(5)]
    want = _per_array_adam(3e-3, 5, dict(params), grads)
    opt = fd.Adam(3e-3)
    for g in grads:
        opt.step(params, g)
    assert opt.t == 5
    for name in shapes:
        np.testing.assert_array_equal(params[name], want[name], strict=True)


@pytest.mark.parametrize("grad", [None, np.ones(4), np.ones((3, 1))],
                         ids=["missing", "wrong size", "wrong shape"])
def test_adam_refuses_a_missing_or_misshaped_gradient(grad):
    params = {"a": np.zeros(2, np.float32), "b": np.ones(3, np.float32)}
    opt = fd.Adam(1e-3)
    with pytest.raises(ValueError, match="'b'"):
        opt.step(params, {"a": np.ones(2), "b": grad})
    with pytest.raises(ValueError, match="'b'"):
        opt.step(params, {"a": np.ones(2)})
    assert opt.t == 0
    assert np.array_equal(params["b"], np.ones(3, np.float32))


def test_adam_refuses_a_gradient_for_an_unknown_parameter():
    with pytest.raises(ValueError, match="'c'"):
        fd.Adam(1e-3).step({"b": np.ones(3, np.float32)},
                           {"b": np.ones(3), "c": np.ones(1)})


def test_adam_refuses_a_changed_model():
    opt = fd.Adam(1e-3)
    opt.step({"b": np.ones(3, np.float32)}, {"b": np.ones(3)})
    with pytest.raises(ValueError):
        opt.step({"b": np.ones(4, np.float32)}, {"b": np.ones(4)})


def test_draw_rows_with_dropout_needs_a_null_token(dims):
    # Without one, a dropped row's token was None and the tokens had dtype
    # object.
    ds = sample_ground_truth(style_by_name("real_a"), 16, [96, 2],
                             frames=dims.frames, vocab=dims.vocab)
    with pytest.raises(ValueError, match="null_token"):
        draw_rows(ds, 8, np.random.default_rng(6), np.arange(128), cond_dropout=0.5)
    rows = draw_rows(ds, 8, np.random.default_rng(6), np.arange(128))
    assert rows["tokens"].dtype == np.intp
