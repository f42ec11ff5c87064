import tracemalloc

import numpy as np
import pytest

import flowdistill as fd
from flowdistill import autodiff as ad
from flowdistill.datagen import ANALYTIC_STYLE, ANALYTIC_VAR, analytic_eps_star, sample_ground_truth
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
def sched():
    return fd.build_schedule(128, 0.002, 0.0985703125)


# Every network of this file has the default widths.
_DIMS = fd.NetDims()


@pytest.fixture(scope="module")
def dims():
    return _DIMS


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


def test_time_features_cover_clean_boundary(dims):
    feats = time_features(np.array([-1, 0, 5]), 128, dims.time_dim)
    assert feats.shape == (3, dims.time_dim)
    assert np.all(np.isfinite(feats))


def _pair(disc, x_t, x_next, t, t_next, tokens, flow_idx, sched):
    return disc_pair_prob(disc, x_t, x_next, t, t_next, tokens, flow_idx,
                          sched.T, _DIMS)


def _single(disc, x_next, t_next, tokens, flow_idx, sched):
    return disc_single_prob(disc, x_next, t_next, tokens, flow_idx,
                            sched.T, _DIMS)


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
    ds = sample_ground_truth(ANALYTIC_STYLE, 8000, [99, 1], frames=dims.frames,
                             vocab=dims.vocab)
    base, history = fd.pretrain_base(ds, sched, dims, 4000, [99, 2])
    assert np.mean(history[-50:]) < np.mean(history[:50])
    bundle = fd.StudentBundle(base, fd.init_motion(dims, np.random.default_rng(1729)), dims)
    rng = np.random.default_rng(11)
    for t in (32, 64, 96):
        x0 = np.sqrt(ANALYTIC_VAR) * rng.standard_normal((512, dims.frames, dims.frame_dim))
        eps = rng.standard_normal(x0.shape)
        x_t = fd.add_noise(x0, eps, t, sched)
        pred = student_eps(bundle.base, bundle.motion, x_t, t,
                           rng.integers(0, dims.vocab, 512), sched.T, dims)
        star = analytic_eps_star(x_t, t, sched)
        rms = float(np.sqrt(np.mean((pred - star) ** 2)))
        assert rms < 5e-2, (t, rms)
        assert float(np.mean((pred - star) ** 2)) < 0.1


def test_pretrain_zero_lr_keeps_parameters(sched, dims):
    ds = sample_ground_truth(ANALYTIC_STYLE, 256, [98, 1], frames=dims.frames,
                             vocab=dims.vocab)
    base, _ = fd.pretrain_base(ds, sched, dims, 3, [98, 2], lr=0.0)
    fresh = fd.init_base(dims, np.random.default_rng([98, 2]))
    for key in BASE_KEYS:
        assert np.array_equal(base[key], fresh[key]), key


def test_pretrain_motion_trains_only_motion(sched, dims):
    from flowdistill.datagen import style_by_name
    ds = sample_ground_truth(style_by_name("default"), 2048, [97, 1],
                             frames=dims.frames, vocab=dims.vocab)
    base, _ = fd.pretrain_base(ds, sched, dims, 400, [97, 2])
    frozen = {k: v.copy() for k, v in base.items()}
    motion, history = fd.pretrain_motion(base, ds, sched, dims, 300, [97, 3])
    assert np.mean(history[-20:]) < np.mean(history[:20])
    for key in BASE_KEYS:
        assert np.array_equal(base[key], frozen[key]), key
    assert np.any(motion["mix_out"] != 0)


def test_draw_rows_on_the_full_grid_draws_integer_timesteps(sched, dims):
    # Pretraining draws over np.arange(T): the same draws as timesteps from
    # rng.integers(0, T), in the order index, dropout, timestep, noise.
    ds = sample_ground_truth(ANALYTIC_STYLE, 64, [96, 1], frames=dims.frames,
                             vocab=dims.vocab)
    got = draw_rows(ds, 32, np.random.default_rng(5), np.arange(sched.T),
                    cond_dropout=0.5, null_token=dims.null_token)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(ds.clips), size=32)
    drop = rng.random(32) < 0.5
    want = {"x0": ds.clips[idx].astype(np.float64),
            "tokens": np.where(drop, dims.null_token, ds.conditions[idx]),
            "t": rng.integers(0, sched.T, size=32),
            "eps": rng.standard_normal((32, dims.frames, dims.frame_dim))}
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key
    assert got["t"].dtype == want["t"].dtype
    assert np.any(got["tokens"] == dims.null_token)


def test_pretrain_empty_dataset_rejected(sched, dims):
    from flowdistill.datagen import ClipDataset
    empty = ClipDataset(np.zeros((0, dims.frames, dims.frame_dim), np.float32),
                        np.zeros(0, np.int32), "ground_truth", "default", 0)
    with pytest.raises(ValueError):
        fd.pretrain_base(empty, sched, dims, 10, 0)


def test_adam_zero_lr_is_bit_exact_noop():
    params = {"w": np.random.default_rng(12).standard_normal((4, 4)).astype(np.float32)}
    before = params["w"].copy()
    opt = fd.Adam(0.0)
    opt.step(params, {"w": np.ones((4, 4))})
    assert np.array_equal(params["w"], before)
