import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
import flowdistill.datagen as datagen
import flowdistill.solvers as solvers
from flowdistill.datagen import (
    SIGMA_BASE,
    ClipDataset,
    POOL_IDS,
    ar1_cholesky,
    component_means,
    load_dataset,
    oracle_eps,
    save_dataset,
    style_by_name,
)
from flowdistill.evalmetrics import reference_set

REAL_A = style_by_name("real_a")  # N(0, I): spread 0, unit deviation, rho 0


def test_style_registry_structure():
    groups = {s.group for s in fd.STYLES}
    assert groups == {"default", "realistic_analog", "anime_analog", "unseen"}
    unseen = [s for s in fd.STYLES if s.group == "unseen"]
    assert len(unseen) >= 2
    with pytest.raises(KeyError):
        style_by_name("nope")


def test_styles_are_flip_symmetric_constructions():
    assert all(s.offset[0] == 0.0 for s in fd.STYLES)
    assert np.all(component_means(8)[:, 0] == 0.0)


def test_ground_truth_moments_identity_transform():
    # Monte Carlo oracle for real_a: mean 0, isotropic unit variance.
    ds = fd.sample_ground_truth(REAL_A, 10000, 5)
    flat = ds.clips.reshape(len(ds), -1).astype(np.float64)
    se_mean = np.sqrt(1.0 / len(ds))
    assert np.abs(flat.mean(axis=0)).max() < 3 * se_mean * 1.5
    se_var = np.sqrt(2 / (len(ds) - 1))
    assert np.abs(flat.var(axis=0) - 1.0).max() < 4 * se_var


def test_ground_truth_mixture_condition_means():
    style = style_by_name("anime_a")
    ds = fd.sample_ground_truth(style, 12000, 6)
    means = component_means(8)
    for c in (0, 7):
        sel = ds.clips[ds.conditions == c].astype(np.float64)
        assert len(sel) > 800
        expect = (means[c] * np.asarray(style.scale) + np.asarray(style.offset))[1]
        got = sel[:, :, 1].mean()
        assert abs(got - expect) < 0.05, (c, got, expect)


def test_ground_truth_temporal_correlation():
    style = style_by_name("default")
    ds = fd.sample_ground_truth(style, 8000, 7)
    sel = ds.clips[ds.conditions == 3].astype(np.float64)
    dev = sel - sel.mean(axis=0)
    corr = np.corrcoef(dev[:, 0, 1], dev[:, 1, 1])[0, 1]
    assert abs(corr - style.rho) < 0.08


def test_transform_inversion_recovers_base_moments():
    style = style_by_name("unseen_far")
    ds = fd.sample_ground_truth(style, 12000, 8)
    back = (ds.clips.astype(np.float64) - np.asarray(style.offset)) / np.asarray(style.scale)
    means = component_means(8)
    for c in (0, 4):
        sel = back[ds.conditions == c]
        np.testing.assert_allclose(sel.mean(axis=0)[0], means[c], atol=0.06)
        assert abs(sel[:, :, 0].std() - SIGMA_BASE) < 0.05


def test_ground_truth_seed_determinism():
    a = fd.sample_ground_truth(REAL_A, 64, 11)
    b = fd.sample_ground_truth(REAL_A, 64, 11)
    c = fd.sample_ground_truth(REAL_A, 64, 12)
    assert np.array_equal(a.clips, b.clips) and np.array_equal(a.conditions, b.conditions)
    assert not np.array_equal(a.clips, c.clips)


@pytest.mark.parametrize("style", fd.STYLES, ids=lambda s: s.name)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 40),
                      st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=5)),
       k=st.integers(1, 40), n=st.integers(1, 40))
def test_ground_truth_of_fewer_clips_is_a_prefix(style, seed, k, n):
    k, n = min(k, n), max(k, n)
    few = fd.sample_ground_truth(style, k, seed, frames=5, vocab=3)
    many = fd.sample_ground_truth(style, n, seed, frames=5, vocab=3)
    assert few.clips.tobytes() == many.clips[:k].tobytes()
    assert few.conditions.tobytes() == many.conditions[:k].tobytes()


_DIMS = fd.NetDims(vocab=5)


def _teacher(seed=24):
    rng = np.random.default_rng(seed)
    return fd.StudentBundle(fd.init_base(_DIMS, rng), fd.init_motion(_DIMS, rng, 0.05), _DIMS)


def _generate_draws(monkeypatch, n, seed, batch):
    """A generated dataset whose traversal returns its start states, so the
    draws show, and the row count of each block's solve."""
    rows = []

    def solve(f, x_t, t, tokens, n, s, sched_):
        rows.append(len(tokens))
        return x_t

    monkeypatch.setattr(solvers, "euler_solve", solve)
    monkeypatch.setattr(solvers, "SAMPLE_BATCH", batch)
    ds = fd.generate_distill_dataset(_teacher(), fd.SCHEDULE, REAL_A, n, seed, 8, 7.5)
    return ds, rows


@pytest.mark.parametrize("k, n, seed", [
    (1, 5, 4),
    (70, 1100, [0, 13, 1]),
    (511, 513, [2 ** 32 + 5, 13, 1]),  # across a batch boundary
])
def test_generated_dataset_of_fewer_clips_is_a_prefix(monkeypatch, k, n, seed):
    few, _ = _generate_draws(monkeypatch, k, seed, 512)
    many, _ = _generate_draws(monkeypatch, n, seed, 512)
    assert few.clips.tobytes() == many.clips[:k].tobytes()
    assert few.conditions.tobytes() == many.conditions[:k].tobytes()


def test_generated_dataset_draws_are_the_same_for_any_batch_partition(monkeypatch):
    n, seed = 70, [3, 13, 1]
    whole, rows = _generate_draws(monkeypatch, n, seed, 512)
    assert rows == [n]
    cond_entropy, noise_entropy = datagen._entropies(seed)
    assert whole.conditions.tobytes() == np.random.default_rng(cond_entropy).integers(
        0, _DIMS.vocab, size=n).astype(np.int32).tobytes()
    assert whole.clips.tobytes() == fd.start_noise(noise_entropy, n, _DIMS).astype(
        np.float32).tobytes()
    for batch in (1, 3, 32, 69):
        ds, rows = _generate_draws(monkeypatch, n, seed, batch)
        assert rows == [min(batch, n - lo) for lo in range(0, n, batch)]
        assert ds.clips.tobytes() == whole.clips.tobytes()
        assert ds.conditions.tobytes() == whole.conditions.tobytes()


def test_generated_clips_are_the_reference_sampler_on_their_own_inputs():
    # One guided-teacher sampler: on a dataset's own condition tokens and
    # start noise, the evaluation's reference sampler returns its clips,
    # bit for bit.
    teacher = _teacher(26)
    n, seed, steps, w = 12, [4, 13, 1], 8, 7.5
    ds = fd.generate_distill_dataset(teacher, fd.SCHEDULE, style_by_name("anime_a"), n,
                                     seed, steps, w)
    cond_entropy, noise_entropy = datagen._entropies(seed)
    conds = np.random.default_rng(cond_entropy).integers(0, _DIMS.vocab, size=n)
    x_start = fd.start_noise(noise_entropy, n, _DIMS)
    assert ds.conditions.tobytes() == conds.astype(np.int32).tobytes()
    ref = reference_set(teacher, fd.SCHEDULE, conds, x_start, steps, w)
    assert ref.dtype == ds.clips.dtype == np.float32
    assert ds.clips.tobytes() == ref.tobytes()
    # A traversal takes strides of one length: 3 steps cannot cover T = 128.
    with pytest.raises(ValueError, match="steps must divide T = 128, got 3"):
        fd.sample_batch(teacher, fd.SCHEDULE, 3, conds, x_start)


def _partitioned_datasets(monkeypatch):
    """A generated dataset as one solve, then as solves of 1, 3 and 7 rows."""
    teacher = _teacher(25)
    whole = fd.generate_distill_dataset(teacher, fd.SCHEDULE, REAL_A, 10, 6, 4, 7.5)
    parts = []
    for batch in (1, 3, 7):
        monkeypatch.setattr(solvers, "SAMPLE_BATCH", batch)
        parts.append(fd.generate_distill_dataset(teacher, fd.SCHEDULE, REAL_A,
                                                 10, 6, 4, 7.5))
    for ds in parts:
        assert ds.conditions.tobytes() == whole.conditions.tobytes()
    return whole, parts


def test_generated_dataset_is_the_same_for_any_batch_partition(monkeypatch):
    # Rows never interact in a solve. BLAS may round a product of another
    # batch size differently in the last bits, which float32 storage can
    # show as one unit in the last place. Float64 start states run the
    # float64 path.
    start_noise = datagen.start_noise
    monkeypatch.setattr(datagen, "start_noise",
                        lambda *a: start_noise(*a).astype(np.float64))
    whole, parts = _partitioned_datasets(monkeypatch)
    for ds in parts:
        np.testing.assert_allclose(ds.clips, whole.clips, rtol=1e-6, atol=1e-7)


def test_generated_dataset_is_the_same_for_any_batch_partition_float32(monkeypatch):
    # In float32 the last bits BLAS moves are float32 bits, and the guided
    # traversal amplifies them: the gap measured 2.0e-5. The bound is
    # test_solvers' float32 partition bound, 1e-12 carried from float64 to
    # float32 (the same multiple of the machine epsilon).
    whole, parts = _partitioned_datasets(monkeypatch)
    bound = 1e-12 * float(np.finfo(np.float32).eps / np.finfo(np.float64).eps)
    for ds in parts:
        np.testing.assert_allclose(ds.clips, whole.clips, rtol=0, atol=bound)


@pytest.mark.parametrize("seed", [0, 7, [0, 13, 1], [2 ** 32 + 5, 13, 1],
                                  [1, 2, 3, 4, 5]])
def test_a_datasets_condition_and_noise_streams_differ(seed):
    # An entropy shorter than 4 words hashes as if zero-padded: a tail of 0
    # would make a stream the stream of the seed itself.
    def stream(entropy):
        return tuple(np.random.SeedSequence(entropy).generate_state(4))

    cond, noise = datagen._entropies(seed)
    own = [int(v) for v in np.atleast_1d(seed)]
    assert len({stream(cond), stream(noise), stream(own)}) == 3


def test_ar1_cholesky_reproduces_kernel():
    idx = np.arange(6)
    for rho in (0.8, 0.0):
        chol = ar1_cholesky(rho, 6)
        cov = chol @ chol.T
        np.testing.assert_allclose(cov, rho ** np.abs(idx[:, None] - idx), atol=1e-12)
    assert np.array_equal(ar1_cholesky(0.0, 6), np.eye(6))


@pytest.mark.parametrize("seed", [5, [0, 13, 1]])
@pytest.mark.parametrize("n", [1, 300])
def test_real_a_ground_truth_is_offset_plus_unit_noise(seed, n):
    # real_a is data, not a sampling branch: the mixture formula with spread
    # 0, rho 0 and SIGMA_BASE * scale = 1 gives offset + 1.0 * z, bit for
    # bit, with z the dataset's noise stream.
    _, noise_entropy = datagen._entropies(seed)
    z = np.random.default_rng(noise_entropy).standard_normal((n, 8, 2))
    want = (np.asarray(REAL_A.offset) + 1.0 * z).astype(np.float32)
    assert fd.sample_ground_truth(REAL_A, n, seed).clips.tobytes() == want.tobytes()


def test_oracle_on_real_a_is_the_unit_gaussian_closed_form(sched):
    # N(0, I) noised by a variance-preserving schedule stays N(0, I), so
    # eps* = sqrt(1 - ab) x / (ab + 1 - ab). One component: the null token
    # predicts as the conditional ones do, and guidance is a no-op.
    rng = np.random.default_rng(31)
    n = 500
    x = 1.5 * rng.standard_normal((n, 8, 2))
    t = rng.integers(-1, sched.T, n)
    ab = sched.alpha_bar(t)[:, None, None]
    want = np.sqrt(1 - ab) * x / (ab + 1 - ab)
    cond = oracle_eps(REAL_A, x, t, rng.integers(0, 8, n), sched)
    null = oracle_eps(REAL_A, x, t, np.full(n, 8), sched)
    np.testing.assert_allclose(cond, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(null, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(null, cond, rtol=0, atol=1e-15)


def _brute_force_eps(style, x, t, tokens, sched, vocab):
    """The oracle row by row on the flattened (F * D) clip: the full
    covariance from ``np.kron``, one dense solve, and for the null token
    the component posterior from each Gaussian's log density."""
    frames = x.shape[1]
    idx = np.arange(frames)
    kernel = style.rho ** np.abs(idx[:, None] - idx[None, :])
    cov = np.kron(kernel, np.diag((SIGMA_BASE * np.asarray(style.scale)) ** 2))
    means = np.array([np.tile(np.array([0.0, v]) * style.scale + style.offset, frames)
                      for v in np.linspace(-style.spread, style.spread, vocab)])
    out = []
    for xi, ti, ci in zip(x.reshape(len(x), -1), t, tokens):
        ab = float(sched.alpha_bar(int(ti)))
        marginal = ab * cov + (1 - ab) * np.eye(len(cov))
        if ci < vocab:
            mean = means[ci]
        else:
            logdet = np.linalg.slogdet(marginal)[1]
            log_p = np.array([-0.5 * (r @ np.linalg.solve(marginal, r) + logdet)
                              for r in xi - np.sqrt(ab) * means])
            w = np.exp(log_p - log_p.max())
            mean = (w / w.sum()) @ means
        out.append(np.sqrt(1 - ab) * np.linalg.solve(marginal, xi - np.sqrt(ab) * mean))
    return np.array(out).reshape(x.shape)


@pytest.mark.parametrize("vocab", [8, 3])
@pytest.mark.parametrize("style", fd.STYLES, ids=lambda s: s.name)
def test_oracle_matches_the_brute_force_reference(sched, style, vocab):
    n = 64
    ds = fd.sample_ground_truth(style, n, [32, 1], vocab=vocab)
    rng = np.random.default_rng([32, 2])
    t = rng.integers(-1, sched.T, n)
    ab = sched.alpha_bar(t)[:, None, None]
    x = np.sqrt(ab) * ds.clips + np.sqrt(1 - ab) * rng.standard_normal(ds.clips.shape)
    tokens = np.where(rng.random(n) < 0.5, vocab, ds.conditions)
    got = oracle_eps(style, x, t, tokens, sched, vocab)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, _brute_force_eps(style, x, t, tokens, sched, vocab),
                               rtol=0, atol=1e-12)
    # A scalar timestep is every row's.
    np.testing.assert_array_equal(oracle_eps(style, x, 40, tokens, sched, vocab),
                                  oracle_eps(style, x, np.full(n, 40), tokens, sched, vocab))


def test_oracle_refuses_tokens_outside_the_vocab(sched):
    x = np.zeros((3, 8, 2))
    for tokens in ([0, 1, 9], [-1, 0, 0], [0, 1]):
        with pytest.raises(ValueError, match=r"one token in \[0, 8\] per clip"):
            oracle_eps(REAL_A, x, 5, np.array(tokens), sched)


def _oracle_errors(style, x_t, eps, t, tokens, sched):
    """Per row: the oracle's mean squared error on the noise."""
    return np.mean((oracle_eps(style, x_t, t, tokens, sched) - eps) ** 2, axis=(1, 2))


def _paired_z(worse, better):
    d = worse - better
    return d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))


@pytest.mark.parametrize("style", fd.STYLES, ids=lambda s: s.name)
def test_oracle_is_the_ground_truth_samplers_denoiser(sched, style):
    # On fresh ground-truth rows at uniform t, the oracle denoises better
    # than the same formula for a style with any parameter moved, by more
    # than 3 paired standard errors (measured: 4.6-14). This ties the
    # oracle to ``sample_ground_truth``. With more than one component the
    # condition token helps too (measured: 14-19 standard errors).
    n = 4096
    ds = fd.sample_ground_truth(style, n, [41, 1])
    rng = np.random.default_rng([41, 2])
    t = rng.integers(0, sched.T, n)
    eps = rng.standard_normal(ds.clips.shape)
    x_t = fd.add_noise(ds.clips.astype(np.float64), eps, t, sched)
    own = _oracle_errors(style, x_t, eps, t, ds.conditions, sched)
    moved = [dataclasses.replace(style, rho=style.rho + 0.1),
             dataclasses.replace(style, rho=style.rho - 0.1),
             dataclasses.replace(style, scale=tuple(1.1 * s for s in style.scale)),
             dataclasses.replace(style, offset=(0.0, style.offset[1] + 0.1))]
    for other in moved:
        errors = _oracle_errors(other, x_t, eps, t, ds.conditions, sched)
        assert errors.mean() > own.mean() and _paired_z(errors, own) > 3, other
    if style.spread > 0:
        null = _oracle_errors(style, x_t, eps, t, np.full(n, 8), sched)
        assert null.mean() > own.mean() and _paired_z(null, own) > 3


def test_flip_augment_doubles_and_inverts():
    ds = fd.sample_ground_truth(style_by_name("anime_b"), 50, 13)
    flipped = fd.flip_augment(ds)
    assert len(flipped) == 2 * len(ds)
    assert np.array_equal(flipped.clips[:50], ds.clips)
    assert np.array_equal(flipped.clips[50:, :, 0], -ds.clips[:, :, 0])
    assert np.array_equal(flipped.clips[50:, :, 1], ds.clips[:, :, 1])
    twice = fd.flip_augment(flipped)
    assert np.array_equal(twice.clips[len(flipped):][50:], ds.clips)
    assert np.array_equal(flipped.conditions[50:], ds.conditions)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12))
def test_flip_is_involution_on_clips(seed, n):
    clips = np.random.default_rng(seed).standard_normal((n, 4, 2)).astype(np.float32)
    ds = ClipDataset(clips, np.zeros(n, np.int32), "ground_truth", "default", 0)
    double = fd.flip_augment(fd.flip_augment(ds))
    assert np.array_equal(double.clips[-n:], clips)


def test_flip_empty_dataset():
    ds = ClipDataset(np.zeros((0, 4, 2), np.float32), np.zeros(0, np.int32),
                     "ground_truth", "default", 0)
    assert len(fd.flip_augment(ds)) == 0


def test_pooling_concatenates_same_group():
    a = fd.sample_ground_truth(style_by_name("anime_a"), 30, 14)
    b = fd.sample_ground_truth(style_by_name("anime_b"), 20, 15)
    pool = fd.pool_by_group([a, b])
    assert len(pool) == 50
    assert pool.group == "anime_analog"
    assert pool.style_id == POOL_IDS["anime_analog"]
    assert pool.provenance == "ground_truth"
    single = fd.pool_by_group([a])
    assert single is a


def test_pooling_rejects_mixed_groups():
    a = fd.sample_ground_truth(style_by_name("anime_a"), 10, 16)
    b = fd.sample_ground_truth(style_by_name("real_b"), 10, 17)
    with pytest.raises(ValueError):
        fd.pool_by_group([a, b])


def test_dataset_file_round_trip(tmp_path):
    ds = fd.sample_ground_truth(style_by_name("real_b"), 37, 18)
    path = tmp_path / "clips.ds"
    fd.save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.clips, ds.clips)
    assert np.array_equal(back.conditions, ds.conditions)
    assert back.provenance == ds.provenance
    assert back.group == ds.group
    assert back.style_id == ds.style_id


def test_pooled_dataset_round_trip(tmp_path):
    a = fd.sample_ground_truth(style_by_name("anime_a"), 8, 19)
    b = fd.sample_ground_truth(style_by_name("anime_c"), 8, 20)
    pool = fd.pool_by_group([a, b])
    path = tmp_path / "pool.ds"
    fd.save_dataset(pool, path)
    back = load_dataset(path)
    assert back.group == "anime_analog"
    assert back.style_id == POOL_IDS["anime_analog"]
    assert np.array_equal(back.clips, pool.clips)


def test_dataset_file_rejects_corruption(tmp_path):
    ds = fd.sample_ground_truth(style_by_name("real_b"), 5, 21)
    path = tmp_path / "clips.ds"
    fd.save_dataset(ds, path)
    raw = path.read_bytes()
    (tmp_path / "trunc.ds").write_bytes(raw[:-7])
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "trunc.ds")
    (tmp_path / "magic.ds").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "magic.ds")


@pytest.mark.parametrize("meta, message", [
    ({"provenance": "p"}, "missing 'style_id'"),
    ({"style_id": 3}, "missing 'provenance'"),
    ({"provenance": "p", "style_id": "three"},
     "'style_id' is not an integer: 'three'"),
    ({"provenance": "ground_truth", "style_id": 99},
     "'style_id' 99 names no style or pool"),
])
def test_bad_dataset_meta_is_refused_naming_the_file_and_key(tmp_path, meta,
                                                             message):
    ds = fd.sample_ground_truth(style_by_name("real_b"), 3, 22)
    path = tmp_path / "clips.ds"
    fd.checkpoint_save({"clips": ds.clips, "conditions": ds.conditions}, path,
                       meta=meta)
    with pytest.raises(ValueError,
                       match=f"{re.escape(str(path))}: dataset meta .*{message}"):
        load_dataset(path)


@pytest.mark.parametrize("case, message", [
    ("provenance", "unknown provenance 'scraped'"),
    ("finite", "clips must be finite"),
    ("length", "clips and conditions must have equal length"),
])
def test_dataset_contents_refused_name_the_file(tmp_path, case, message):
    ds = fd.sample_ground_truth(style_by_name("real_b"), 3, 22)
    clips, conditions, provenance = ds.clips.copy(), ds.conditions, ds.provenance
    if case == "provenance":
        provenance = "scraped"
    elif case == "finite":
        clips[1, 2, 0] = np.nan
    else:
        conditions = conditions[:-1]
    path = tmp_path / "clips.ds"
    fd.checkpoint_save({"clips": clips, "conditions": conditions}, path,
                       meta={"provenance": provenance, "style_id": ds.style_id})
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_dataset(path)


def test_generated_dataset_deterministic_and_tagged(tmp_path, sched, dims):
    rng = np.random.default_rng(22)
    bundle = fd.StudentBundle(fd.init_base(dims, rng), fd.init_motion(dims, rng, 0.05), dims)
    a = fd.generate_distill_dataset(bundle, sched, REAL_A, 24, 23, 8, 7.5)
    b = fd.generate_distill_dataset(bundle, sched, REAL_A, 24, 23, 8, 7.5)
    assert np.array_equal(a.clips, b.clips)
    assert a.provenance == "teacher_generated"
    assert a.style_id == REAL_A.style_id
    with pytest.raises(ValueError):
        fd.generate_distill_dataset(None, sched, REAL_A, 4, 0, 8, 7.5)
