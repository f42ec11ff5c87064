import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
import flowdistill.datagen as datagen
import flowdistill.solvers as solvers
from flowdistill.datagen import (
    ANALYTIC_STYLE,
    ANALYTIC_VAR,
    SIGMA_BASE,
    ClipDataset,
    POOL_IDS,
    ar1_cholesky,
    component_means,
    load_dataset,
    save_dataset,
    style_by_name,
)


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
    # Monte Carlo oracle for the analytic style: mean 0, isotropic variance.
    ds = fd.sample_ground_truth(ANALYTIC_STYLE, 10000, 5)
    flat = ds.clips.reshape(len(ds), -1).astype(np.float64)
    se_mean = np.sqrt(ANALYTIC_VAR / len(ds))
    assert np.abs(flat.mean(axis=0)).max() < 3 * se_mean * 1.5
    se_var = ANALYTIC_VAR * np.sqrt(2 / (len(ds) - 1))
    assert np.abs(flat.var(axis=0) - ANALYTIC_VAR).max() < 4 * se_var


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
    a = fd.sample_ground_truth(ANALYTIC_STYLE, 64, 11)
    b = fd.sample_ground_truth(ANALYTIC_STYLE, 64, 11)
    c = fd.sample_ground_truth(ANALYTIC_STYLE, 64, 12)
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
_SCHED = fd.build_schedule(128, 0.002, 0.0985703125)


def _teacher(seed=24):
    rng = np.random.default_rng(seed)
    return fd.StudentBundle(fd.init_base(_DIMS, rng), fd.init_motion(_DIMS, rng, 0.05), _DIMS)


def _generate_draws(monkeypatch, n, seed, batch):
    """A generated dataset whose multistep solve returns its start states,
    so the draws show, and the row count of each block's solve."""
    rows = []

    def solve(f, x_start, steps, tokens, sched_, **kw):
        rows.append(len(tokens))
        return x_start

    monkeypatch.setattr(solvers, "multistep_solve", solve)
    monkeypatch.setattr(solvers, "SAMPLE_BATCH", batch)
    ds = fd.generate_distill_dataset(_teacher(), _SCHED, ANALYTIC_STYLE, n, seed, 8, 7.5)
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


def test_generated_dataset_is_the_same_for_any_batch_partition(monkeypatch):
    # Rows never interact in a solve. BLAS may round a product of another
    # batch size differently in the last bits, which float32 storage can
    # show as one unit in the last place.
    teacher = _teacher(25)
    whole = fd.generate_distill_dataset(teacher, _SCHED, ANALYTIC_STYLE, 10, 6, 4, 7.5)
    for batch in (1, 3, 7):
        monkeypatch.setattr(solvers, "SAMPLE_BATCH", batch)
        ds = fd.generate_distill_dataset(teacher, _SCHED, ANALYTIC_STYLE, 10, 6, 4, 7.5)
        assert ds.conditions.tobytes() == whole.conditions.tobytes()
        np.testing.assert_allclose(ds.clips, whole.clips, rtol=1e-6, atol=1e-7)


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


def test_generated_dataset_deterministic_and_tagged(tmp_path):
    dims = fd.NetDims()
    sched = fd.build_schedule(128, 0.002, 0.0985703125)
    rng = np.random.default_rng(22)
    bundle = fd.StudentBundle(fd.init_base(dims, rng), fd.init_motion(dims, rng, 0.05), dims)
    a = fd.generate_distill_dataset(bundle, sched, ANALYTIC_STYLE, 24, 23, 8, 7.5)
    b = fd.generate_distill_dataset(bundle, sched, ANALYTIC_STYLE, 24, 23, 8, 7.5)
    assert np.array_equal(a.clips, b.clips)
    assert a.provenance == "teacher_generated"
    assert a.style_id == ANALYTIC_STYLE.style_id
    with pytest.raises(ValueError):
        fd.generate_distill_dataset(None, sched, ANALYTIC_STYLE, 4, 0, 8, 7.5)
