import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowdistill as fd
from flowdistill import evalmetrics
from flowdistill.evalmetrics import (
    EvalReport,
    energy_distance,
    eval_inputs,
    eval_tokens,
    reference_set,
)


def norm(u, v):
    """One pair's norm by definition: sqrt of the exact sum of squares."""
    return math.sqrt(math.fsum(((u - v) * (u - v)).tolist()))


def brute_force_energy_distance(a, b, matched_pairs=False):
    """Independent O(n^2) oracle with exact summation per pair and total."""
    xa = np.asarray(a, np.float64).reshape(len(a), -1)
    xb = np.asarray(b, np.float64).reshape(len(b), -1)
    cross = math.fsum(norm(xa[i], xb[j]) for i in range(len(xa)) for j in range(len(xb))
                      if not (matched_pairs and i == j))
    wa = math.fsum(norm(xa[i], xa[j]) for i in range(len(xa)) for j in range(len(xa)) if i != j)
    wb = math.fsum(norm(xb[i], xb[j]) for i in range(len(xb)) for j in range(len(xb)) if i != j)
    cross /= len(xa) * len(xb) - (len(xa) if matched_pairs else 0)
    wa /= len(xa) * (len(xa) - 1)
    wb /= len(xb) * (len(xb) - 1)
    return 2.0 * cross - (wa + wb)


def test_energy_distance_matches_brute_force_exactly():
    rng = np.random.default_rng(0)
    for n, m in ((5, 7), (40, 40), (200, 150)):
        a = rng.standard_normal((n, 4, 2))
        b = 0.3 + rng.standard_normal((m, 4, 2))
        assert energy_distance(a, b) == brute_force_energy_distance(a, b)


def test_energy_distance_symmetry_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((31, 8, 2))
    b = 0.5 * rng.standard_normal((47, 8, 2)) + 0.2
    assert energy_distance(a, b) == energy_distance(b, a)


def test_energy_distance_same_set_matched_pairs_zero():
    a = np.random.default_rng(2).standard_normal((25, 8, 2))
    assert energy_distance(a, a, matched_pairs=True) == 0.0
    assert abs(energy_distance(a, a.copy(), matched_pairs=True)) < 1e-12


def test_energy_distance_undersized_sets_rejected():
    a = np.zeros((1, 4, 2))
    with pytest.raises(ValueError):
        energy_distance(a, np.zeros((5, 4, 2)))
    with pytest.raises(ValueError):
        energy_distance(np.zeros((3, 4, 2)), np.zeros((4, 4, 2)), matched_pairs=True)


def test_energy_distance_gaussian_shift_matches_frozen_oracle():
    # Population value for N(0, I_8) vs N(delta, I_8), delta = 0.75 on every
    # coordinate, frozen from a 2M-draw Monte Carlo run of the population
    # terms: 1.0348 (oracle SE 0.003). The pairwise estimator at n = 400 has
    # standard deviation 0.074 (measured over repeated draws).
    expected = 1.0348
    tol = 3 * 0.074 + 3 * 0.003
    rng = np.random.default_rng(3)
    a = rng.standard_normal((400, 4, 2))
    b = rng.standard_normal((400, 4, 2)) + 0.75
    est = energy_distance(a, b)
    assert abs(est - expected) < tol, est


def test_energy_distance_detects_shift_not_noise():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((150, 4, 2))
    b = rng.standard_normal((150, 4, 2))
    near_zero = energy_distance(a, b)
    shifted = energy_distance(a, b + 1.0)
    assert abs(near_zero) < 0.2
    assert shifted > 10 * abs(near_zero)


# -- the blocked summation behind energy_distance ---------------------------


def _all_pair_norms(xs):
    """Every ordered pair's norm through the blocked path, and by definition,
    in the blocked path's order: offset k, then i, pairing i with (i+k) mod n."""
    n = len(xs)
    got = evalmetrics._offset_norms(xs.T, xs.T, range(n))
    want = [norm(xs[i], xs[(i + k) % n]) for k in range(n) for i in range(n)]
    return got, want


def _bits(values):
    return np.asarray(values, np.float64).view(np.int64).tolist()


def _coordinate(draw, kind):
    if kind == "ints":  # small integers: their squares' sums tie often
        return float(draw(st.integers(-7, 7)))
    # 2^-560 squares to a subnormal or to zero; 2^500 squares to 2^1000.
    return math.ldexp(draw(st.floats(-1.0, 1.0)), draw(st.integers(-560, 500)))


@st.composite
def point_sets(draw):
    """Points with wide exponent spreads or small integers, drawn with
    repeats from a pool, so that some pairs are zero rows."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["spread", "ints"]))
    scale = math.ldexp(1.0, draw(st.integers(-540, 480))) if kind == "ints" else 1.0
    pool = [[_coordinate(draw, kind) * scale for _ in range(d)]
            for _ in range(draw(st.integers(1, 6)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=9))
    return np.array([pool[i] for i in picks], dtype=np.float64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(point_sets())
def test_pair_norms_equal_sqrt_of_fsum_bit_for_bit(xs):
    got, want = _all_pair_norms(xs)
    assert _bits(got) == _bits(want)


def test_fsum_fallback_runs_on_ties_and_zero_rows(monkeypatch):
    # (2^27, 1, 1) squares to (2^54, 1, 1): the exact sum 2^54 + 2 is a tie
    # between two doubles. Repeated points give zero rows.
    xs = np.array([[0.0, 0.0, 0.0], [2.0 ** 27, 1.0, 1.0], [0.0, 0.0, 0.0],
                   [3.0, 4.0, 12.0], [0.5, 0.25, 0.125]])
    rows = []
    real_fsum = math.fsum

    def counting_fsum(values):
        rows.append(list(values))
        return real_fsum(rows[-1])

    monkeypatch.setattr(evalmetrics, "math",
                        types.SimpleNamespace(fsum=counting_fsum, sqrt=math.sqrt))
    got, want = _all_pair_norms(xs)
    assert _bits(got) == _bits(want)
    assert [2.0 ** 54, 1.0, 1.0] in rows
    assert [0.0, 0.0, 0.0] in rows
    assert len(rows) < len(got)  # the rest are certified without fsum


def test_certificate_allows_for_rounding_in_the_error_sum():
    # In both rows the cascade keeps s = 1 + 2^-52 and the errors are the
    # later terms, whose float sum rounds across the tie at s + 2^-53 (row
    # a: up onto it, where round-half-even then goes up; row b: down below
    # it), while the exact sum lies just on the other side.
    a = [1.0 + 2.0 ** -52, 2.0 ** -54, 2.0 ** -54 - 2.0 ** -107, 0.0, 0.0]
    b = [1.0 + 2.0 ** -52, 2.0 ** -53 - 2.0 ** -106] + [3 * 2.0 ** -109] * 3
    got = evalmetrics._sqrt_fsum(np.array([a, b]).T)
    assert _bits(got) == _bits([math.sqrt(math.fsum(a)), math.sqrt(math.fsum(b))])


def _clips(rng, n):
    """Clip-shaped float32 samples, like the pipeline's, in float64."""
    return rng.standard_normal((n, 8, 2)).astype(np.float32).astype(np.float64)


# The largest n whose n x n cross term is one block of offsets, at 16
# coordinates per clip.
BLOCK = math.isqrt(evalmetrics._BLOCK_BYTES // (8 * 16))


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1])
def test_energy_distance_matches_brute_force_around_the_block_size(n):
    rng = np.random.default_rng(n)
    a, b = _clips(rng, n), 0.2 + _clips(rng, n)
    assert energy_distance(a, b) == brute_force_energy_distance(a, b)
    assert (energy_distance(a, b, matched_pairs=True)
            == brute_force_energy_distance(a, b, matched_pairs=True))
    c = _clips(rng, n + 3)
    assert energy_distance(a, c) == brute_force_energy_distance(a, c)
    assert energy_distance(c, a) == brute_force_energy_distance(c, a)


@pytest.mark.parametrize("block_bytes", [1, 8 * 16 * 7 * 3, 8 * 16 * 7 * 4])
def test_energy_distance_matches_brute_force_across_many_blocks(monkeypatch, block_bytes):
    # One, three or four offsets per block for the 7-clip set.
    monkeypatch.setattr(evalmetrics, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(11)
    for n, m in ((7, 7), (7, 10), (10, 7), (8, 8)):
        a, b = _clips(rng, n), _clips(rng, m)
        assert energy_distance(a, b) == brute_force_energy_distance(a, b)
        if n == m:
            assert (energy_distance(a, b, matched_pairs=True)
                    == brute_force_energy_distance(a, b, matched_pairs=True))


def test_energy_distance_of_a_nan_sample_is_nan():
    rng = np.random.default_rng(12)
    a, b = _clips(rng, 6), _clips(rng, 5)
    a[3, 2, 1] = np.nan
    assert math.isnan(energy_distance(a, b))
    assert math.isnan(energy_distance(b, a))


def test_eval_report_cells_and_csv(tmp_path):
    report = EvalReport(metadata={"seed": 0})
    report.add("real_b", 4, 1.2345, 100, 0)
    report.add("real_b", 1, -1e-15, 100, 0)  # clamped to zero
    assert report.cell("real_b", 4) == pytest.approx(1.2345)
    assert report.cell("real_b", 1) == 0.0
    with pytest.raises(KeyError):
        report.cell("anime_a", 4)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "style,steps,metric,n,seed"
    assert lines[1].startswith("real_b,4,1.2345,100,0")


def test_eval_report_rejects_a_nan_metric():
    report = EvalReport()
    with pytest.raises(ValueError, match=r"'real_b', step count 4: metric nan"):
        report.add("real_b", 4, float("nan"), 10, 0)
    with pytest.raises(ValueError, match="step count 2"):
        report.add("anime_a", 2, float("inf"), 10, 0)
    assert report.rows == []


def test_eval_inputs_deterministic_and_seeded():
    dims = fd.NetDims()
    tokens, x = eval_inputs(7, 32, dims)
    again = eval_inputs(7, 32, dims)
    assert np.array_equal(tokens, again[0]) and np.array_equal(x, again[1])
    assert x.shape == (32, dims.frames, dims.frame_dim)
    assert not np.array_equal(x, eval_inputs(8, 32, dims)[1])
    assert tokens.min() >= 0 and tokens.max() < dims.vocab


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 40), st.integers(1, 80), st.integers(1, 80))
def test_eval_inputs_of_fewer_conditions_are_a_prefix(seed, k, n):
    k, n = min(k, n), max(k, n)
    dims = fd.NetDims(frames=3, vocab=5)
    few, many = eval_inputs(seed, k, dims), eval_inputs(seed, n, dims)
    for a, b in zip(few, many):
        assert a.tobytes() == b[:k].tobytes()


def test_score_arms_same_motion_same_report_rows_style_major():
    dims = fd.NetDims(frames=3, hidden=4, time_dim=4, head_hidden=4, vocab=3)
    sched = fd.build_schedule(128, 0.002, 0.0985703125)
    rng = np.random.default_rng(6)
    bundles = {name: fd.StudentBundle(fd.init_base(dims, rng),
                                      fd.init_motion(dims, rng, 0.05), dims)
               for name in ("real_b", "anime_a")}
    motion = {steps: fd.init_motion(dims, rng, 0.05) for steps in (2, 4)}
    other = {steps: fd.init_motion(dims, rng, 0.5) for steps in (2, 4)}
    tokens, x_start = eval_inputs(3, 4, dims)
    refs = {style: reference_set(bundles[style], sched, tokens, x_start, 8, 7.5)
            for style in ("anime_a", "real_b")}
    reports = fd.score_arms(bundles, {"a": motion, "b": dict(motion), "c": other},
                            sched, refs, [4, 2], tokens, x_start, seed=3)
    assert list(reports) == ["a", "b", "c"]
    assert reports["a"].rows == reports["b"].rows
    assert [(r["style"], r["steps"]) for r in reports["a"].rows] == [
        ("anime_a", 4), ("anime_a", 2), ("real_b", 4), ("real_b", 2)]
    assert [r["metric"] for r in reports["c"].rows] != [r["metric"] for r in reports["a"].rows]


def _score_arms_reference(bundles_by_style, arms, sched, styles, step_counts,
                          seed, n_conditions, ref_steps, ref_cfg):
    """score_arms with every set sampled from freshly drawn noise and every
    sum of the energy distance computed by the brute-force oracle."""
    def sample(bundle, steps, tokens, **kw):
        dims = bundle.dims
        x = np.random.default_rng([seed, 7919]).standard_normal(
            (len(tokens), dims.frames, dims.frame_dim))
        return fd.sample_batch(bundle, sched, steps, tokens, x, solver="euler", **kw)

    reports = {arm: EvalReport() for arm in arms}
    for style in styles:
        pre = bundles_by_style[style]
        tokens = eval_tokens(seed, n_conditions, pre.dims.vocab)
        ref = sample(pre, ref_steps, tokens, w=ref_cfg)
        for arm, motion_by_steps in arms.items():
            for steps in step_counts:
                bundle = pre._replace(motion=motion_by_steps[steps])
                got = sample(bundle, steps, tokens, w=0.0)
                reports[arm].add(style, steps, brute_force_energy_distance(got, ref),
                                 n_conditions, seed)
    return reports


def test_score_arms_matches_the_per_cell_reference_bit_for_bit(monkeypatch):
    dims = fd.NetDims(frames=3, hidden=4, time_dim=4, head_hidden=4, vocab=3)
    sched = fd.build_schedule(128, 0.002, 0.0985703125)
    rng = np.random.default_rng(8)
    styles = ["anime_a", "real_b", "unseen_far"]
    bundles = {name: fd.StudentBundle(fd.init_base(dims, rng),
                                      fd.init_motion(dims, rng, 0.05), dims)
               for name in styles}
    arms = {arm: {steps: fd.init_motion(dims, rng, scale) for steps in (1, 2, 4)}
            for arm, scale in (("cross", 0.05), ("single", 0.5))}
    kw = dict(seed=5, n_conditions=6, ref_steps=8, ref_cfg=7.5)
    want = _score_arms_reference(bundles, arms, sched, styles, [4, 1, 2], **kw)

    made = []
    start_noise = evalmetrics.start_noise

    def counted(*args):
        made.append(args)
        return start_noise(*args)

    monkeypatch.setattr(evalmetrics, "start_noise", counted)
    evalmetrics._within_sum.cache_clear()
    tokens, x_start = eval_inputs(kw["seed"], kw["n_conditions"], dims)
    refs = {style: reference_set(bundles[style], sched, tokens, x_start,
                                 steps=kw["ref_steps"], w=kw["ref_cfg"])
            for style in styles}
    got = fd.score_arms(bundles, arms, sched, refs, [4, 1, 2], tokens, x_start,
                        kw["seed"])

    assert list(got) == list(want)
    for arm in want:
        assert got[arm].rows == want[arm].rows
    # The start noise is drawn once, in one call, and shared by the
    # references and every arm set.
    assert len(made) == 1
    # Each arm set's within-set sum once, each reference's once per style.
    cells = len(styles) * len(arms) * 3
    info = evalmetrics._within_sum.cache_info()
    assert (info.misses, info.hits) == (cells + len(styles), cells - len(styles))
