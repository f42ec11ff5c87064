import math

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.evalmetrics import (
    EvalReport,
    energy_distance,
    eval_seeds,
    eval_tokens,
)


def brute_force_energy_distance(a, b):
    """Independent O(n^2) oracle with exact summation per pair and total."""
    xa = np.asarray(a, np.float64).reshape(len(a), -1)
    xb = np.asarray(b, np.float64).reshape(len(b), -1)

    def norm(u, v):
        return math.sqrt(math.fsum(((u - v) * (u - v)).tolist()))

    cross = math.fsum(norm(xa[i], xb[j]) for i in range(len(xa)) for j in range(len(xb)))
    wa = math.fsum(norm(xa[i], xa[j]) for i in range(len(xa)) for j in range(len(xa)) if i != j)
    wb = math.fsum(norm(xb[i], xb[j]) for i in range(len(xb)) for j in range(len(xb)) if i != j)
    cross /= len(xa) * len(xb)
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


def test_eval_seed_and_token_streams_deterministic():
    assert np.array_equal(eval_seeds(7, 32), eval_seeds(7, 32))
    assert not np.array_equal(eval_seeds(7, 32), eval_seeds(8, 32))
    toks = eval_tokens(7, 64, 8)
    assert toks.min() >= 0 and toks.max() < 8


def test_score_arms_same_motion_same_report_rows_style_major():
    dims = fd.NetDims(frames=3, hidden=4, time_dim=4, head_hidden=4, vocab=3)
    sched = fd.build_schedule(128, 0.002, 0.0985703125)
    rng = np.random.default_rng(6)
    bundles = {name: fd.StudentBundle(fd.init_base(fd.style_by_name(name).style_id, dims, rng),
                                      fd.init_motion(dims, rng, 0.05))
               for name in ("real_b", "anime_a")}
    motion = {steps: fd.init_motion(dims, rng, 0.05) for steps in (2, 4)}
    other = {steps: fd.init_motion(dims, rng, 0.5) for steps in (2, 4)}
    reports = fd.score_arms(bundles, {"a": motion, "b": dict(motion), "c": other},
                            sched, ["anime_a", "real_b"], [4, 2], seed=3,
                            n_conditions=4, ref_steps=8)
    assert list(reports) == ["a", "b", "c"]
    assert reports["a"].rows == reports["b"].rows
    assert [(r["style"], r["steps"]) for r in reports["a"].rows] == [
        ("anime_a", 4), ("anime_a", 2), ("real_b", 4), ("real_b", 2)]
    assert [r["metric"] for r in reports["c"].rows] != [r["metric"] for r in reports["a"].rows]
