"""Evaluation metric and experiment harness.

Sample-set quality is measured with the energy distance between flattened
clips,

    d(A, B) = 2 E||a - b|| - E||a - a'|| - E||b - b'||,

estimated pairwise. Per-pair norms and the pairwise sums use exact
(correctly rounded) summation via ``math.fsum``, which makes the estimate
independent of summation order: the metric is exactly symmetric and an
independent brute-force reimplementation reproduces it bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solvers import sample_batch

__all__ = [
    "energy_distance",
    "EvalReport",
    "eval_seeds",
    "eval_tokens",
    "reference_set",
    "arm_set",
    "score_arms",
]


def _flatten(clips) -> np.ndarray:
    arr = np.asarray(clips, dtype=np.float64)
    return arr.reshape(arr.shape[0], -1)


def _pair_sum(xs: np.ndarray, ys: np.ndarray, skip_diagonal: bool) -> float:
    """Exact sum of pairwise Euclidean distances between two sample matrices."""
    norms = []
    for i in range(xs.shape[0]):
        diff = xs[i] - ys
        sq = (diff * diff).tolist()
        for j, row in enumerate(sq):
            if skip_diagonal and i == j:
                continue
            norms.append(math.sqrt(math.fsum(row)))
    return math.fsum(norms)


def energy_distance(a, b, matched_pairs: bool = False) -> float:
    """Unbiased pairwise energy-distance estimate between two clip sets.

    With ``matched_pairs=True`` the cross term skips index-matched pairs
    (requires equally sized sets); on two references to the same set the
    estimate is then exactly zero.
    """
    xa, xb = _flatten(a), _flatten(b)
    n, m = xa.shape[0], xb.shape[0]
    if n < 2 or m < 2:
        raise ValueError("energy distance needs at least 2 samples per set")
    if matched_pairs and n != m:
        raise ValueError("matched_pairs requires equal set sizes")
    cross_pairs = n * m - (n if matched_pairs else 0)
    cross = _pair_sum(xa, xb, skip_diagonal=matched_pairs) / cross_pairs
    within_a = _pair_sum(xa, xa, skip_diagonal=True) / (n * (n - 1))
    within_b = _pair_sum(xb, xb, skip_diagonal=True) / (m * (m - 1))
    return 2.0 * cross - (within_a + within_b)


# -- experiment harness ---------------------------------------------------


@dataclass
class EvalReport:
    """Rows of (style, steps, metric, n, seed) plus run metadata."""

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, style: str, steps: int, metric: float, n: int, seed: int) -> None:
        # The unbiased estimator can dip below zero for near-identical sets;
        # report cells are clamped to keep the table nonnegative.
        self.rows.append({"style": style, "steps": int(steps),
                          "metric": max(0.0, float(metric)), "n": int(n),
                          "seed": int(seed)})

    def cell(self, style: str, steps: int) -> float:
        for row in self.rows:
            if row["style"] == style and row["steps"] == steps:
                return row["metric"]
        raise KeyError(f"no cell ({style}, {steps})")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("style,steps,metric,n,seed\n")
            for row in self.rows:
                fh.write(f"{row['style']},{row['steps']},{row['metric']:.12g},"
                         f"{row['n']},{row['seed']}\n")


def eval_seeds(seed: int, n: int) -> np.ndarray:
    """Per-condition sampling seeds, shared across all arms of a comparison."""
    return np.random.default_rng([seed, 7919]).integers(0, 2 ** 63 - 1, size=n)


def eval_tokens(seed: int, n: int, vocab: int) -> np.ndarray:
    return np.random.default_rng([seed, 6101]).integers(0, vocab, size=n)


def reference_set(bundle, sched, tokens, seeds, steps: int = 32, w: float = 7.5,
                  x0_clip: float = 4.0):
    """Teacher reference samples: guided Euler traversal at full step count.

    The predicted clean sample is clamped well outside the data range, as
    in the teacher's data-generation settings, so strongly guided
    trajectories stay bounded.
    """
    return sample_batch(bundle, sched, steps, tokens, seeds, w=w,
                        solver="euler", x0_clip=x0_clip)


def arm_set(bundle, sched, steps: int, tokens, seeds):
    """Distilled-arm samples: unguided Euler traversal at few steps."""
    return sample_batch(bundle, sched, steps, tokens, seeds, w=0.0, solver="euler")


def score_arms(bundles_by_style: dict, arms: dict, sched, styles: list,
               step_counts: list, seed: int, n_conditions: int,
               ref_steps: int = 32, ref_cfg: float = 7.5) -> dict:
    """Each arm's distilled students at each step count versus the guided
    teacher; returns {arm: EvalReport}.

    ``bundles_by_style`` maps style name to the pretrained (undistilled)
    bundle; ``arms`` maps an arm name to its motion parameters by step
    count. Each style's tokens, seeds and reference set are drawn once and
    shared by every arm and step count. Rows come out style-major, in
    ``step_counts`` order.
    """
    from .nets import StudentBundle

    reports = {arm: EvalReport() for arm in arms}
    for style in styles:
        pre = bundles_by_style[style]
        tokens = eval_tokens(seed, n_conditions, pre.dims.vocab)
        seeds = eval_seeds(seed, n_conditions)
        ref = reference_set(pre, sched, tokens, seeds, steps=ref_steps, w=ref_cfg)
        for arm, motion_by_steps in arms.items():
            for steps in step_counts:
                bundle = StudentBundle(pre.base, motion_by_steps[steps])
                got = arm_set(bundle, sched, steps, tokens, seeds)
                reports[arm].add(style, steps, energy_distance(got, ref),
                                 n_conditions, seed)
    return reports
