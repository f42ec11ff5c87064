"""Evaluation metric and experiment harness.

Sample-set quality is measured with the energy distance between flattened
clips,

    d(A, B) = 2 E||a - b|| - E||a - a'|| - E||b - b'||,

estimated pairwise, in float64: the float32 clips that sampling returns
are widened exactly. Each pairwise norm is ``math.sqrt(math.fsum(row))`` of
the pair's squared coordinate differences, and each of the three pairwise
sums is one ``math.fsum`` over its norms. Correctly rounded summation makes
the estimate independent of summation order: the metric is exactly
symmetric and an independent brute-force reimplementation reproduces it bit
for bit.

The norms are computed in numpy, over blocks of pairs laid out as
(coordinates, pairs), with the same result bit for bit. The blocks of
one pairwise term share one buffer for their squared differences and one
array for their norms. Per block, in order:

* an error-free cascade over the coordinates gives a running sum plus
  rounding errors whose exact total is the exact row sum;
* rounding the running sum plus the summed errors is certified correctly
  rounded when its leftover, plus a rigorous bound on the error of the
  error sum, lies strictly inside half the gap to the neighbouring
  doubles. Exact ties and zero rows never pass; on float32 clips, whose
  squared differences carry at most 48 significant bits, ties are common;
* when enough pairs of the block fail, one vectorised pass over just those
  checks whether their error sums were exact; for each that was, with a
  finite result, the rounded sum is the exact sum rounded half to even,
  as ``math.fsum`` rounds it;
* any pair left (an inexact error sum, inf or NaN, or a failed pair of a
  block with too few failures to pay for that pass) is recomputed with
  ``math.fsum``;
* ``np.sqrt`` is correctly rounded, like ``math.sqrt``.

A within-set norm is computed once per unordered pair and counted twice:
``x_i - x_j`` is the exact negation of ``x_j - x_i``, so both orders give
the same norm bit for bit, and the within-set sum is twice the exact sum
over unordered pairs (see :func:`_within_sum`). Each set's within-set sum
is cached by content (its shape and float64 bytes): an evaluation scores
every cell of a style against one reference set, so that set's sum is
computed once and reused, the same bits as computing it again.

The harness scores every arm and step count on the same condition tokens
and start noise, drawn once per evaluation by :func:`eval_inputs`: the
tokens from one stream and the noise from another, each filled in clip
order, so condition ``i`` is the same for every ``n_conditions > i``.
:func:`score_arms` samples no reference: its caller hands it each style's
reference set, sampled by :func:`reference_set` from those same inputs. A
run caches each reference set as an artifact (``runner.Workspace.evaluate``),
so it is sampled once per run and every later evaluation, ``eval`` or
``ablate``, reads it back bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .solvers import sample_batch, start_noise

__all__ = [
    "energy_distance",
    "EvalReport",
    "eval_tokens",
    "eval_inputs",
    "reference_set",
    "arm_set",
    "score_arms",
]


def _flatten(clips) -> np.ndarray:
    arr = np.asarray(clips, dtype=np.float64)
    return arr.reshape(arr.shape[0], -1)


# Bytes of squared differences held per block of pairs.
_BLOCK_BYTES = 1 << 20
_U = 2.0 ** -53  # unit roundoff of float64
# The exactness pass runs on a block with at least this many failed
# columns. It costs about 14 numpy calls per coordinate, whatever the
# column count: as much as the fsum calls of 100-170 columns at D = 4, 16
# and 64 (numpy 2.4, 2-core x86 host). Two 16-clip sets have 256 cross
# pairs, of which about 16 fail at the 6.4% rate of ``eval-ablate``'s sets.
_EXACT_PASS_PAIRS = 160


def _two_sum(a, b):
    """Knuth's error-free sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _cascade(sq: np.ndarray) -> tuple:
    """(s, c) down the rows of the (D, pairs) ``sq``: ``s`` the running
    float sum and ``c`` the float sum of its rounding errors, ``c += e`` in
    row order, so ``s + sum(e)`` is the exact column sum.

    Each error is Dekker's Fast2Sum on the larger and the smaller of ``s``
    and the next row: the entries are nonnegative (or NaN), so ``maximum``
    and ``minimum`` order them by magnitude, and the error is exact, the
    same value :func:`_two_sum` returns. Every step writes into buffers
    allocated once.
    """
    s = sq[0].copy()
    c = np.zeros_like(s)
    hi, lo = np.empty_like(s), np.empty_like(s)
    for x in sq[1:]:
        np.maximum(s, x, out=hi)
        np.minimum(s, x, out=lo)
        np.add(hi, lo, out=s)
        np.subtract(s, hi, out=hi)
        np.subtract(lo, hi, out=lo)
        c += lo
    return s, c


def _exact_error_sums(sq: np.ndarray) -> np.ndarray:
    """Whether :func:`_cascade`'s ``c`` is the exact sum of its errors, for
    each column of ``sq``: the same cascade, with each ``c += e`` done as a
    TwoSum whose error must be zero. Inf or NaN makes an error NaN, which
    is not exact."""
    s = sq[0].copy()
    c = np.zeros_like(s)
    exact = np.ones(s.shape, dtype=bool)
    for x in sq[1:]:
        s, e = _two_sum(s, x)
        c, f = _two_sum(c, e)
        exact &= f == 0.0
    return exact


def _sqrt_fsum(sq: np.ndarray, out=None) -> np.ndarray:
    """``math.sqrt(math.fsum(sq[:, k]))`` for every column k, bit for bit,
    written into ``out`` when it is given.

    ``sq`` is (D, pairs) and holds squares, so every entry is nonnegative
    or NaN. The passes, in order:

    1. :func:`_cascade` gives ``s`` and ``c``, and ``r = fl(s + c)``;
    2. the certificate below accepts each column whose exact sum provably
       rounds to ``r``; it never accepts an exact tie, a zero row or a
       non-finite ``r``;
    3. when at least ``_EXACT_PASS_PAIRS`` columns fail it,
       :func:`_exact_error_sums` re-runs the cascade on just those and
       accepts each whose ``c`` is exact and whose ``r`` is finite: ``s +
       c`` is then the exact sum, so ``r``, its round-half-even rounding,
       is what ``fsum`` returns, ties and zero rows included;
    4. ``math.fsum`` recomputes the rest: inexact error sums, inf and NaN,
       and every failed column of a block with fewer failures than that.
    """
    d = sq.shape[0]
    # Inf and NaN make this arithmetic warn; their pairs fail the
    # certificate and take the fsum path.
    with np.errstate(over="ignore", invalid="ignore"):
        s, c = _cascade(sq)
        # The exact sum is s + sum(e). Partial sums of nonnegative terms
        # never decrease, so each |e| <= u s and |sum(e) - c| is below
        # (d - 1)^2 u^2 s, and d^2 u^2 s still is after rounding: the margin
        # covers a normal result, and a subnormal one rounds to a multiple
        # of the smallest subnormal, as the error is.
        bound = s * (d * d * _U * _U)
        r, t = _two_sum(s, c)
        # The exact sum lies within bound of r + t. It rounds to r when that
        # interval sits strictly inside half the gap to r's lower neighbour,
        # the double whose bit pattern is one less (r >= 0); the gap above
        # is never smaller. Zero, inf and NaN fail the test.
        below = (r.view(np.int64) - 1).view(np.float64)
        ok = (np.abs(t) + bound) * 2.0 < r - below
        redo = np.flatnonzero(~ok)
        if redo.size >= _EXACT_PASS_PAIRS:
            done = _exact_error_sums(sq[:, redo]) & np.isfinite(r[redo])
            redo = redo[~done]
    norms = np.sqrt(r, out=out)
    norms[redo] = [math.sqrt(math.fsum(row)) for row in sq[:, redo].T.tolist()]
    return norms


def _offset_norms(xt: np.ndarray, yt: np.ndarray, offsets: range) -> list:
    """Norms of ``x_i - y_((i + k) mod m)`` for each offset k, then each i.

    ``xt`` is (D, n) and ``yt`` is (D, m). Offsets 0..m-1 reach every pair
    once; for n == m, offsets 1..m-1 reach every pair but i == j. Each block
    of offsets is one subtraction into a (D, offsets, n) buffer allocated
    once, its squared differences under ``_BLOCK_BYTES``; its norms go into
    one array, converted to a list once.
    """
    d, n = xt.shape
    m = yt.shape[1]
    # windows[:, k] is yt rolled left by k, as a view.
    wrapped = yt[:, np.arange(n + m - 1) % m]
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=1)
    step = max(1, _BLOCK_BYTES // (8 * d * n))
    buf = np.empty((d, min(step, len(offsets)), n))
    norms = np.empty(len(offsets) * n)
    for k in range(offsets.start, offsets.stop, step):
        w = min(step, offsets.stop - k)
        sq = buf[:, :w]
        np.subtract(xt[:, None, :], windows[:, k:k + w], out=sq)
        sq *= sq
        at = (k - offsets.start) * n
        _sqrt_fsum(sq.reshape(d, -1), norms[at:at + w * n])
    return norms.tolist()


@lru_cache(maxsize=8)
def _within_sum(shape: tuple, data: bytes) -> float:
    """Exact sum of ||x_i - x_j|| over ordered pairs i != j of the (n, D)
    float64 set whose C-order bytes are ``data``.

    Offsets 1..n//2 reach each unordered pair once, except that for even n
    the last offset reaches each of its pairs twice (from i and i + n/2);
    that second half is dropped. ``x_i - x_j`` is the exact negation of
    ``x_j - x_i``, so each norm stands for both orders: the sum is twice
    the correctly rounded sum of the unordered pairs' norms. Doubling is
    exact, so that is ``math.fsum(norms + norms)`` bit for bit whenever it
    is finite; where the doubled sum exceeds the largest double it is inf,
    where ``fsum`` would raise ``OverflowError``. A norm is at most
    ``sqrt(DBL_MAX)``, about 1.3e154, so that takes some 1e154 pairs.
    """
    xt = np.frombuffer(data).reshape(shape).T
    n = xt.shape[1]
    norms = _offset_norms(xt, xt, range(1, n // 2 + 1))
    if n % 2 == 0:
        del norms[len(norms) - n // 2:]
    return 2.0 * math.fsum(norms)


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
    cross_offsets = range(1 if matched_pairs else 0, m)
    cross = math.fsum(_offset_norms(xa.T, xb.T, cross_offsets)) / cross_pairs
    within_a = _within_sum(xa.shape, xa.tobytes()) / (n * (n - 1))
    within_b = _within_sum(xb.shape, xb.tobytes()) / (m * (m - 1))
    return 2.0 * cross - (within_a + within_b)


# -- experiment harness ---------------------------------------------------


@dataclass
class EvalReport:
    """Rows of (style, steps, metric, n, seed) plus run metadata."""

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, style: str, steps: int, metric: float, n: int, seed: int) -> None:
        # A diverged arm gives a NaN or infinite metric; it is an error, not
        # a cell (clamping NaN would record the best score possible).
        if not math.isfinite(metric):
            raise ValueError(f"style {style!r}, step count {steps}: metric "
                             f"{metric} is not finite")
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


def eval_tokens(seed: int, n: int, vocab: int) -> np.ndarray:
    return np.random.default_rng([seed, 6101]).integers(0, vocab, size=n)


def eval_inputs(seed: int, n_conditions: int, dims) -> tuple:
    """(tokens, x_start): the condition tokens and start noise that every
    reference and arm set of one evaluation shares, each from its own
    stream and filled in clip order."""
    return (eval_tokens(seed, n_conditions, dims.vocab),
            start_noise([seed, 7919], n_conditions, dims))


def reference_set(bundle, sched, tokens, x_start, steps: int, w: float):
    """Teacher reference samples: the guided Euler traversal that also
    samples the generated datasets (``datagen.generate_distill_dataset``),
    with the predicted clean sample clamped as in every traversal."""
    return sample_batch(bundle, sched, steps, tokens, x_start, w=w)


def arm_set(bundle, sched, steps: int, tokens, x_start):
    """Distilled-arm samples: unguided Euler traversal at few steps, with
    the predicted clean sample clamped as in the student's trained stride,
    so one stride of an arm set is the stride the student was trained on."""
    return sample_batch(bundle, sched, steps, tokens, x_start)


def score_arms(bundles_by_style: dict, arms: dict, sched, references: dict,
               step_counts: list, tokens, x_start, seed: int) -> dict:
    """Each arm's distilled students at each step count versus the guided
    teacher; returns {arm: EvalReport}.

    ``bundles_by_style`` maps style name to the pretrained (undistilled)
    bundle; ``arms`` maps an arm name to its motion parameters by step
    count. ``references`` maps each scored style to its reference set,
    sampled by :func:`reference_set` from ``tokens`` and ``x_start`` (see
    :func:`eval_inputs`), which every arm and step count shares too. Every
    bundle shares one ``NetDims``. Rows come out style-major, in
    ``references`` order, then in ``step_counts`` order; ``seed`` is the
    seed the inputs were drawn from, recorded in each row.
    """
    reports = {arm: EvalReport() for arm in arms}
    for style, ref in references.items():
        pre = bundles_by_style[style]
        for arm, motion_by_steps in arms.items():
            for steps in step_counts:
                got = arm_set(pre._replace(motion=motion_by_steps[steps]),
                              sched, steps, tokens, x_start)
                reports[arm].add(style, steps, energy_distance(got, ref),
                                 len(tokens), seed)
    return reports
