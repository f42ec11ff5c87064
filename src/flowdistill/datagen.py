"""Synthetic style universe and distillation datasets.

Every style is one Gaussian family. Given its condition token ``c`` a clip
of F frames and D = 2 coordinates is x0 ~ N(m_c, Sigma):

- m_c is the component mean (0, v_c) under the style's affine map
  (``scale``, then ``offset``), the same on every frame, with the v_c
  spanning [-spread, spread];
- Sigma is block-diagonal over the coordinates, one F x F block
  (SIGMA_BASE * scale_d)^2 K_rho per coordinate d, where K_rho is the AR(1)
  frame kernel rho ** |i - j|.

Styles are built symmetric about frame coordinate 0 so the flip
augmentation preserves each distribution.

The schedule is variance-preserving, so with a = sqrt(ab_t) and
b = sqrt(1 - ab_t) the noised marginal is N(a m_c, a^2 Sigma + b^2 I) and
the ideal noise prediction has a closed form, ``oracle_eps``:

    eps_star(x, t, c) = b (a^2 Sigma + b^2 I)^-1 (x - a m_c)

The null token (``vocab``), which condition dropout trains on the uniform
mixture over the vocab, takes the same formula with m_c replaced by the
posterior mean of the component. The components share Sigma, so their
posterior weights are the softmax over c of
-1/2 r_c^T (a^2 Sigma + b^2 I)^-1 r_c, with r_c = x - a m_c. At
t = T - 1 the oracle is the noised marginal's; training substitutes pure
noise for the model input there (``schedule.substitute_terminal_noise``).

``real_a`` is N(0, I): spread 0, unit deviation and independent frames.
Its noised marginals are N(0, I) at every timestep, so a traversal's
fidelity can be measured without start-distribution bias, and guidance is
a no-op on it.

A generated dataset is the guided teacher's samples from one traversal,
``solvers.sample_batch``: the sampler that also draws the evaluation's
reference sets, so the students train on, and are scored against, one
distribution.

A dataset file is a checkpoint file (see ``checkpoint``): float32
``clips``, int32 ``conditions``, and the provenance and style id as
metadata, beside whatever metadata the writer adds (a run's config hash).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import checkpoint_load, checkpoint_save
from .nets import NetDims
from .schedule import NoiseSchedule
from .solvers import sample_batch, start_noise

__all__ = [
    "StyleSpec",
    "STYLES",
    "style_by_name",
    "DATASET_STYLES",
    "ClipDataset",
    "sample_ground_truth",
    "generate_distill_dataset",
    "flip_augment",
    "pool_by_group",
    "oracle_eps",
    "save_dataset",
    "load_dataset",
]

GROUPS = ("default", "realistic_analog", "anime_analog", "unseen")

# Pooled datasets carry a pseudo style id; the group is recovered from it.
POOL_IDS = {"default": -1, "realistic_analog": -2, "anime_analog": -3, "unseen": -4}
_POOL_GROUPS = {v: k for k, v in POOL_IDS.items()}

SIGMA_BASE = 0.5  # per-coordinate deviation before a style's scale
# By default component means span [-COND_SPREAD, COND_SPREAD] on
# coordinate 1. The spread is kept comparable to SIGMA_BASE so that guidance
# sharpens the conditional distribution. At the default scale 7.5 some
# styles' guided trajectories still leave the data range (real_b reaches
# the x0 clamp).
COND_SPREAD = 0.6


@dataclass(frozen=True)
class StyleSpec:
    """One synthetic base-model style."""

    style_id: int
    name: str
    group: str
    scale: tuple  # per-coordinate scale; both entries nonzero
    offset: tuple  # coordinate 0 offset stays 0 for flip symmetry
    rho: float  # AR(1) frame correlation
    spread: float = COND_SPREAD  # component means span [-spread, spread]

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        if any(s == 0.0 for s in self.scale):
            raise ValueError("style transform must be invertible")
        if self.offset[0] != 0.0:
            raise ValueError("flip symmetry requires zero offset on coordinate 0")


# The deviation that matters is SIGMA_BASE * scale: the mixture styles keep
# it near 0.5, so every base model trains in a similar numeric regime, and
# real_a's scale (2, 2) gives it unit deviation. What separates the groups is
# the correlation profile and the offset/scale pattern, mirroring
# realistic-vs-anime styling.
STYLES = (
    StyleSpec(0, "default", "default", (1.0, 1.0), (0.0, 0.0), 0.8),
    StyleSpec(1, "real_a", "realistic_analog", (2.0, 2.0), (0.0, 0.0), 0.0, spread=0.0),
    StyleSpec(2, "real_b", "realistic_analog", (1.15, 0.9), (0.0, 0.25), 0.8),
    StyleSpec(3, "anime_a", "anime_analog", (0.8, 1.25), (0.0, -0.3), 0.6),
    StyleSpec(4, "anime_b", "anime_analog", (0.85, 1.2), (0.0, -0.2), 0.6),
    StyleSpec(5, "anime_c", "anime_analog", (0.75, 1.3), (0.0, -0.4), 0.6),
    StyleSpec(6, "unseen_near", "unseen", (1.1, 0.95), (0.0, 0.2), 0.8),
    StyleSpec(7, "unseen_far", "unseen", (0.6, 1.5), (0.0, -0.6), 0.3),
)

_BY_NAME = {s.name: s for s in STYLES}
_BY_ID = {s.style_id: s for s in STYLES}

# Training datasets by id, each with the styles whose clips it pools:
# ``real`` is the default style's ground truth, the others are generated by
# the styles' teachers. A rank trains on one of these.
DATASET_STYLES = {
    "real": ("default",),
    "gen_realistic": ("real_a", "real_b"),
    "gen_anime": ("anime_a", "anime_b", "anime_c"),
}

def style_by_name(name: str) -> StyleSpec:
    if name not in _BY_NAME:
        raise KeyError(f"unknown style {name!r}")
    return _BY_NAME[name]


def component_means(vocab: int, spread: float = COND_SPREAD) -> np.ndarray:
    """(vocab, 2) mixture component means on the shared base distribution."""
    v = np.linspace(-spread, spread, vocab)
    return np.stack([np.zeros(vocab), v], axis=1)


def ar1_kernel(rho: float, frames: int) -> np.ndarray:
    """K_rho: the AR(1) frame correlation rho ** |i - j|."""
    idx = np.arange(frames)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def ar1_cholesky(rho: float, frames: int) -> np.ndarray:
    return np.linalg.cholesky(ar1_kernel(rho, frames))


def oracle_eps(style: StyleSpec, x_t, t, tokens, sched: NoiseSchedule,
               vocab: int = 8) -> np.ndarray:
    """The ideal float64 noise prediction for ``style``'s clips ``x_t``
    (N, F, D) at timestep ``t`` (a scalar, or one per row) and condition
    ``tokens``, where ``vocab`` is the null token: the closed form in the
    module docstring.

    Sigma's blocks share the eigenbasis u of K_rho, so a^2 Sigma + b^2 I is
    diagonal in it, with one entry per row, eigenvalue and coordinate."""
    tokens = np.asarray(tokens)
    if tokens.shape != np.shape(x_t)[:1] or tokens.min() < 0 or tokens.max() > vocab:
        raise ValueError(f"need one token in [0, {vocab}] per clip")
    ab = np.broadcast_to(sched.alpha_bar(t), tokens.shape)[:, None, None]
    a = np.sqrt(ab)
    lam, u = np.linalg.eigh(ar1_kernel(style.rho, np.shape(x_t)[1]))
    var = ab * np.outer(lam, SIGMA_BASE ** 2 * np.square(style.scale)) + 1.0 - ab
    means = component_means(vocab, style.spread) * style.scale + style.offset
    ux = u.T @ x_t  # float64, in the eigenbasis
    ones = u.sum(axis=0)[:, None]  # the all-ones frame vector in the eigenbasis
    null = tokens == vocab
    mean = means[np.where(null, 0, tokens)]
    r = ux[null, None] - a[null, None] * ones * means[:, None]  # (nulls, vocab, F, D)
    logits = -0.5 * np.sum(r * r / var[null, None], axis=(2, 3))
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    mean[null] = (w / w.sum(axis=1, keepdims=True)) @ means
    y = (ux - a * ones * mean[:, None]) / var
    return np.sqrt(1.0 - ab) * (u @ y)


@dataclass
class ClipDataset:
    """Parallel clips and condition tokens with provenance tagging."""

    clips: np.ndarray  # (N, F, D) float32
    conditions: np.ndarray  # (N,) int32
    provenance: str  # ground_truth | teacher_generated
    group: str
    style_id: int  # negative pseudo ids mark pooled datasets
    meta: dict = field(default_factory=dict, repr=False)  # from the file read

    def __post_init__(self):
        self.clips = np.ascontiguousarray(self.clips, dtype=np.float32)
        self.conditions = np.ascontiguousarray(self.conditions, dtype=np.int32)
        if self.clips.ndim != 3:
            raise ValueError("clips must be (N, F, D)")
        if len(self.clips) != len(self.conditions):
            raise ValueError("clips and conditions must have equal length")
        if not np.all(np.isfinite(self.clips)):
            raise ValueError("clips must be finite")
        if self.provenance not in ("ground_truth", "teacher_generated"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r}")

    def __len__(self) -> int:
        return len(self.clips)


def _entropies(seed) -> tuple:
    """The entropies of a dataset's condition stream and noise stream: the
    parts of ``seed``, then 1 or 2. Neither is 0: an entropy shorter than 4
    words hashes as if zero-padded, so ``[*seed, 0]`` could be the stream
    of ``seed`` itself."""
    parts = [int(v) for v in (seed if isinstance(seed, (list, tuple, np.ndarray))
                              else [seed])]
    return parts + [1], parts + [2]


def sample_ground_truth(style: StyleSpec, n: int, seed, frames: int = 8,
                        vocab: int = 8) -> ClipDataset:
    """Draw ``n`` clips from a style's condition-indexed Gaussian mixture.

    The conditions come from one stream and the deviations from another
    (``_entropies``), each drawn in one call that fills in clip order, so
    clip ``i`` is the same for every ``n > i``. The arithmetic runs once
    over the stack.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    cond_entropy, noise_entropy = _entropies(seed)
    conds = np.random.default_rng(cond_entropy).integers(0, vocab, size=n)
    z = np.random.default_rng(noise_entropy).standard_normal(
        (n, frames, NetDims.frame_dim))
    dev = SIGMA_BASE * (ar1_cholesky(style.rho, frames) @ z)
    clips = ((component_means(vocab, style.spread)[conds, None] + dev)
             * np.asarray(style.scale) + np.asarray(style.offset))
    return ClipDataset(clips, conds, "ground_truth", style.group, style.style_id)


def generate_distill_dataset(bundle, sched: NoiseSchedule, style: StyleSpec,
                             n: int, seed, steps: int, w: float) -> ClipDataset:
    """Mass-generate clips from a pretrained teacher: ``sample_batch`` in
    ``steps`` guided Euler strides at scale ``w``, the traversal that also
    samples the evaluation's reference sets.

    The conditions come from one stream and the start noise from another
    (``_entropies``, ``solvers.start_noise``), each drawn in one call that
    fills in clip order, so clip ``i``'s inputs are the same for every
    ``n > i``.
    """
    if bundle is None:
        raise ValueError(f"missing teacher for style {style.name!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    cond_entropy, noise_entropy = _entropies(seed)
    conds = np.random.default_rng(cond_entropy).integers(0, bundle.dims.vocab, size=n)
    x_start = start_noise(noise_entropy, n, bundle.dims)
    clips = sample_batch(bundle, sched, steps, conds, x_start, w=w)
    return ClipDataset(clips, conds, "teacher_generated", style.group, style.style_id)


def flip_augment(ds: ClipDataset) -> ClipDataset:
    """Append copies with frame coordinate 0 negated, doubling the count."""
    flipped = ds.clips.copy()
    flipped[:, :, 0] = -flipped[:, :, 0]
    return ClipDataset(
        np.concatenate([ds.clips, flipped]),
        np.concatenate([ds.conditions, ds.conditions]),
        ds.provenance, ds.group, ds.style_id,
    )


def pool_by_group(datasets: list) -> ClipDataset:
    """Concatenate datasets of one group (and provenance) into a pool."""
    if not datasets:
        raise ValueError("nothing to pool")
    if len(datasets) == 1:
        return datasets[0]
    group = datasets[0].group
    prov = datasets[0].provenance
    for ds in datasets[1:]:
        if ds.group != group:
            raise ValueError(f"cannot pool groups {group!r} and {ds.group!r}")
        if ds.provenance != prov:
            raise ValueError("cannot pool mixed provenance")
    ids = {ds.style_id for ds in datasets}
    style_id = ids.pop() if len(ids) == 1 else POOL_IDS[group]
    return ClipDataset(
        np.concatenate([ds.clips for ds in datasets]),
        np.concatenate([ds.conditions for ds in datasets]),
        prov, group, style_id,
    )


# -- dataset files -------------------------------------------------------

def save_dataset(ds: ClipDataset, path, meta: dict | None = None) -> None:
    """Write ``ds`` atomically; ``meta`` adds metadata entries."""
    checkpoint_save({"clips": ds.clips, "conditions": ds.conditions}, path,
                    meta={"provenance": ds.provenance, "style_id": ds.style_id,
                          **(meta or {})})


def load_dataset(path) -> ClipDataset:
    """Read a ``save_dataset`` file; its metadata lands in ``meta``. A
    missing ``provenance`` or ``style_id``, a ``style_id`` that is not an
    integer or names no style or pool, and arrays or a provenance that
    ``ClipDataset`` refuses each raise ``ValueError`` naming ``path``."""
    arrays, meta = checkpoint_load(path, expect=("clips", "conditions"))
    for key in ("provenance", "style_id"):
        if key not in meta:
            raise ValueError(f"{path}: dataset meta is missing {key!r}")
    try:
        style_id = int(meta["style_id"])
    except ValueError:
        raise ValueError(f"{path}: dataset meta 'style_id' is not an integer: "
                         f"{meta['style_id']!r}") from None
    if style_id in _POOL_GROUPS:
        group = _POOL_GROUPS[style_id]
    elif style_id in _BY_ID:
        group = _BY_ID[style_id].group
    else:
        raise ValueError(f"{path}: dataset meta 'style_id' {style_id} names no "
                         "style or pool")
    try:
        return ClipDataset(arrays["clips"], arrays["conditions"],
                           meta["provenance"], group, style_id, meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
