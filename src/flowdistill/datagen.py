"""Synthetic style universe and distillation datasets.

Every style draws condition-indexed Gaussian clips from a shared base
distribution: component means are selected by the condition token, frame
deviations are correlated through an AR(1) kernel, and a per-style
invertible diagonal affine transform is applied last. Styles are built
symmetric about frame coordinate 0 so the flip augmentation preserves each
distribution.

One designated style (``real_a``) is a single isotropic unit Gaussian with
independent frames, which makes the ideal noise prediction available in
closed form for oracle tests:

    eps_star(x, t) = sqrt(1-ab) * (x - sqrt(ab) * mu) / (ab * var + 1 - ab)

Unit variance puts that style's noisy marginals at N(0, I) for every
timestep, so solver fidelity can be measured without start-distribution
bias.

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
    "analytic_eps_star",
    "analytic_mean",
    "ANALYTIC_STYLE",
    "ANALYTIC_VAR",
    "save_dataset",
    "load_dataset",
]

GROUPS = ("default", "realistic_analog", "anime_analog", "unseen")

# Pooled datasets carry a pseudo style id; the group is recovered from it.
POOL_IDS = {"default": -1, "realistic_analog": -2, "anime_analog": -3, "unseen": -4}
_POOL_GROUPS = {v: k for k, v in POOL_IDS.items()}

SIGMA_BASE = 0.5      # per-coordinate deviation scale of mixture styles
ANALYTIC_SIGMA = 1.0  # the single-component oracle style is N(0, I)
# Component means span [-COND_SPREAD, COND_SPREAD] on coordinate 1. The
# spread is kept comparable to SIGMA_BASE so that guidance sharpens the
# conditional distribution. At the default scale 7.5 some styles' guided
# trajectories still leave the data range (real_b reaches the x0 clamp).
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
    single_component: bool = False

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        if any(s == 0.0 for s in self.scale):
            raise ValueError("style transform must be invertible")
        if self.offset[0] != 0.0:
            raise ValueError("flip symmetry requires zero offset on coordinate 0")


# Transform scales stay near one so every base model trains in a similar
# numeric regime; what separates the groups is the correlation profile and
# the offset/scale pattern, mirroring realistic-vs-anime styling.
STYLES = (
    StyleSpec(0, "default", "default", (1.0, 1.0), (0.0, 0.0), 0.8),
    StyleSpec(1, "real_a", "realistic_analog", (1.0, 1.0), (0.0, 0.0), 0.0,
              single_component=True),
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

ANALYTIC_STYLE = _BY_NAME["real_a"]
ANALYTIC_VAR = ANALYTIC_SIGMA * ANALYTIC_SIGMA


def style_by_name(name: str) -> StyleSpec:
    if name not in _BY_NAME:
        raise KeyError(f"unknown style {name!r}")
    return _BY_NAME[name]


def style_by_id(style_id: int) -> StyleSpec:
    if style_id not in _BY_ID:
        raise KeyError(f"unknown style id {style_id}")
    return _BY_ID[style_id]


def component_means(vocab: int) -> np.ndarray:
    """(vocab, 2) mixture component means on the shared base distribution."""
    v = np.linspace(-COND_SPREAD, COND_SPREAD, vocab)
    return np.stack([np.zeros(vocab), v], axis=1)


def ar1_cholesky(rho: float, frames: int) -> np.ndarray:
    idx = np.arange(frames)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    return np.linalg.cholesky(cov)


def analytic_mean(frames: int, frame_dim: int) -> np.ndarray:
    """Per-frame mean of the analytic single-Gaussian style."""
    mu = np.zeros((frames, frame_dim))
    mu[:, 1] = ANALYTIC_STYLE.offset[1]
    return mu


def analytic_eps_star(x_t, t, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form ideal noise prediction for the analytic style."""
    x_t = np.asarray(x_t, dtype=np.float64)
    mu = analytic_mean(x_t.shape[-2], x_t.shape[-1])
    ab = np.asarray(sched.alpha_bar(t), dtype=np.float64)
    ab = ab.reshape(ab.shape + (1,) * (x_t.ndim - ab.ndim))
    return np.sqrt(1.0 - ab) * (x_t - np.sqrt(ab) * mu) / (ab * ANALYTIC_VAR + 1.0 - ab)


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
    scale = np.asarray(style.scale)
    offset = np.asarray(style.offset)
    if style.single_component:
        clips = offset + ANALYTIC_SIGMA * z
    else:
        dev = SIGMA_BASE * (ar1_cholesky(style.rho, frames) @ z)
        clips = (component_means(vocab)[conds, None] + dev) * scale + offset
    return ClipDataset(clips, conds, "ground_truth", style.group, style.style_id)


def generate_distill_dataset(bundle, sched: NoiseSchedule, style: StyleSpec,
                             n: int, seed, steps: int, w: float) -> ClipDataset:
    """Mass-generate clips from a pretrained teacher with the multistep solver.

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
    clips = sample_batch(bundle, sched, steps, conds, x_start, w=w, solver="multistep")
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
    """Read a ``save_dataset`` file; its metadata lands in ``meta``."""
    arrays, meta = checkpoint_load(path, expect=("clips", "conditions"))
    style_id = int(meta["style_id"])
    group = _POOL_GROUPS.get(style_id) or style_by_id(style_id).group
    return ClipDataset(arrays["clips"], arrays["conditions"], meta["provenance"],
                       group, style_id, meta)
