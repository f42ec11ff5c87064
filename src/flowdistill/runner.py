"""End-to-end workflows over a run directory.

Layout of a workspace::

    <root>/
      checkpoints/base_<style>.ckpt      pretrained per-style base models
      checkpoints/motion_pretrained.ckpt pretrained shared motion module
      checkpoints/<arm>/motion_<stage>.ckpt   distilled per-stage outputs
      data/<name>.ds                     training datasets
      references/<style>.ckpt            a style's teacher reference set
      reports/*.csv, *.json              evaluation outputs

Every artifact is one file in the checkpoint format (``checkpoint``), and
a directory is made only when a file is written into it. A model's
parameters are the arrays its checkpoint holds, as the dict that
``checkpoint_load`` returns; ``StudentBundle`` pairs a base model's dict
with the motion module's.

One cache rule serves every artifact (``Workspace._cached``): a file that
exists is loaded and its metadata checked. Each file records the config
hash, and one produced under another config, or with no hash, is refused.
A missing file is built and written atomically, so an interrupted command
leaves every file whole or absent. The config's ``ranks`` section is the
only rank table, so the config hash also names the table that each
distilled stage was trained on. The table was validated when the config
was loaded; the cross-model arm turns its rows into ``distill.Rank``
tuples as they stand, and the single-model arm trains one rank on the
default base and the real dataset. Every training dataset of
``datagen.DATASET_STYLES`` is built for both.

The base models are pretrained in blocks: ``pretrain_bases`` stacks the
missing styles' bases in the blocks of ``solvers.rank_blocks`` (whole
bases together up to ``solvers.SAMPLE_BATCH`` rows, four at the default
batch of 128) and trains each block as one stack (``nets.pretrain_base``).
Every base gets the bits of training it alone, so which bases share a
block does not change any checkpoint, and an interrupted pretraining
resumes by training only the missing styles.

Each cached artifact has a load-only path beside the path that builds it
when it is missing: ``load_bundles`` (or ``load_base`` for one base model)
beside ``pretrained_bundles`` for the pretrained models, ``load_arm``
beside ``distill_arm`` for a distilled arm. ``distill_arm`` caches each
plan stage on its own and trains a stage from the one before it, so an
interrupted plan resumes from its last finished stage; training is
deterministic per stage, so the result equals an uninterrupted run. An
arm's motion is keyed by step count, the ``to_steps`` of the plan stage
that produced it. ``evaluate`` scores any set of arms over styles and step
counts (``evalmetrics.score_arms``, one traversal per arm and step count
over every scored style's base, stacked) and stamps each report's
provenance. Each style's reference set, the guided teacher's samples that
every cell of the style is scored against, is a cached artifact too: an
evaluation loads the cached ones first, samples every missing one in one
traversal over their bases, stacked, and writes each; every later
evaluation, ``eval`` and ``ablate`` alike, reads it back bit for bit.
Each style of a stacked traversal gets the bits of sampling it alone, so
which styles were cached does not change any reference. The generated
datasets and the reference sets are samples of one guided teacher: one
``solvers.sample_batch`` traversal of the config's ``teacher_steps``
strides at scale ``guidance``.
"""
from __future__ import annotations

import os
from functools import partial

import numpy as np

from .checkpoint import checkpoint_load, checkpoint_save
from .config import config_hash, plan_from_config
from .datagen import (
    DATASET_STYLES,
    ClipDataset,
    STYLES,
    flip_augment,
    generate_distill_dataset,
    load_dataset,
    pool_by_group,
    sample_ground_truth,
    save_dataset,
    style_by_name,
)
from .distill import DistillContext, Rank, run_stage
from .nets import (
    BASE_KEYS,
    MOTION_KEYS,
    NetDims,
    StudentBundle,
    pretrain_base,
    pretrain_motion,
    stack_bases,
)
from .evalmetrics import eval_inputs, reference_set, score_arms
from .schedule import SCHEDULE
from .solvers import rank_blocks

__all__ = [
    "Workspace",
]


def _read_dataset(path, vocab: int) -> tuple:
    """A dataset file and its metadata; a condition outside ``[0, vocab)``
    (the null token included) raises ``ValueError`` naming ``path``."""
    ds = load_dataset(path)
    if len(ds) and (ds.conditions.min() < 0 or ds.conditions.max() >= vocab):
        raise ValueError(f"{path}: dataset conditions outside [0, {vocab})")
    return ds, ds.meta


class Workspace:
    """Caches pretrained models, datasets, and distilled checkpoints."""

    def __init__(self, cfg: dict, root: str):
        self.cfg = cfg
        self.root = root
        self.hash = config_hash(cfg)
        self.sched = SCHEDULE
        self.dims = NetDims()
        self._ground_truth: dict = {}

    # -- paths ----------------------------------------------------------

    def ckpt_path(self, name: str, arm: str | None = None) -> str:
        parts = [self.root, "checkpoints"]
        if arm:
            parts.append(arm)
        return os.path.join(*parts, f"{name}.ckpt")

    def data_path(self, name: str) -> str:
        return os.path.join(self.root, "data", f"{name}.ds")

    def report_path(self, name: str) -> str:
        return os.path.join(self.root, "reports", name)

    def reference_path(self, style: str) -> str:
        return os.path.join(self.root, "references", f"{style}.ckpt")

    # -- the cache --------------------------------------------------------

    def _cached(self, path: str, load, save, build=None):
        """The artifact at ``path``: loaded if it exists, else built.

        ``load(path)`` returns (value, metadata). A file from another
        config, or with no config hash, raises ``ValueError``. A missing
        file is ``build()``-ed and written by ``save(value, path, meta)``
        with the config hash as its only metadata. With no ``build``, a
        missing file raises ``FileNotFoundError``.
        """
        if os.path.exists(path):
            value, meta = load(path)
            if meta.get("config_hash") != self.hash:
                raise ValueError(
                    f"{path}: produced under config {meta.get('config_hash')}, "
                    f"current config is {self.hash}")
            return value
        if build is None:
            raise FileNotFoundError(f"missing {path}")
        value = build()
        save(value, path, {"config_hash": self.hash})
        return value

    def _arrays(self, path: str, keys, build=None) -> dict:
        """Named arrays of one checkpoint, through ``_cached``; ``build()``
        returns the arrays."""
        return self._cached(path, partial(checkpoint_load, expect=keys),
                            checkpoint_save, build)

    # -- pretraining ------------------------------------------------------

    def ground_truth(self, style_name: str) -> ClipDataset:
        """A style's ground-truth clips, drawn once per workspace."""
        if style_name not in self._ground_truth:
            style = style_by_name(style_name)
            self._ground_truth[style_name] = sample_ground_truth(
                style, self.cfg["data"]["ground_truth_clips"],
                self._seed("gt", style.style_id), frames=self.dims.frames,
                vocab=self.dims.vocab)
        return self._ground_truth[style_name]

    def _seed(self, tag: str, *extra) -> list:
        tags = {"gt": 11, "gen": 13, "base": 17, "motion": 19}
        return [self.cfg["seed"], tags[tag], *extra]

    def _base(self, style: str, build=None) -> dict:
        return self._arrays(self.ckpt_path(f"base_{style}"), BASE_KEYS, build)

    def _motion(self, build=None) -> dict:
        return self._arrays(self.ckpt_path("motion_pretrained"), MOTION_KEYS, build)

    def load_base(self, style: str) -> dict:
        """A pretrained base model, read from its checkpoint only."""
        return self._base(style)

    def load_bundles(self, styles: list) -> dict:
        """Pretrained bundles by style, read from their checkpoints only.

        Raises ``FileNotFoundError`` when a base or the shared motion
        checkpoint is missing, and ``ValueError`` when one was produced
        under another config.
        """
        motion = self._motion()
        return {style: StudentBundle(self._base(style), motion, self.dims)
                for style in styles}

    def pretrain_bases(self, progress=None) -> dict:
        """Pretrain (or load cached) the base model of every style.

        The cached bases are loaded first, so a file from another config
        is refused before anything trains. The missing ones train in the
        blocks of ``solvers.rank_blocks``, stacked (``nets.pretrain_base``),
        and each is written through the cache: every base gets the bits of
        training it alone, so a partly cached run trains only what is
        missing and ends as an uninterrupted one.
        """
        pt = self.cfg["pretrain"]
        missing = [s for s in STYLES
                   if not os.path.exists(self.ckpt_path(f"base_{s.name}"))]
        bases = {s.name: self._base(s.name) for s in STYLES if s not in missing}
        for lo, hi in rank_blocks(len(missing), pt["batch"]):
            block = missing[lo:hi]
            if progress:
                progress("pretraining base models for styles "
                         + ", ".join(s.name for s in block))
            trained = pretrain_base([self.ground_truth(s.name) for s in block],
                                    self.sched, self.dims, pt["base_steps"],
                                    [self._seed("base", s.style_id) for s in block],
                                    batch=pt["batch"])
            for style, (base, _) in zip(block, trained):
                bases[style.name] = self._base(style.name, lambda base=base: base)
        return {s.name: bases[s.name] for s in STYLES}

    def pretrain_shared_motion(self, default_base: dict, progress=None) -> dict:
        def build():
            if progress:
                progress("pretraining shared motion module")
            pt = self.cfg["pretrain"]
            return pretrain_motion(default_base, self.ground_truth("default"),
                                   self.sched, self.dims, pt["motion_steps"],
                                   self._seed("motion"), batch=pt["batch"])[0]

        return self._motion(build)

    def pretrained_bundles(self, progress=None) -> dict:
        bases = self.pretrain_bases(progress=progress)
        motion = self.pretrain_shared_motion(bases["default"], progress=progress)
        return {name: StudentBundle(base, motion, self.dims)
                for name, base in bases.items()}

    # -- datasets ---------------------------------------------------------

    def build_datasets(self, bundles: dict, progress=None) -> dict:
        """Training datasets keyed by the rank table's dataset ids."""
        def build(name, style_names):
            if progress:
                progress(f"building dataset {name}")
            if name == "real":
                return flip_augment(self.ground_truth("default"))
            parts = []
            for style_name in style_names:
                spec = style_by_name(style_name)
                parts.append(generate_distill_dataset(
                    bundles[style_name], self.sched, spec,
                    self.cfg["data"]["generated_clips"],
                    self._seed("gen", spec.style_id),
                    steps=self.cfg["teacher_steps"], w=self.cfg["guidance"]))
            return flip_augment(pool_by_group(parts))

        read = partial(_read_dataset, vocab=self.dims.vocab)
        return {name: self._cached(self.data_path(name), read, save_dataset,
                                   partial(build, name, style_names))
                for name, style_names in DATASET_STYLES.items()}

    # -- distillation -------------------------------------------------------

    def _context(self, bundles: dict, datasets: dict, arm: str) -> DistillContext:
        rows = self.cfg["ranks"] if arm == "cross" else [
            {"rank": 0, "style": "default", "dataset": "real"}]
        flow_styles = sorted({row["style"] for row in rows},
                             key=lambda s: style_by_name(s).style_id)
        flow_idx = {s: i for i, s in enumerate(flow_styles)}
        ranks = [Rank(row["rank"], bundles[row["style"]].base,
                      datasets[row["dataset"]], flow_idx[row["style"]])
                 for row in rows]
        return DistillContext(
            sched=self.sched, dims=self.dims, ranks=ranks,
            pretrained=bundles["default"], seed=self.cfg["seed"],
            workdir=os.path.join(self.root, "checkpoints", arm))

    def _stages(self, arm: str, train=None, teacher=None) -> dict:
        """Motion by step count of each plan stage, through ``_cached``;
        ``train(stage, teacher)`` builds a stage from the one before it,
        the first from ``teacher``."""
        out = {}
        for stage in plan_from_config(self.cfg).stages:
            build = partial(train, stage, teacher) if train else None
            teacher = self._arrays(self.ckpt_path(f"motion_{stage.name}", arm=arm),
                                   MOTION_KEYS, build)
            out[stage.to_steps] = teacher
        return out

    def load_arm(self, arm: str) -> dict:
        """Distilled motion by step count (each plan stage's ``to_steps``).

        Raises ``FileNotFoundError`` when a stage is missing, and
        ``ValueError`` when it was produced under another config.
        """
        return self._stages(arm)

    def distill_arm(self, arm: str, bundles: dict, datasets: dict,
                    progress=None) -> dict:
        """Motion by step count, as ``load_arm`` returns it, distilling
        each stage that is missing from the stage before it."""
        ctx = self._context(bundles, datasets, arm)

        def train(stage, teacher):
            if progress:
                progress(f"distilling arm {arm!r}: stage {stage.name}")
            return run_stage(stage, ctx, teacher)[0]

        return self._stages(arm, train, bundles["default"].motion)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, bundles: dict, arms: dict, styles: list,
                 step_counts: list) -> dict:
        """Score each arm's motion by step count (see ``score_arms``)
        against each style's cached reference set; returns {arm: EvalReport}
        with each report's provenance.

        The cached references are loaded first, so a file from another
        config is refused before anything is sampled. The missing ones are
        sampled in one guided ``reference_set`` over their bases stacked
        in ``styles`` order, beside the bundles' shared motion module, and
        each is written through the cache: every style gets the bits of
        sampling it alone, so which styles were cached does not change any
        reference.
        """
        ev = self.cfg["eval"]
        seed, steps, w = self.cfg["seed"], self.cfg["teacher_steps"], self.cfg["guidance"]
        tokens, x_start = eval_inputs(seed, ev["n_conditions"], self.dims)
        missing = [s for s in styles if not os.path.exists(self.reference_path(s))]
        refs = {s: self._reference(s) for s in styles if s not in missing}
        if missing:
            stack = bundles[missing[0]]._replace(
                base=stack_bases([bundles[s].base for s in missing]))
            clips = reference_set(stack, self.sched, tokens, x_start, steps=steps, w=w)
            for style, ref in zip(missing, np.split(clips, len(missing))):
                refs[style] = self._reference(style, lambda ref=ref: {"clips": ref})
        references = {s: refs[s]["clips"] for s in styles}
        reports = score_arms(bundles, arms, self.sched, references, step_counts,
                             tokens, x_start, seed)
        for arm, report in reports.items():
            report.metadata.update(
                arm=arm, seed=seed, n_conditions=ev["n_conditions"],
                teacher_steps=steps, guidance=w, config_hash=self.hash)
        return reports

    def _reference(self, style: str, build=None) -> dict:
        return self._arrays(self.reference_path(style), ("clips",), build)
