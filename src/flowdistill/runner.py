"""End-to-end workflows over a run directory.

Layout of a workspace::

    <root>/
      checkpoints/base_<style>.ckpt      pretrained per-style base models
      checkpoints/motion_pretrained.ckpt pretrained shared motion module
      checkpoints/<arm>/motion_<stage>.ckpt   distilled per-stage outputs
      data/<name>.ds                     training datasets
      reports/*.csv, *.json              evaluation outputs

Every checkpoint records the config hash; loading under a different
configuration is an error. Distilled checkpoints also record the seed and
the resolved rank table, so a run with another seed or ``--ranks`` value
does not reuse them.

Each cached artifact has a load-only path beside the path that builds it
when it is missing: ``load_bundles`` beside ``pretrained_bundles`` for the
pretrained models, ``load_arm`` beside ``distill_arm`` for a distilled
arm. An arm's motion is keyed by step count, the ``to_steps`` of the plan
stage that produced it. ``evaluate`` scores any set of arms over styles
and step counts in one loop (``evalmetrics.score_arms``) and stamps each
report's provenance.
"""
from __future__ import annotations

import os

from .checkpoint import checkpoint_load, checkpoint_save
from .config import config_hash, dims_from_config, plan_from_config, schedule_from_config
from .datagen import (
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
from .distill import DistillContext, RankWorker, run_progressive
from .nets import (
    BASE_KEYS,
    BaseParams,
    MOTION_KEYS,
    MotionParams,
    StudentBundle,
    pretrain_base,
    pretrain_motion,
)
from .ranks import build_assignment, table_digest
from .evalmetrics import score_arms

__all__ = [
    "Workspace",
]

_DATASET_BUILDS = {
    "real": ("default",),
    "gen_realistic": ("real_a", "real_b"),
    "gen_anime": ("anime_a", "anime_b", "anime_c"),
}


class Workspace:
    """Caches pretrained models, datasets, and distilled checkpoints."""

    def __init__(self, cfg: dict, root: str):
        self.cfg = cfg
        self.root = root
        self.hash = config_hash(cfg)
        self.sched = schedule_from_config(cfg)
        self.dims = dims_from_config(cfg)
        os.makedirs(os.path.join(root, "checkpoints"), exist_ok=True)
        os.makedirs(os.path.join(root, "data"), exist_ok=True)
        os.makedirs(os.path.join(root, "reports"), exist_ok=True)

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

    def _check_hash(self, meta: dict, path: str) -> None:
        if meta.get("config_hash") not in (None, "unset", self.hash):
            raise ValueError(
                f"{path}: checkpoint was produced under config "
                f"{meta.get('config_hash')}, current config is {self.hash}")

    def _save_params(self, data: dict, path: str, **meta) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        checkpoint_save(dict(data), path, meta={"config_hash": self.hash, **meta})

    # -- pretraining ------------------------------------------------------

    def ground_truth(self, style_name: str, n: int | None = None) -> ClipDataset:
        style = style_by_name(style_name)
        n = n or self.cfg["data"]["ground_truth_clips"]
        return sample_ground_truth(style, n, self._seed("gt", style.style_id),
                                   frames=self.dims.frames,
                                   frame_dim=self.dims.frame_dim,
                                   vocab=self.dims.vocab)

    def _seed(self, tag: str, *extra) -> list:
        tags = {"gt": 11, "gen": 13, "base": 17, "motion": 19, "distill": 23}
        return [self.cfg["seed"], tags[tag], *extra]

    def _load_pretrained(self, name: str, keys) -> dict:
        path = self.ckpt_path(name)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"missing pretrained checkpoint {path}; run `flowdistill "
                f"pretrain` first")
        arrays, meta = checkpoint_load(path, expect=keys)
        self._check_hash(meta, path)
        return arrays

    def _load_base(self, style: str) -> BaseParams:
        return BaseParams(style_by_name(style).style_id, self.dims,
                          self._load_pretrained(f"base_{style}", BASE_KEYS))

    def _load_motion(self) -> MotionParams:
        return MotionParams(self.dims,
                            self._load_pretrained("motion_pretrained", MOTION_KEYS))

    def load_bundles(self, styles: list) -> dict:
        """Pretrained bundles by style, read from their checkpoints only.

        Raises ``FileNotFoundError`` when a base or the shared motion
        checkpoint is missing, and ``ValueError`` when one was produced
        under another config.
        """
        motion = self._load_motion()
        return {style: StudentBundle(self._load_base(style), motion)
                for style in styles}

    def pretrain_bases(self, styles=None, progress=None) -> dict:
        """Pretrain (or load cached) base models for the given styles."""
        pt = self.cfg["pretrain"]
        out = {}
        for style in styles or [s.name for s in STYLES]:
            spec = style_by_name(style)
            path = self.ckpt_path(f"base_{style}")
            if os.path.exists(path):
                out[style] = self._load_base(style)
                continue
            if progress:
                progress(f"pretraining base model for style {style}")
            ds = self.ground_truth(style)
            base, _ = pretrain_base(ds, self.sched, self.dims, spec.style_id,
                                    pt["base_steps"],
                                    self._seed("base", spec.style_id),
                                    lr=pt["lr"], batch=pt["batch"],
                                    cond_dropout=pt["cond_dropout"])
            self._save_params(base.data, path, style=style)
            out[style] = base
        return out

    def pretrain_shared_motion(self, default_base: BaseParams, progress=None) -> MotionParams:
        path = self.ckpt_path("motion_pretrained")
        if os.path.exists(path):
            return self._load_motion()
        if progress:
            progress("pretraining shared motion module")
        pt = self.cfg["pretrain"]
        ds = self.ground_truth("default")
        motion, _ = pretrain_motion(default_base, ds, self.sched,
                                    pt["motion_steps"], self._seed("motion"),
                                    lr=pt["lr"], batch=pt["batch"],
                                    cond_dropout=pt["cond_dropout"])
        self._save_params(motion.data, path)
        return motion

    def pretrained_bundles(self, styles=None, progress=None) -> dict:
        bases = self.pretrain_bases(styles, progress=progress)
        motion = self.pretrain_shared_motion(
            bases.get("default") or self.pretrain_bases(["default"])["default"],
            progress=progress)
        return {name: StudentBundle(base, motion) for name, base in bases.items()}

    # -- datasets ---------------------------------------------------------

    def build_datasets(self, bundles: dict, progress=None) -> dict:
        """Training datasets keyed by the rank table's dataset ids."""
        data_cfg = self.cfg["data"]
        out = {}
        for name, style_names in _DATASET_BUILDS.items():
            path = self.data_path(name)
            if os.path.exists(path):
                out[name] = load_dataset(path)
                continue
            if progress:
                progress(f"building dataset {name}")
            if name == "real":
                ds = self.ground_truth("default")
            else:
                parts = []
                for style_name in style_names:
                    spec = style_by_name(style_name)
                    parts.append(generate_distill_dataset(
                        bundles[style_name], self.sched, spec,
                        data_cfg["generated_clips"],
                        self._seed("gen", spec.style_id),
                        steps=data_cfg["gen_steps"], w=data_cfg["gen_cfg"]))
                ds = pool_by_group(parts)
            ds = flip_augment(ds)
            save_dataset(ds, path)
            out[name] = ds
        return out

    # -- distillation -------------------------------------------------------

    def _assignment(self, arm: str, n_ranks: int | None,
                    known_datasets=None) -> list:
        rows = self.cfg["ranks"] if arm == "cross" else [
            {"rank": 0, "style": "default", "dataset": "real"}]
        return build_assignment(rows, n_ranks=n_ranks,
                                known_datasets=known_datasets)

    def _context(self, bundles: dict, datasets: dict, arm: str,
                 n_ranks: int | None, seed: int) -> DistillContext:
        assignment = self._assignment(arm, n_ranks, set(datasets))
        flow_styles = sorted({a.style for a in assignment},
                             key=lambda s: style_by_name(s).style_id)
        flow_idx = {s: i for i, s in enumerate(flow_styles)}
        workers = [
            RankWorker(a, bundles[a.style].base, datasets[a.dataset],
                       flow_idx[a.style])
            for a in assignment
        ]
        return DistillContext(
            sched=self.sched, dims=self.dims, workers=workers,
            pretrained=bundles["default"], seed=seed,
            workdir=os.path.join(self.root, "checkpoints", arm))

    def load_arm(self, arm: str, n_ranks: int | None = None,
                 seed: int | None = None) -> dict:
        """Distilled motion by step count (each plan stage's ``to_steps``).

        Raises ``FileNotFoundError`` when a stage is missing or was
        distilled with another seed or rank table, and ``ValueError`` when
        it was produced under another config.
        """
        seed = self.cfg["seed"] if seed is None else seed
        ranks = table_digest(self._assignment(arm, n_ranks))
        out = {}
        for stage in plan_from_config(self.cfg).stages:
            path = self.ckpt_path(f"motion_{stage.name}", arm=arm)
            if not os.path.exists(path):
                raise FileNotFoundError(
                    f"missing distilled checkpoint {path}; run `flowdistill "
                    f"distill` first")
            arrays, meta = checkpoint_load(path, expect=MOTION_KEYS)
            self._check_hash(meta, path)
            if int(meta.get("seed", seed)) != seed or meta.get("ranks") != ranks:
                raise FileNotFoundError(
                    f"{path} was distilled with seed {meta.get('seed')} and "
                    f"rank table {meta.get('ranks')}, not seed {seed} and "
                    f"rank table {ranks}; run `flowdistill distill` again")
            out[stage.to_steps] = MotionParams(self.dims, arrays)
        return out

    def distill_arm(self, arm: str, bundles: dict, datasets: dict,
                    n_ranks: int | None = None, seed: int | None = None,
                    progress=None) -> dict:
        """Run the progressive plan for one arm, unless ``load_arm`` finds
        it; returns motion by step count, as ``load_arm`` does."""
        seed = self.cfg["seed"] if seed is None else seed
        try:
            return self.load_arm(arm, n_ranks, seed)
        except FileNotFoundError:
            pass
        if progress:
            progress(f"distilling arm {arm!r} (seed {seed})")
        ctx = self._context(bundles, datasets, arm, n_ranks, seed)
        plan = plan_from_config(self.cfg)
        _, per_stage, _ = run_progressive(plan, ctx, bundles["default"].motion,
                                          config_hash=self.hash)
        return {stage.to_steps: per_stage[stage.name] for stage in plan.stages}

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, bundles: dict, arms: dict, styles: list,
                 step_counts: list) -> dict:
        """Score each arm's motion by step count (see ``score_arms``);
        returns {arm: EvalReport} with each report's provenance."""
        ev = self.cfg["eval"]
        seed = self.cfg["seed"]
        reports = score_arms(bundles, arms, self.sched, styles, step_counts,
                             seed, ev["n_conditions"], ref_steps=ev["ref_steps"],
                             ref_cfg=ev["ref_cfg"])
        for arm, report in reports.items():
            report.metadata.update(
                arm=arm, seed=seed, n_conditions=ev["n_conditions"],
                ref_steps=ev["ref_steps"], ref_cfg=ev["ref_cfg"],
                config_hash=self.hash)
        return reports
