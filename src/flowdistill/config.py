"""Run configuration: a single JSON document with documented keys.

Sections:

* ``schedule``: ``T``, ``beta_start``, ``beta_end``. The desk-scale default
  uses 128 timesteps; see the constants below for how the endpoints were
  picked.
* ``nets``: widths shared by every network.
* ``data``: ground-truth and generated dataset sizes, generation settings.
* ``pretrain``: step counts and optimiser settings for base/motion training.
* ``distill``: per-stage iteration budget, micro-batch, accumulation,
  learning rates, and whether to append the experimental 2 -> 1 stage.
* ``ranks``: the worker table (rank, style, dataset rows). It is the only
  rank table: the cross-model arm distills against exactly these rows.
* ``eval``: evaluated styles, step counts, conditions per arm.
* ``seed``: global seed.
"""
from __future__ import annotations

import copy
import hashlib
import json

from .datagen import style_by_name
from .distill import DistillPlan, default_plan
from .nets import NetDims
from .ranks import DEFAULT_RANK_TABLE, build_assignment
from .schedule import build_schedule

__all__ = [
    "default_config",
    "load_config",
    "config_hash",
    "validate_config",
    "dims_from_config",
    "schedule_from_config",
    "plan_from_config",
]

_DESK_T = 128
# Endpoints chosen so that (a) the terminal signal fraction is 1%, small
# enough that sampling starts from unit noise yet gentle enough that the
# epsilon parameterisation's 1/sqrt(alpha_bar) error amplification through
# a guided traversal stays bounded, and (b) the 32-step multistep solver is
# distributionally accurate on the analytic style (deterministic gain there
# is +0.01%).
_BETA_START = 0.0018
_BETA_END = 0.068487


def default_config() -> dict:
    return {
        "seed": 0,
        "schedule": {
            "T": _DESK_T,
            "beta_start": _BETA_START,
            "beta_end": _BETA_END,
        },
        "nets": {
            "frames": 8,
            "frame_dim": 2,
            "hidden": 16,
            "time_dim": 16,
            "head_hidden": 32,
            "vocab": 8,
        },
        "data": {
            "ground_truth_clips": 20000,
            "generated_clips": 20000,
            "gen_steps": 32,
            "gen_cfg": 7.5,
        },
        "pretrain": {
            "base_steps": 12000,
            "motion_steps": 6000,
            "lr": 3e-3,
            "batch": 128,
            "cond_dropout": 0.15,
        },
        "distill": {
            "iterations": 600,
            "mse_iterations": 800,
            "micro_batch": 16,
            "grad_accum": 4,
            "lr_student": 1e-3,
            "lr_disc": 2e-3,
            "include_one_step": True,
        },
        "ranks": [dict(row) for row in DEFAULT_RANK_TABLE],
        # Two seen styles (one realistic-analog, one anime-analog) and two
        # unseen styles. The analytic single-Gaussian style is deliberately
        # not scored here: guidance is a no-op on a single component, so its
        # undistilled arm already sits at the reference and ratio-based
        # comparisons degenerate; it is exercised by the oracle tests and
        # the few-step ordering check instead.
        "eval": {
            "styles": ["real_b", "anime_a", "unseen_near", "unseen_far"],
            "step_counts": [1, 2, 4, 8],
            "n_conditions": 100,
            "ref_steps": 32,
            "ref_cfg": 7.5,
        },
    }


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {prefix + key!r}")
        if isinstance(value, dict) and isinstance(base[key], dict):
            out[key] = _merge(base[key], value, f"{prefix}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path_or_default: str) -> dict:
    """Read a JSON config file; the literal ``"default"`` loads defaults.

    Files may specify any subset of the keys of ``default_config()``; the
    rest fall back to defaults. Any other key, at any depth of a section,
    raises ``ValueError`` naming its dotted path.
    """
    if path_or_default == "default":
        cfg = default_config()
    else:
        with open(path_or_default) as fh:
            cfg = _merge(default_config(), json.load(fh))
    validate_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def dims_from_config(cfg: dict) -> NetDims:
    n = cfg["nets"]
    return NetDims(frames=n["frames"], frame_dim=n["frame_dim"],
                   hidden=n["hidden"], time_dim=n["time_dim"],
                   head_hidden=n["head_hidden"], vocab=n["vocab"])


def schedule_from_config(cfg: dict):
    s = cfg["schedule"]
    return build_schedule(s["T"], s["beta_start"], s["beta_end"])


def plan_from_config(cfg: dict) -> DistillPlan:
    d = cfg["distill"]
    return default_plan(d["iterations"], micro_batch=d["micro_batch"],
                        grad_accum=d["grad_accum"], lr_student=d["lr_student"],
                        lr_disc=d["lr_disc"],
                        include_one_step=d["include_one_step"],
                        mse_iterations=d["mse_iterations"])


def validate_config(cfg: dict) -> None:
    """Reject unknown styles, unseen styles in training, broken plans, eval
    step counts that no plan stage distills, and fewer than two eval
    conditions."""
    schedule_from_config(cfg)
    dims_from_config(cfg)
    plan = plan_from_config(cfg)
    if cfg["schedule"]["T"] % plan.stages[0].from_steps != 0:
        raise ValueError("schedule length must be divisible by the first "
                         "stage's step count")
    build_assignment(cfg["ranks"],
                     known_datasets={"real", "gen_realistic", "gen_anime"})
    for name in cfg["eval"]["styles"]:
        style_by_name(name)
    if cfg["eval"]["n_conditions"] < 2:
        raise ValueError("eval.n_conditions must be at least 2: the energy "
                         "distance needs two samples per set")
    plan_steps = [stage.to_steps for stage in plan.stages]
    for steps in cfg["eval"]["step_counts"]:
        if steps not in plan_steps:
            raise ValueError(f"eval step count {steps} is not distilled by "
                             f"any plan stage (to_steps {plan_steps})")
