"""Run configuration: a single JSON document with documented keys.

Sections:

* ``guidance``: the classifier-free guidance scale of every guided
  teacher traversal: data generation, the first stage's distillation
  target and the evaluation reference. One key sets all three, so a
  student is distilled from, and scored against, one guided teacher.
* ``teacher_steps``: the Euler step count of the guided teacher that
  samples the generated datasets and the evaluation references, through
  one sampler (``solvers.sample_batch``). It must divide the schedule's T.
* ``data``: ground-truth and generated dataset sizes.
* ``pretrain``: step counts and batch size of base/motion training.
* ``distill``: per-stage iteration budget, micro-batch and accumulation of
  the plan 128 -> 32 -> 8 -> 4 -> 2 -> 1.
* ``ranks``: the worker table, rows of ``rank`` (a non-negative id),
  ``style`` (a seen style) and ``dataset`` (a ``datagen.DATASET_STYLES``
  id). It is the only rank table: the cross-model arm distills against
  exactly these rows. The id ``distill.DISC_STREAM`` is reserved.
* ``eval``: evaluated styles, step counts, conditions per arm.
* ``seed``: global seed.

What no run varies is not a key. The noise schedule is
``schedule.SCHEDULE``, the network widths are the ``nets.NetDims()``
defaults, the pretraining learning rate and condition dropout are
``nets.PRETRAIN_LR`` and ``nets.COND_DROPOUT``, and the distillation
learning rates are the defaults of ``distill.StageConfig``.
``config_hash`` hashes the schedule's endpoints, the widths and the four
rates with the config, so an edit of any of them refuses the artifacts
built before it.

A config is checked once, where it enters (``load_config`` calls
``validate_config``): every key and the JSON type of every value against
``default_config()``, then what the values must mean together.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math

from .datagen import DATASET_STYLES, style_by_name
from .distill import DISC_STREAM, DistillPlan, StageConfig
from .nets import COND_DROPOUT, PRETRAIN_LR, NetDims
from .schedule import SCHEDULE

__all__ = [
    "default_config",
    "load_config",
    "config_hash",
    "validate_config",
    "plan_from_config",
]


def default_config() -> dict:
    return {
        "seed": 0,
        "guidance": 7.5,
        "teacher_steps": 32,
        "data": {
            "ground_truth_clips": 20000,
            "generated_clips": 20000,
        },
        "pretrain": {
            "base_steps": 12000,
            "motion_steps": 6000,
            "batch": 128,
        },
        "distill": {
            "iterations": 600,
            "mse_iterations": 800,
            "micro_batch": 16,
            "grad_accum": 4,
        },
        # Mirrors the 8-worker roster: two default-base workers on real
        # data, two realistic-analog workers on the pooled realistic set,
        # four anime-analog workers on the pooled anime set.
        "ranks": [
            {"rank": 0, "style": "default", "dataset": "real"},
            {"rank": 1, "style": "default", "dataset": "real"},
            {"rank": 2, "style": "real_a", "dataset": "gen_realistic"},
            {"rank": 3, "style": "real_b", "dataset": "gen_realistic"},
            {"rank": 4, "style": "anime_a", "dataset": "gen_anime"},
            {"rank": 5, "style": "anime_a", "dataset": "gen_anime"},
            {"rank": 6, "style": "anime_b", "dataset": "gen_anime"},
            {"rank": 7, "style": "anime_c", "dataset": "gen_anime"},
        ],
        # Two seen styles (one realistic-analog, one anime-analog) and two
        # unseen styles. real_a, a single unit Gaussian, is deliberately not
        # scored here: guidance is a no-op on a single component, so its
        # undistilled arm already sits at the reference and ratio-based
        # comparisons degenerate. Instead, tests use its closed-form noise
        # prediction (``datagen.oracle_eps``, which covers every style) as
        # the oracle for a pretrained base and for the solvers.
        "eval": {
            "styles": ["real_b", "anime_a", "unseen_near", "unseen_far"],
            "step_counts": [1, 2, 4, 8],
            "n_conditions": 100,
        },
    }


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


_KINDS = ((int, "an integer"), (float, "a number"),
          (str, "a string"), (list, "a list"), (dict, "an object"))


def _check_types(value, default, path: str = "") -> None:
    """Raise ``ValueError`` naming the dotted key where ``value`` departs
    from the shape of ``default``: an object must have exactly the
    default's keys, each list item the type of the default's first item,
    and each scalar the default's type. An int counts as a float, if a
    float can hold it, and is stored as one, so that ``7`` and ``7.0``
    hash alike; no key takes a bool; a float must be finite."""
    kind, name = next(k for k in _KINDS if isinstance(default, k[0]))
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool)):
        raise ValueError(f"config key {path!r} must be {name}, "
                         f"not {type(value).__name__}")
    if kind is float:
        try:
            finite = math.isfinite(float(value))
        except OverflowError:  # an int past the float range
            raise ValueError(f"config key {path!r} must be finite, got an "
                             f"integer of {len(str(abs(value)))} digits") from None
        if not finite:
            raise ValueError(f"config key {path!r} must be finite, got {value}")
    prefix = f"{path}." if path else ""
    if kind is dict:
        for key in value:
            if key not in default:
                raise ValueError(f"unknown config key {prefix + key!r}")
        for key in default:
            if key not in value:
                raise ValueError(f"missing config key {prefix + key!r}")
            _check_types(value[key], default[key], prefix + key)
            if isinstance(default[key], float):
                value[key] = float(value[key])
    elif kind is list:
        for i, item in enumerate(value):
            _check_types(item, default[0], f"{prefix}{i}")


def load_config(path_or_default: str) -> dict:
    """Read a JSON config file; the literal ``"default"`` loads defaults.

    Files may specify any subset of the keys of ``default_config()``; the
    rest fall back to defaults. The document must be an object; any other
    fault is one of ``validate_config``.
    """
    if path_or_default == "default":
        cfg = default_config()
    else:
        with open(path_or_default) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, "
                             f"not {type(doc).__name__}")
        cfg = _merge(default_config(), doc)
    validate_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    """16 hex digits of the SHA-256 of ``cfg`` with the schedule's endpoints,
    the network widths and the learning rates and condition dropout, the
    constants every artifact depends on."""
    betas = SCHEDULE.betas
    doc = {**cfg, "schedule": [SCHEDULE.T, float(betas[0]), float(betas[-1])],
           "nets": dataclasses.asdict(NetDims()),
           "rates": {"pretrain_lr": PRETRAIN_LR, "cond_dropout": COND_DROPOUT,
                     "lr_student": StageConfig.lr_student,
                     "lr_disc": StageConfig.lr_disc}}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def plan_from_config(cfg: dict) -> DistillPlan:
    """128 -> 32 -> 8 -> 4 -> 2 -> 1.

    The MSE stage runs ``distill.mse_iterations``; the adversarial stages
    run ``distill.iterations`` per phase."""
    d = cfg["distill"]
    common = dict(micro_batch=d["micro_batch"], grad_accum=d["grad_accum"])
    steps = [32, 8, 4, 2, 1]
    stages = [StageConfig(128, 32, "mse_cfg", d["mse_iterations"],
                          cfg_scale=cfg["guidance"], **common)]
    stages += [StageConfig(a, b, "adversarial", d["iterations"], **common)
               for a, b in zip(steps, steps[1:])]
    return DistillPlan(tuple(stages))


def _validate_ranks(rows: list) -> None:
    if not rows:
        raise ValueError("need at least one rank")
    seen = set()
    for i, row in enumerate(rows):
        if row["rank"] in seen:
            raise ValueError(f"duplicate rank id {row['rank']}")
        if row["rank"] < 0:  # a generator seed cannot hold it
            raise ValueError(f"negative rank id {row['rank']}")
        if row["rank"] == DISC_STREAM:  # its rows would reuse the head's draws
            raise ValueError(f"ranks.{i}.rank: id {DISC_STREAM} is reserved "
                             "for the discriminator's random stream")
        seen.add(row["rank"])
        if style_by_name(row["style"]).group == "unseen":  # raises on unknown
            raise ValueError(f"unseen style {row['style']!r} cannot be trained on")
        if row["dataset"] not in DATASET_STYLES:
            raise ValueError(f"unknown dataset {row['dataset']!r}")


# (section, key, least value) of every size and step count.
_LEAST = (
    ("data", "ground_truth_clips", 1),
    ("data", "generated_clips", 1),
    ("pretrain", "batch", 1),
    ("pretrain", "base_steps", 0),
    ("pretrain", "motion_steps", 0),
    ("distill", "iterations", 0),
    ("distill", "mse_iterations", 0),
    ("distill", "micro_batch", 1),
    ("distill", "grad_accum", 1),
)


def validate_config(cfg: dict) -> None:
    """Reject keys and JSON types that ``default_config()`` does not have,
    a non-finite number, a negative seed, sizes that cannot mean anything
    (a clip count, batch or accumulation count below 1, a negative step or
    iteration count), unknown styles, rank tables that are empty, list a
    rank id twice, a negative one or ``distill.DISC_STREAM``, train on an
    unseen style or name an unknown dataset, eval step counts that no plan
    stage distills, a style or step count listed twice in ``eval`` (its
    cells would be scored and written twice), fewer than two eval
    conditions, a ``teacher_steps`` that does not divide T and a negative
    ``guidance``."""
    _check_types(cfg, default_config())
    if cfg["seed"] < 0:  # a generator seed cannot hold it
        raise ValueError(f"seed must be non-negative, got {cfg['seed']}")
    for section, key, least in _LEAST:
        if cfg[section][key] < least:
            raise ValueError(f"{section}.{key} must be >= {least}, "
                             f"got {cfg[section][key]}")
    T, steps = SCHEDULE.T, cfg["teacher_steps"]
    if steps < 1 or T % steps:
        raise ValueError(f"teacher_steps must divide T = {T}, got {steps}")
    if cfg["guidance"] < 0:  # the sampler guides only when w > 0
        raise ValueError(f"guidance must be >= 0, got {cfg['guidance']}")
    plan = plan_from_config(cfg)
    _validate_ranks(cfg["ranks"])
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
    for key in ("styles", "step_counts"):
        values = cfg["eval"][key]
        if not values:
            raise ValueError(f"eval.{key} must list at least one value")
        if len(set(values)) != len(values):
            raise ValueError(f"eval.{key} lists a value twice: {values}")
