"""Run configuration: a single JSON document with documented keys.

Sections:

* ``schedule``: ``T``, ``beta_start``, ``beta_end``. The desk-scale default
  uses 128 timesteps; see the constants below for how the endpoints were
  picked.
* ``nets``: widths shared by every network (a frame's 2 coordinates are
  ``NetDims.frame_dim``, not a key).
* ``guidance``: the classifier-free guidance scale of every guided
  teacher traversal: data generation, the first stage's distillation
  target and the evaluation reference. One key sets all three, so a
  student is distilled from, and scored against, one guided teacher.
* ``data``: ground-truth and generated dataset sizes, generation steps.
* ``pretrain``: step counts and optimiser settings for base/motion training.
* ``distill``: per-stage iteration budget, micro-batch, accumulation,
  learning rates, and whether to append the experimental 2 -> 1 stage.
* ``ranks``: the worker table, rows of ``rank`` (a non-negative id),
  ``style`` (a seen style) and ``dataset`` (a ``datagen.DATASET_STYLES``
  id). It is the only rank table: the cross-model arm distills against
  exactly these rows. The id ``distill.DISC_STREAM`` is reserved.
* ``eval``: evaluated styles, step counts, conditions per arm.
* ``seed``: global seed.

A config is checked once, where it enters (``load_config`` calls
``validate_config``): every key and the JSON type of every value against
``default_config()``, then what the values must mean together.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math

from .datagen import DATASET_STYLES, style_by_name
from .distill import DISC_STREAM, DistillPlan, StageConfig
from .nets import NetDims
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
        "guidance": 7.5,
        "schedule": {
            "T": _DESK_T,
            "beta_start": _BETA_START,
            "beta_end": _BETA_END,
        },
        "nets": {
            "frames": 8,
            "hidden": 16,
            "time_dim": 16,
            "head_hidden": 32,
            "vocab": 8,
        },
        "data": {
            "ground_truth_clips": 20000,
            "generated_clips": 20000,
            "gen_steps": 32,
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
        # unseen styles. The analytic single-Gaussian style is deliberately
        # not scored here: guidance is a no-op on a single component, so its
        # undistilled arm already sits at the reference and ratio-based
        # comparisons degenerate. Instead, tests use its closed-form noise
        # prediction (``datagen.analytic_eps_star``) as the oracle for a
        # pretrained base and for the solvers.
        "eval": {
            "styles": ["real_b", "anime_a", "unseen_near", "unseen_far"],
            "step_counts": [1, 2, 4, 8],
            "n_conditions": 100,
            "ref_steps": 32,
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


_KINDS = ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
          (str, "a string"), (list, "a list"), (dict, "an object"))


def _check_types(value, default, path: str = "") -> None:
    """Raise ``ValueError`` naming the dotted key where ``value`` departs
    from the shape of ``default``: an object must have exactly the
    default's keys, each list item the type of the default's first item,
    and each scalar the default's type. An int counts as a float, if a
    float can hold it; a bool is not an int; a float must be finite."""
    kind, name = next(k for k in _KINDS if isinstance(default, k[0]))
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) and kind is not bool):
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
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def dims_from_config(cfg: dict) -> NetDims:
    return NetDims(**cfg["nets"])


def schedule_from_config(cfg: dict):
    s = cfg["schedule"]
    return build_schedule(s["T"], s["beta_start"], s["beta_end"])


def plan_from_config(cfg: dict) -> DistillPlan:
    """128 -> 32 -> 8 -> 4 -> 2, then -> 1 when ``distill.include_one_step``
    (experimental: the one-step epsilon formulation is known to be noisy).

    The MSE stage runs ``distill.mse_iterations``; the adversarial stages
    run ``distill.iterations`` per phase."""
    d = cfg["distill"]
    common = dict(micro_batch=d["micro_batch"], grad_accum=d["grad_accum"],
                  lr_student=d["lr_student"], lr_disc=d["lr_disc"])
    steps = [32, 8, 4, 2] + ([1] if d["include_one_step"] else [])
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


# (section, key, least value) of every width, size and step count.
_LEAST = (
    *(("nets", key, 1) for key in default_config()["nets"]),
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
_RATES = (("pretrain", "lr"), ("distill", "lr_student"), ("distill", "lr_disc"))


def _validate_sizes(cfg: dict) -> None:
    for section, key, least in _LEAST:
        if cfg[section][key] < least:
            raise ValueError(f"{section}.{key} must be >= {least}, "
                             f"got {cfg[section][key]}")
    for section, key in _RATES:
        if cfg[section][key] <= 0:
            raise ValueError(f"{section}.{key} must be > 0, got {cfg[section][key]}")
    time_dim = cfg["nets"]["time_dim"]
    if time_dim % 2:  # sine and cosine features come in pairs
        raise ValueError(f"nets.time_dim must be even, got {time_dim}")
    dropout = cfg["pretrain"]["cond_dropout"]
    if not 0 <= dropout <= 1:
        raise ValueError(f"pretrain.cond_dropout must be in [0, 1], got {dropout}")


def validate_config(cfg: dict) -> None:
    """Reject keys and JSON types that ``default_config()`` does not have,
    a non-finite number, a negative seed, sizes that cannot mean anything
    (a net width, clip count, batch or accumulation count below 1, a
    negative step or iteration count, an odd ``nets.time_dim``, a learning
    rate <= 0, a ``pretrain.cond_dropout`` outside [0, 1]), unknown styles,
    rank tables that are empty, list a rank id twice, a negative one or
    ``distill.DISC_STREAM``, train on an unseen style or name an unknown
    dataset, broken plans, eval step counts that no plan stage distills, a
    style or step count listed twice in ``eval`` (its cells would be scored
    and written twice), fewer than two eval conditions, teacher step
    counts (``data.gen_steps``, ``eval.ref_steps``) outside [1, T] and a
    negative ``guidance``."""
    _check_types(cfg, default_config())
    if cfg["seed"] < 0:  # a generator seed cannot hold it
        raise ValueError(f"seed must be non-negative, got {cfg['seed']}")
    _validate_sizes(cfg)
    schedule_from_config(cfg)
    T = cfg["schedule"]["T"]
    for section, key in (("data", "gen_steps"), ("eval", "ref_steps")):
        if not 1 <= cfg[section][key] <= T:
            raise ValueError(f"{section}.{key} must be in [1, {T}], "
                             f"got {cfg[section][key]}")
    if cfg["guidance"] < 0:  # the sampler guides only when w > 0
        raise ValueError(f"guidance must be >= 0, got {cfg['guidance']}")
    dims_from_config(cfg)
    plan = plan_from_config(cfg)
    if cfg["schedule"]["T"] % plan.stages[0].from_steps != 0:
        raise ValueError("schedule length must be divisible by the first "
                         "stage's step count")
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
