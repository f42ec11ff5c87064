import dataclasses
import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import flowdistill.config as config
import flowdistill.distill as dist
import flowdistill.evalmetrics as evalmetrics
import flowdistill.runner as runner
import flowdistill.solvers as solvers
from flowdistill.checkpoint import checkpoint_load
from flowdistill.cli import cli
from flowdistill.config import (
    config_hash,
    default_config,
    load_config,
    plan_from_config,
    validate_config,
)
from flowdistill.datagen import STYLES, ClipDataset, load_dataset, save_dataset
from flowdistill.nets import MOTION_KEYS, NetDims
from flowdistill.runner import Workspace
from flowdistill.schedule import build_schedule

STAGES = ("128to32", "32to8", "8to4", "4to2", "2to1")


TINY = {
    "data": {"ground_truth_clips": 300, "generated_clips": 200},
    "pretrain": {"base_steps": 150, "motion_steps": 100},
    "distill": {"iterations": 3, "mse_iterations": 3},
    "eval": {"n_conditions": 8},
}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tiny_config, tmp_path_factory):
    """A run directory of its own, filled at the tiny config by pretrain,
    gen-data, distill and eval in turn, so every test that reads it passes
    in any order."""
    wd = str(tmp_path_factory.mktemp("run"))
    for command in ("pretrain", "gen-data", "distill", "eval"):
        assert cli([command, "--config", tiny_config, "--workdir", wd]) == 0, command
    return wd


def test_config_loading_and_hash(tiny_config):
    cfg = load_config(tiny_config)
    assert cfg["data"]["ground_truth_clips"] == 300
    assert cfg["teacher_steps"] == 32  # defaults fill the rest
    h1 = config_hash(cfg)
    cfg2 = load_config(tiny_config)
    assert config_hash(cfg2) == h1
    cfg2["seed"] = 1
    assert config_hash(cfg2) != h1


def test_config_validation_rejects_bad_styles():
    cfg = default_config()
    cfg["ranks"][0]["style"] = "unseen_far"
    with pytest.raises(ValueError):
        validate_config(cfg)
    cfg = default_config()
    cfg["eval"]["styles"] = ["wat"]
    with pytest.raises(KeyError):
        validate_config(cfg)
    cfg = default_config()
    cfg["eval"]["step_counts"] = [16]  # no stage distills to 16 steps
    with pytest.raises(ValueError, match="eval step count 16 "):
        validate_config(cfg)
    cfg = default_config()
    cfg["eval"]["n_conditions"] = 1  # no pair to score
    with pytest.raises(ValueError, match="n_conditions"):
        validate_config(cfg)
    for key, twice in (("step_counts", [4, 2, 4]), ("styles", ["real_b", "real_b"])):
        cfg = default_config()
        cfg["eval"][key] = twice  # the same cell scored and written twice
        with pytest.raises(ValueError, match=f"eval.{key} lists a value twice"):
            validate_config(cfg)


def test_config_accepts_an_int_where_a_float_is_expected(tmp_path):
    # And stores it as that float: 7 and 7.0 run alike, so they hash alike.
    hashes = set()
    for guidance in (7, 7.0):
        path = tmp_path / "guidance.json"
        path.write_text(json.dumps({"guidance": guidance}))
        cfg = load_config(str(path))
        assert type(cfg["guidance"]) is float and cfg["guidance"] == 7
        hashes.add(config_hash(cfg))
    assert len(hashes) == 1


def test_one_guidance_key_sets_every_guided_teacher(tmp_path, monkeypatch):
    # And one teacher_steps key sets the step count of data and references.
    cfg = default_config()
    cfg["guidance"] = 2.5
    cfg["teacher_steps"] = 16
    cfg["data"]["ground_truth_clips"] = 4
    validate_config(cfg)
    assert [stage.cfg_scale for stage in plan_from_config(cfg).stages] == [
        2.5, 0.0, 0.0, 0.0, 0.0]
    ws = Workspace(cfg, str(tmp_path / "run"))
    scales = []

    def generate(bundle, sched, style, n, seed, steps, w):
        scales.append(("data", style.name, steps, w))
        return ClipDataset(np.zeros((2, 8, 2)), [0, 1], "teacher_generated",
                           style.group, style.style_id)

    def reference(bundle, sched, tokens, x_start, steps, w):
        scales.append(("reference", bundle, steps, w))
        return np.zeros(x_start.shape)

    monkeypatch.setattr(runner, "generate_distill_dataset", generate)
    monkeypatch.setattr(runner, "reference_set", reference)
    monkeypatch.setattr(runner, "score_arms", lambda *a: {})
    ws.build_datasets({s.name: None for s in STYLES})
    ws.evaluate({"real_b": "real_b", "anime_a": "anime_a"}, {}, ["real_b", "anime_a"], [4])
    assert scales == [
        ("data", "real_a", 16, 2.5), ("data", "real_b", 16, 2.5),
        ("data", "anime_a", 16, 2.5), ("data", "anime_b", 16, 2.5),
        ("data", "anime_c", 16, 2.5),
        ("reference", "real_b", 16, 2.5), ("reference", "anime_a", 16, 2.5)]


def _with_ranks(rows) -> dict:
    cfg = default_config()
    cfg["ranks"] = rows
    return cfg


def test_default_rank_table_mirrors_roster():
    table = default_config()["ranks"]
    assert [r["rank"] for r in table] == list(range(8))
    assert [r["style"] for r in table] == [
        "default", "default", "real_a", "real_b",
        "anime_a", "anime_a", "anime_b", "anime_c",
    ]
    assert [r["dataset"] for r in table][:2] == ["real", "real"]
    assert {r["dataset"] for r in table[2:4]} == {"gen_realistic"}
    assert {r["dataset"] for r in table[4:]} == {"gen_anime"}


def test_duplicate_rank_ids_rejected():
    row = {"rank": 3, "style": "default", "dataset": "real"}
    with pytest.raises(ValueError, match="duplicate rank id 3"):
        validate_config(_with_ranks([row, dict(row)]))
    with pytest.raises(ValueError, match="negative rank id -1"):
        validate_config(_with_ranks([dict(row, rank=-1)]))


def test_empty_rank_table_rejected():
    with pytest.raises(ValueError, match="at least one rank"):
        validate_config(_with_ranks([]))


def test_unknown_and_unseen_rank_styles_rejected():
    with pytest.raises(KeyError):
        validate_config(_with_ranks([{"rank": 0, "style": "mystery",
                                      "dataset": "real"}]))
    with pytest.raises(ValueError, match="unseen style 'unseen_far'"):
        validate_config(_with_ranks([{"rank": 0, "style": "unseen_far",
                                      "dataset": "real"}]))
    with pytest.raises(ValueError, match="unknown dataset 'wat'"):
        validate_config(_with_ranks([{"rank": 0, "style": "default",
                                      "dataset": "wat"}]))


def test_ranks_train_on_exactly_the_seen_styles():
    for style in STYLES:
        cfg = _with_ranks([{"rank": 0, "style": style.name, "dataset": "real"}])
        if style.group == "unseen":
            with pytest.raises(ValueError, match="unseen"):
                validate_config(cfg)
        else:
            validate_config(cfg)


def test_unknown_subcommand_and_flag_exit_nonzero(capsys):
    assert cli(["frobnicate"]) != 0
    assert cli(["sample", "--bogus"]) != 0
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_required_sample_flags(capsys):
    assert cli(["sample", "--steps", "4"]) != 0


def test_distill_ranks_flag_is_a_usage_error(tiny_config, tmp_path, capsys):
    wd = tmp_path / "run"
    assert cli(["distill", "--ranks", "2", "--config", tiny_config,
                "--workdir", str(wd)]) == 2
    assert "unrecognized arguments: --ranks 2" in capsys.readouterr().err
    assert not wd.exists()


# A wrong JSON type names what was expected instead of an unknown key, and
# so does a rank row without one of its keys.
WRONG_TYPES = {
    "distill": "config key 'distill' must be an object, not int",
    "eval.styles": "config key 'eval.styles' must be a list, not str",
    "ranks": "config key 'ranks' must be a list, not dict",
    "": "config must be a JSON object, not list",
    "eval.n_conditions": "config key 'eval.n_conditions' must be an integer, not str",
    "eval.styles.0": "config key 'eval.styles.0' must be a string, not list",
    "ranks.0": "config key 'ranks.0' must be an object, not int",
    "ranks.1.dataset": "missing config key 'ranks.1.dataset'",
    "ranks.0.rank": "config key 'ranks.0.rank' must be an integer, not float",
    "seed": "config key 'seed' must be an integer, not bool",
}

_ROW = {"rank": 0, "style": "default", "dataset": "real"}


# Each is an unknown key unless WRONG_TYPES names it.
BAD_KEYS = [
    ({"distill": {"iteraions": 7}}, "distill.iteraions"),
    ({"workers": 4}, "workers"),
    ({"eval": {"styles": ["real_b"], "n_condition": 9}}, "eval.n_condition"),
    ({"distill": 5}, "distill"),
    ({"eval": {"styles": "real_b"}}, "eval.styles"),
    ({"ranks": {"rank": 0}}, "ranks"),
    ([1], ""),
    ({"eval": {"n_conditions": "8"}}, "eval.n_conditions"),
    ({"eval": {"styles": [["real_b"]]}}, "eval.styles.0"),
    ({"ranks": [5]}, "ranks.0"),
    ({"ranks": [_ROW, {"rank": 1, "style": "default"}]}, "ranks.1.dataset"),
    ({"ranks": [dict(_ROW, rank=0.5)]}, "ranks.0.rank"),
    ({"ranks": [dict(_ROW, weight=2)]}, "ranks.0.weight"),
    ({"seed": True}, "seed"),
    ({"distill": {"lr_disc": True}}, "distill.lr_disc"),
    ({"pretrain": {"lr": "0.1"}}, "pretrain.lr"),
]

# Values of the right type out of range, set in the config or by a flag
# that applies after it: (override, key, flags, message). A key that is
# now a constant (the learning rates, the condition dropout, the ``nets``
# widths) is refused as unknown, whatever its value.
BAD_VALUES = [
    ({"seed": -1}, "seed", [], "seed must be non-negative, got -1"),
    ({}, "seed", ["--seed", "-3"], "seed must be non-negative, got -3"),
    ({"teacher_steps": 0}, "teacher_steps", [],
     "teacher_steps must divide T = 128, got 0"),
    ({"teacher_steps": 500}, "teacher_steps", [],
     "teacher_steps must divide T = 128, got 500"),
    ({"teacher_steps": 48}, "teacher_steps", [],
     "teacher_steps must divide T = 128, got 48"),
    ({"guidance": -1.0}, "guidance", [], "guidance must be >= 0, got -1.0"),
    ({"guidance": -0.5}, "guidance", [], "guidance must be >= 0, got -0.5"),
    ({"data": {"ground_truth_clips": 0}}, "data.ground_truth_clips", [],
     "data.ground_truth_clips must be >= 1, got 0"),
    ({"data": {"generated_clips": 0}}, "data.generated_clips", [],
     "data.generated_clips must be >= 1, got 0"),
    ({"pretrain": {"batch": 0}}, "pretrain.batch", [],
     "pretrain.batch must be >= 1, got 0"),
    ({"pretrain": {"base_steps": -5}}, "pretrain.base_steps", [],
     "pretrain.base_steps must be >= 0, got -5"),
    ({"pretrain": {"motion_steps": -1}}, "pretrain.motion_steps", [],
     "pretrain.motion_steps must be >= 0, got -1"),
    ({"distill": {"mse_iterations": -2}}, "distill.mse_iterations", [],
     "distill.mse_iterations must be >= 0, got -2"),
    ({"pretrain": {"cond_dropout": 1.5}}, "pretrain.cond_dropout", [],
     "unknown config key 'pretrain.cond_dropout'"),
    ({"pretrain": {"cond_dropout": -0.1}}, "pretrain.cond_dropout", [],
     "unknown config key 'pretrain.cond_dropout'"),
    ({"nets": {"frames": 0}}, "nets.frames", [], "unknown config key 'nets'"),
    ({"nets": {"hidden": 0}}, "nets.hidden", [], "unknown config key 'nets'"),
    ({"nets": {"head_hidden": -3}}, "nets.head_hidden", [], "unknown config key 'nets'"),
    ({"nets": {"vocab": 0}}, "nets.vocab", [], "unknown config key 'nets'"),
    ({"nets": {"time_dim": 0}}, "nets.time_dim", [], "unknown config key 'nets'"),
    ({"nets": {"time_dim": 15}}, "nets.time_dim", [], "unknown config key 'nets'"),
    ({"nets": {"frame_dim": 2}}, "nets.frame_dim", [], "unknown config key 'nets'"),
    ({"guidance": float("nan")}, "guidance", [],
     "config key 'guidance' must be finite, got nan"),
    ({"guidance": float("inf")}, "guidance", [],
     "config key 'guidance' must be finite, got inf"),
    ({"distill": {"lr_student": float("nan")}}, "distill.lr_student", [],
     "unknown config key 'distill.lr_student'"),
    ({"pretrain": {"lr": -1.0}}, "pretrain.lr", [], "unknown config key 'pretrain.lr'"),
    ({"distill": {"lr_student": 0}}, "distill.lr_student", [],
     "unknown config key 'distill.lr_student'"),
    ({"distill": {"lr_disc": -0.5}}, "distill.lr_disc", [],
     "unknown config key 'distill.lr_disc'"),
    ({"distill": {"micro_batch": 0}}, "distill.micro_batch", [],
     "distill.micro_batch must be >= 1, got 0"),
    ({"distill": {"grad_accum": 0}}, "distill.grad_accum", [],
     "distill.grad_accum must be >= 1, got 0"),
    ({"eval": {"styles": ["nope"]}}, "eval.styles", [], "unknown style 'nope'"),
    ({"ranks": [dict(_ROW, rank=104729)]}, "ranks.0.rank", [],
     "ranks.0.rank: id 104729 is reserved for the discriminator's random stream"),
    ({"pretrain": {"lr": 10 ** 400}}, "pretrain.lr", [],
     "unknown config key 'pretrain.lr'"),
    # An empty list would score nothing and still write a report.
    ({"eval": {"styles": []}}, "eval.styles", [],
     "eval.styles must list at least one value"),
    ({"eval": {"step_counts": []}}, "eval.step_counts", [],
     "eval.step_counts must list at least one value"),
    ({"guidance": True}, "guidance", [], "config key 'guidance' must be a number, not bool"),
    ({"guidance": "7.5"}, "guidance", [], "config key 'guidance' must be a number, not str"),
    # Past the float range: it would end sampling with an OverflowError.
    ({"guidance": 10 ** 400}, "guidance", [],
     "config key 'guidance' must be finite, got an integer of 401 digits"),
]


@pytest.mark.parametrize("override, flags, message", [
    pytest.param(override, flags, message, id=f"override{i}-{key}")
    for i, (override, key, flags, message) in enumerate(
        [(override, key, [], WRONG_TYPES.get(key, f"unknown config key '{key}'"))
         for override, key in BAD_KEYS] + BAD_VALUES)])
def test_unknown_config_key_fails_and_writes_nothing(tmp_path, capsys,
                                                     override, flags, message):
    path, wd = tmp_path / "typo.json", tmp_path / "run"
    path.write_text(json.dumps(override))
    assert cli(["eval", "--config", str(path), "--workdir", str(wd), *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not wd.exists()


def test_eval_without_checkpoints_fails_cleanly(tiny_config, tmp_path, capsys):
    code = cli(["eval", "--config", tiny_config, "--workdir", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "reports", "main.csv"))


def test_failed_eval_on_a_fresh_workdir_creates_nothing(tiny_config, tmp_path):
    wd = tmp_path / "fresh"
    assert cli(["eval", "--config", tiny_config, "--workdir", str(wd)]) == 1
    assert not wd.exists()


def test_pipeline_subcommands_end_to_end(tiny_config, workdir):
    # The workdir fixture ran pretrain, gen-data, distill and eval, each
    # exiting 0; here are their outputs.
    cfg = load_config(tiny_config)
    for name in ("real", "gen_realistic", "gen_anime"):
        ds = load_dataset(os.path.join(workdir, "data", f"{name}.ds"))
        assert ds.meta["config_hash"] == config_hash(cfg)
    # Every stage records the config hash, which covers the rank table, as
    # its only metadata, and changes the motion it started from.
    before = checkpoint_load(os.path.join(workdir, "checkpoints",
                                          "motion_pretrained.ckpt"))[0]
    for stage in STAGES:
        arrays, meta = checkpoint_load(os.path.join(
            workdir, "checkpoints", "cross", f"motion_{stage}.ckpt"), expect=MOTION_KEYS)
        assert meta == {"config_hash": config_hash(cfg)}
        assert not np.array_equal(arrays["mix_out"], before["mix_out"]), stage
        before = arrays
    report = os.path.join(workdir, "reports", "main.csv")
    assert os.path.exists(report)
    lines = Path(report).read_text().splitlines()
    assert lines[0] == "style,steps,metric,n,seed"
    assert len(lines) == 1 + 4 * 4  # four styles, four step counts
    plot = json.loads(Path(os.path.join(workdir, "reports", "main_plot.json")).read_text())
    assert set(plot["series"]) == {"real_b", "anime_a", "unseen_near", "unseen_far"}


def test_eval_report_regeneration_is_identical(tiny_config, workdir):
    report = os.path.join(workdir, "reports", "main.csv")
    first = Path(report).read_text()
    assert cli(["eval", "--config", tiny_config, "--workdir", workdir]) == 0
    assert Path(report).read_text() == first


def test_sample_uses_distilled_checkpoint(tiny_config, workdir, tmp_path):
    out = tmp_path / "clips.json"
    code = cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "4", "--style", "anime_a", "--out", str(out),
                "--count", "2"])
    assert code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["steps"] == 4 and len(payload["clips"]) == 2
    frames = np.asarray(payload["clips"][0]["frames"])
    assert frames.shape == (8, 2) and np.all(np.isfinite(frames))


def _sample(tiny_config, workdir, out, count) -> list:
    assert cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "4", "--style", "real_b", "--out", str(out),
                "--count", str(count)]) == 0
    return json.loads(out.read_text())["clips"]


@pytest.mark.parametrize("batch, k", [(1, 2), (3, 3), (3, 6), (3, 2), (512, 2)])
def test_sample_of_fewer_clips_is_a_prefix(tiny_config, workdir, tmp_path,
                                           monkeypatch, batch, k):
    # Tokens and start states are the same clip for clip. Rows never
    # interact in a solve, but BLAS may round a product of another batch
    # size differently in the last bits: where clip i's batch has the same
    # rows in both runs it matches byte for byte.
    monkeypatch.setattr(solvers, "SAMPLE_BATCH", batch)
    few = _sample(tiny_config, workdir, tmp_path / "few.json", k)
    many = _sample(tiny_config, workdir, tmp_path / "many.json", 7)
    assert [c["token"] for c in few] == [c["token"] for c in many[:k]]
    if k % batch == 0:
        assert few == many[:k]
    np.testing.assert_allclose([c["frames"] for c in few],
                               [c["frames"] for c in many[:k]], rtol=0, atol=1e-12)


def test_every_random_stream_of_a_run_has_one_purpose(tmp_path, monkeypatch):
    # A run's streams, keyed by the state they start from: an entropy
    # shorter than 4 words hashes as if zero-padded, so [s, 1] and
    # [s, 1, 0, 0] are one stream. Each must be made at one place in the
    # code; the same place may make it again (each command draws its own
    # inputs).
    made = {}
    default_rng = np.random.default_rng

    def recording(entropy):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "start_noise":  # its caller's stream
            frame = frame.f_back
        state = tuple(np.random.SeedSequence(entropy).generate_state(4))
        made.setdefault(state, set()).add((frame.f_code.co_name, frame.f_lineno))
        return default_rng(entropy)

    monkeypatch.setattr(np.random, "default_rng", recording)
    path, wd = tmp_path / "cfg.json", str(tmp_path / "run")
    path.write_text(json.dumps({
        "data": {"ground_truth_clips": 8, "generated_clips": 4},
        "pretrain": {"base_steps": 1, "motion_steps": 1, "batch": 4},
        "distill": {"iterations": 1, "mse_iterations": 1, "micro_batch": 2,
                    "grad_accum": 1},
        "eval": {"n_conditions": 2}}))
    common = ["--config", str(path), "--workdir", wd]
    for command in (["pretrain"], ["gen-data"], ["distill"],
                    ["distill", "--arm", "single"], ["eval"], ["ablate"],
                    ["sample", "--steps", "4", "--style", "real_b", "--out",
                     str(tmp_path / "clips.json"), "--count", "3"]):
        assert cli(command + common) == 0
    sites = {site for places in made.values() for site in places}
    assert {name for name, _ in sites} >= {
        "sample_ground_truth", "generate_distill_dataset", "pretrain_base",
        "pretrain_motion", "_stage_rng", "eval_tokens", "eval_inputs", "cmd_sample"}
    shared = [places for places in made.values() if len(places) > 1]
    assert shared == []


def test_pretraining_draws_the_default_ground_truth_once(tiny_config, tmp_path,
                                                        monkeypatch):
    drawn = []
    draw = runner.sample_ground_truth
    monkeypatch.setattr(runner, "sample_ground_truth",
                        lambda style, *a, **k: drawn.append(style.name) or draw(style, *a, **k))
    cfg = load_config(tiny_config)
    cfg["pretrain"].update(base_steps=1, motion_steps=1)
    ws = Workspace(cfg, str(tmp_path / "run"))
    ws.pretrained_bundles()
    assert ws.ground_truth("default") is ws.ground_truth("default")
    assert drawn == [s.name for s in STYLES]


def test_sample_does_not_need_the_pretrained_motion(tiny_config, workdir, tmp_path):
    wd = str(tmp_path / "distilled")
    shutil.copytree(workdir, wd)
    os.remove(os.path.join(wd, "checkpoints", "motion_pretrained.ckpt"))
    before = _snapshot(wd)
    clips = []
    for root in (workdir, wd):
        out = tmp_path / "clips.json"
        assert cli(["sample", "--config", tiny_config, "--workdir", root,
                    "--steps", "4", "--style", "anime_a", "--out", str(out)]) == 0
        clips.append(json.loads(Path(out).read_text()))
    assert clips[0] == clips[1]
    assert _snapshot(wd) == before


def test_sample_of_an_unplanned_step_count_fails(tiny_config, workdir, tmp_path,
                                                capsys):
    out = tmp_path / "clips.json"
    code = cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "3", "--style", "anime_a", "--out", str(out)])
    assert code == 1
    assert "step counts: 32, 8, 4, 2, 1" in capsys.readouterr().err
    assert not out.exists()


def test_sample_of_an_unknown_style_fails_and_writes_nothing(tiny_config, workdir,
                                                             tmp_path, capsys):
    out = tmp_path / "clips.json"
    code = cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "4", "--style", "nosuch", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip() == "error: unknown style 'nosuch'"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_of_no_clips_fails_and_writes_nothing(tiny_config, workdir,
                                                     tmp_path, capsys, count):
    out = tmp_path / "clips.json"
    code = cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "4", "--style", "anime_a", "--out", str(out),
                "--count", count])
    assert code == 1
    assert "--count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sample_on_a_fresh_workdir_fails_without_training(tiny_config, tmp_path,
                                                         capsys):
    wd, out = tmp_path / "fresh", tmp_path / "clips.json"
    code = cli(["sample", "--config", tiny_config, "--workdir", str(wd),
                "--steps", "4", "--style", "anime_a", "--out", str(out)])
    assert code == 1
    assert "motion_128to32.ckpt" in capsys.readouterr().err
    assert not out.exists()
    assert not wd.exists()


def test_ablate_writes_paired_reports(tiny_config, workdir):
    assert cli(["ablate", "--config", tiny_config, "--workdir", workdir]) == 0
    for arm in ("cross", "single"):
        path = os.path.join(workdir, "reports", f"ablation_{arm}.csv")
        assert os.path.exists(path)
    # The cross arm at 4 steps is scored exactly as `eval` scores it.
    main = Path(os.path.join(workdir, "reports", "main.csv")).read_text().splitlines()
    cross = Path(os.path.join(workdir, "reports", "ablation_cross.csv")).read_text().splitlines()
    for style in load_config(tiny_config)["eval"]["styles"]:
        rows = [line for line in main if line.startswith(f"{style},4,")]
        assert len(rows) == 1 and rows[0] in cross


def _scored_copy(workdir, dst) -> str:
    """A copy of the shared run with nothing scored: no reference sets, no
    reports."""
    shutil.copytree(workdir, dst)
    for name in ("references", "reports"):
        shutil.rmtree(os.path.join(dst, name))
    return str(dst)


def _counting_reference_set(monkeypatch) -> list:
    """Record the base model of every reference set sampled from now on,
    by its weights: each style's pretrained base has its own."""
    calls = []
    sample = runner.reference_set

    def counting(bundle, *args, **kwargs):
        calls.append(bundle.base["w1"].tobytes())
        return sample(bundle, *args, **kwargs)

    monkeypatch.setattr(runner, "reference_set", counting)
    return calls


def test_eval_and_ablate_sample_each_reference_once(tiny_config, workdir, tmp_path,
                                                    monkeypatch):
    cached = _scored_copy(workdir, tmp_path / "cached")
    fresh = _scored_copy(workdir, tmp_path / "fresh")
    calls = _counting_reference_set(monkeypatch)
    styles = load_config(tiny_config)["eval"]["styles"]
    assert cli(["eval", "--config", tiny_config, "--workdir", cached]) == 0
    assert len(calls) == len(styles)
    assert sorted(os.listdir(os.path.join(cached, "references"))) == sorted(
        f"{style}.ckpt" for style in styles)
    # ablate scores every style and samples only those eval did not.
    assert cli(["ablate", "--config", tiny_config, "--workdir", cached]) == 0
    assert len(calls) == len(STYLES) and len(set(calls)) == len(STYLES)
    del calls[:]
    assert cli(["eval", "--config", tiny_config, "--workdir", fresh]) == 0
    shutil.rmtree(os.path.join(fresh, "references"))
    assert cli(["ablate", "--config", tiny_config, "--workdir", fresh]) == 0
    assert len(calls) == len(styles) + len(STYLES)
    reports = _snapshot(os.path.join(cached, "reports"))
    assert len(reports) == 6
    assert reports == _snapshot(os.path.join(fresh, "reports"))
    # A second eval samples nothing and rewrites the same reports.
    del calls[:]
    assert cli(["eval", "--config", tiny_config, "--workdir", cached]) == 0
    assert calls == []
    assert _snapshot(os.path.join(cached, "reports")) == reports


@pytest.mark.parametrize("stamp", [b"meta config_hash 0123456789abcdef\n", b""],
                         ids=["another_hash", "no_hash"])
def test_reference_from_another_config_is_refused(tiny_config, workdir, tmp_path,
                                                  capsys, monkeypatch, stamp):
    wd = str(tmp_path / "stale")
    shutil.copytree(workdir, wd)
    path = os.path.join(wd, "references", "anime_a.ckpt")
    raw = Path(path).read_bytes()
    restamped = re.sub(rb"meta config_hash \S+\n", stamp, raw)
    assert restamped != raw
    with open(path, "wb") as fh:
        fh.write(restamped)
    calls = _counting_reference_set(monkeypatch)
    capsys.readouterr()
    assert cli(["eval", "--config", tiny_config, "--workdir", wd]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert Path(path).read_bytes() == restamped
    assert calls == []


@pytest.mark.parametrize("command, report", [("eval", "main"),
                                             ("ablate", "ablation_cross")])
def test_nan_samples_fail_the_report_instead_of_scoring_zero(
        tiny_config, workdir, tmp_path, capsys, monkeypatch, command, report):
    wd = str(tmp_path / "diverged")
    shutil.copytree(workdir, wd)
    shutil.rmtree(os.path.join(wd, "reports"))

    def diverged_arm_set(bundle, sched, steps, tokens, seeds):
        return np.full((len(tokens), 8, 2), np.nan)

    monkeypatch.setattr(evalmetrics, "arm_set", diverged_arm_set)
    capsys.readouterr()
    assert cli([command, "--config", tiny_config, "--workdir", wd]) == 1
    out, err = capsys.readouterr()
    first_style = "real_b" if command == "eval" else "default"
    first_steps = 1 if command == "eval" else 4
    assert f"'{first_style}', step count {first_steps}: metric nan" in err
    assert "single<cross" not in out
    assert not os.path.exists(os.path.join(wd, "reports", f"{report}.csv"))


def _snapshot(root) -> dict:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


@pytest.mark.parametrize("missing", ["base_real_b", "motion_pretrained"])
def test_eval_with_missing_pretrained_checkpoint_fails_without_training(
        tiny_config, workdir, tmp_path, capsys, missing):
    wd = str(tmp_path / "unpretrained")
    shutil.copytree(workdir, wd)
    path = os.path.join(wd, "checkpoints", f"{missing}.ckpt")
    os.remove(path)
    os.remove(os.path.join(wd, "reports", "main.csv"))
    before = _snapshot(wd)
    capsys.readouterr()
    assert cli(["eval", "--config", tiny_config, "--workdir", wd]) == 1
    out, err = capsys.readouterr()
    assert path in err
    assert "pretraining" not in out
    assert _snapshot(wd) == before


def test_failed_plot_write_keeps_previous_plot(tiny_config, workdir, tmp_path,
                                               monkeypatch):
    wd = str(tmp_path / "plot")
    shutil.copytree(workdir, wd)
    reports = os.path.join(wd, "reports")
    plot = os.path.join(reports, "main_plot.json")
    before = Path(plot).read_bytes()
    names = sorted(os.listdir(reports))

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"series": {')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        cli(["eval", "--config", tiny_config, "--workdir", wd])
    assert Path(plot).read_bytes() == before
    assert sorted(os.listdir(reports)) == names


def test_checkpoint_config_hash_mismatch_rejected(tiny_config, workdir, tmp_path, capsys):
    # Same artifacts, different config -> loading must fail loudly.
    other = dict(TINY)
    other["seed"] = 99
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    code = cli(["eval", "--config", str(path), "--workdir", workdir])
    assert code == 1
    assert "config" in capsys.readouterr().err


@dataclasses.dataclass(frozen=True)
class _WiderDims(NetDims):
    hidden: int = 17


@dataclasses.dataclass(frozen=True)
class _FasterDisc(dist.StageConfig):
    lr_disc: float = 5e-3


@pytest.fixture(scope="module")
def pretrained_workdir(tiny_config, tmp_path_factory):
    """A workdir of its own that ``pretrain`` alone has filled, at the tiny
    config: the bases and the pretrained motion, nothing else."""
    wd = str(tmp_path_factory.mktemp("pretrained"))
    assert cli(["pretrain", "--config", tiny_config, "--workdir", wd]) == 0
    return wd


@pytest.mark.parametrize("constant, edited", [
    ("SCHEDULE", build_schedule(128, 0.0018, 0.0685)),
    ("NetDims", _WiderDims),
    ("StageConfig", _FasterDisc),
    ("COND_DROPOUT", 0.2),
], ids=["beta_end", "hidden", "lr_disc", "cond_dropout"])
def test_an_edited_constant_refuses_the_artifacts_built_before_it(
        tiny_config, pretrained_workdir, monkeypatch, capsys, constant, edited):
    # The schedule, the widths and the rates are not config keys, but the
    # config hash covers them, as it covers every key: pretrain refuses
    # the checkpoints it wrote before the edit.
    cfg = load_config(tiny_config)
    before = config_hash(cfg)
    capsys.readouterr()
    monkeypatch.setattr(config, constant, edited)
    assert config_hash(cfg) != before
    assert cli(["pretrain", "--config", tiny_config,
                "--workdir", pretrained_workdir]) == 1
    err = capsys.readouterr().err
    assert f"produced under config {before}, current config is {config_hash(cfg)}" in err


def test_dataset_from_another_config_is_refused(tiny_config, workdir, tmp_path):
    other = json.loads(json.dumps(TINY))
    other["data"]["generated_clips"] = 48
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    ws = Workspace(load_config(str(path)), workdir)
    with pytest.raises(ValueError, match=re.escape(ws.data_path("real"))):
        ws.build_datasets({})


@pytest.mark.parametrize("conditions", [[3, 99], [-5, 3], [3, 8]],
                         ids=["above the vocabulary", "negative", "null token"])
def test_a_dataset_with_conditions_outside_the_vocabulary_is_refused(
        tiny_config, tmp_path, conditions):
    # Such a row once loaded and failed later in distillation, naming no
    # file; one at the null token (vocab 8) trained as an unconditional row.
    ws = Workspace(load_config(tiny_config), str(tmp_path / "run"))
    assert ws.dims.vocab == 8
    clips = np.zeros((2, ws.dims.frames, ws.dims.frame_dim), np.float32)
    save_dataset(ClipDataset(clips, np.array(conditions), "ground_truth",
                             "default", STYLES[0].style_id),
                 ws.data_path("real"), {"config_hash": ws.hash})
    with pytest.raises(ValueError, match=re.escape(
            f"{ws.data_path('real')}: dataset conditions outside [0, 8)")):
        ws.build_datasets({})


def test_checkpoint_without_config_hash_is_refused(tiny_config, workdir, tmp_path,
                                                   capsys):
    wd = str(tmp_path / "unhashed")
    shutil.copytree(workdir, wd)
    path = os.path.join(wd, "checkpoints", "cross", "motion_8to4.ckpt")
    raw = Path(path).read_bytes()
    stripped = re.sub(rb"meta config_hash \S+\n", b"", raw)
    assert stripped != raw
    with open(path, "wb") as fh:
        fh.write(stripped)
    assert cli(["eval", "--config", tiny_config, "--workdir", wd]) == 1
    assert path in capsys.readouterr().err


def test_interrupted_distill_resumes_from_last_finished_stage(
        tiny_config, workdir, tmp_path, monkeypatch):
    wd = str(tmp_path / "resume")
    shutil.copytree(workdir, wd)

    def stage_path(root, stage):
        return os.path.join(root, "checkpoints", "cross", f"motion_{stage}.ckpt")

    for stage in ("4to2", "2to1"):
        os.remove(stage_path(wd, stage))
    kept = {stage: os.stat(stage_path(wd, stage)) for stage in STAGES[:3]}
    trained = []
    run_stage = runner.run_stage

    def recording_run_stage(stage, ctx, teacher):
        trained.append((stage.name, {k: v.copy() for k, v in teacher.items()}))
        return run_stage(stage, ctx, teacher)

    monkeypatch.setattr(runner, "run_stage", recording_run_stage)
    assert cli(["distill", "--config", tiny_config, "--workdir", wd]) == 0
    assert [name for name, _ in trained] == ["4to2", "2to1"]
    # Each trained stage's teacher is the stage before it, as written.
    for (name, teacher), source in zip(trained, ("8to4", "4to2")):
        written = checkpoint_load(stage_path(wd, source))[0]
        for key in MOTION_KEYS:
            assert np.array_equal(teacher[key], written[key]), (name, key)
    for stage, st in kept.items():
        now = os.stat(stage_path(wd, stage))
        assert (now.st_ino, now.st_mtime_ns) == (st.st_ino, st.st_mtime_ns), stage
    for stage in STAGES:
        assert (Path(stage_path(wd, stage)).read_bytes()
                == Path(stage_path(workdir, stage)).read_bytes()), stage


def test_distill_single_rank_override(tiny_config, tmp_path):
    wd = str(tmp_path / "solo")
    assert cli(["distill", "--config", tiny_config, "--workdir", wd,
                "--arm", "single"]) == 0
    assert os.path.exists(os.path.join(wd, "checkpoints", "single", "motion_4to2.ckpt"))


def _copy_undistilled(workdir, dst) -> str:
    """A copy of the shared run without its distilled arms: the bases and
    datasets are reused, so only distillation runs."""
    shutil.copytree(workdir, dst)
    for arm in ("cross", "single"):
        shutil.rmtree(os.path.join(dst, "checkpoints", arm), ignore_errors=True)
    return str(dst)


def test_eval_with_missing_first_stage_fails_without_training(tiny_config, workdir,
                                                              tmp_path, capsys):
    wd = str(tmp_path / "partial")
    shutil.copytree(workdir, wd)
    missing = os.path.join(wd, "checkpoints", "cross", "motion_128to32.ckpt")
    os.remove(missing)
    os.remove(os.path.join(wd, "reports", "main.csv"))
    assert cli(["eval", "--config", tiny_config, "--workdir", wd]) == 1
    assert "motion_128to32" in capsys.readouterr().err
    assert not os.path.exists(missing)
    assert not os.path.exists(os.path.join(wd, "reports", "main.csv"))


def test_distill_divergence_exits_with_dump_path(tiny_config, workdir, tmp_path,
                                                 monkeypatch, capsys):
    wd = _copy_undistilled(workdir, tmp_path / "diverge")

    def poisoned(bases, motion, *args, **kwargs):
        ranks = len(bases["w1"])
        return {"mse": np.full(ranks, np.nan)}, {
            k: np.zeros((ranks,) + v.shape) for k, v in motion.items()}

    monkeypatch.setattr(dist, "rank_step", poisoned)
    assert cli(["distill", "--config", tiny_config, "--workdir", wd]) == 1
    err = capsys.readouterr().err
    dump = os.path.join(wd, "checkpoints", "cross", "diverged_128to32.json")
    assert err.startswith("error: non-finite loss")
    assert dump in err and os.path.exists(dump)


def test_every_artifact_of_a_run_is_stored_as_float32_or_int32(tmp_path, monkeypatch):
    # The manifest knows only float32 and int32 entries, so every writer
    # must hand checkpoint_save arrays of those types: a float64 array would
    # be rounded on its way to disk.
    import flowdistill.checkpoint as ckpt
    import flowdistill.datagen as datagen

    handed = []
    save = ckpt.checkpoint_save

    def spy(arrays, path, meta=None):
        handed.extend((os.fspath(path), name, np.asarray(value).dtype)
                      for name, value in arrays.items())
        save(arrays, path, meta)

    for module in (runner, datagen, dist):
        monkeypatch.setattr(module, "checkpoint_save", spy)
    path = tmp_path / "micro.json"
    path.write_text(json.dumps({
        "data": {"ground_truth_clips": 32, "generated_clips": 8},
        "pretrain": {"base_steps": 1, "motion_steps": 1},
        "distill": {"iterations": 1, "mse_iterations": 1},
        "eval": {"n_conditions": 4}}))
    wd = str(tmp_path / "run")
    for command in ("pretrain", "gen-data", "distill", "eval", "ablate"):
        assert cli([command, "--config", str(path), "--workdir", wd]) == 0, command
    kinds = {(name, dtype) for _, name, dtype in handed}
    assert {name for name, _ in kinds} >= {"w1", "mix", "clips", "conditions"}
    assert all(dtype in (np.float32, np.int32) for _, dtype in kinds), sorted(kinds)
    files = [os.path.join(root, f) for root, _, names in os.walk(wd) for f in names]
    artifacts = [f for f in files if "reports" not in f.split(os.sep)]
    assert sorted(artifacts) == sorted({p for p, _, _ in handed})
    for artifact in artifacts:
        head = Path(artifact).read_bytes().split(b"---\n")[0].decode().splitlines()
        for line in head:
            if line.startswith("entry "):
                assert len(line.split()) == 5 or line.endswith(" i4"), line
