import json
import os
import re
import shutil

import numpy as np
import pytest

import flowdistill.cli as cli_module
import flowdistill.distill as dist
import flowdistill.evalmetrics as evalmetrics
import flowdistill.runner as runner
from flowdistill.checkpoint import checkpoint_load
from flowdistill.cli import cli
from flowdistill.config import config_hash, default_config, load_config, validate_config
from flowdistill.datagen import STYLES, load_dataset
from flowdistill.nets import MOTION_KEYS, StudentBundle
from flowdistill.runner import Workspace
from flowdistill.solvers import sample_batch

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
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("run"))


def test_config_loading_and_hash(tiny_config):
    cfg = load_config(tiny_config)
    assert cfg["data"]["ground_truth_clips"] == 300
    assert cfg["schedule"]["T"] == 128  # defaults fill the rest
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
    cfg["distill"]["include_one_step"] = False  # the plan stops at 2 steps
    with pytest.raises(ValueError, match="eval step count 1 "):
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


# A wrong JSON type where the defaults have a section or a list names what
# was expected instead of an unknown key.
WRONG_TYPES = {
    "distill": "config key 'distill' must be an object, not int",
    "eval.styles": "config key 'eval.styles' must be a list, not str",
    "ranks": "config key 'ranks' must be a list, not dict",
    "": "config must be a JSON object, not list",
}


@pytest.mark.parametrize("override, key", [
    ({"distill": {"iteraions": 7}}, "distill.iteraions"),
    ({"workers": 4}, "workers"),
    ({"eval": {"styles": ["real_b"], "n_condition": 9}}, "eval.n_condition"),
    ({"distill": 5}, "distill"),
    ({"eval": {"styles": "real_b"}}, "eval.styles"),
    ({"ranks": {"rank": 0}}, "ranks"),
    ([1], ""),
])
def test_unknown_config_key_fails_and_writes_nothing(tmp_path, capsys,
                                                     override, key):
    path, wd = tmp_path / "typo.json", tmp_path / "run"
    path.write_text(json.dumps(override))
    assert cli(["eval", "--config", str(path), "--workdir", str(wd)]) == 1
    message = WRONG_TYPES.get(key, f"unknown config key '{key}'")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not wd.exists()


def test_eval_without_checkpoints_fails_cleanly(tiny_config, workdir, capsys):
    code = cli(["eval", "--config", tiny_config, "--workdir", workdir])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(workdir, "reports", "main.csv"))


def test_failed_eval_on_a_fresh_workdir_creates_nothing(tiny_config, tmp_path):
    wd = tmp_path / "fresh"
    assert cli(["eval", "--config", tiny_config, "--workdir", str(wd)]) == 1
    assert not wd.exists()


def test_pipeline_subcommands_end_to_end(tiny_config, workdir, capsys):
    cfg = load_config(tiny_config)
    assert cli(["pretrain", "--config", tiny_config, "--workdir", workdir]) == 0
    assert cli(["gen-data", "--config", tiny_config, "--workdir", workdir]) == 0
    for name in ("real", "gen_realistic", "gen_anime"):
        ds = load_dataset(os.path.join(workdir, "data", f"{name}.ds"))
        assert ds.meta["config_hash"] == config_hash(cfg)
    assert cli(["distill", "--config", tiny_config, "--workdir", workdir]) == 0
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
    assert cli(["eval", "--config", tiny_config, "--workdir", workdir]) == 0
    report = os.path.join(workdir, "reports", "main.csv")
    assert os.path.exists(report)
    lines = open(report).read().splitlines()
    assert lines[0] == "style,steps,metric,n,seed"
    assert len(lines) == 1 + 4 * 4  # four styles, four step counts
    plot = json.load(open(os.path.join(workdir, "reports", "main_plot.json")))
    assert set(plot["series"]) == {"real_b", "anime_a", "unseen_near", "unseen_far"}


def test_eval_report_regeneration_is_identical(tiny_config, workdir):
    report = os.path.join(workdir, "reports", "main.csv")
    first = open(report).read()
    assert cli(["eval", "--config", tiny_config, "--workdir", workdir]) == 0
    assert open(report).read() == first


def test_sample_uses_distilled_checkpoint(tiny_config, workdir, tmp_path):
    out = tmp_path / "clips.json"
    code = cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "4", "--style", "anime_a", "--out", str(out),
                "--count", "2"])
    assert code == 0
    payload = json.load(open(out))
    assert payload["steps"] == 4 and len(payload["clips"]) == 2
    frames = np.asarray(payload["clips"][0]["frames"])
    assert frames.shape == (8, 2) and np.all(np.isfinite(frames))


def _sample_per_clip(cfg, workdir, style, steps, count) -> str:
    """The sample command's --out JSON, sampled one clip per call."""
    ws = Workspace(cfg, workdir)
    bundle = StudentBundle(ws.load_base(style), ws.load_arm("cross")[steps])
    rng = np.random.default_rng(cfg["seed"])
    clips = []
    for _ in range(count):
        token = int(rng.integers(0, ws.dims.vocab))
        seed = int(rng.integers(0, 2 ** 63 - 1))
        x = np.random.default_rng(seed).standard_normal((1, ws.dims.frames,
                                                         ws.dims.frame_dim))
        clip = sample_batch(bundle, ws.sched, steps, [token], x)[0]
        clips.append({"token": token, "frames": clip.tolist()})
    return json.dumps({"style": style, "steps": steps, "clips": clips})


@pytest.mark.parametrize("batch", [1, 3])
def test_sample_in_batches_matches_the_per_clip_reference(tiny_config, workdir,
                                                          tmp_path, monkeypatch,
                                                          batch):
    # Seven clips in batches of 3 cover a full batch and a remainder. Rows
    # never interact, but BLAS rounds a product of another batch size
    # differently, so batches match the one-clip calls to the last bits;
    # batches of one match them byte for byte.
    monkeypatch.setattr(cli_module, "SAMPLE_BATCH", batch)
    out = tmp_path / "clips.json"
    assert cli(["sample", "--config", tiny_config, "--workdir", workdir,
                "--steps", "4", "--style", "real_b", "--out", str(out),
                "--count", "7"]) == 0
    want = _sample_per_clip(load_config(tiny_config), workdir, "real_b", 4, 7)
    if batch == 1:
        assert out.read_text() == want
    got, want = json.loads(out.read_text()), json.loads(want)
    assert [c["token"] for c in got["clips"]] == [c["token"] for c in want["clips"]]
    np.testing.assert_allclose([c["frames"] for c in got["clips"]],
                               [c["frames"] for c in want["clips"]], rtol=0, atol=1e-12)


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
        clips.append(json.load(open(out)))
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
    main = open(os.path.join(workdir, "reports", "main.csv")).read().splitlines()
    cross = open(os.path.join(workdir, "reports", "ablation_cross.csv")).read().splitlines()
    for style in load_config(tiny_config)["eval"]["styles"]:
        rows = [line for line in main if line.startswith(f"{style},4,")]
        assert len(rows) == 1 and rows[0] in cross


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
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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
    before = open(plot, "rb").read()
    names = sorted(os.listdir(reports))

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"series": {')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        cli(["eval", "--config", tiny_config, "--workdir", wd])
    assert open(plot, "rb").read() == before
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


def test_dataset_from_another_config_is_refused(tiny_config, workdir, tmp_path):
    other = json.loads(json.dumps(TINY))
    other["data"]["generated_clips"] = 48
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    ws = Workspace(load_config(str(path)), workdir)
    with pytest.raises(ValueError, match=re.escape(ws.data_path("real"))):
        ws.build_datasets({})


def test_checkpoint_without_config_hash_is_refused(tiny_config, workdir, tmp_path,
                                                   capsys):
    wd = str(tmp_path / "unhashed")
    shutil.copytree(workdir, wd)
    path = os.path.join(wd, "checkpoints", "cross", "motion_8to4.ckpt")
    raw = open(path, "rb").read()
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
        trained.append((stage.name, {k: v.copy() for k, v in teacher.data.items()}))
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
        assert (open(stage_path(wd, stage), "rb").read()
                == open(stage_path(workdir, stage), "rb").read()), stage


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

    def poisoned(base, motion, *args, **kwargs):
        return float("nan"), {k: np.zeros_like(v, dtype=np.float64)
                               for k, v in motion.data.items()}

    monkeypatch.setattr(dist, "mse_distill_step", poisoned)
    assert cli(["distill", "--config", tiny_config, "--workdir", wd]) == 1
    err = capsys.readouterr().err
    dump = os.path.join(wd, "checkpoints", "cross", "diverged_128to32.json")
    assert err.startswith("error: non-finite loss")
    assert dump in err and os.path.exists(dump)
