"""Base pretraining in rank-stacked blocks: each base keeps the bits of
training it alone, blocks follow ``solvers.rank_blocks``, and a partly
cached run trains only what is missing."""
import json
import os
import tracemalloc

import numpy as np
import pytest

import flowdistill as fd
import flowdistill.nets as nets
import flowdistill.runner as runner
from flowdistill import autodiff as ad
from flowdistill.cli import cli
from flowdistill.config import load_config
from flowdistill.datagen import STYLES, sample_ground_truth
from flowdistill.nets import (
    BASE_KEYS,
    COND_DROPOUT,
    PRETRAIN_LR,
    denoise_loss,
    draw_rows,
)
from flowdistill.runner import Workspace
from flowdistill.solvers import SAMPLE_BATCH

TINY = {
    "data": {"ground_truth_clips": 48, "generated_clips": 8},
    "pretrain": {"base_steps": 2, "motion_steps": 1},
    "eval": {"n_conditions": 2},
}


def _trained_alone(ds, seed, sched, dims, steps, batch):
    """One base pretrained on its own, unstacked: init, then per step a draw
    of ``batch`` rows, the taped loss, backward and an Adam update."""
    rng = np.random.default_rng(seed)
    base = fd.init_base(dims, rng)
    opt = fd.Adam(PRETRAIN_LR)
    history = []
    for step in range(steps):
        b = draw_rows(ds, batch, rng, np.arange(sched.T), COND_DROPOUT,
                      dims.null_token)
        pvars = {k: ad.Var(v) for k, v in base.items()}
        loss, _ = denoise_loss(pvars, None, b["x0"], b["tokens"], b["t"], b["eps"],
                               sched, dims)
        ad.backward(loss)
        opt.lr = PRETRAIN_LR * 0.1 ** (step / max(steps - 1, 1))
        opt.step(base, {k: v.grad for k, v in pvars.items()})
        history.append(float(loss.value))
    return base, history


@pytest.mark.parametrize("ranks", [1, 3, 5])
def test_stacked_pretraining_equals_per_base_pretraining_bitwise(sched, dims, ranks):
    styles = STYLES[:ranks]
    datasets = [sample_ground_truth(s, 64, [3, s.style_id], frames=dims.frames,
                                    vocab=dims.vocab) for s in styles]
    seeds = [[3, 17, s.style_id] for s in styles]
    got = fd.pretrain_base(datasets, sched, dims, 4, seeds, batch=24)
    assert len(got) == ranks
    for (base, history), ds, seed in zip(got, datasets, seeds):
        want, want_history = _trained_alone(ds, seed, sched, dims, 4, 24)
        assert history == want_history
        assert base.keys() == want.keys()
        for key in BASE_KEYS:
            np.testing.assert_array_equal(base[key], want[key], strict=True)


def test_pretrain_base_needs_one_seed_per_dataset(sched, dims):
    ds = sample_ground_truth(STYLES[0], 8, 0, frames=dims.frames, vocab=dims.vocab)
    with pytest.raises(ValueError, match="2 datasets for 1 seeds"):
        fd.pretrain_base([ds, ds], sched, dims, 1, [0])


def _workspace(tmp_path, **pretrain) -> Workspace:
    cfg = load_config("default")
    for section, values in TINY.items():
        cfg[section].update(values)
    cfg["pretrain"].update(pretrain)
    return Workspace(cfg, str(tmp_path / "run"))


@pytest.mark.parametrize("batch, blocks", [(128, [4, 4]), (96, [5, 3]),
                                           (SAMPLE_BATCH + 88, [1] * 8)])
def test_bases_pretrain_in_blocks_of_whole_bases_up_to_sample_batch_rows(
        tmp_path, monkeypatch, batch, blocks):
    sizes, taped_rows = [], []
    pretrain_base, student_eps = runner.pretrain_base, nets.student_eps

    def block(datasets, *args, **kwargs):
        sizes.append(len(datasets))
        return pretrain_base(datasets, *args, **kwargs)

    def spy(base_arrays, motion_arrays, x, *args, **kwargs):
        params = [*base_arrays.values(), *(motion_arrays or {}).values()]
        if any(isinstance(p, ad.Var) for p in params):
            taped_rows.append(len(ad.value_of(x)))
        return student_eps(base_arrays, motion_arrays, x, *args, **kwargs)

    monkeypatch.setattr(runner, "pretrain_base", block)
    monkeypatch.setattr(nets, "student_eps", spy)
    bases = _workspace(tmp_path, batch=batch, base_steps=1).pretrain_bases()
    assert sizes == blocks
    assert list(bases) == [s.name for s in STYLES]
    assert taped_rows == [n * batch for n in blocks]
    if batch <= SAMPLE_BATCH:
        assert max(taped_rows) <= SAMPLE_BATCH


def _stats(root) -> dict:
    folder = os.path.join(root, "checkpoints")
    return {name: os.stat(os.path.join(folder, name)) for name in os.listdir(folder)
            if name.startswith("base_")}


def _read(root, name) -> bytes:
    with open(os.path.join(root, "checkpoints", name), "rb") as fh:
        return fh.read()


def test_pretrain_resumes_two_lost_bases_from_different_blocks_bit_for_bit(
        tmp_path, monkeypatch):
    # At batch 128 the eight bases train in two blocks of four; real_a
    # (block 0) and unseen_near (block 1) are lost, then retrained together
    # in one block of two.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    root = str(tmp_path / "run")
    common = ["--config", str(path), "--workdir", root]
    assert cli(["pretrain"] + common) == 0
    lost = ["base_real_a.ckpt", "base_unseen_near.ckpt"]
    want = {name: _read(root, name) for name in lost}
    for name in lost:
        os.remove(os.path.join(root, "checkpoints", name))
    before = _stats(root)
    assert len(before) == 6

    sizes = []
    pretrain_base = runner.pretrain_base
    monkeypatch.setattr(runner, "pretrain_base", lambda datasets, *a, **k: (
        sizes.append(len(datasets)) or pretrain_base(datasets, *a, **k)))
    assert cli(["pretrain"] + common) == 0
    after = _stats(root)
    assert sizes == [2]
    assert sorted(after) == sorted([*before, *lost])
    for name, stat in before.items():
        assert (after[name].st_ino, after[name].st_mtime_ns) == (
            stat.st_ino, stat.st_mtime_ns), name
    for name in lost:
        assert _read(root, name) == want[name], name


def test_a_four_base_block_step_at_batch_128_peaks_under_6_kb_per_row(sched, dims):
    # One taped step of a block: loss over the stacked rows, backward and
    # the Adam update. One base alone measured 5.1 KB per row, and four
    # stacked 5.0: stacking adds no per-row state.
    ranks, batch = 4, 128
    datasets = [sample_ground_truth(s, 64, [4, s.style_id], frames=dims.frames,
                                    vocab=dims.vocab) for s in STYLES[:ranks]]
    rngs = [np.random.default_rng(r) for r in range(ranks)]
    bases = [fd.init_base(dims, rng) for rng in rngs]
    stack = {k: np.stack([base[k] for base in bases]) for k in BASE_KEYS}
    draws = [draw_rows(ds, batch, rng, np.arange(sched.T), COND_DROPOUT,
                       dims.null_token) for ds, rng in zip(datasets, rngs)]
    b = {k: np.concatenate([d[k] for d in draws]) for k in draws[0]}
    opt = fd.Adam(PRETRAIN_LR)
    tracemalloc.start()
    try:
        pvars = {k: ad.Var(v) for k, v in stack.items()}
        loss, _ = denoise_loss(pvars, None, b["x0"], b["tokens"], b["t"], b["eps"],
                               sched, dims)
        ad.backward(loss)
        opt.step(stack, {k: v.grad for k, v in pvars.items()})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (ranks * batch) < 6e3
