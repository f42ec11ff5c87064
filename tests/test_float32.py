"""Training and sampling compute in float32: no op falls back to float64.

One float64 operand promotes every op after it to float64, and NumPy
promotes a float32 array met by a float64 0-d array or numpy scalar too
(NEP 50). So these tests look at every value a training step tapes and
every gradient it leaves, and at the states and predictions of every
sampler stride.
"""
import numpy as np
import pytest

import flowdistill as fd
import flowdistill.autodiff as ad
import flowdistill.datagen as datagen
import flowdistill.distill as dist
import flowdistill.solvers as solvers
from flowdistill.datagen import style_by_name
from flowdistill.distill import DistillContext, Rank, StageConfig, run_stage
from flowdistill.evalmetrics import arm_set, eval_inputs, reference_set
from flowdistill.nets import BASE_KEYS, MOTION_KEYS

DIMS = fd.NetDims()
F32 = np.dtype(np.float32)


def _tape(loss) -> list:
    """Every node reachable from ``loss`` through ``_parents``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.fixture
def tapes(monkeypatch) -> list:
    """One record per ``backward`` run while a test runs: the dtypes of
    every taped node's value and of every leaf's gradient, and the number
    of leaves that got one."""
    records = []
    backward = ad.backward

    def spy(loss):
        nodes = _tape(loss)
        backward(loss)
        grads = [n.grad for n in nodes if not n._parents and n.grad is not None]
        records.append({"values": {n.value.dtype for n in nodes},
                        "grads": {g.dtype for g in grads}, "leaves": len(grads)})

    monkeypatch.setattr(ad, "backward", spy)
    return records


def _bundle(seed=0):
    rng = np.random.default_rng(seed)
    return fd.StudentBundle(fd.init_base(DIMS, rng), fd.init_motion(DIMS, rng, 0.05),
                            DIMS)


def test_a_pretraining_step_tapes_and_differentiates_in_float32(tapes):
    ds = fd.sample_ground_truth(style_by_name("default"), 64, 1)
    [(base, _)] = fd.pretrain_base([ds], fd.SCHEDULE, DIMS, 1, [0], batch=8)
    fd.pretrain_motion(base, ds, fd.SCHEDULE, DIMS, 1, 0, batch=8)
    assert tapes == [{"values": {F32}, "grads": {F32}, "leaves": len(keys)}
                     for keys in (BASE_KEYS, MOTION_KEYS)]


def _context():
    bundle = _bundle(1)
    ranks = [Rank(r, bundle.base,
                  fd.sample_ground_truth(style_by_name("default"), 64, r), r)
             for r in range(2)]
    return DistillContext(sched=fd.SCHEDULE, dims=DIMS, ranks=ranks, pretrained=bundle,
                          seed=0), bundle.motion


@pytest.mark.parametrize("stage, sides", [
    (StageConfig(128, 32, "mse_cfg", 1, micro_batch=4, grad_accum=2, cfg_scale=7.5),
     [(None, "student")]),
    (StageConfig(32, 8, "adversarial", 2, micro_batch=4, grad_accum=2),
     [("pair", "disc"), ("pair", "student"), ("single", "disc"),
      ("single", "student")]),
], ids=["mse", "adversarial"])
def test_a_distillation_iteration_tapes_and_differentiates_in_float32(
        tapes, monkeypatch, stage, sides):
    steps = []
    rank_step = dist.rank_step

    def spy(base, motion, disc, b, flow_idx, side, *rest):
        losses, grads = rank_step(base, motion, disc, b, flow_idx, side, *rest)
        head = None if disc is None else "pair" if "hp1_w" in disc else "single"
        steps.append((head, side, {g.dtype for g in grads.values()}))
        return losses, grads

    monkeypatch.setattr(dist, "rank_step", spy)
    ctx, teacher = _context()
    run_stage(stage, ctx, teacher)
    # Both ranks step as one block on each side of each phase.
    assert steps == [(head, side, {F32}) for head, side in sides]
    assert len(tapes) == len(steps)
    for tape in tapes:
        assert tape["values"] == tape["grads"] == {F32}


@pytest.fixture
def forwards(monkeypatch) -> list:
    """The dtypes of the states that every sampler stride's model forward
    receives while a test runs, and of the predictions it returns: the
    returned clips are cast to their buffer's dtype, so only these show a
    stride that left float32."""
    seen = []
    student_eps = solvers.student_eps

    def spy(base, motion, x, *args, **kwargs):
        eps = student_eps(base, motion, x, *args, **kwargs)
        seen.append((x.dtype, eps.dtype))
        return eps

    monkeypatch.setattr(solvers, "student_eps", spy)
    return seen


@pytest.mark.parametrize("w", [0.0, 7.5])
def test_sample_batch_samples_in_float32(forwards, w):
    tokens = np.array([0, 3, DIMS.null_token])
    x = fd.start_noise(2, len(tokens), DIMS)
    assert x.dtype == F32
    got = fd.sample_batch(_bundle(), fd.SCHEDULE, 4, tokens, x, w=w)
    assert got.dtype == F32
    assert len(forwards) == 4 * (2 if w else 1)
    assert set(forwards) == {(F32, F32)}


def test_generated_datasets_are_sampled_in_float32(forwards, monkeypatch):
    raw = []
    sample_batch = datagen.sample_batch

    def spy(*args, **kwargs):
        raw.append(sample_batch(*args, **kwargs))
        return raw[-1]

    monkeypatch.setattr(datagen, "sample_batch", spy)
    fd.generate_distill_dataset(_bundle(), fd.SCHEDULE, style_by_name("real_b"), 6, 3, 4, 7.5)
    assert [clips.dtype for clips in raw] == [F32]
    assert forwards and set(forwards) == {(F32, F32)}


def test_reference_and_arm_sets_are_sampled_in_float32(forwards):
    tokens, x_start = eval_inputs(4, 6, DIMS)
    bundle = _bundle()
    assert reference_set(bundle, fd.SCHEDULE, tokens, x_start, 8, 7.5).dtype == F32
    assert arm_set(bundle, fd.SCHEDULE, 2, tokens, x_start).dtype == F32
    assert forwards and set(forwards) == {(F32, F32)}
