import tracemalloc

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.datagen import style_by_name
from flowdistill import autodiff as ad
from flowdistill.distill import (
    DISC_STREAM,
    DistillContext,
    PHASES,
    PROB_CLAMP,
    Rank,
    StageConfig,
    _nonsat_losses,
    _stage_rng,
    _student_stride,
    adversarial_losses,
    mse_loss,
    rank_step,
    run_stage,
    stage_strides,
    stage_timesteps,
    teacher_stride,
)
from flowdistill.nets import (
    DISC_BACKBONE_KEYS,
    DISC_HEAD_PAIR_KEYS,
    DISC_HEAD_SINGLE_KEYS,
    MOTION_KEYS,
    Adam,
    disc_pair_prob,
    disc_single_prob,
    draw_rows,
    init_discriminator,
    relaxed_discriminator,
)
from flowdistill.config import default_config, plan_from_config
from flowdistill.evalmetrics import arm_set
from flowdistill.solvers import predictor, solve_grid


@pytest.fixture(scope="module")
def sched():
    return fd.build_schedule(128, 0.002, 0.0985703125)


@pytest.fixture(scope="module")
def dims():
    return fd.NetDims()


@pytest.fixture(scope="module")
def setup(sched, dims):
    rng = np.random.default_rng(0)
    base = fd.init_base(dims, rng)
    motion = fd.init_motion(dims, rng, out_scale=0.05)
    ds = fd.sample_ground_truth(style_by_name("default"), 512, 1,
                                frames=dims.frames, vocab=dims.vocab)
    return base, motion, ds


def _batch(ds, stage, sched, rng, n=8):
    grid = stage_timesteps(stage, sched.T)
    idx = rng.integers(0, len(ds.clips), n)
    return {
        "x0": ds.clips[idx].astype(np.float64),
        "tokens": ds.conditions[idx].astype(np.intp),
        "t": grid[rng.integers(0, len(grid), n)],
        "eps": rng.standard_normal((n, ds.clips.shape[1], ds.clips.shape[2])),
    }


def _mse_step(base, teacher, motion, batch, stage, sched, dims):
    b = teacher_stride(base, teacher, batch, stage, sched, dims)
    losses, grads = rank_step(base, motion, None, b, None, 0, "student", sched,
                              dims)
    return losses["mse"], grads


def _adversarial_step(base, teacher, motion, disc, batch, stage, phase, flow_idx,
                      sched, dims, side):
    b = teacher_stride(base, teacher, batch, stage, sched, dims)
    losses, grads = rank_step(base, motion, disc, b, phase, flow_idx, side,
                              sched, dims)
    return losses["l_d"], losses["l_g"], grads


def test_stage_config_validation():
    with pytest.raises(ValueError):
        StageConfig(8, 8, "mse_cfg", 1)
    with pytest.raises(ValueError):
        StageConfig(8, 3, "mse_cfg", 1)
    with pytest.raises(ValueError):
        StageConfig(8, 4, "nope", 1)
    assert StageConfig(8, 4, "adversarial", 1).phases() == PHASES
    assert StageConfig(8, 4, "mse_cfg", 1).phases() == (None,)


def _plan(**distill):
    cfg = default_config()
    cfg["distill"].update(distill)
    return plan_from_config(cfg)


def test_plan_chaining_validation():
    good = _plan(include_one_step=False)
    assert [s.name for s in good.stages] == ["128to32", "32to8", "8to4", "4to2"]
    assert [s.name for s in _plan().stages][-1] == "2to1"
    with pytest.raises(ValueError, match="chain"):
        fd.DistillPlan((StageConfig(128, 32, "mse_cfg", 1),
                        StageConfig(16, 8, "adversarial", 1)))


def test_zero_mse_iterations_is_not_unset():
    plan = _plan(iterations=5, mse_iterations=0)
    assert [s.iterations for s in plan.stages] == [0, 5, 5, 5, 5]


def test_stage_grids(sched):
    n, s = stage_strides(StageConfig(128, 32, "mse_cfg", 1), sched.T)
    assert (n, s) == (4, 1)
    grid = stage_timesteps(StageConfig(4, 2, "adversarial", 1), sched.T)
    assert sorted(grid.tolist()) == [63, 95, 127]
    grid = stage_timesteps(StageConfig(2, 1, "adversarial", 1), sched.T)
    assert grid.tolist() == [127]
    with pytest.raises(ValueError, match="divisible"):
        stage_strides(StageConfig(96, 32, "mse_cfg", 1), sched.T)


class _DegenerateStage(StageConfig):
    # Bypass validation to express the n = 1 corner (from == to), which the
    # plan invariants forbid but the loss identity is stated for.
    def __post_init__(self):
        pass


def test_mse_loss_zero_when_student_is_teacher_single_stride(sched, dims, setup):
    # Identical parameters and n = 1 make teacher and student the same
    # one-step map, so the loss is exactly zero.
    base, motion, ds = setup
    st = _DegenerateStage(32, 32, "mse_cfg", 1, cfg_scale=0.0)
    batch = _batch(ds, st, sched, np.random.default_rng(2))
    loss, grads = _mse_step(base, motion, motion, batch, st, sched, dims)
    assert loss == 0.0
    for key in grads:
        np.testing.assert_array_equal(grads[key], 0.0)


def test_mse_loss_nonnegative_generic(sched, dims, setup):
    base, motion, ds = setup
    st = StageConfig(32, 8, "mse_cfg", 1, cfg_scale=0.0)
    batch = _batch(ds, st, sched, np.random.default_rng(2))
    loss, grads = _mse_step(base, motion, motion, batch, st, sched, dims)
    assert loss > 0.0
    assert set(grads) == set(MOTION_KEYS)


def test_mse_gradients_only_for_motion_and_base_untouched(sched, dims, setup):
    base, motion, ds = setup
    rng = np.random.default_rng(3)
    st = StageConfig(32, 8, "mse_cfg", 1, cfg_scale=7.5)
    before = {k: v.copy() for k, v in base.items()}
    batch = _batch(ds, st, sched, rng)
    loss, grads = _mse_step(base, motion, motion, batch, st, sched, dims)
    assert np.isfinite(loss) and loss >= 0.0
    assert set(grads) == set(MOTION_KEYS)
    for key, val in base.items():
        assert np.array_equal(val, before[key])


@pytest.mark.parametrize("steps, n, s", [(1, 2, 64), (2, 2, 32), (8, 4, 4)])
def test_arm_set_strides_are_the_trained_student_stride(sched, dims, steps, n, s):
    # A distilled arm samples with the rule its student was trained on: each
    # stride of an arm set is _student_stride on the state it starts from,
    # bit for bit, also where the x0 clamp binds.
    rng = np.random.default_rng(21)
    base = fd.init_base(dims, rng)
    motion = fd.init_motion(dims, rng, out_scale=3.0)
    tokens = rng.integers(0, dims.vocab, 6)
    x_start = fd.start_noise(22, 6, dims)
    f = predictor(base, motion, sched.T, dims)
    want = x_start
    for t in solve_grid(sched.T, steps)[:-1]:
        x0_hat = ((want - sched.sqrt_one_minus_alpha_bar(t) * f(want, t, tokens))
                  / sched.sqrt_alpha_bar(t))
        assert np.max(np.abs(x0_hat)) > 4.0  # the clamp binds at every stride
        b = {"x_t": want, "t": np.full(len(tokens), t), "tokens": tokens,
             "n": n, "s": s}
        want = _student_stride(base, motion, b, sched, dims)
    got = arm_set(fd.StudentBundle(base, motion, dims), sched, steps, tokens, x_start)
    assert np.array_equal(got, want)


def test_mse_target_detached_from_student(sched, dims, setup):
    # Gradients must treat the teacher trajectory as a constant: using the
    # same motion object for teacher and student must equal using a copy.
    base, motion, ds = setup
    rng = np.random.default_rng(4)
    st = StageConfig(32, 8, "mse_cfg", 1, cfg_scale=0.0)
    batch = _batch(ds, st, sched, rng)
    loss_a, grads_a = _mse_step(base, motion, motion, batch, st, sched, dims)
    copy = {k: v.copy() for k, v in motion.items()}
    loss_b, grads_b = _mse_step(base, copy, motion, batch, st, sched, dims)
    assert loss_a == loss_b
    for key in grads_a:
        assert np.array_equal(grads_a[key], grads_b[key]), key


def test_misaligned_timestep_rejected(sched, dims, setup):
    base, motion, ds = setup
    st = StageConfig(32, 8, "mse_cfg", 1)
    batch = _batch(ds, st, sched, np.random.default_rng(5), n=4)
    batch["t"] = np.array([126, 127, 127, 127])  # 126 not on the 32-step grid
    with pytest.raises(ValueError, match="misaligned"):
        teacher_stride(base, motion, batch, st, sched, dims)


def test_adversarial_losses_at_fresh_heads(sched, dims, setup):
    # Zero-initialised head output 0 -> p = 0.5 -> L_D = 2 ln 2, L_G = ln 2.
    base, motion, ds = setup
    disc = init_discriminator(dims, 1, np.random.default_rng(6),
                              backbone_from=fd.StudentBundle(base, motion, dims))
    st = StageConfig(32, 8, "adversarial", 1, cfg_scale=0.0)
    batch = _batch(ds, st, sched, np.random.default_rng(7), n=16)
    l_d, l_g, grads = _adversarial_step(base, motion, motion, disc, batch, st,
                                        "trajectory_conditional", 0, sched, dims,
                                        side="disc")
    assert abs(l_d - 2 * np.log(2.0)) < 1e-3
    assert abs(l_g - np.log(2.0)) < 0.02
    assert set(grads) == set(disc)
    relaxed = relaxed_discriminator(disc, dims, np.random.default_rng(6))
    l_d2, l_g2, grads2 = _adversarial_step(base, motion, motion, relaxed, batch, st,
                                           "relaxed", 0, sched, dims, side="student")
    assert abs(l_d2 - 2 * np.log(2.0)) < 1e-3
    assert set(grads2) == set(MOTION_KEYS)
    with pytest.raises(ValueError, match="unknown phase"):
        _adversarial_step(base, motion, motion, disc, batch, st, "sideways", 0,
                          sched, dims, side="disc")
    with pytest.raises(ValueError, match="unknown side 'disc' for phase None"):
        _adversarial_step(base, motion, motion, disc, batch, st, None, 0,
                          sched, dims, side="disc")


def test_adversarial_probabilities_clamped(sched, dims, setup):
    # A huge head bias saturates the sigmoid; the loss must stay finite.
    base, motion, ds = setup
    disc = init_discriminator(dims, 1, np.random.default_rng(8),
                              backbone_from=fd.StudentBundle(base, motion, dims))
    disc["hp2_b"] = np.array([60.0], dtype=np.float32)
    relaxed = relaxed_discriminator(disc, dims, np.random.default_rng(8))
    relaxed["hs2_b"] = np.array([-60.0], dtype=np.float32)
    st = StageConfig(32, 8, "adversarial", 1, cfg_scale=0.0)
    batch = _batch(ds, st, sched, np.random.default_rng(9), n=4)
    for phase, d in (("trajectory_conditional", disc), ("relaxed", relaxed)):
        for side in ("disc", "student"):
            l_d, l_g, _ = _adversarial_step(base, motion, motion, d, batch, st,
                                            phase, 0, sched, dims, side=side)
            assert np.isfinite(l_d) and np.isfinite(l_g)
    assert np.isfinite(np.log(PROB_CLAMP))


def test_discriminator_step_peak_memory_per_row(sched, dims, setup):
    # One trajectory-conditional discriminator step over one rank's rows at
    # the default micro_batch * grad_accum. Freeing each interior gradient
    # as backward uses it keeps the peak well under what the whole tape's
    # gradients would add (about 95 KB/row when they are all kept).
    base, motion, ds = setup
    rng = np.random.default_rng(13)
    disc = init_discriminator(dims, 2, rng,
                              backbone_from=fd.StudentBundle(base, motion, dims))
    st = StageConfig(32, 8, "adversarial", 1)
    rows = st.micro_batch * st.grad_accum
    b = teacher_stride(base, motion, _batch(ds, st, sched, rng, n=rows),
                       st, sched, dims)
    tracemalloc.start()
    try:
        rank_step(base, motion, disc, b, "trajectory_conditional", 1, "disc",
                  sched, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows < 85e3


def _tiny_ctx(sched, dims, seed=0, tmpdir=None):
    rng = np.random.default_rng(100)
    bases = {}
    datasets = {}
    for name in ("default", "real_a"):
        style = style_by_name(name)
        bases[name] = fd.init_base(dims, rng)
        datasets[name] = fd.sample_ground_truth(style, 256, style.style_id + 50,
                                                frames=dims.frames,
                                                vocab=dims.vocab)
    motion = fd.init_motion(dims, rng, out_scale=0.05)
    ranks = [Rank(0, bases["default"], datasets["default"], 0),
             Rank(1, bases["real_a"], datasets["real_a"], 1)]
    ctx = DistillContext(sched=sched, dims=dims, ranks=ranks,
                         pretrained=fd.StudentBundle(bases["default"], motion, dims),
                         seed=seed, workdir=str(tmpdir) if tmpdir else None)
    return ctx, motion


def test_zero_iteration_stage_returns_input_unchanged(sched, dims):
    ctx, motion = _tiny_ctx(sched, dims)
    st = StageConfig(32, 8, "adversarial", 0, micro_batch=4, grad_accum=1)
    out, history = run_stage(st, ctx, motion)
    assert history == []
    for key in motion:
        assert np.array_equal(out[key], motion[key])


def test_run_stage_freezes_bases_and_produces_finite_history(sched, dims):
    ctx, motion = _tiny_ctx(sched, dims)
    before = [{k: v.copy() for k, v in r.base.items()} for r in ctx.ranks]
    st = StageConfig(32, 8, "adversarial", 6, micro_batch=4, grad_accum=2)
    out, history = run_stage(st, ctx, motion)
    assert len(history) == 12  # two phases
    for rec in history:
        assert np.isfinite(rec["l_d"]) and np.isfinite(rec["l_g"])
    sides = [rec["side"] for rec in history[:6]]
    assert sides == ["disc", "student"] * 3
    for r, saved in zip(ctx.ranks, before):
        for key, val in saved.items():
            assert np.array_equal(r.base[key], val)
    assert not np.array_equal(out["mix_out"], motion["mix_out"])


@pytest.mark.parametrize("stage", [
    StageConfig(128, 32, "mse_cfg", 2, micro_batch=4, grad_accum=1, cfg_scale=7.5),
    StageConfig(32, 8, "adversarial", 2, micro_batch=4, grad_accum=1),
], ids=["mse", "adversarial"])
def test_run_stage_leaves_its_teacher_unchanged(sched, dims, stage):
    # The teacher is the previous stage's cached result, and Adam rebinds
    # the entries of the dict it steps: the stage trains a copy.
    ctx, teacher = _tiny_ctx(sched, dims)
    before = {k: v.copy() for k, v in teacher.items()}
    out, _ = run_stage(stage, ctx, teacher)
    assert teacher.keys() == before.keys()
    for key, val in before.items():
        assert teacher[key].dtype == val.dtype, key
        assert teacher[key].tobytes() == val.tobytes(), key
    assert not np.array_equal(out["mix_out"], teacher["mix_out"])


def _mean_in_order(grads):
    return {k: sum(g[k] for g in grads) / len(grads) for k in grads[0]}


_ROW_KEYS = ("x_t", "t", "tokens", "target")


def _folded_grads(stage, ranks, draw_stride, step_grads):
    """Per rank in rank order: the teacher once per micro-batch, the
    strides concatenated, one step over all rows; then the mean over
    ranks."""
    per_rank = []
    for r in ranks:
        bs = [draw_stride(r) for _ in range(stage.grad_accum)]
        b = {**bs[0], **{k: np.concatenate([x[k] for x in bs]) for k in _ROW_KEYS}}
        per_rank.append(step_grads(r, b))
    return _mean_in_order(per_rank)


def _accumulated_grads(stage, ranks, draw_stride, step_grads):
    """One step per micro-batch per rank: the mean over ranks in rank order,
    then the mean over the micro-steps."""
    micro = [_mean_in_order([step_grads(r, draw_stride(r)) for r in ranks])
             for _ in range(stage.grad_accum)]
    return _mean_in_order(micro)


def _reference_grads(base, motion, disc, b, phase, flow_idx, side, sched, dims):
    """The gradients of one rank's loss on ``b``, taped and differentiated
    here, with a zero array for each taped parameter the loss misses."""
    pvars = {k: ad.Var(v) for k, v in (disc if side == "disc" else motion).items()}
    if phase is None:
        loss = mse_loss(base, pvars, b, sched, dims)
    else:
        l_d, l_g = adversarial_losses(
            base, pvars if side == "student" else motion,
            pvars if side == "disc" else disc, b, phase, flow_idx, sched,
            dims)
        loss = l_d if side == "disc" else l_g
    ad.backward(loss)
    return {k: v.grad if v.grad is not None else np.zeros_like(v.value)
            for k, v in pvars.items()}


def _reference_stage(stage, ctx, teacher, iteration_grads):
    """Reference loop for ``run_stage``: each phase reseeds the ranks and
    starts fresh optimizers, the relaxed phase with a fresh single head in
    place of the pair head, and
    every iteration takes ``iteration_grads`` of the ranks and makes one
    Adam step."""
    motion = {k: v.copy() for k, v in teacher.items()}
    disc = None
    if stage.loss_kind == "adversarial":
        disc = init_discriminator(ctx.dims, ctx.num_flows,
                                  _stage_rng(ctx.seed, stage, 0, DISC_STREAM),
                                  ctx.pretrained)
    ranks = sorted(ctx.ranks, key=lambda r: r.rank)
    for phase_idx, phase in enumerate(stage.phases()):
        if phase == "relaxed":
            disc = relaxed_discriminator(
                disc, ctx.dims, _stage_rng(ctx.seed, stage, 1, DISC_STREAM))
        rngs = {r.rank: _stage_rng(ctx.seed, stage, phase_idx, r.rank)
                for r in ranks}
        opt_student, opt_disc = Adam(stage.lr_student), Adam(stage.lr_disc)
        for it in range(stage.iterations):
            side = "disc" if disc is not None and it % 2 == 0 else "student"

            def draw_stride(r):
                batch = _batch(r.dataset, stage, ctx.sched, rngs[r.rank],
                               n=stage.micro_batch)
                return teacher_stride(r.base, teacher, batch, stage,
                                      ctx.sched, ctx.dims)

            def step_grads(r, b):
                return _reference_grads(r.base, motion, disc, b, phase,
                                        r.flow_idx, side, ctx.sched, ctx.dims)

            grads = iteration_grads(stage, ranks, draw_stride, step_grads)
            if side == "student":
                opt_student.step(motion, grads)
            else:
                opt_disc.step(disc, grads)
    return motion


_REFERENCE_STAGES = pytest.mark.parametrize("stage", [
    StageConfig(128, 32, "mse_cfg", 1, micro_batch=4, grad_accum=3,
                cfg_scale=7.5),
    StageConfig(32, 8, "adversarial", 2, micro_batch=4, grad_accum=2),
], ids=["mse", "adversarial"])


def _stage_and_reference(sched, dims, stage, iteration_grads, monkeypatch):
    """Run ``run_stage`` and the reference loop on a three-rank context;
    returns the float64 gradients each Adam step received and the trained
    motion, for ``run_stage`` and for the reference."""
    def three_rank_ctx():
        # A third rank sharing rank 0's base, listed first: the step must
        # still reduce in rank order, and three terms make the order show.
        ctx, motion = _tiny_ctx(sched, dims)
        ctx.ranks.insert(0, ctx.ranks[0]._replace(rank=2))
        return ctx, motion

    # Compare the float64 gradients each update receives: an early Adam step
    # is close to sign(g), so the float32 parameters alone would hide a
    # change of summation order.
    updates = []
    adam_step = Adam.step

    def recording_step(self, params, grads):
        updates.append({k: np.array(v, copy=True) for k, v in grads.items()})
        adam_step(self, params, grads)

    monkeypatch.setattr(Adam, "step", recording_step)
    ctx, motion = three_rank_ctx()
    out, _ = run_stage(stage, ctx, motion)
    got = updates[:]
    updates.clear()
    ref = _reference_stage(stage, *three_rank_ctx(), iteration_grads)
    assert len(got) == len(updates) == stage.iterations * len(stage.phases())
    for g, r in zip(got, updates):
        assert g.keys() == r.keys()
    assert not np.array_equal(out["mix_out"], motion["mix_out"])
    return got, updates, out, ref


@_REFERENCE_STAGES
def test_run_stage_matches_per_rank_reference(sched, dims, stage, monkeypatch):
    got, want, out, ref = _stage_and_reference(sched, dims, stage,
                                               _folded_grads, monkeypatch)
    for g, r in zip(got, want):
        for key in g:
            assert np.array_equal(g[key], r[key]), key
    for key in out:
        assert np.array_equal(out[key], ref[key]), key


def _row_terms(r, b, step_grads) -> list:
    """Each row's term in the gradient of the mean loss over ``b``'s rows."""
    rows = len(b["t"])
    return [{k: v / rows for k, v in step_grads(
                r, {**b, **{k: b[k][i:i + 1] for k in _ROW_KEYS}}).items()}
            for i in range(rows)]


@_REFERENCE_STAGES
def test_run_stage_gradients_match_micro_step_accumulation(sched, dims, stage,
                                                           monkeypatch):
    # Every loss is a mean over rows and the micro-batches are the same
    # size, so one step over a rank's rows equals the mean of its micro-step
    # gradients up to the order of the sum over rows, and up to the last
    # bits BLAS moves in each row's forward pass when the row count changes.
    # Both roundings are limited by the sum of the absolute values of the
    # row terms, not by their sum, which can nearly cancel (a fresh head's
    # bias gradient does). The bound is 1e-12, about 9000 units of
    # roundoff, of that magnitude.
    magnitudes = []

    def accumulated(stage, ranks, draw_stride, step_grads):
        drawn = []

        def recording(r):
            drawn.append((r, draw_stride(r)))
            return drawn[-1][1]

        grads = _accumulated_grads(stage, ranks, recording, step_grads)
        terms = [t for r, b in drawn for t in _row_terms(r, b, step_grads)]
        magnitudes.append({k: sum(np.abs(t[k]) for t in terms) / len(drawn)
                           for k in grads})
        return grads

    got, want, _, _ = _stage_and_reference(sched, dims, stage, accumulated,
                                           monkeypatch)
    for g, r, size in zip(got, want, magnitudes):
        for key in g:
            gap = np.linalg.norm(g[key] - r[key])
            assert gap <= 1e-12 * np.linalg.norm(size[key]), key


def test_nan_loss_aborts_with_dump(sched, dims, tmp_path, monkeypatch):
    ctx, motion = _tiny_ctx(sched, dims, tmpdir=tmp_path)
    st = StageConfig(32, 8, "mse_cfg", 3, micro_batch=4, grad_accum=1)

    import flowdistill.distill as dist

    def poisoned(*args, **kwargs):
        return {"mse": float("nan")}, {k: np.zeros_like(v, dtype=np.float64)
                                       for k, v in motion.items()}

    monkeypatch.setattr(dist, "rank_step", poisoned)
    with pytest.raises(fd.DistillDivergence) as err:
        run_stage(st, ctx, motion)
    assert err.value.dump_path is not None
    assert (tmp_path / "diverged_32to8.json").exists()
    assert (tmp_path / "diverged_32to8_motion.ckpt").exists()


def test_divergence_dump_that_fails_partway_leaves_no_json(sched, dims, tmp_path,
                                                          monkeypatch):
    ctx, motion = _tiny_ctx(sched, dims, tmpdir=tmp_path)
    st = StageConfig(32, 8, "mse_cfg", 3, micro_batch=4, grad_accum=1)

    import flowdistill.distill as dist

    def poisoned(*args, **kwargs):
        return {"mse": float("nan")}, {k: np.zeros_like(v, dtype=np.float64)
                                       for k, v in motion.items()}

    def dump_partway(obj, fh, **kwargs):
        fh.write('{"stage": ')
        raise OSError("disk full")

    monkeypatch.setattr(dist, "rank_step", poisoned)
    monkeypatch.setattr(dist.json, "dump", dump_partway)
    with pytest.raises(OSError, match="disk full"):
        run_stage(st, ctx, motion)
    assert not list(tmp_path.glob("diverged_*.json*"))


@pytest.mark.parametrize("stage", [
    StageConfig(128, 32, "mse_cfg", 1, micro_batch=16, grad_accum=4, cfg_scale=7.5),
    StageConfig(8, 4, "adversarial", 1, micro_batch=16, grad_accum=4),
], ids=["mse_cfg", "adversarial"])
def test_one_teacher_call_per_rank_equals_one_per_micro_batch(sched, dims, setup,
                                                              stage):
    # run_stage draws a rank's micro-batches in order, concatenates them and
    # traverses them in one teacher call.
    base, motion, ds = setup
    grid = stage_timesteps(stage, sched.T)
    rng = np.random.default_rng(11)
    draws = [draw_rows(ds, stage.micro_batch, rng, grid)
             for _ in range(stage.grad_accum)]
    got = teacher_stride(base, motion,
                         {k: np.concatenate([d[k] for d in draws]) for k in draws[0]},
                         stage, sched, dims)
    rng = np.random.default_rng(11)
    parts = [teacher_stride(base, motion,
                            _batch(ds, stage, sched, rng, n=stage.micro_batch),
                            stage, sched, dims) for _ in range(stage.grad_accum)]
    want = {**parts[0], **{k: np.concatenate([p[k] for p in parts])
                           for k in _ROW_KEYS}}
    assert got.keys() == want.keys()
    assert len(got["t"]) == stage.micro_batch * stage.grad_accum
    for key in got:
        assert np.array_equal(got[key], want[key]), key


def _two_call_losses(base_arrays, motion, disc_arrays, b, phase, flow_idx, sched,
                     dims):
    # Reference: the real and the fake next state in separate calls.
    t_next = b["t"] - b["n"] * b["s"]

    def prob(x_next):
        if phase == "trajectory_conditional":
            return disc_pair_prob(disc_arrays, b["x_t"], x_next, b["t"], t_next,
                                  b["tokens"], flow_idx, sched.T, dims)
        return disc_single_prob(disc_arrays, x_next, t_next, b["tokens"],
                                flow_idx, sched.T, dims)

    fake_next = _student_stride(base_arrays, motion, b, sched, dims)
    return _nonsat_losses(prob(b["target"]), prob(fake_next))


@pytest.mark.parametrize("side", ["disc", "student"])
@pytest.mark.parametrize("phase", ["trajectory_conditional", "relaxed"])
def test_stacked_discriminator_matches_two_call_reference(sched, dims, setup,
                                                          phase, side):
    base, motion, ds = setup
    rng = np.random.default_rng(12)
    disc = init_discriminator(dims, 2, rng, backbone_from=fd.StudentBundle(base, motion, dims))
    for key in ("hp2_w", "flow_emb"):
        disc[key] = rng.normal(0, 0.5, disc[key].shape).astype(np.float32)
    if phase == "relaxed":
        disc = relaxed_discriminator(disc, dims, rng)
        disc["hs2_w"] = rng.normal(0, 0.5, disc["hs2_w"].shape).astype(np.float32)
    st = StageConfig(32, 8, "adversarial", 1)
    b = teacher_stride(base, motion, _batch(ds, st, sched, rng, n=16),
                       st, sched, dims)
    results = []
    for losses_of in (adversarial_losses, _two_call_losses):
        pvars = {k: ad.Var(v) for k, v in (disc if side == "disc" else motion).items()}
        l_d, l_g = losses_of(base, pvars if side == "student" else motion,
                             pvars if side == "disc" else disc, b, phase, 1,
                             sched, dims)
        ad.backward(l_d if side == "disc" else l_g)
        results.append((float(ad.value_of(l_d)), float(ad.value_of(l_g)),
                        {k: v.grad for k, v in pvars.items()}))
    (l_d, l_g, grads), (r_d, r_g, r_grads) = results
    assert l_d == pytest.approx(r_d, rel=1e-12)
    assert l_g == pytest.approx(r_g, rel=1e-12)
    assert grads.keys() == r_grads.keys()
    for key, ref in r_grads.items():
        if ref is None:
            assert grads[key] is None, key
            continue
        np.testing.assert_allclose(grads[key], ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max(), err_msg=key)


def test_each_phase_holds_only_the_head_it_trains(sched, dims, monkeypatch):
    # Every array the discriminator holds is taped and Adam-updated, so it
    # holds the backbone, the flow table and its phase's head, nothing else.
    import flowdistill.distill as dist

    seen = []
    step = dist.rank_step

    def spy(base, motion, disc, b, phase, *args):
        seen.append((phase, set(disc)))
        return step(base, motion, disc, b, phase, *args)

    monkeypatch.setattr(dist, "rank_step", spy)
    ctx, motion = _tiny_ctx(sched, dims)
    run_stage(StageConfig(32, 8, "adversarial", 2, micro_batch=2, grad_accum=1),
              ctx, motion)
    heads = {"trajectory_conditional": DISC_HEAD_PAIR_KEYS,
             "relaxed": DISC_HEAD_SINGLE_KEYS}
    assert [phase for phase, _ in seen] == (
        ["trajectory_conditional"] * 4 + ["relaxed"] * 4)  # 2 iterations x 2 ranks
    for phase, keys in seen:
        assert keys == {*DISC_BACKBONE_KEYS, "flow_emb", *heads[phase]}, phase
