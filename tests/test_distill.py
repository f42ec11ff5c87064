import tracemalloc

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.datagen import style_by_name
from flowdistill import autodiff as ad
import flowdistill.distill as dist
import flowdistill.nets as nets
from flowdistill.distill import (
    DISC_STREAM,
    DistillContext,
    PHASES,
    PROB_CLAMP,
    Rank,
    StageConfig,
    _noised_stride,
    _stage_rng,
    _student_stride,
    adversarial_loss,
    mse_loss,
    rank_step,
    run_stage,
    stage_strides,
    stage_timesteps,
)
from flowdistill.nets import (
    BASE_KEYS,
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
import flowdistill.solvers as solvers
from flowdistill.solvers import predictor, traverse


@pytest.fixture(scope="module")
def setup(sched, dims):
    rng = np.random.default_rng(0)
    base = fd.init_base(dims, rng)
    motion = fd.init_motion(dims, rng, out_scale=0.05)
    ds = fd.sample_ground_truth(style_by_name("default"), 512, 1,
                                frames=dims.frames, vocab=dims.vocab)
    return base, motion, ds


# A float64 test's tolerance carried to its float32 twin: the same multiple
# of the machine epsilon.
TO_FLOAT32 = float(np.finfo(np.float32).eps / np.finfo(np.float64).eps)


def _rows(ds, grid, rng, n, dtype):
    """``draw_rows``'s draws from ``rng`` (no dropout), with the clips and
    the noise in ``dtype``: at float32 they are ``draw_rows``'s rows."""
    idx = rng.integers(0, len(ds.clips), n)
    return {
        "x0": ds.clips[idx].astype(dtype),
        "tokens": ds.conditions[idx].astype(np.intp),
        "t": grid[rng.integers(0, len(grid), n)],
        "eps": rng.standard_normal((n, ds.clips.shape[1], ds.clips.shape[2])).astype(
            dtype),
    }


def _batch(ds, stage, sched, rng, n=8, dtype=np.float64):
    return _rows(ds, stage_timesteps(stage, sched.T), rng, n, dtype)


def _stride_batch(base, teacher, batch, stage, sched, dims):
    """``batch`` as ``run_stage`` builds its stride batch for a loss that
    reads the target: checked and noised, then the teacher's traversal of
    its rows, each rank's on its own base when ``base`` stacks several."""
    b = _noised_stride(batch, stage, sched, dims)
    b["target"] = traverse(base, teacher, b["x_t"], b["t"], b["tokens"], b["n"],
                           b["s"], sched, dims, stage.cfg_scale)
    return b


def _with_fake(base, motion, b, sched, dims):
    """``b`` with ``fake``, the student's untaped stride that ``l_d`` reads,
    computed on this rank's rows alone."""
    return {**b, "fake": _student_stride(base, motion, b, sched, dims)}


def _stack(bases) -> dict:
    """``bases`` stacked on a leading rank axis."""
    return {k: np.stack([b[k] for b in bases]) for k in BASE_KEYS}


def _one_rank_step(base, motion, disc, b, flow_idx, side, sched, dims):
    """``rank_step`` on a block of one rank: its losses and gradients."""
    losses, grads = rank_step(_stack([base]), motion, disc, b, [flow_idx], side,
                              sched, dims)
    return ({k: float(v[0]) for k, v in losses.items()},
            {k: g[0] for k, g in grads.items()})


def _mse_step(base, teacher, motion, batch, stage, sched, dims):
    b = _stride_batch(base, teacher, batch, stage, sched, dims)
    losses, grads = _one_rank_step(base, motion, None, b, 0, "student", sched, dims)
    return losses["mse"], grads


def _adversarial_step(base, teacher, motion, disc, batch, stage, flow_idx,
                      sched, dims, side):
    """The loss ``side`` minimises and its gradients: ``rank_step`` returns
    that one loss, ``l_d`` or ``l_g``, and nothing else."""
    b = _with_fake(base, motion, _stride_batch(base, teacher, batch, stage, sched,
                                               dims), sched, dims)
    losses, grads = _one_rank_step(base, motion, disc, b, flow_idx, side, sched,
                                   dims)
    (name, loss), = losses.items()
    assert name == {"disc": "l_d", "student": "l_g"}[side]
    return loss, grads


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
    assert [s.name for s in _plan().stages] == [
        "128to32", "32to8", "8to4", "4to2", "2to1"]
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
    for t in range(sched.T - 1, -1, -(sched.T // steps)):
        x0_hat = ((want - np.sqrt(1 - sched.alpha_bar(t)) * f(want, t, tokens))
                  / np.sqrt(sched.alpha_bar(t)))
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
        _stride_batch(base, motion, batch, st, sched, dims)


def test_unknown_token_rejected(sched, dims, setup):
    base, motion, ds = setup
    st = StageConfig(32, 8, "mse_cfg", 1, cfg_scale=7.5)
    for bad in (dims.null_token + 1, -1):
        batch = _batch(ds, st, sched, np.random.default_rng(5), n=4)
        batch["tokens"][2] = bad
        with pytest.raises(ValueError, match="condition token"):
            _stride_batch(base, motion, batch, st, sched, dims)


@pytest.mark.parametrize("stage", plan_from_config(default_config()).stages,
                         ids=lambda st: st.name)
def test_teacher_stride_accepts_exactly_the_stage_timesteps(sched, dims, setup,
                                                            stage):
    # The grid is tested arithmetically; it must accept what stage_timesteps
    # lists and nothing else.
    base, motion, ds = setup
    batch = _batch(ds, stage, sched, np.random.default_rng(8), n=1)
    grid = set(stage_timesteps(stage, sched.T).tolist())
    for t in range(-3, sched.T + 3):
        batch["t"] = np.array([t])
        if t in grid:
            _stride_batch(base, motion, batch, stage, sched, dims)
        else:
            with pytest.raises(ValueError, match="misaligned"):
                _stride_batch(base, motion, batch, stage, sched, dims)
    batch["t"] = np.array([float(max(grid))])
    with pytest.raises(TypeError):
        _stride_batch(base, motion, batch, stage, sched, dims)


def test_adversarial_losses_at_fresh_heads(sched, dims, setup):
    # Zero-initialised head output 0 -> p = 0.5 -> L_D = 2 ln 2, L_G = ln 2,
    # with either head.
    base, motion, ds = setup
    disc = init_discriminator(dims, 1, np.random.default_rng(6),
                              backbone_from=fd.StudentBundle(base, motion, dims))
    relaxed = relaxed_discriminator(disc, dims, np.random.default_rng(6))
    st = StageConfig(32, 8, "adversarial", 1, cfg_scale=0.0)
    batch = _batch(ds, st, sched, np.random.default_rng(7), n=16)
    for d in (disc, relaxed):
        l_d, grads = _adversarial_step(base, motion, motion, d, batch, st, 0,
                                       sched, dims, side="disc")
        assert abs(l_d - 2 * np.log(2.0)) < 1e-3
        assert set(grads) == set(d)
        l_g, grads = _adversarial_step(base, motion, motion, d, batch, st, 0,
                                       sched, dims, side="student")
        assert abs(l_g - np.log(2.0)) < 0.02
        assert set(grads) == set(MOTION_KEYS)
    with pytest.raises(ValueError, match="unknown side 'sideways'"):
        _adversarial_step(base, motion, motion, disc, batch, st, 0, sched, dims,
                          side="sideways")
    with pytest.raises(ValueError, match="unknown side 'disc' for the MSE stage"):
        _adversarial_step(base, motion, motion, None, batch, st, 0, sched, dims,
                          side="disc")


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
    for d in (disc, relaxed):
        for side in ("disc", "student"):
            loss, _ = _adversarial_step(base, motion, motion, d, batch, st, 0,
                                        sched, dims, side=side)
            assert np.isfinite(loss)
    assert np.isfinite(np.log(PROB_CLAMP))


def test_discriminator_step_peak_memory_per_row(sched, dims, setup):
    # One trajectory-conditional discriminator step over the block that
    # run_stage gives the pair head at the default micro_batch * grad_accum:
    # 2 ranks of 64 rows, 3 x 64 rows each through the taped encoder.
    # Freeing each interior gradient as backward uses it keeps the peak
    # well under what the whole tape's gradients would add (about 95 KB/row
    # when they are all kept). Measured: 30 KB/row and 3.9 MB per block.
    base, motion, _ = setup
    rng = np.random.default_rng(13)
    disc = init_discriminator(dims, 2, rng,
                              backbone_from=fd.StudentBundle(base, motion, dims))
    st = StageConfig(32, 8, "adversarial", 1)
    rows = st.micro_batch * st.grad_accum
    assert solvers.rank_blocks(8, 3 * rows)[0] == (0, 2)
    _, stacked, b = _block(sched, dims, setup, 2, rows, 14)
    tracemalloc.start()
    try:
        rank_step(stacked, motion, disc, b, np.array([0, 1]), "disc", sched, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * rows) < 85e3
    assert peak < 6e6


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
    assert [(rec["phase"], rec["side"]) for rec in history] == [
        (phase, side) for phase in ("trajectory_conditional", "relaxed")
        for side in ("disc", "student") * 3]
    for rec in history:
        # Each entry holds exactly the loss its side minimised.
        loss = {"disc": "l_d", "student": "l_g"}[rec["side"]]
        assert rec.keys() == {"stage", "phase", "iteration", "side", loss}
        assert np.isfinite(rec[loss])
    for r, saved in zip(ctx.ranks, before):
        for key, val in saved.items():
            assert np.array_equal(r.base[key], val)
    assert not np.array_equal(out["mix_out"], motion["mix_out"])


def test_an_mse_stage_moves_its_student_toward_the_teacher(sched, dims):
    # The guided 128 -> 32 stage, started from its teacher's motion: its
    # stride MSE against the teacher's strides falls by more than a third
    # from the first iteration to the last. Only the history is read, and
    # the bound is relative: over seeds 0-7 the last iteration's MSE was
    # 0.26-0.50 of the first's, and 0.54-1.14 with the learning rate 0
    # (0.95 at this seed), since each iteration draws fresh rows.
    ctx, motion = _tiny_ctx(sched, dims)
    st = StageConfig(128, 32, "mse_cfg", 40, micro_batch=64, grad_accum=1,
                     lr_student=1e-2, cfg_scale=7.5)
    _, history = run_stage(st, ctx, motion)
    assert [rec["iteration"] for rec in history] == list(range(40))
    assert {(rec["phase"], rec["side"]) for rec in history} == {("mse", "student")}
    assert {tuple(rec) for rec in history} == {
        ("stage", "phase", "iteration", "side", "mse")}
    assert history[-1]["mse"] < history[0]["mse"] * 2 / 3


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
    # Summed in float64, as run_stage sums the ranks' gradients.
    return {k: sum(np.asarray(g[k], np.float64) for g in grads) / len(grads)
            for k in grads[0]}


_ROW_KEYS = ("x_t", "t", "tokens", "target", "fake")


def _folded_grads(stage, ranks, draw_stride, step_grads):
    """Per rank in rank order: the teacher (and on a discriminator
    iteration the student's fake stride) once per micro-batch, the strides
    concatenated, one step over all rows; then the mean over ranks."""
    per_rank = []
    for r in ranks:
        bs = [draw_stride(r) for _ in range(stage.grad_accum)]
        b = {**bs[0], **{k: np.concatenate([x[k] for x in bs])
                         for k in _ROW_KEYS if k in bs[0]}}
        per_rank.append(step_grads(r, b))
    return _mean_in_order(per_rank)


def _accumulated_grads(stage, ranks, draw_stride, step_grads):
    """One step per micro-batch per rank: the mean over ranks in rank order,
    then the mean over the micro-steps."""
    micro = [_mean_in_order([step_grads(r, draw_stride(r)) for r in ranks])
             for _ in range(stage.grad_accum)]
    return _mean_in_order(micro)


def _reference_step(base, motion, disc, b, flow_idx, side, sched, dims):
    """One rank's loss value and gradients on ``b`` alone, taped and
    differentiated here on its unstacked base and arrays."""
    pvars = {k: ad.Var(v) for k, v in (disc if side == "disc" else motion).items()}
    if disc is None:
        loss, _ = mse_loss(base, pvars, b, sched, dims)
    else:
        loss, _ = adversarial_loss(base, pvars if side == "student" else motion,
                                   pvars if side == "disc" else disc, b, flow_idx,
                                   side, sched, dims)
    ad.backward(loss)
    return loss.value, {k: v.grad if v.grad is not None else np.zeros_like(v.value)
                        for k, v in pvars.items()}


def _reference_stage(stage, ctx, teacher, iteration_grads, dtype):
    """Reference loop for ``run_stage``: each phase reseeds the ranks and
    starts fresh optimizers, the relaxed phase with a fresh single head in
    place of the pair head, and
    every iteration takes ``iteration_grads`` of the ranks and makes one
    Adam step. The strides of a discriminator iteration carry the
    student's fake stride, computed per rank and micro-batch. Returns the
    trained motion and the history: each iteration's loss is the mean of
    the losses of its ``step_grads`` calls, in rank order, which for
    :func:`_folded_grads` is the mean over ranks of each rank's loss."""
    motion = {k: v.copy() for k, v in teacher.items()}
    disc = None
    if stage.loss_kind == "adversarial":
        disc = init_discriminator(ctx.dims, ctx.num_flows,
                                  _stage_rng(ctx.seed, stage, 0, DISC_STREAM),
                                  ctx.pretrained)
    ranks = sorted(ctx.ranks, key=lambda r: r.rank)
    history = []
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
                               n=stage.micro_batch, dtype=dtype)
                b = _stride_batch(r.base, teacher, batch, stage, ctx.sched,
                                  ctx.dims)
                if side == "disc":
                    b = _with_fake(r.base, motion, b, ctx.sched, ctx.dims)
                return b

            losses = []

            def step_grads(r, b):
                loss, grads = _reference_step(r.base, motion, disc, b, r.flow_idx,
                                              side, ctx.sched, ctx.dims)
                losses.append(float(loss))
                return grads

            grads = iteration_grads(stage, ranks, draw_stride, step_grads)
            if side == "student":
                opt_student.step(motion, grads)
            else:
                opt_disc.step(disc, grads)
            name = "mse" if disc is None else {"disc": "l_d", "student": "l_g"}[side]
            history.append({"stage": stage.name, "phase": phase or "mse",
                            "iteration": it, "side": side,
                            name: float(np.mean(losses))})
    return motion, history


_REFERENCE_STAGES = pytest.mark.parametrize("stage", [
    StageConfig(128, 32, "mse_cfg", 1, micro_batch=4, grad_accum=3,
                cfg_scale=7.5),
    StageConfig(32, 8, "adversarial", 2, micro_batch=4, grad_accum=2),
], ids=["mse", "adversarial"])


def _stage_and_reference(sched, dims, stage, iteration_grads, monkeypatch,
                         dtype=np.float64):
    """Run ``run_stage`` and the reference loop on a three-rank context, on
    rows of clips and noise in ``dtype`` (``run_stage`` draws float32 rows;
    at float64 its draws are swapped for float64 ones from the same
    stream). Returns, for ``run_stage`` and for the reference, the float64
    gradients each Adam step received, the parameters (motion or
    discriminator) it left, the trained motion and the history."""
    if dtype == np.float64:
        monkeypatch.setattr(dist, "draw_rows", lambda ds, n, rng, grid: _rows(
            ds, grid, rng, n, dtype))

    def three_rank_ctx():
        # A third rank sharing rank 0's base, listed first: the step must
        # still reduce in rank order, and three terms make the order show.
        ctx, motion = _tiny_ctx(sched, dims)
        ctx.ranks.insert(0, ctx.ranks[0]._replace(rank=2))
        return ctx, motion

    # Compare the float64 gradients each update receives: an early Adam step
    # is close to sign(g), so the float32 parameters alone would hide a
    # change of summation order.
    updates, params = [], []
    adam_step = Adam.step

    def recording_step(self, model, grads):
        updates.append({k: np.array(v, copy=True) for k, v in grads.items()})
        adam_step(self, model, grads)
        params.append({k: v.copy() for k, v in model.items()})

    # run_stage folds each iteration's three ranks into one taped block.
    blocks = _block_sizes(monkeypatch)
    monkeypatch.setattr(Adam, "step", recording_step)
    ctx, motion = three_rank_ctx()
    got = (*run_stage(stage, ctx, motion), updates[:], params[:])
    n_steps = stage.iterations * len(stage.phases())
    assert blocks == [3] * n_steps
    updates.clear()
    params.clear()
    want = (*_reference_stage(stage, *three_rank_ctx(), iteration_grads, dtype),
            updates, params)
    assert len(got[2]) == len(want[2]) == n_steps
    for g, r in zip(got[2], want[2]):
        assert g.keys() == r.keys()
    assert not np.array_equal(got[0]["mix_out"], motion["mix_out"])
    return got, want


def _block_sizes(monkeypatch) -> list:
    """The ranks of each block ``run_stage`` hands ``rank_step`` while a
    test runs."""
    seen = []
    step = dist.rank_step

    def spy(bases, *args):
        seen.append(len(bases["w1"]))
        return step(bases, *args)

    monkeypatch.setattr(dist, "rank_step", spy)
    return seen


def _matches_per_rank_reference(sched, dims, stage, monkeypatch, dtype):
    (out, history, grads, params), (ref, ref_history, ref_grads, ref_params) = (
        _stage_and_reference(sched, dims, stage, _folded_grads, monkeypatch, dtype))
    for g, r in zip(grads, ref_grads):
        for key in g:
            assert np.array_equal(g[key], r[key]), key
    for p, r in zip(params, ref_params):
        for key in p:
            assert p[key].tobytes() == r[key].tobytes(), key
    for key in out:
        assert np.array_equal(out[key], ref[key]), key
    assert history == ref_history


@_REFERENCE_STAGES
def test_run_stage_matches_per_rank_reference(sched, dims, stage, monkeypatch):
    _matches_per_rank_reference(sched, dims, stage, monkeypatch, np.float64)


@_REFERENCE_STAGES
def test_run_stage_matches_per_rank_reference_float32(sched, dims, stage,
                                                      monkeypatch):
    _matches_per_rank_reference(sched, dims, stage, monkeypatch, np.float32)


# Offsets that make the order of a float64 sum over 8 ranks show: added
# one by one, each 64 rounds away against 2**60 (half its spacing is 128),
# while numpy's pairwise sum of an (8, 1) stack, the heads' output biases,
# first adds them in pairs and rounds up.
_RANK_OFFSETS = np.array([2.0 ** 60] + [64.0] * 7, np.float32)


@pytest.mark.parametrize("ranks", [3, 8])
def test_each_update_sums_the_ranks_gradients_in_rank_order(sched, dims, ranks,
                                                            monkeypatch):
    # run_stage sums every block's (R, ...) gradients in float64, rank by
    # rank in rank order, and divides by the number of ranks. The ranks'
    # gradients are offset here (_RANK_OFFSETS) so that a reduction in any
    # other order, np.sum(axis=0) included, changes what Adam receives.
    ctx, motion = _tiny_ctx(sched, dims)
    ctx.ranks[:] = [ctx.ranks[r % 2]._replace(rank=r) for r in range(ranks)]
    stage = StageConfig(32, 8, "adversarial", 2, micro_batch=2, grad_accum=1)
    blocks, updates = [], []
    step, adam_step = dist.rank_step, Adam.step

    def offset_step(bases, *args):
        # Every iteration is one block of every rank (asserted below).
        losses, grads = step(bases, *args)
        offsets = _RANK_OFFSETS[:len(bases["w1"])]
        blocks.append({k: g + offsets.reshape((-1,) + (1,) * (g.ndim - 1))
                       for k, g in grads.items()})
        return losses, blocks[-1]

    def recording_step(self, params, grads):
        updates.append((blocks[:], {k: np.array(v, copy=True)
                                    for k, v in grads.items()}))
        blocks.clear()
        adam_step(self, params, grads)

    monkeypatch.setattr(dist, "rank_step", offset_step)
    monkeypatch.setattr(Adam, "step", recording_step)
    run_stage(stage, ctx, motion)
    heads = {"hp2_b": 0, "hs2_b": 0}
    for per_block, got in updates:
        assert [len(b[next(iter(b))]) for b in per_block] == [ranks]
        for key, g in got.items():
            stack = np.concatenate([b[key] for b in per_block])
            acc = np.zeros(stack.shape[1:])
            for g_r in stack:
                acc += g_r
            want = acc / ranks
            assert g.dtype == np.float64 and g.tobytes() == want.tobytes(), key
            if key in heads:
                heads[key] += 1
                pairwise = np.sum(stack, axis=0, dtype=np.float64) / ranks
                assert np.array_equal(pairwise, want) == (ranks < 8), key
    assert heads == {"hp2_b": 1, "hs2_b": 1}


def _row_terms(r, b, step_grads) -> list:
    """Each row's term in the gradient of the mean loss over ``b``'s rows."""
    rows = len(b["t"])
    return [{k: v / rows for k, v in step_grads(
                r, {**b, **{k: b[k][i:i + 1] for k in _ROW_KEYS if k in b}}).items()}
            for i in range(rows)]


def _matches_micro_step_accumulation(sched, dims, stage, monkeypatch, dtype,
                                     tol):
    # Every loss is a mean over rows and the micro-batches are the same
    # size, so one step over a rank's rows equals the mean of its micro-step
    # gradients up to the order of the sum over rows, and up to the last
    # bits BLAS moves in each row's forward pass when the row count changes.
    # Both roundings are limited by the sum of the absolute values of the
    # row terms, not by their sum, which can nearly cancel (a fresh head's
    # bias gradient does). The bound is ``tol`` of that magnitude. run_stage
    # steps each iteration's ranks as one folded block (checked by
    # _stage_and_reference), so the bound holds for the fold as well.
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

    got, want = _stage_and_reference(sched, dims, stage, accumulated, monkeypatch,
                                     dtype)
    for g, r, size in zip(got[2], want[2], magnitudes):
        for key in g:
            gap = np.linalg.norm(g[key] - r[key])
            assert gap <= tol * np.linalg.norm(size[key]), key


@_REFERENCE_STAGES
def test_run_stage_gradients_match_micro_step_accumulation(sched, dims, stage,
                                                           monkeypatch):
    # 1e-12 is about 9000 units of float64 roundoff.
    _matches_micro_step_accumulation(sched, dims, stage, monkeypatch, np.float64,
                                     1e-12)


@_REFERENCE_STAGES
def test_run_stage_gradients_match_micro_step_accumulation_float32(
        sched, dims, stage, monkeypatch):
    _matches_micro_step_accumulation(sched, dims, stage, monkeypatch, np.float32,
                                     1e-12 * TO_FLOAT32)


def test_nan_loss_aborts_with_dump(sched, dims, tmp_path, monkeypatch):
    ctx, motion = _tiny_ctx(sched, dims, tmpdir=tmp_path)
    st = StageConfig(32, 8, "mse_cfg", 3, micro_batch=4, grad_accum=1)

    import flowdistill.distill as dist

    def poisoned(bases, *args, **kwargs):
        ranks = len(bases["w1"])
        return {"mse": np.full(ranks, np.nan)}, {
            k: np.zeros((ranks,) + v.shape) for k, v in motion.items()}

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

    def poisoned(bases, *args, **kwargs):
        ranks = len(bases["w1"])
        return {"mse": np.full(ranks, np.nan)}, {
            k: np.zeros((ranks,) + v.shape) for k, v in motion.items()}

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
    # run_stage draws a rank's micro-batches in order, concatenates them
    # (and the ranks' rows in rank order) and traverses them in one teacher
    # call.
    base, motion, ds = setup
    grid = stage_timesteps(stage, sched.T)
    rng = np.random.default_rng(11)
    draws = [draw_rows(ds, stage.micro_batch, rng, grid)
             for _ in range(stage.grad_accum)]
    got = _stride_batch(base, motion,
                        {k: np.concatenate([d[k] for d in draws]) for k in draws[0]},
                        stage, sched, dims)
    rng = np.random.default_rng(11)
    parts = [_stride_batch(base, motion,
                           _batch(ds, stage, sched, rng, n=stage.micro_batch,
                                  dtype=np.float32),
                           stage, sched, dims) for _ in range(stage.grad_accum)]
    want = {**parts[0], **{k: np.concatenate([p[k] for p in parts])
                           for k in _ROW_KEYS if k in got}}
    assert got.keys() == want.keys()
    assert len(got["t"]) == stage.micro_batch * stage.grad_accum
    for key in got:
        assert np.array_equal(got[key], want[key]), key


def _stacked_bases(dims, ranks, seed):
    """``ranks`` distinct bases, and the same stacked on a leading axis."""
    rng = np.random.default_rng(seed)
    bases = [fd.init_base(dims, rng) for _ in range(ranks)]
    return bases, _stack(bases)


def _rank_rows(ds, stage, sched, ranks, rows, seed):
    """``rows`` float32 drawn rows per rank, grouped by rank."""
    draws = [draw_rows(ds, rows, np.random.default_rng([seed, r]),
                       stage_timesteps(stage, sched.T)) for r in range(ranks)]
    return {k: np.concatenate([d[k] for d in draws]) for k in draws[0]}


@pytest.mark.parametrize("stage, ranks, rows, blocks", [
    (StageConfig(128, 32, "mse_cfg", 1, cfg_scale=7.5), 8, 64, [512]),
    (StageConfig(128, 32, "mse_cfg", 1, cfg_scale=7.5), 3, 200, [400, 200]),
    (StageConfig(8, 4, "adversarial", 1), 8, 64, [512]),
    (StageConfig(8, 4, "adversarial", 1), 3, 600, [512, 88] * 3),
], ids=["guided, 8 ranks", "guided, 2 blocks", "unguided, 8 ranks",
        "unguided, a rank per block"])
def test_a_rank_stacked_teacher_stride_equals_the_per_rank_calls(
        sched, dims, setup, monkeypatch, stage, ranks, rows, blocks):
    # Rows grouped by rank, each rank's on its own base: whole ranks are
    # traversed together in blocks of at most SAMPLE_BATCH rows, a rank
    # over SAMPLE_BATCH rows is split into SAMPLE_BATCH-row blocks as one
    # base's rows are, and each rank gets the bits of a call on its rows
    # and base alone.
    _, motion, ds = setup
    bases, stacked = _stacked_bases(dims, ranks, 60 + ranks)
    batch = _rank_rows(ds, stage, sched, ranks, rows, 61)
    solved = []
    solve = solvers.euler_solve

    def recording_solve(f, x_t, *args):
        solved.append(len(x_t))
        return solve(f, x_t, *args)

    monkeypatch.setattr(solvers, "euler_solve", recording_solve)
    got = _stride_batch(stacked, motion, batch, stage, sched, dims)
    assert solved == blocks
    monkeypatch.setattr(solvers, "euler_solve", solve)
    for r, base in enumerate(bases):
        own = slice(r * rows, (r + 1) * rows)
        want = _stride_batch(base, motion, {k: v[own] for k, v in batch.items()},
                             stage, sched, dims)
        assert want.keys() == got.keys()
        for key in ("x_t", "t", "tokens", "target"):
            np.testing.assert_array_equal(got[key][own], want[key], strict=True)
        assert (got["n"], got["s"]) == (want["n"], want["s"])


def test_a_rank_stacked_teacher_stride_takes_one_timestep_for_every_row(
        sched, dims, setup):
    _, motion, ds = setup
    stage = StageConfig(8, 4, "adversarial", 1)
    _, stacked = _stacked_bases(dims, 3, 64)
    batch = _rank_rows(ds, stage, sched, 3, 200, 65)
    one = {**batch, "t": batch["t"][0]}
    every = {**batch, "t": np.full_like(batch["t"], batch["t"][0])}
    got, want = (_stride_batch(stacked, motion, b, stage, sched, dims)
                 for b in (one, every))
    assert np.ndim(got["t"]) == 0
    np.testing.assert_array_equal(got["target"], want["target"], strict=True)


def test_a_rank_stacked_teacher_stride_refuses_rows_that_do_not_split(
        sched, dims, setup):
    _, motion, ds = setup
    stage = StageConfig(8, 4, "adversarial", 1)
    _, stacked = _stacked_bases(dims, 3, 62)
    batch = _rank_rows(ds, stage, sched, 1, 901, 63)
    with pytest.raises(ValueError, match="901 rows do not split evenly over 3"):
        _stride_batch(stacked, motion, batch, stage, sched, dims)


def test_an_8_rank_teacher_traversal_peak_memory_per_row(sched, dims, setup):
    # One guided traversal of 8 ranks' default rows (8 x 64 = 512, one
    # block), as an MSE iteration of the cross arm runs it. Untaped, its
    # peak is a few live (hidden, F, rows) activations of 512 bytes a row:
    # 2.1 KB/row measured, as for one rank's 64 rows alone.
    _, motion, ds = setup
    stage = StageConfig(128, 32, "mse_cfg", 1, cfg_scale=7.5)
    rows = stage.micro_batch * stage.grad_accum
    _, stacked = _stacked_bases(dims, 8, 70)
    batch = _rank_rows(ds, stage, sched, 8, rows, 71)
    _stride_batch(stacked, motion, batch, stage, sched, dims)  # warm caches
    tracemalloc.start()
    try:
        _stride_batch(stacked, motion, batch, stage, sched, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * rows) < 4e3


def _nonsat(p_real, p_fake):
    """The non-saturating (l_d, l_g) of the real and the fake rows'
    probabilities, clamped to [PROB_CLAMP, 1 - PROB_CLAMP]:
    l_d = -mean(log p_real) - mean(log(1 - p_fake)), l_g = -mean(log p_fake).
    """
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    p_real, p_fake = ad.clamp(p_real, lo, hi), ad.clamp(p_fake, lo, hi)
    l_d = -ad.mean_all(ad.log(p_real)) - ad.mean_all(ad.log(1.0 - p_fake))
    return l_d, -ad.mean_all(ad.log(p_fake))


def _prob(disc_arrays, b, x_next, phase, flow_idx, sched, dims):
    # The head is named by the phase here, not read from the arrays.
    t_next = b["t"] - b["n"] * b["s"]
    if phase == "trajectory_conditional":
        return disc_pair_prob(disc_arrays, b["x_t"], x_next, b["t"], t_next,
                              b["tokens"], flow_idx, sched.T, dims)
    return disc_single_prob(disc_arrays, x_next, t_next, b["tokens"], flow_idx,
                            sched.T, dims)


def _two_call_losses(base_arrays, motion, disc_arrays, b, phase, flow_idx, sched,
                     dims):
    # Reference: the real and the fake next state in separate calls.
    fake_next = _student_stride(base_arrays, motion, b, sched, dims)
    return _nonsat(_prob(disc_arrays, b, b["target"], phase, flow_idx, sched, dims),
                   _prob(disc_arrays, b, fake_next, phase, flow_idx, sched, dims))


def _stacked_losses(base_arrays, motion, disc_arrays, b, phase, flow_idx, sched,
                    dims):
    # Reference: the real and the fake next state stacked on the row axis in
    # one discriminator pass, taped whole when the student is taped.
    x_next = ad.concat([b["target"], _student_stride(base_arrays, motion, b, sched,
                                                     dims)], axis=0)
    p = _prob(disc_arrays, b, x_next, phase, flow_idx, sched, dims)
    real = np.arange(len(b["tokens"]))
    return _nonsat(ad._take_rows(p, real), ad._take_rows(p, real + len(real)))


def _adversarial_disc(dims, setup, phase, rng):
    """A discriminator of ``phase`` whose near-zero head output layer and
    zero flow table are randomised, so every path carries signal."""
    base, motion, _ = setup
    disc = init_discriminator(dims, 2, rng, backbone_from=fd.StudentBundle(base, motion, dims))
    for key in ("hp2_w", "flow_emb"):
        disc[key] = rng.normal(0, 0.5, disc[key].shape).astype(np.float32)
    if phase == "relaxed":
        disc = relaxed_discriminator(disc, dims, rng)
        disc["hs2_w"] = rng.normal(0, 0.5, disc["hs2_w"].shape).astype(np.float32)
    return disc


def _adversarial_loss(*args):
    """``adversarial_loss``'s loss, without its per-rank losses."""
    return adversarial_loss(*args)[0]


def _taped(losses_of, side, base, motion, disc, b, *args):
    """(value, grads, tape size) of ``losses_of``'s loss with ``side``'s
    arrays taped; a reference's (l_d, l_g) pair gives the side's own."""
    pvars = {k: ad.Var(v) for k, v in (disc if side == "disc" else motion).items()}
    loss = losses_of(base, pvars if side == "student" else motion,
                     pvars if side == "disc" else disc, b, *args)
    if isinstance(loss, tuple):
        loss = loss[0] if side == "disc" else loss[1]
    tape = _tape_size(loss)
    ad.backward(loss)
    return loss.value, {k: v.grad for k, v in pvars.items()}, tape


def _assert_bit_equal(got, want):
    (value, grads, _), (r_value, r_grads, _) = got, want
    np.testing.assert_array_equal(value, r_value, strict=True)
    assert grads.keys() == r_grads.keys()
    for key, ref in r_grads.items():
        np.testing.assert_array_equal(grads[key], ref, strict=True, err_msg=key)


@pytest.mark.parametrize("side", ["disc", "student"])
@pytest.mark.parametrize("phase", ["trajectory_conditional", "relaxed"])
def test_stacked_discriminator_matches_two_call_reference(sched, dims, setup,
                                                          phase, side):
    # adversarial_loss reads the head from the arrays; the references name
    # it by phase. Its l_d is the stacked pass's and its l_g the two-call
    # reference's pass over the fake rows, each with its gradients bit for
    # bit. Rows never interact, so the stacked l_g matches bit for bit too,
    # and the two-call l_d up to the summation order of its gradients.
    base, motion, ds = setup
    rng = np.random.default_rng(12)
    disc = _adversarial_disc(dims, setup, phase, rng)
    st = StageConfig(32, 8, "adversarial", 1)
    b = _with_fake(base, motion, _stride_batch(
        base, motion, _batch(ds, st, sched, rng, n=16), st, sched, dims),
        sched, dims)
    got = _taped(_adversarial_loss, side, base, motion, disc, b, 1, side, sched,
                 dims)
    stacked, two_call = (_taped(ref, side, base, motion, disc, b, phase, 1, sched,
                                dims) for ref in (_stacked_losses, _two_call_losses))
    _assert_bit_equal(got, stacked)
    if side == "student":
        _assert_bit_equal(got, two_call)
        return
    (l_d, grads, _), (r_d, r_grads, _) = got, two_call
    assert l_d == pytest.approx(r_d, rel=1e-12)
    assert grads.keys() == r_grads.keys()
    for key, ref in r_grads.items():
        np.testing.assert_allclose(grads[key], ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max(), err_msg=key)


def _tape_size(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _disc_passes(monkeypatch) -> list:
    """(head, rows scored) of every discriminator pass ``distill`` makes
    while a test runs."""
    seen = []
    for head, name, x_next_at in (("pair", "disc_pair_prob", 2),
                                  ("single", "disc_single_prob", 1)):
        def spy(*args, forward=getattr(dist, name), head=head, at=x_next_at):
            seen.append((head, len(ad.value_of(args[at]))))
            return forward(*args)

        monkeypatch.setattr(dist, name, spy)
    return seen


@pytest.mark.parametrize("rows", [16, 64])
@pytest.mark.parametrize("phase", ["trajectory_conditional", "relaxed"])
def test_student_iterations_score_only_the_fake_rows(sched, dims, setup, phase,
                                                     rows, monkeypatch):
    # The teacher's rows carry no gradient to the student, so a student
    # iteration's one discriminator pass scores the B fake rows alone. It
    # gives the stacked pass's l_g and student gradients bit for bit, on a
    # smaller tape: the channel-major frame layers treat each row as its own
    # BLAS column and the row-major heads each row as its own BLAS row, so
    # no row's arithmetic depends on the others.
    base, motion, ds = setup
    rng = np.random.default_rng(15)
    disc = _adversarial_disc(dims, setup, phase, rng)
    st = StageConfig(32, 8, "adversarial", 1)
    b = _stride_batch(base, motion, _batch(ds, st, sched, rng, n=rows,
                                           dtype=np.float32), st, sched, dims)
    passes = _disc_passes(monkeypatch)
    got = _taped(_adversarial_loss, "student", base, motion, disc, b, 1, "student",
                 sched, dims)
    head = "pair" if phase == "trajectory_conditional" else "single"
    assert passes == [(head, rows)]
    want = _taped(_stacked_losses, "student", base, motion, disc, b, phase, 1,
                  sched, dims)
    _assert_bit_equal(got, want)
    assert got[2] < want[2]


def test_each_phase_holds_only_the_head_it_trains(sched, dims, monkeypatch):
    # Every array the discriminator holds is taped and Adam-updated, so it
    # holds the backbone, the flow table and its phase's head, nothing else;
    # that head is the one each of its passes runs. A discriminator
    # iteration scores the real and the fake rows in one pass, a student
    # iteration the fake rows alone.
    seen = []
    step = dist.rank_step

    def spy(base, motion, disc, b, flow_idx, side, *args):
        seen.append((set(disc), side, len(b["t"])))
        return step(base, motion, disc, b, flow_idx, side, *args)

    monkeypatch.setattr(dist, "rank_step", spy)
    passes = _disc_passes(monkeypatch)
    ctx, motion = _tiny_ctx(sched, dims)
    run_stage(StageConfig(32, 8, "adversarial", 2, micro_batch=2, grad_accum=1),
              ctx, motion)
    heads = [("pair", DISC_HEAD_PAIR_KEYS)] * 2 + [("single", DISC_HEAD_SINGLE_KEYS)] * 2
    assert [side for _, side, _ in seen] == ["disc", "student"] * 2
    # 2 iterations x 2 phases, each one block of both ranks' 2 rows.
    assert [rows for *_, rows in seen] == [4] * 4
    assert len(passes) == len(seen)
    for (keys, side, rows), (head, scored), (want_head, head_keys) in zip(
            seen, passes, heads):
        assert keys == {*DISC_BACKBONE_KEYS, "flow_emb", *head_keys}, want_head
        assert head == want_head
        assert scored == (2 * rows if side == "disc" else rows)


@pytest.mark.parametrize("stage", [
    StageConfig(32, 8, "adversarial", 2, micro_batch=2, grad_accum=2),
    StageConfig(128, 32, "mse_cfg", 2, micro_batch=2, grad_accum=2,
                cfg_scale=7.5),
], ids=["adversarial", "mse"])
def test_only_iterations_that_read_the_target_traverse_the_teacher(
        sched, dims, stage, monkeypatch):
    # The MSE loss and l_d read the teacher's endpoint, and l_d also the
    # student's detached stride; l_g scores the student's taped stride
    # alone. So an MSE iteration traverses once (the teacher's n strides),
    # a discriminator iteration twice (the teacher's, then the student's
    # one stride), each over every rank's rows before the rank step, and a
    # student iteration not at all.
    n, _ = stage_strides(stage, sched.T)
    solve, step = solvers.euler_solve, dist.rank_step
    traversals = []  # (strides, rows) of each traversal since the last step
    seen = []  # (iteration kind, traversals, target given, fake given)

    def counting_solve(f, x_t, t, tokens, strides, s, sched):
        traversals.append((strides, len(x_t)))
        return solve(f, x_t, t, tokens, strides, s, sched)

    def recording_step(base, motion, disc, b, flow_idx, side, *args):
        # Both ranks are one block, so every step is its iteration's first.
        assert len(flow_idx) == len(ctx.ranks)
        seen.append(("mse" if disc is None else side, traversals[:],
                     "target" in b, "fake" in b))
        traversals.clear()
        return step(base, motion, disc, b, flow_idx, side, *args)

    monkeypatch.setattr(solvers, "euler_solve", counting_solve)
    monkeypatch.setattr(dist, "rank_step", recording_step)
    ctx, motion = _tiny_ctx(sched, dims)
    run_stage(stage, ctx, motion)
    rows = len(ctx.ranks) * stage.micro_batch * stage.grad_accum
    sides = {"adversarial": ["disc", "student"], "mse_cfg": ["mse", "mse"]}
    want = {"disc": ([(n, rows), (1, rows)], True, True),
            "student": ([], False, False),
            "mse": ([(n, rows)], True, False)}
    assert seen == [(side, *want[side]) for _ in stage.phases()
                    for side in sides[stage.loss_kind]]


@pytest.mark.parametrize("ranks", [1, 3, 8])
def test_a_rank_stacked_fake_stride_equals_each_ranks_student_stride(
        sched, dims, setup, ranks):
    # run_stage's fake rows on a discriminator iteration: one untaped
    # traversal of the student's stride over every rank's rows, each on its
    # own base. In float32 each rank's rows carry the bits of
    # _student_stride on its rows and base alone, the fake that l_d read
    # when it ran the student per rank.
    _, motion, ds = setup
    stage = StageConfig(32, 8, "adversarial", 1)
    rows = stage.micro_batch * stage.grad_accum
    bases, stacked = _stacked_bases(dims, ranks, 80 + ranks)
    b = _noised_stride(_rank_rows(ds, stage, sched, ranks, rows, 81), stage,
                       sched, dims)
    got = traverse(stacked, motion, b["x_t"], b["t"], b["tokens"], 1,
                   b["n"] * b["s"], sched, dims)
    assert got.dtype == np.float32
    for r, base in enumerate(bases):
        own = slice(r * rows, (r + 1) * rows)
        want = _student_stride(base, motion, {
            **b, **{k: b[k][own] for k in ("x_t", "t", "tokens")}}, sched, dims)
        np.testing.assert_array_equal(got[own], want, strict=True)


def test_rank_step_runs_no_untaped_student_forward(sched, dims, monkeypatch):
    # Every untaped solve runs once over all ranks before the per-rank loop,
    # l_d's fake rows included, so each student forward pass inside
    # rank_step is taped: its motion holds Vars. The untaped passes (the
    # teacher's and the fake stride) all run outside it.
    forward, step = solvers.student_eps, dist.rank_step
    passes = []  # (inside rank_step, taped) of each student forward pass
    inside = [False]

    def recording_eps(base, motion, *args, **kwargs):
        passes.append((inside[0], isinstance(motion["mix_out"], ad.Var)))
        return forward(base, motion, *args, **kwargs)

    def recording_step(*args):
        inside[0] = True
        try:
            return step(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(solvers, "student_eps", recording_eps)
    monkeypatch.setattr(dist, "rank_step", recording_step)
    ctx, motion = _tiny_ctx(sched, dims)
    run_stage(StageConfig(32, 8, "adversarial", 2, micro_batch=2, grad_accum=2),
              ctx, motion)
    assert (True, False) not in passes
    assert (True, True) in passes and (False, False) in passes


def _misalign(rows, dims):
    rows["t"][0] = 126  # off the 32-step grid


def _unknown_token(rows, dims):
    rows["tokens"][0] = dims.null_token + 1


@pytest.mark.parametrize("corrupt, message", [
    (_misalign, "misaligned"), (_unknown_token, "condition token"),
], ids=["timestep", "token"])
def test_a_student_iteration_refuses_a_bad_batch_as_teacher_stride_does(
        sched, dims, corrupt, message, monkeypatch):
    stage = StageConfig(32, 8, "adversarial", 2, micro_batch=2, grad_accum=1)
    ctx, motion = _tiny_ctx(sched, dims)
    draws = []

    def corrupting_draw(ds, n, rng, grid):
        rows = draw_rows(ds, n, rng, grid)
        if len(draws) == len(ctx.ranks):  # rank 0's student-iteration draw
            corrupt(rows, dims)
        draws.append(rows)
        return rows

    monkeypatch.setattr(dist, "draw_rows", corrupting_draw)
    with pytest.raises(ValueError, match=message) as got:
        run_stage(stage, ctx, motion)
    # Every rank draws before the iteration's rows are checked, once.
    assert len(draws) == 2 * len(ctx.ranks)
    with pytest.raises(ValueError) as want:
        _stride_batch(ctx.ranks[0].base, motion, draws[len(ctx.ranks)], stage,
                      sched, dims)
    assert str(got.value) == str(want.value)


# -- folded blocks ---------------------------------------------------------

_LOSSES = [("mse", "student"), ("trajectory_conditional", "disc"),
           ("trajectory_conditional", "student"), ("relaxed", "disc"),
           ("relaxed", "student")]


def _block(sched, dims, setup, ranks, rows, seed):
    """``ranks`` distinct bases, stacked, and a stride batch of ``rows``
    float32 rows per rank as run_stage builds it on a discriminator
    iteration: target and fake traversed over the stack."""
    _, motion, ds = setup
    stage = StageConfig(32, 8, "adversarial", 1)
    bases, stacked = _stacked_bases(dims, ranks, seed)
    b = _noised_stride(_rank_rows(ds, stage, sched, ranks, rows, seed + 1), stage,
                       sched, dims)
    for key, n, s in (("target", b["n"], b["s"]), ("fake", 1, b["n"] * b["s"])):
        b[key] = traverse(stacked, motion, b["x_t"], b["t"], b["tokens"], n, s,
                          sched, dims)
    return bases, stacked, b


@pytest.mark.parametrize("phase, side", _LOSSES, ids=lambda v: str(v))
@pytest.mark.parametrize("ranks", [1, 2, 3, 8])
def test_a_folded_block_gives_each_rank_its_own_step(sched, dims, setup, ranks,
                                                     phase, side):
    # One rank_step over a block of ranks, each on its own base and flow:
    # in float32 every rank gets, bit for bit, the loss and the gradients
    # of the per-rank reference, a step on its rows alone with its
    # unstacked base and the unstacked taped side. 3 ranks are a count
    # that is not a power of two.
    _, motion, _ = setup
    rows = 8
    bases, stacked, b = _block(sched, dims, setup, ranks, rows, 90 + ranks)
    disc = (None if phase == "mse"
            else _adversarial_disc(dims, setup, phase, np.random.default_rng(91)))
    if disc is not None:
        disc["flow_emb"] = np.random.default_rng(92).normal(
            0, 0.5, (3, dims.time_dim)).astype(np.float32)
    flows = (2 * np.arange(ranks) + 1) % 3
    losses, grads = rank_step(stacked, motion, disc, b, flows, side, sched, dims)
    (name, got), = losses.items()
    assert name == {"mse": "mse", "disc": "l_d", "student": "l_g"}[
        "mse" if disc is None else side]
    assert got.shape == (ranks,) and got.dtype == np.float32
    for r, base in enumerate(bases):
        own = {k: v[r * rows:(r + 1) * rows] if k in _ROW_KEYS else v
               for k, v in b.items()}
        loss, want = _reference_step(base, motion, disc, own, flows[r], side,
                                     sched, dims)
        np.testing.assert_array_equal(got[r], loss, strict=True)
        assert grads.keys() == want.keys()
        for key, ref in want.items():
            np.testing.assert_array_equal(grads[key][r], ref, strict=True,
                                          err_msg=key)


def test_no_taped_block_exceeds_sample_batch_encoder_rows(sched, dims,
                                                          monkeypatch):
    # rank_blocks over rows x passes, the rows each rank puts through an
    # encoder inside rank_step: 1 x 64 for MSE, 3 x 64 for the pair head
    # (the student's stride or none, x_t and one or two candidates) and
    # 2 x 64 for the single head, so blocks of 8, 2 and 4 ranks at the
    # shipped 64 rows per rank.
    ctx, motion = _tiny_ctx(sched, dims)
    ctx.ranks[:] = [ctx.ranks[r % 2]._replace(rank=r) for r in range(8)]
    calls = []  # (phase, ranks, encoder rows) per rank_step
    inside = [False]
    encode, step = nets._encode, dist.rank_step

    def counting_encode(params, x, *args):
        if inside[0]:  # the untaped traversals run outside rank_step
            shape = ad.value_of(x).shape
            calls[-1][2] += shape[-1] * (shape[0] if len(shape) == 4 else 1)
        return encode(params, x, *args)

    def spy(bases, motion, disc, b, flows, side, *args):
        phase = None if disc is None else "pair" if "hp1_w" in disc else "single"
        calls.append([phase, len(flows), 0])
        inside[0] = True
        try:
            return step(bases, motion, disc, b, flows, side, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(nets, "_encode", counting_encode)
    monkeypatch.setattr(dist, "rank_step", spy)
    for stage in (StageConfig(128, 32, "mse_cfg", 1, cfg_scale=7.5),
                  StageConfig(32, 8, "adversarial", 2)):
        run_stage(stage, ctx, motion)
    rows = 64
    assert [tuple(c[:2]) for c in calls] == (
        [(None, 8)] + [("pair", 2)] * 8 + [("single", 4)] * 4)
    passes = {None: 1, "pair": 3, "single": 2}
    for phase, ranks, encoded in calls:
        assert encoded == ranks * rows * passes[phase] <= solvers.SAMPLE_BATCH


@pytest.mark.parametrize("bad", [3, -1])
@pytest.mark.parametrize("side", ["disc", "student"])
@pytest.mark.parametrize("phase", ["trajectory_conditional", "relaxed"])
def test_a_flow_index_out_of_range_in_any_rank_is_refused(sched, dims, setup,
                                                          phase, side, bad):
    _, motion, _ = setup
    _, stacked, b = _block(sched, dims, setup, 3, 4, 95)
    disc = _adversarial_disc(dims, setup, phase, np.random.default_rng(96))
    disc["flow_emb"] = np.zeros((3, dims.time_dim), np.float32)
    for rank in range(3):
        flows = np.array([0, 1, 2])
        flows[rank] = bad
        with pytest.raises(ValueError, match=f"unregistered flow index {bad}"):
            rank_step(stacked, motion, disc, b, flows, side, sched, dims)
    with pytest.raises(ValueError, match="2 flow indices for 3 stacked bases"):
        rank_step(stacked, motion, disc, b, np.array([0, 1]), side, sched, dims)
