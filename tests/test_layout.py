"""The channel-major encoder against a row-major reference forward.

Inside ``nets`` every frame-stacked activation is a C-contiguous
(hidden, frames, rows) array. The reference below is the encoder written
in the row-major (rows, frames, hidden) layout: each frame layer is one
``(B, F, K) @ (K, C)`` matmul, the frame mix is the batched matmul over
channels on a transposed view, and every add and activation is a node of
its own. Its forward products round as the channel-major ones do, so an
untaped output must equal it bit for bit. A taped gradient sums over rows
and frames in another order, so it may move in its last bits: the tests
bound it, per parameter, at ``GRAD_TOL`` of its norm.
"""
import numpy as np
import pytest

import flowdistill as fd
import flowdistill.nets as nets
import flowdistill.solvers as solvers
from flowdistill import autodiff as ad
from flowdistill.datagen import style_by_name
from flowdistill.distill import (
    StageConfig,
    _noised_stride,
    _student_stride,
    adversarial_loss,
    mse_loss,
    stage_timesteps,
)
from flowdistill.evalmetrics import arm_set
from flowdistill.nets import (
    MOTION_KEYS,
    denoise_loss,
    draw_rows,
    init_discriminator,
    relaxed_discriminator,
    time_features,
)
from flowdistill.solvers import sample_batch, start_noise, traverse

# Norm-relative bound on a float32 gradient's distance from the reference
# (float32 epsilon is 1.2e-7; measured gaps are below 1e-6).
GRAD_TOL = 1e-5


# -- the row-major reference ----------------------------------------------


def _op(value, inputs, vjps):
    """``value`` as a node over the Vars among ``inputs``; ``vjps[i](g)``
    is the gradient of input ``i``. Untaped, ``value`` itself."""
    taped = [(x, vjp) for x, vjp in zip(inputs, vjps) if isinstance(x, ad.Var)]
    if not taped:
        return value
    out = ad.Var(value, _parents=tuple(x for x, _ in taped))

    def bwd(g):
        for x, vjp in taped:
            ad._accum(x, vjp(g))

    out._bwd = bwd
    return out


def _frames(x, w):
    """(B, F, K) @ (K, C)."""
    xv, wv = ad.value_of(x), ad.value_of(w)
    return _op(xv @ wv, (x, w), (lambda g: g @ wv.T,
                                 lambda g: np.einsum("bfk,bfc->kc", xv, g)))


def _mix(mix, h):
    """out[b,f,c] = sum_g mix[c,f,g] * h[b,g,c], as a (B, F, C) view of the
    (C, F, B) product over a transposed view of ``h``."""
    mv, hv = ad.value_of(mix), ad.value_of(h)
    return _op((mv @ hv.transpose(2, 1, 0)).transpose(2, 1, 0), (mix, h),
               (lambda g: np.einsum("bfc,bgc->cfg", g, hv),
                lambda g: np.einsum("cfg,bfc->bgc", mv, g)))


def _silu(z):
    zv = ad.value_of(z)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-zv))
    return _op(zv * s, (z,), (lambda g: ad._silu_grad(g, zv, s),))


def _row(r):
    """A (B, C) row term broadcast over frames."""
    return ad.reshape(r, (ad.value_of(r).shape[0], 1, -1))


def _encode(p, x, tfeat, tokens, motion):
    h = _silu(_frames(x, p["w1"]) + p["b1"]
              + _row(ad.dense(tfeat, p["time_w"]))
              + _row(ad._take_rows(p["cond_emb"], tokens)))
    if motion is not None:
        z = _silu(_mix(motion["mix"], h) + _row(ad.dense(tfeat, motion["tproj"]))
                  + _row(ad._take_rows(motion["cproj"], tokens)))
        h = h + _mix(motion["mix_out"], z)
    return _silu(_frames(h, p["w2"]) + p["b2"])


def _tfeat(x, t, T, dims):
    tfeat = time_features(t, T, dims.time_dim)
    if tfeat.ndim == 1:
        tfeat = np.broadcast_to(tfeat, (ad.value_of(x).shape[0], dims.time_dim))
    return tfeat


def reference_student_eps(base, motion, x, t, tokens, T, dims, *, checked=False):
    if not checked:
        tokens = nets._check_inputs(tokens, dims, T, t)
    h = _encode(base, x, _tfeat(x, t, T, dims), tokens, motion)
    return _frames(h, base["w3"]) + base["b3"]


def reference_disc_features(disc, x, t, tokens, flow_idx, T, dims):
    rows = ad.value_of(x).shape[0]
    flow = ad._take_rows(disc["flow_emb"], np.full(rows, flow_idx, dtype=np.intp))
    tfeat = flow + _tfeat(x, t, T, dims)
    h = _encode(disc, x, tfeat, tokens, {k: disc[k] for k in MOTION_KEYS})
    return ad.reshape(h, (rows, dims.frames * dims.hidden))


def _row_major(monkeypatch):
    """Route every forward through the reference."""
    monkeypatch.setattr(nets, "student_eps", reference_student_eps)
    monkeypatch.setattr(solvers, "student_eps", reference_student_eps)
    monkeypatch.setattr(nets, "_disc_features", reference_disc_features)


# -- fixtures -------------------------------------------------------------


@pytest.fixture(scope="module")
def models(dims):
    rng = np.random.default_rng(0)
    base = fd.init_base(dims, rng)
    motion = fd.init_motion(dims, rng, 0.05)
    bundle = fd.StudentBundle(base, motion, dims)
    disc = init_discriminator(dims, 2, rng, backbone_from=bundle)
    for key in ("hp2_w", "flow_emb"):
        disc[key] = rng.normal(0, 0.5, disc[key].shape).astype(np.float32)
    relaxed = relaxed_discriminator(disc, dims, rng)
    relaxed["hs2_w"] = rng.normal(0, 0.5, relaxed["hs2_w"].shape).astype(np.float32)
    ds = fd.sample_ground_truth(style_by_name("default"), 512, 1,
                                frames=dims.frames, vocab=dims.vocab)
    return bundle, {"trajectory_conditional": disc, "relaxed": relaxed}, ds


def _inputs(dims, rows):
    tokens = np.random.default_rng(rows).integers(0, dims.vocab + 1, rows)
    return tokens, start_noise(rows, rows, dims)


MSE_STAGE = StageConfig(128, 32, "mse_cfg", 1, cfg_scale=7.5)
ADV_STAGE = StageConfig(8, 4, "adversarial", 1)


def _stride_batch(models, stage, sched, dims, rows=64):
    (base, motion, _), _, ds = models
    batch = draw_rows(ds, rows, np.random.default_rng(5),
                      stage_timesteps(stage, sched.T))
    b = _noised_stride(batch, stage, sched, dims)
    b["target"] = traverse(base, motion, b["x_t"], b["t"], b["tokens"], b["n"],
                           b["s"], sched, dims, stage.cfg_scale)
    return b


# -- untaped: bit for bit -------------------------------------------------


def _untaped_cases(models, sched, dims):
    bundle = models[0]
    cases = {"guided 7.5, 32 steps, 600 rows": lambda: sample_batch(
        bundle, sched, 32, *_inputs(dims, 600), 7.5)}
    for steps in (1, 2, 4, 8):
        cases[f"arm set, {steps} steps"] = (
            lambda steps=steps: arm_set(bundle, sched, steps, *_inputs(dims, 150)))
    for stage in (MSE_STAGE, ADV_STAGE):
        cases[f"teacher target {stage.name}"] = (
            lambda stage=stage: _stride_batch(models, stage, sched, dims)["target"])
    for rows in (64, 512):
        tokens, x = _inputs(dims, rows)
        for t in (60, np.arange(rows) % sched.T):
            cases[f"student_eps, {rows} rows, t {np.ndim(t)}-d"] = (
                lambda x=x, t=t, tokens=tokens: nets.student_eps(
                    bundle.base, bundle.motion, x, t, tokens, sched.T, dims))
    return cases


_UNTAPED = (["guided 7.5, 32 steps, 600 rows"]
            + [f"arm set, {steps} steps" for steps in (1, 2, 4, 8)]
            + [f"teacher target {stage.name}" for stage in (MSE_STAGE, ADV_STAGE)]
            + [f"student_eps, {rows} rows, t {d}-d" for rows in (64, 512)
               for d in (0, 1)])


@pytest.mark.parametrize("case", _UNTAPED)
def test_untaped_outputs_equal_the_row_major_reference_bitwise(sched, dims, models,
                                                               case, monkeypatch):
    run = _untaped_cases(models, sched, dims)[case]
    got = run()
    _row_major(monkeypatch)
    want = run()
    assert got.dtype == np.float32 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want, strict=True)


# -- taped: equal losses, gradients within GRAD_TOL ------------------------


def _taped_cases(models, sched, dims):
    """Each case: (the model taped, loss of the taped model's Vars)."""
    (base, motion, _), discs, ds = models
    pre = draw_rows(ds, 128, np.random.default_rng(7), np.arange(sched.T), 0.15,
                    dims.null_token)
    pre = (pre["x0"], pre["tokens"], pre["t"], pre["eps"])
    cases = {
        "denoise_loss, base": (base, lambda p: denoise_loss(
            p, None, *pre, sched, dims)[0]),
        "denoise_loss, motion": (motion, lambda p: denoise_loss(
            base, p, *pre, sched, dims)[0]),
        "mse_loss": (motion, lambda p: mse_loss(
            base, p, _stride_batch(models, MSE_STAGE, sched, dims), sched, dims)[0]),
    }
    for phase, disc in discs.items():
        def adv(side, disc=disc):
            b = _stride_batch(models, ADV_STAGE, sched, dims)
            # l_d's fake rows, the student's untaped stride, are computed
            # with each call, so the reference computes them in its layout.
            return lambda p: adversarial_loss(
                base, p if side == "student" else motion,
                p if side == "disc" else disc,
                {**b, "fake": _student_stride(base, motion, b, sched, dims)},
                1, side, sched, dims)[0]

        cases[f"adversarial, {phase}, disc"] = (disc, adv("disc"))
        cases[f"adversarial, {phase}, student"] = (motion, adv("student"))
    return cases


_TAPED = (["denoise_loss, base", "denoise_loss, motion", "mse_loss"]
          + [f"adversarial, {phase}, {side}"
             for phase in ("trajectory_conditional", "relaxed")
             for side in ("disc", "student")])


def _loss_and_grads(arrays, loss_of):
    pvars = {k: ad.Var(v) for k, v in arrays.items()}
    loss = loss_of(pvars)
    ad.backward(loss)
    return loss.value, {k: v.grad for k, v in pvars.items() if v.grad is not None}


@pytest.mark.parametrize("case", _TAPED)
def test_taped_losses_equal_the_row_major_reference_and_gradients_stay_close(
        sched, dims, models, case, monkeypatch):
    arrays, loss_of = _taped_cases(models, sched, dims)[case]
    got_loss, got = _loss_and_grads(arrays, loss_of)
    _row_major(monkeypatch)
    want_loss, want = _loss_and_grads(arrays, loss_of)
    assert got_loss.dtype == np.float32
    np.testing.assert_array_equal(got_loss, want_loss, strict=True)
    assert got.keys() == want.keys() and got
    for key, ref in want.items():
        assert got[key].dtype == np.float32, key
        assert np.linalg.norm(got[key] - ref) <= GRAD_TOL * np.linalg.norm(ref), key
