import warnings

import numpy as np
import pytest

from flowdistill import autodiff as ad


def _sum_all(x):
    """Sum of every element, built from ``mean_all``. The gradient that
    reaches ``x`` is ``(g * n) / n``, exactly ``g`` for the upstream 1 and
    0.5 of the tests that compare gradients bit for bit."""
    return ad.mean_all(x) * float(ad.value_of(x).size)


def test_constant_loss_has_zero_grads():
    p = ad.Var(np.ones(3))
    loss = ad.mean_all(p * 0.0)
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, np.zeros(3))


def test_quadratic_gradient_is_parameter():
    v = np.random.default_rng(0).standard_normal(7)
    p = ad.Var(v)
    loss = 0.5 * _sum_all(p * p)
    ad.backward(loss)
    np.testing.assert_allclose(p.grad, v, rtol=0, atol=0)


def test_backward_rejects_non_scalar():
    p = ad.Var(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(p + 1.0)


def test_frozen_arrays_receive_no_grad():
    frozen = np.ones(4)
    p = ad.Var(np.full(4, 2.0))
    loss = _sum_all(p * frozen)
    ad.backward(loss)
    assert p.grad is not None
    assert not hasattr(frozen, "grad")


def test_mixed_ndarray_var_arithmetic_dispatch():
    arr = np.arange(3.0)
    p = ad.Var(np.ones(3))
    for expr in (arr + p, p + arr, arr - p, p - arr, arr * p, p * arr, 2.0 * p):
        assert isinstance(expr, ad.Var)
    loss = _sum_all(arr * p)
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, arr)


def test_reused_node_accumulates():
    p = ad.Var(np.array(3.0))
    loss = _sum_all(p * p + p)
    ad.backward(loss)
    assert float(p.grad) == pytest.approx(2 * 3.0 + 1.0)


def _tape(loss):
    """Every node reachable from ``loss`` through ``_parents``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _small_graph():
    rng = np.random.default_rng(3)
    w = ad.Var(rng.standard_normal((4, 3)))
    b = ad.Var(rng.standard_normal(3))
    h = ad.dense(rng.standard_normal((5, 4)), w, b, act="silu")
    cat = ad.concat([h, h * b], axis=0)
    loss = ad.mean_all(cat * cat)
    return loss, (w, b)


def test_backward_frees_interior_grads_and_closures():
    loss, leaves = _small_graph()
    ad.backward(loss)
    nodes = _tape(loss)
    interior = [n for n in nodes if n._parents]
    assert interior and len(nodes) == len(interior) + len(leaves)
    for node in interior:
        assert node.grad is None and node._bwd is None
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.value.shape


def test_backward_keeps_the_parents_walk_and_the_loss_value():
    loss, _ = _small_graph()
    before = len(_tape(loss))
    value = float(loss.value)
    ad.backward(loss)
    assert len(_tape(loss)) == before
    assert float(loss.value) == value


def _fd_check(loss_fn, params, tol=1e-4):
    report = ad.gradcheck(loss_fn, params)
    assert report["max_rel_err"] < tol, report
    return report


def test_gradcheck_embedding_rows():
    rng = np.random.default_rng(3)
    idx = np.array([0, 2, 2, 1])
    params = {"table": rng.standard_normal((4, 5))}

    def loss(p):
        d = ad._take_rows(p["table"], idx) - 0.3
        return ad.mean_all(d * d)

    _fd_check(loss, params)


def test_gradcheck_temporal_mix():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((5, 6, 3))[None]  # one rank's channels, frames, batch
    params = {"mix": rng.standard_normal((5, 6, 6)) * 0.3}

    def loss(p):
        y = h + ad.temporal_mix(p["mix"], h)
        return ad.mean_all(y * y)

    _fd_check(loss, params)


def test_temporal_mix_zero_weights_identity():
    h = np.random.default_rng(5).standard_normal((3, 4, 2))[None]
    out = h + ad.temporal_mix(np.zeros((3, 4, 4)), h)
    assert np.array_equal(out, h)


def _einsum_mix(mix, h):
    # The einsum form of temporal_mix, kept as the reference.
    return np.einsum("cfg,rcgb->rcfb", mix, h)


@pytest.mark.parametrize("mix_taped,h_taped", [
    (False, False), (True, False), (False, True), (True, True)])
def test_temporal_mix_matches_einsum_reference(mix_taped, h_taped):
    rng = np.random.default_rng(9)
    mix = rng.standard_normal((5, 6, 6))
    h = rng.standard_normal((5, 6, 16))[None]
    up = rng.standard_normal((5, 6, 16))[None]  # upstream gradient
    m_in = ad.Var(mix) if mix_taped else mix
    h_in = ad.Var(h) if h_taped else h
    out = ad.temporal_mix(m_in, h_in)
    np.testing.assert_allclose(ad.value_of(out), _einsum_mix(mix, h), rtol=1e-12)
    if not (mix_taped or h_taped):
        assert not isinstance(out, ad.Var)
        return
    ad.backward(_sum_all(out * up))
    if mix_taped:
        np.testing.assert_allclose(m_in.grad, np.einsum("rcfb,rcgb->cfg", up, h),
                                   rtol=1e-12)
    if h_taped:
        np.testing.assert_allclose(h_in.grad, np.einsum("cfg,rcfb->rcgb", mix, up),
                                   rtol=1e-12)


def test_gradcheck_concat_rows_with_a_repeated_part():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 3))
    params = {"u": rng.standard_normal((2, 3))}
    w = rng.standard_normal((6, 3))

    def loss(p):
        cat = ad.concat([p["u"], a, p["u"]], axis=0)
        return _sum_all(cat * cat * w)

    _fd_check(loss, params)


def test_gradcheck_concat_sigmoid_log_clamp():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4))
    params = {"u": rng.standard_normal((3, 4)), "v": rng.standard_normal((3, 2))}

    def loss(p):
        cat = ad.concat([p["u"], a, p["v"]], axis=-1)
        score = _sum_all(cat * 0.1)
        prob = ad.clamp(ad.sigmoid(score), 1e-6, 1 - 1e-6)
        return -ad.log(prob)

    _fd_check(loss, params)


def test_clamp_blocks_gradient_outside_range():
    p = ad.Var(np.array([0.5, 2.0, -1.0]))
    loss = _sum_all(ad.clamp(p, 0.0, 1.0))
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, [1.0, 0.0, 0.0])


def test_gradcheck_reshape_and_mean():
    rng = np.random.default_rng(7)
    params = {"w": rng.standard_normal((2, 3, 4))}

    def loss(p):
        flat = ad.reshape(p["w"], (2, 12))
        return ad.mean_all(flat * ad.sigmoid(flat))

    _fd_check(loss, params)


def test_transpose_reverses_the_axes_into_a_contiguous_copy():
    # One rank's (1, B, F, C) stack: the axes after the rank axis reversed.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 4))[None]
    y = ad.transpose(x)
    assert y.flags.c_contiguous
    np.testing.assert_array_equal(y, x[0].T[None], strict=True)
    up = rng.standard_normal((4, 3, 2))[None]
    v = ad.Var(x)
    ad.backward(_sum_all(ad.transpose(v) * up))
    assert v.grad.flags.c_contiguous
    np.testing.assert_array_equal(v.grad, up[0].T[None], strict=True)


def test_broadcast_add_gradients():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 3, 5))
    params = {"b": rng.standard_normal(5), "row": rng.standard_normal((1, 1, 5))}

    def loss(p):
        y = x + p["b"] + p["row"]
        return ad.mean_all(y * y)

    _fd_check(loss, params)


def test_determinism_of_backward():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 4))

    def run():
        p = ad.Var(w)
        h = ad.dense(x, p, act="silu")
        loss = ad.mean_all(h * h)
        ad.backward(loss)
        return p.grad.copy()

    assert np.array_equal(run(), run())


# The expression forms the in-place pointwise chains must reproduce bit for
# bit: the same ufuncs, in the same order, on the same operands.
def _sigmoid_ref(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _pointwise_inputs():
    rng = np.random.default_rng(7)
    x3 = rng.normal(0.0, 4.0, (6, 5, 4))
    x3[0, 0, :2] = [800.0, -800.0]
    return {
        "0-d": np.array(-1.3),
        "0-d +800": np.array(800.0),
        "0-d -800": np.array(-800.0),
        "contiguous": x3,
        "transposed": x3.transpose(2, 1, 0),
    }


def _pointwise_chains_match(kind, dtype):
    x = _pointwise_inputs()[kind].astype(dtype)
    g = np.random.default_rng(8).normal(size=x.shape).astype(dtype)
    x_before, g_before = x.copy(), g.copy()
    s = _sigmoid_ref(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(ad._sigmoid_np(x), s, strict=True)
        np.testing.assert_array_equal(ad.sigmoid(x), s, strict=True)

        v = ad.Var(x)
        y = ad.sigmoid(v)
        np.testing.assert_array_equal(y.value, s, strict=True)
        y_before = y.value.copy()
        y._bwd(g)
        np.testing.assert_array_equal(v.grad, g * s * (1.0 - s))
        np.testing.assert_array_equal(y.value, y_before, strict=True)

        # The fused layers' silu gradient.
        s_before = s.copy()
        np.testing.assert_array_equal(ad._silu_grad(g, x, s),
                                      g * s * (1.0 + x * (1.0 - s)), strict=True)
        np.testing.assert_array_equal(s, s_before, strict=True)
    np.testing.assert_array_equal(x, x_before, strict=True)
    np.testing.assert_array_equal(g, g_before, strict=True)


@pytest.mark.parametrize("kind", list(_pointwise_inputs()))
def test_pointwise_chains_match_expression_reference_bitwise(kind):
    _pointwise_chains_match(kind, np.float64)


@pytest.mark.parametrize("kind", list(_pointwise_inputs()))
def test_pointwise_chains_match_expression_reference_bitwise_float32(kind):
    _pointwise_chains_match(kind, np.float32)


def test_pointwise_backward_leaves_a_broadcast_gradient_alone():
    # mean_all hands its input a read-only broadcast view as the gradient.
    x = np.random.default_rng(9).normal(size=(3, 4))
    s = _sigmoid_ref(x)
    g = np.broadcast_to(1.0 / x.size, x.shape)
    v = ad.Var(x)
    ad.backward(ad.mean_all(ad.sigmoid(v)))
    np.testing.assert_array_equal(v.grad, g * s * (1.0 - s))
    np.testing.assert_array_equal(ad._silu_grad(g, x, s), g * s * (1.0 + x * (1.0 - s)))


# -- fused layers -------------------------------------------------------


def _dense_inputs(rng, ndim, n_rows, bias, B=3, F=4, K=3, C=5):
    # ``ndim`` counts one model's axes: its (K, F, B) frame stack enters
    # with a leading rank axis, as (1, K, F, B).
    x = rng.standard_normal((K, F, B) if ndim == 3 else (B, K))
    if ndim == 3:
        x = x[None]
    params = {"x": x, "w": rng.standard_normal((K, C))}
    if bias:
        params["b"] = rng.standard_normal(C)
    for i in range(n_rows):
        params[f"r{i}"] = rng.standard_normal((B, C))
    return params


def _dense_of(p, act):
    rows = [p[k] for k in sorted(p) if k.startswith("r")]
    return ad.dense(p["x"], p["w"], p.get("b"), *rows, act=act)


@pytest.mark.parametrize("act", [None, "silu"])
@pytest.mark.parametrize("n_rows", [0, 1, 2])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("ndim", [2, 3])
def test_gradcheck_dense(ndim, bias, n_rows, act):
    rng = np.random.default_rng(11)
    params = _dense_inputs(rng, ndim, n_rows, bias)
    up = rng.standard_normal(ad.value_of(_dense_of(params, act)).shape)
    _fd_check(lambda p: _sum_all(_dense_of(p, act) * up), params)


def test_gradcheck_temporal_mix_with_rows_and_silu():
    rng = np.random.default_rng(12)
    params = {"mix": rng.standard_normal((5, 6, 6)) * 0.3,
              "h": rng.standard_normal((5, 6, 3))[None],
              "r0": rng.standard_normal((3, 5)), "r1": rng.standard_normal((3, 5))}
    up = rng.standard_normal((5, 6, 3))[None]

    def loss(p):
        return _sum_all(ad.temporal_mix(p["mix"], p["h"], p["r0"], p["r1"],
                                        act="silu") * up)

    _fd_check(loss, params)


# -- the leading rank axis ----------------------------------------------


R, B, F, K, C = 3, 2, 4, 3, 5  # ranks, rows per rank, frames, in, out


@pytest.mark.parametrize("act", [None, "silu"])
@pytest.mark.parametrize("case", ["stacked frames", "shared weight over stacked frames",
                                  "stacked rows"])
def test_gradcheck_dense_with_a_rank_axis(case, act):
    # Every operand taped: a per-rank (or shared) weight and bias, and two
    # (R·B, C) row terms grouped by rank.
    rng = np.random.default_rng(30)
    stacked = case != "shared weight over stacked frames"
    params = {"x": rng.standard_normal((R, B, K) if case == "stacked rows"
                                       else (R, K, F, B)),
              "w": rng.standard_normal((R, K, C) if stacked else (K, C)),
              "b": rng.standard_normal((R, C) if stacked else C),
              "r0": rng.standard_normal((R * B, C)),
              "r1": rng.standard_normal((R * B, C))}
    up = rng.standard_normal(ad.value_of(_dense_of(params, act)).shape)
    _fd_check(lambda p: _sum_all(_dense_of(p, act) * up), params)


def test_gradcheck_temporal_mix_with_a_rank_axis():
    rng = np.random.default_rng(31)
    params = {"mix": rng.standard_normal((C, F, F)) * 0.3,
              "h": rng.standard_normal((R, C, F, B)),
              "r0": rng.standard_normal((R * B, C))}
    up = rng.standard_normal((R, C, F, B))

    def loss(p):
        return _sum_all(ad.temporal_mix(p["mix"], p["h"], p["r0"], act="silu") * up)

    _fd_check(loss, params)


def test_gradcheck_embedding_rows_with_a_rank_axis():
    rng = np.random.default_rng(32)
    idx = np.array([0, 2, 2, 1, 3, 3])  # two rows per rank, repeats included
    params = {"table": rng.standard_normal((R, 4, C))}
    up = rng.standard_normal((len(idx), C)).reshape(R, 2, C)

    def loss(p):
        return _sum_all(ad._take_rows(p["table"], idx) * up)

    _fd_check(loss, params)
    rows = ad._take_rows(params["table"], idx)
    assert rows.shape == (R, 2, C)
    for i, k in enumerate(idx):  # rank i // 2 looks up its own table
        np.testing.assert_array_equal(rows[i // 2, i % 2], params["table"][i // 2, k])


def test_transpose_keeps_a_leading_rank_axis():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((R, B, F, C))
    y = ad.transpose(x)
    assert y.flags.c_contiguous
    np.testing.assert_array_equal(y, np.stack([xr.T for xr in x]), strict=True)
    up = rng.standard_normal((R, C, F, B))
    _fd_check(lambda p: _sum_all(ad.transpose(p["x"]) * up), {"x": x})


def test_rank_stacked_layers_equal_per_rank_calls_bitwise():
    # Each rank's block of a stacked call is the call on its rows alone.
    rng = np.random.default_rng(34)
    n = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
    x, w, b, rows = n(R, K, F, 64), n(R, K, C), n(R, C), n(R * 64, C)
    h, mix = n(R, C, F, 64), n(C, F, F)
    got = ad.dense(x, w, b, rows, act="silu")
    mixed = ad.temporal_mix(mix, h, rows, act="silu")
    for r in range(R):
        # One model's call: its frame stack a stack of one, its weights
        # without a rank axis.
        own = rows[r * 64:(r + 1) * 64]
        np.testing.assert_array_equal(
            got[r:r + 1], ad.dense(x[r:r + 1], w[r], b[r], own, act="silu"),
            strict=True)
        np.testing.assert_array_equal(
            mixed[r:r + 1], ad.temporal_mix(mix, h[r:r + 1], own, act="silu"),
            strict=True)


def test_fused_ops_reject_an_unknown_activation():
    with pytest.raises(ValueError):
        ad.dense(np.ones((2, 3)), np.ones((3, 4)), act="relu")


def _frame_term(t, shape):
    """A term as it enters a channel-major (1, C, F, B) product, as a node
    of its own: the (C,) bias as (1, C, 1, 1), a (B, C) row term
    transposed to (1, C, 1, B)."""
    if ad.value_of(t).ndim == 1:
        return ad.reshape(t, (1, shape[1], 1, 1))
    return ad.transpose(ad.reshape(t, (1, shape[3], 1, shape[1])))


def _silu(z):
    """silu as a node of its own, the activation step of the unfused
    chains: the value ``z * s`` and the gradient chain that the pointwise
    tests above pin to its written expression."""
    zv = ad.value_of(z)
    s = _sigmoid_ref(zv)
    if not isinstance(z, ad.Var):
        return zv * s
    out = ad.Var(zv * s, _parents=(z,))
    out._bwd = lambda g: ad._accum(z, ad._silu_grad(g, zv, s))
    return out


def _chain(z, terms, act):
    """The unfused op chain over the bare product ``z``, kept as the oracle:
    each add, in the written order, and the activation as nodes of their
    own."""
    shape = ad.value_of(z).shape
    for t in terms:
        z = z + (_frame_term(t, shape) if len(shape) == 4 else t)
    return z if act is None else _silu(z)


def _dense_chain(x, w, bias=None, *rows, act=None):
    return _chain(ad.dense(x, w), rows if bias is None else (bias, *rows), act)


def _mix_chain(mix, h, *rows, act=None):
    return _chain(ad.temporal_mix(mix, h), rows, act)


# Each layer of the networks at default widths: its inputs in argument
# order, its activation, the fused op and the unfused chain. Frame stacks
# are one model's, channel-major (1, C, F, B).
def _layers(rng, B, F=8, D=2, H=16, G=32):
    def n(*shape):
        return rng.standard_normal(shape)

    return {
        "encoder layer 1": ([n(1, D, F, B), n(D, H), n(H), n(B, H), n(B, H)],
                            "silu", ad.dense, _dense_chain),
        "encoder layer 2": ([n(1, H, F, B), n(H, H), n(H)], "silu",
                            ad.dense, _dense_chain),
        "output layer": ([n(1, H, F, B), n(H, D), n(D)], None, ad.dense,
                         _dense_chain),
        "head layer 1": ([n(B, 2 * F * H), n(2 * F * H, G), n(G)], "silu",
                         ad.dense, _dense_chain),
        "head layer 2": ([n(B, G), n(G, 1), n(1)], None, ad.dense, _dense_chain),
        "time projection": ([n(B, H), n(H, H)], None, ad.dense, _dense_chain),
        "motion mix": ([0.3 * n(H, F, F), n(1, H, F, B), n(B, H), n(B, H)], "silu",
                       ad.temporal_mix, _mix_chain),
        "motion output mix": ([0.3 * n(H, F, F), n(1, H, F, B)], None,
                              ad.temporal_mix, _mix_chain),
    }


def _run(op, arrays, act, up, taped):
    args = [ad.Var(a) if taped else a for a in arrays]
    out = op(*args, act=act)
    if not taped:
        return out, []
    value = out.value.copy()
    ad.backward(_sum_all(out * up))
    return value, [a.grad for a in args]


def _fused_layer_matches(layer, rows, dtype):
    rng = np.random.default_rng(13)
    arrays, act, op, chain = _layers(rng, rows)[layer]
    arrays = [a.astype(dtype) for a in arrays]
    up = rng.standard_normal(ad.value_of(chain(*arrays, act=act)).shape).astype(dtype)
    for taped in (False, True):
        got_value, got_grads = _run(op, arrays, act, up, taped)
        want_value, want_grads = _run(chain, arrays, act, up, taped)
        np.testing.assert_array_equal(got_value, want_value, strict=True)
        assert got_value.dtype == dtype
        assert len(got_grads) == len(want_grads)
        for got, want in zip(got_grads, want_grads):
            np.testing.assert_array_equal(got, want, strict=True)
            assert got.dtype == dtype


@pytest.mark.parametrize("rows", [64, 128])
@pytest.mark.parametrize("layer", list(_layers(np.random.default_rng(0), 1)))
def test_fused_layer_matches_the_unfused_chain_bitwise(layer, rows):
    _fused_layer_matches(layer, rows, np.float64)


@pytest.mark.parametrize("rows", [64, 128])
@pytest.mark.parametrize("layer", list(_layers(np.random.default_rng(0), 1)))
def test_fused_layer_matches_the_unfused_chain_bitwise_float32(layer, rows):
    _fused_layer_matches(layer, rows, np.float32)


def _mse_matches_chain(dtype):
    rng = np.random.default_rng(14)
    pred = rng.standard_normal((128, 8, 2)).astype(dtype)
    target = rng.standard_normal((128, 8, 2)).astype(dtype)
    got, want = ad.Var(pred), ad.Var(pred)
    loss = ad.mse(got, target)
    d = want - target
    chain = ad.mean_all(d * d)
    assert ad.mse(pred, target) == chain.value == loss.value
    assert loss.value.dtype == dtype
    ad.backward(loss)
    ad.backward(chain)
    np.testing.assert_array_equal(got.grad, want.grad, strict=True)


def test_mse_matches_the_unfused_chain_bitwise():
    _mse_matches_chain(np.float64)


def test_mse_matches_the_unfused_chain_bitwise_float32():
    _mse_matches_chain(np.float32)


def test_gradcheck_mse():
    rng = np.random.default_rng(15)
    target = rng.standard_normal((4, 3, 2))
    _fd_check(lambda p: ad.mse(p["pred"], target),
              {"pred": rng.standard_normal((4, 3, 2))})


def test_mse_refuses_a_taped_target():
    with pytest.raises(TypeError):
        ad.mse(np.zeros(3), ad.Var(np.ones(3)))


def test_mixed_float32_and_float64_operands_promote_as_numpy_does():
    # A float64 term met by a float32 product, or a float64 gradient met by
    # a float32 activation, is not rounded to float32: taped and untaped
    # give numpy's promoted float64 result.
    rng = np.random.default_rng(16)
    x, w = rng.standard_normal((4, 3)).astype(np.float32), rng.standard_normal(
        (3, 5)).astype(np.float32)
    b = rng.standard_normal(5)
    taped = ad.dense(x, w, ad.Var(b), act="silu")
    untaped = ad.dense(x, w, b, act="silu")
    assert taped.value.dtype == untaped.dtype == np.float64
    np.testing.assert_array_equal(taped.value, untaped, strict=True)

    v = ad.Var(rng.standard_normal(5).astype(np.float32))
    up = rng.standard_normal(5)
    y = ad._sigmoid_np(v.value)
    ad.backward(_sum_all(ad.sigmoid(v) * up))
    assert v.grad.dtype == np.float64
    np.testing.assert_array_equal(v.grad, up * y * (1.0 - y))
    silu_grad = ad._silu_grad(up, v.value, y)
    assert silu_grad.dtype == np.float64
    np.testing.assert_array_equal(silu_grad, up * y * (1.0 + v.value * (1.0 - y)))
