"""Reverse-mode automatic differentiation over numpy arrays.

Every network in this package is a small dense model, so the primitive set
is fixed and deliberately tiny. Each layer is one fused affine node:
``dense`` is ``act(x @ w + bias + rows…)`` and ``temporal_mix`` is
per-channel frame mixing with the same row terms and activation. Besides
those there are elementwise arithmetic, embedding-row lookup for indices
checked by the caller, concatenation along any axis, reshaping, the
frame stack's ``transpose`` between row-major and channel-major, sigmoid,
log and clamp, the full mean and the mean squared error.

Frame stacks follow the layout rule that ``nets`` states: a stack of
frames is a C-contiguous channel-major (R, C, frames, rows) array whose
leading rank axis is R = 1 for one model's call, and an operand carries a
rank axis only when it differs per rank. A dense layer over a stack is one
``w.T @ x`` per rank on its (K, frames * rows) matrix, batched over ranks,
against a shared (K, C) weight or one per rank, (R, K, C); the frame mix
is one ``mix @ h`` batched over ranks and channels, against a shared
(C, F, G) mix or one per rank, (R, C, F, G). Each product is written
straight into a fresh contiguous buffer. A (C,) or (R, C) bias enters as
(C, 1, 1) or (R, C, 1, 1), and each row term, (R, B, C) or (N, C) with
its N = R·B rows grouped by rank (rank r's are r·B to r·B + B - 1), as a
contiguous (R, C, 1, B) copy, so every add and every gradient sum runs
over contiguous trailing axes. Row-major rows, the input of the
networks' time projections and heads, are (R, B, K) and take one
``x @ w`` per rank, against a shared (K, C) weight or one per rank;
``_take_rows`` reads a shared (V, C) table or one per rank, (R, V, C),
likewise. ``transpose`` converts between a row-major (R, rows, frames, C)
stack and the channel-major one.

Each rank's slice of a batched product is the 2-D product of its own
operands, so each rank gets the bits of a call on its rows alone: one
product over every rank's rows would not give them, since BLAS picks its
kernel by the row count. In float32 the channel-major products round as
the row-major ones did, so untaped float32 values keep the row-major
layout's bits (float64 ones may differ in their last bits); a weight,
bias or row-term gradient sums over rows and frames in another order
than a row-major layer would, so it may differ in its last bits.

Constants are plain numpy arrays; anything wrapped in :class:`Var` receives
a gradient after :func:`backward` runs on a scalar loss. ``backward`` frees
the tape as it walks it: each node's closure and every interior gradient
are dropped once used, so a graph can be back-propagated once. The free
functions (``dense``, ``sigmoid``, ...) accept either ``Var`` or ``ndarray``
operands, so the same forward code serves both training (taped) and
inference (plain numpy) callers.

Every op computes in its operands' dtype: training and sampling pass
float32 arrays and get float32 values and gradients, and :func:`gradcheck`
passes float64 so that its finite differences keep their precision. A
float32 operand met by a float64 one is upcast, as numpy promotes it. A
Python scalar operand is kept as it is, so it takes the dtype of the array
it meets (NEP 50); a numpy float64 scalar or 0-d array would promote a
float32 operand to float64, so callers pass coefficients in their
operands' dtype.

A fused node returns the bits of the op chain it replaces in the same
layout: its adds run in the written order, its activation and gradients
are the pointwise chains below, and its gradient sums run over the same
axes. A pointwise chain (``sigmoid``, a fused layer's silu and their
gradients) runs its ufuncs one by one with ``out=``, in the order and on
the operands of the written expression, so it returns the same bits while
allocating the fewest new arrays: one, or two where two partial results
must coexist.

The in-place rule: an op writes only into a buffer it has just allocated
itself, never into an input, a node's ``value`` or an incoming gradient.
A fused node, taped or not, adds its bias and row terms into the product
buffer it has just allocated. At batch 512 a (hidden, frames, rows)
float32 activation is 256 KiB, large enough that the allocator may hand
its pages back to the kernel when it is freed, and a fresh process faults
them back in: one untaped batch-512 ``student_eps`` call takes 264 minor
page faults there, against 112 for the row-major layout, and is faster
all the same. Allocating each untaped add, as ``z + term`` does, raised
that to 328.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "backward",
    "value_of",
    "dense",
    "temporal_mix",
    "transpose",
    "concat",
    "reshape",
    "sigmoid",
    "log",
    "clamp",
    "mean_all",
    "mse",
    "gradcheck",
]


def _as_float(x) -> np.ndarray:
    """``x`` as an ndarray, kept in its floating dtype; an integer, boolean
    or other operand becomes float64."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def _operand(x):
    """An op's operand: a Var's value, a Python scalar as it is (it takes
    the dtype of the array it meets), anything else as :func:`_as_float`."""
    if isinstance(x, Var):
        return x.value
    return x if type(x) in (int, float) else _as_float(x)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in one new buffer, ufunc by ufunc."""
    y = np.negative(x, out=np.empty_like(x))
    # exp overflow for very negative x saturates to inf and the quotient
    # correctly rounds to 0, so only the warning needs suppressing.
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    np.add(1.0, y, out=y)
    return np.divide(1.0, y, out=y)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """One node of the computation graph.

    ``value`` is a floating ndarray (scalars become 0-d arrays): a float
    array keeps its dtype, anything else becomes float64. ``grad`` is
    populated by :func:`backward` on leaves (nodes without parents), in the
    dtype of the computation that reached them; an interior node's ``grad``
    is freed once it has been used.
    """

    __slots__ = ("value", "grad", "_parents", "_bwd")

    # Make ndarray (op) Var dispatch to the reflected Var operators instead
    # of numpy's elementwise object fallback.
    __array_ufunc__ = None

    def __init__(self, value, _parents=(), _bwd=None):
        self.value = _as_float(value)
        self.grad = None
        self._parents = _parents
        self._bwd = _bwd

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(self, other)

    def __sub__(self, other):
        return _add(self, _neg(other))

    def __rsub__(self, other):
        return _add(_neg(self), other)

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Var):
            raise TypeError("Var/Var division is not a supported primitive")
        return _div_const(self, other)


def value_of(x) -> np.ndarray:
    """Underlying ndarray of a Var, or ``x`` as :func:`_as_float` keeps it."""
    return x.value if isinstance(x, Var) else _as_float(x)


def _accum(node: Var, g: np.ndarray) -> None:
    # No op writes into an incoming gradient (nor into an input or a node's
    # value), so storing a view here is safe.
    node.grad = g if node.grad is None else node.grad + g


def backward(loss: Var) -> None:
    """Run reverse-mode accumulation from a scalar loss node.

    The tape is freed as it is walked: once a node's closure has run, the
    closure is dropped, and so is the gradient of an interior node. Leaves
    keep ``grad``; every node keeps ``value`` and ``_parents``. A graph can
    therefore be back-propagated once.
    """
    if not isinstance(loss, Var):
        raise TypeError("backward expects a Var")
    if loss.value.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.value.shape}")

    # Iterative topological order (graphs are shallow but play it safe).
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones((), dtype=loss.value.dtype)
    for node in reversed(topo):
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)
        node._bwd = None
        if node._parents:
            node.grad = None


# -- primitives --------------------------------------------------------


def _add(a: Var, b):
    """``a + b`` for the Var ``a`` and a Var or constant ``b``."""
    av, bv = a.value, _operand(b)
    out = Var(av + bv, _parents=(a, b) if isinstance(b, Var) else (a,))

    def bwd(g):
        _accum(a, _unbroadcast(g, av.shape))
        if isinstance(b, Var):
            _accum(b, _unbroadcast(g, bv.shape))

    out._bwd = bwd
    return out


def _neg(a):
    if not isinstance(a, Var):
        return -_operand(a)
    out = Var(-a.value, _parents=(a,))
    out._bwd = lambda g: _accum(a, -g)
    return out


def _mul(a: Var, b):
    """``a * b`` for the Var ``a`` and a Var or constant ``b``."""
    av, bv = a.value, _operand(b)
    out = Var(av * bv, _parents=(a, b) if isinstance(b, Var) else (a,))

    def bwd(g):
        _accum(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Var):
            _accum(b, _unbroadcast(g * av, bv.shape))

    out._bwd = bwd
    return out


def _div_const(a: Var, b):
    # True division keeps taped values bit-identical to the plain-numpy path.
    bv = _operand(b)
    out = Var(a.value / bv, _parents=(a,))
    out._bwd = lambda g: _accum(a, _unbroadcast(g / bv, a.value.shape))
    return out


def _term(tv, z, bias: bool):
    """A bias or row term's value shaped to broadcast against the product
    ``z`` (see :func:`_affine`)."""
    if z.ndim < 4:
        if bias:
            return tv[:, None] if tv.ndim == 2 else tv
        return tv.reshape(z.shape)
    if bias:
        return tv[..., None, None]
    ranked = tv.reshape(len(z), -1, tv.shape[-1]).transpose(0, 2, 1)
    return np.ascontiguousarray(ranked)[:, :, None]


def _term_grad(gz, shape, bias: bool):
    """The gradient of a bias or row term of ``shape`` from the
    pre-activation gradient ``gz``: :func:`_term`'s broadcast undone."""
    if gz.ndim < 4:
        if not bias:
            return gz.reshape(shape)
        # Over rows, and over ranks for a bias they share.
        return gz.sum(axis=1 if len(shape) == 2 else tuple(range(gz.ndim - 1)))
    if bias:
        # Over frames and rows, and over ranks for a bias they share.
        return gz.sum(axis=(2, 3) if len(shape) == 2 else (0, 2, 3))
    ranked = gz.sum(axis=2).transpose(0, 2, 1)
    return np.ascontiguousarray(ranked).reshape(shape)


def _affine(z, bias, rows, act, operands, product_bwd):
    """``act(z + bias + rows…)`` as one node over the product ``z``, a
    buffer the caller has just allocated.

    ``z`` is row-major, (N, C) or (R, B, C), or a channel-major frame
    stack (R, C, F, B). ``bias`` is None, (C,) or one per rank, (R, C).
    Each row term is (N, C) or (R, B, C), its rows grouped by rank. Over a
    frame stack the bias enters as a (C, 1, 1) or (R, C, 1, 1) view and
    each row term as a contiguous (R, C, 1, B) copy (see the module
    docstring). The adds run in the written order,
    into ``z``; a float32 ``z`` met by a float64 term allocates the
    promoted sum instead, as ``z + term`` does, and the rest write into
    that. ``act`` is None or ``"silu"``; the taped node keeps the
    pre-activation buffer and its sigmoid for the backward pass.
    ``product_bwd(gz)`` accumulates the gradients of the product's
    ``operands`` from the pre-activation gradient ``gz``.
    """
    if act not in (None, "silu"):
        raise ValueError(f"unknown activation {act!r}")
    terms = rows if bias is None else (bias, *rows)
    biased = bias is not None  # the first term is the bias
    parents = tuple([p for p in (*operands, *terms) if isinstance(p, Var)])
    for i, t in enumerate(terms):
        tv = _term(t.value if isinstance(t, Var) else t, z, biased and i == 0)
        # A wider term (float64 into a float32 product) allocates the
        # promoted sum instead of being rounded into ``z``.
        if tv.dtype.itemsize <= z.dtype.itemsize:
            np.add(z, tv, out=z)
        else:
            z = z + tv
    s = None if act is None else _sigmoid_np(z)
    if not parents:
        return z if s is None else np.multiply(z, s, out=s)
    out = Var(z if s is None else z * s, _parents=parents)

    def bwd(g):
        gz = g if s is None else _silu_grad(g, z, s)
        product_bwd(gz)
        for i, t in enumerate(terms):
            if isinstance(t, Var):
                _accum(t, _term_grad(gz, t.value.shape, biased and i == 0))

    out._bwd = bwd
    return out


def dense(x, w, bias=None, *rows, act=None):
    """One dense layer as one node: ``act(x @ w + bias + rows…)``.

    ``w`` is a (K, C) weight matrix, or one per rank, (R, K, C). Row-major
    rows (N, K), or (R, B, K) grouped by rank, give (N, C) or (R, B, C),
    one ``x @ w`` per rank. A channel-major frame stack (R, K, F, B) gives
    (R, C, F, B), one ``w.T @ x.reshape(K, F * B)`` per rank. A shared
    ``w`` meets every rank's rows, a rank-stacked one each rank's rows its
    own matrix. ``bias`` is (C,), (R, C) or None and each row term holds
    one row per row of ``x``, broadcast over the frames of a frame stack
    (see :func:`_affine`). The bias and row terms are added in that order,
    into the product's own buffer.
    """
    xv, wv = value_of(x), value_of(w)
    if wv.ndim not in (2, 3):
        raise ValueError("dense weight must be 2-D, or 3-D with a leading rank axis")
    if xv.ndim == 4:
        x2 = xv.reshape(*xv.shape[:2], -1)
        z = wv.swapaxes(-1, -2) @ x2
        z = z.reshape(*z.shape[:2], *xv.shape[2:])

        def product_bwd(gz):
            g2 = gz.reshape(*gz.shape[:2], -1)
            if isinstance(x, Var):
                _accum(x, (wv @ g2).reshape(xv.shape))
            if isinstance(w, Var):
                _accum(w, _unbroadcast(x2 @ g2.swapaxes(-1, -2), wv.shape))
    else:
        z = xv @ wv

        def product_bwd(gz):
            if isinstance(x, Var):
                _accum(x, gz @ wv.swapaxes(-1, -2))
            if isinstance(w, Var):
                _accum(w, _unbroadcast(xv.swapaxes(-1, -2) @ gz, wv.shape))

    return _affine(z, bias, rows, act, (x, w), product_bwd)


def _take_rows(table, idx):
    """Embedding lookup: rows of a 1-D or 2-D table selected by an int
    index array that its caller checked where it entered, in the index
    array's shape. A rank-stacked (R, V, C) table takes N = R·B indices
    grouped by rank and gives (R, B, C), each rank's rows looked up in its
    own (V, C) table."""
    tv = value_of(table)
    at = idx
    if tv.ndim == 3:
        at = (np.arange(len(tv))[:, None], np.reshape(idx, (len(tv), -1)))
    if not isinstance(table, Var):
        return tv[at]
    out = Var(tv[at], _parents=(table,))

    def bwd(g):
        dt = np.zeros_like(tv, dtype=g.dtype)
        np.add.at(dt, at, g)
        _accum(table, dt)

    out._bwd = bwd
    return out


def temporal_mix(mix, h, *rows, act=None):
    """Per-channel frame mixing as one node over a channel-major frame
    stack: ``act(mix @ h + rows…)``, out[c,f,b] = sum_g mix[c,f,g] * h[c,g,b].

    ``h`` is a frame stack (R, C, G, B) and ``mix`` is shared by every
    rank, (C, F, G), or one per rank, (R, C, F, G); the product is one
    batched matmul over ranks and channels, and so is each gradient. A
    shared ``mix`` sums its gradient over ranks; a rank-stacked one gives
    each rank the gradient of a call on its own rows. Each row term is
    (N, C) or (R, B, C) and broadcasts over frames (see :func:`_affine`).
    """
    mv, hv = value_of(mix), value_of(h)

    def product_bwd(gz):
        if isinstance(mix, Var):
            _accum(mix, _unbroadcast(gz @ hv.swapaxes(-1, -2), mv.shape))
        if isinstance(h, Var):
            _accum(h, mv.swapaxes(-1, -2) @ gz)

    return _affine(mv @ hv, None, rows, act, (mix, h), product_bwd)


def transpose(x):
    """A frame stack's axes after its leading rank axis reversed, as a
    C-contiguous copy: a row-major (R, B, F, C) stack becomes channel-major
    (R, C, F, B), and back."""
    xv = value_of(x)
    yv = np.ascontiguousarray(xv.swapaxes(1, 3))
    if not isinstance(x, Var):
        return yv
    out = Var(yv, _parents=(x,))
    out._bwd = lambda g: _accum(x, np.ascontiguousarray(g.swapaxes(1, 3)))
    return out


def concat(parts, axis: int):
    """Concatenate along ``axis``; a Var may appear in several parts."""
    vals = [value_of(p) for p in parts]
    if not any(isinstance(p, Var) for p in parts):
        return np.concatenate(vals, axis=axis)
    out = Var(
        np.concatenate(vals, axis=axis),
        _parents=tuple(p for p in parts if isinstance(p, Var)),
    )
    bounds = np.cumsum([0] + [v.shape[axis] for v in vals])

    def bwd(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if isinstance(p, Var):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                _accum(p, g[tuple(index)])

    out._bwd = bwd
    return out


def reshape(x, shape):
    if not isinstance(x, Var):
        return _as_float(x).reshape(shape)
    orig = x.value.shape
    out = Var(x.value.reshape(shape), _parents=(x,))
    out._bwd = lambda g: _accum(x, g.reshape(orig))
    return out


def _sigmoid_grad(g, y):
    """``g * y * (1 - y)``: two new buffers, the least that keeps its bits."""
    d = np.multiply(g, y, out=np.empty_like(y, dtype=np.result_type(g, y)))
    return np.multiply(d, np.subtract(1.0, y, out=np.empty_like(y)), out=d)


def _silu_grad(g, x, s):
    """``g * s * (1 + x * (1 - s))``: two new buffers, as above."""
    d = np.multiply(g, s, out=np.empty_like(s, dtype=np.result_type(g, s)))
    u = np.subtract(1.0, s, out=np.empty_like(s))
    np.multiply(x, u, out=u)
    np.add(1.0, u, out=u)
    return np.multiply(d, u, out=d)


def sigmoid(x):
    if not isinstance(x, Var):
        return _sigmoid_np(_as_float(x))
    y = _sigmoid_np(x.value)
    out = Var(y, _parents=(x,))
    out._bwd = lambda g: _accum(x, _sigmoid_grad(g, y))
    return out


def log(x):
    if not isinstance(x, Var):
        return np.log(_as_float(x))
    out = Var(np.log(x.value), _parents=(x,))
    out._bwd = lambda g: _accum(x, g / x.value)
    return out


def clamp(x, lo: float, hi: float):
    """Clip to [lo, hi]; gradient passes through the interior only."""
    if not isinstance(x, Var):
        return np.clip(_as_float(x), lo, hi)
    inside = (x.value >= lo) & (x.value <= hi)
    out = Var(np.clip(x.value, lo, hi), _parents=(x,))
    out._bwd = lambda g: _accum(x, g * inside)
    return out


def mean_all(x):
    if not isinstance(x, Var):
        return np.mean(_as_float(x))
    n = x.value.size
    out = Var(np.mean(x.value), _parents=(x,))
    out._bwd = lambda g: _accum(x, np.broadcast_to(g / n, x.value.shape))
    return out


def mse(pred, target):
    """Mean squared error ``mean((pred - target)²)`` as one node.

    ``target`` is a constant: it is an ndarray, never a Var.
    """
    if isinstance(target, Var):
        raise TypeError("mse target must be a constant array")
    d = value_of(pred) - _as_float(target)
    if not isinstance(pred, Var):
        return np.mean(d * d)
    out = Var(np.mean(d * d), _parents=(pred,))

    def bwd(g):
        gd = np.multiply(2.0, d)
        _accum(pred, np.multiply(gd, g / d.size, out=gd))

    out._bwd = bwd
    return out


# -- finite-difference verification ------------------------------------


def gradcheck(loss_fn, params: dict) -> dict:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` receives a dict mapping names to Var (analytic pass) or
    ndarray (finite-difference pass) and must return the scalar loss. The
    parameters are passed in float64, whatever their dtype, so the loss
    computes in float64 wherever they enter.
    Relative error per coordinate uses ``max(|analytic|, |numeric|, 1e-6)``
    as the denominator so that near-zero gradients do not blow up the ratio.

    Returns a report with per-parameter max relative error and the overall
    worst coordinate.
    """
    base = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    pvars = {k: Var(v) for k, v in base.items()}
    loss = loss_fn(pvars)
    if not isinstance(loss, Var):
        raise TypeError("loss_fn must return a Var when given Var parameters")
    backward(loss)
    analytic = {
        k: (pvars[k].grad if pvars[k].grad is not None else np.zeros_like(base[k]))
        for k in base
    }

    h = 1e-5
    per_param = {}
    worst = 0.0
    work = {k: v.copy() for k, v in base.items()}
    for name in base:
        arr = work[name]
        err_max = 0.0
        flat = arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(value_of(loss_fn(work)))
            flat[i] = keep - h
            dn = float(value_of(loss_fn(work)))
            flat[i] = keep
            numeric = (up - dn) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-6)
            err_max = max(err_max, abs(a - numeric) / denom)
        per_param[name] = err_max
        worst = max(worst, err_max)

    return {"per_param": per_param, "max_rel_err": worst, "n_params": sum(v.size for v in base.values())}
