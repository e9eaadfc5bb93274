"""Dense tensors with reverse-mode automatic differentiation.

A small NumPy-backed engine: every operation records its parent tensors
and a gradient closure, and ``backward`` walks the implicit graph once in
reverse topological order. Gradients land on leaf tensors only and
accumulate across calls until explicitly reset. ``backward`` frees each
node's saved arrays as it passes the node, so a graph runs backward once:
a second pass through it raises ``RuntimeError``, and the forward must be
run again.

Two precision modes exist: float32 (training default) and float64 (used
by the finite-difference gradient checks). Within one mode, identical
inputs produce bitwise-identical outputs. Only NumPy and the standard
library are used: GELU's erf is a float32 rational form for float32
tensors of any size and ``math.erf`` for float64 ones.

Inside ``no_grad()`` operations record nothing: they return plain
tensors with the same values, and every intermediate is freed as soon as
nothing reads it. Evaluation paths run there.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

_DTYPES = {"float32": np.float32, "float64": np.float64}
_default_dtype = np.float32
# process-wide, like the default dtype; False inside no_grad()
_grad_enabled = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5  # layer norm's variance floor

# Abramowitz & Stegun 7.1.26: erf(x) = 1 - t*(a1 + a2 t + ... + a5 t^4) e^{-x^2},
# t = 1 / (1 + p x) for x >= 0, |error| <= 1.5e-7; _AS_A runs a5 down to a1
_AS_P = np.float32(0.3275911)
_AS_A = tuple(np.float32(c) for c in (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
# float64 erf: the standard library's, element by element
_erf_f64 = np.frompyfunc(math.erf, 1, 1)


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors ('float32' or 'float64')."""
    global _default_dtype
    if isinstance(dtype, str):
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}, expected float32 or float64")
        dtype = _DTYPES[dtype]
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}")
    _default_dtype = dtype


def default_dtype():
    return _default_dtype


class precision:
    """Context manager that temporarily switches the default dtype."""

    def __init__(self, dtype):
        self.dtype = dtype
        self._saved = None

    def __enter__(self):
        self._saved = _default_dtype
        set_default_dtype(self.dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self._saved)
        return False


@contextlib.contextmanager
def no_grad():
    """Context manager (or decorator) under which operations build no graph.

    Results carry the values they would carry outside it, but no parents,
    no gradient closure and ``requires_grad=False``, so ``backward`` on
    them raises. The previous state comes back on exit, also when the
    block raises, so contexts nest.
    """
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != _default_dtype:
            arr = arr.astype(_default_dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        backward(self)

    # operator sugar; scalars and arrays are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(x, dtype=like.data.dtype)
    t.requires_grad = False
    t.grad = None
    t._parents = ()
    t._grad_fn = None
    return t


def _make(data: np.ndarray, parents, grad_fn) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._grad_fn = grad_fn
    else:
        t.requires_grad = False
        t._parents = ()
        t._grad_fn = None
    return t


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _released(g):
    """Gradient closure of a node that a backward pass has already walked."""
    raise RuntimeError(
        "this graph was already used by a backward pass, which freed it; "
        "run the forward again to backpropagate through it"
    )


def backward(loss: Tensor) -> None:
    """Populate leaf gradients of a scalar loss, freeing the graph as it goes.

    Gradients accumulate across calls: running backward twice without
    zeroing, each time on a freshly built graph, doubles every leaf
    gradient. Right after an interior node's closure runs, the node drops
    its parents and closure, so each saved array is freed once no later
    node needs it and nothing of the graph stays reachable through
    ``loss``. A graph therefore takes one backward pass; a second one
    that reaches any of its interior nodes raises ``RuntimeError``.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError(
            "loss does not depend on any tensor that requires grad (or was made under no_grad)"
        )

    # DFS postorder (parents appended before children), then walk reversed
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for i in range(len(topo) - 1, -1, -1):
        node, topo[i] = topo[i], None
        g = grads.pop(id(node), None)
        if node._grad_fn is None:
            if g is not None:
                # leaf: flush with a copy so siblings never alias one buffer
                node.grad = np.array(g) if node.grad is None else node.grad + g
            continue
        if g is not None:
            for parent, pg in node._grad_fn(g):
                if not parent.requires_grad:
                    continue
                prev = grads.get(id(parent))
                grads[id(parent)] = pg if prev is None else prev + pg
        # every child has run (reverse topological order), so nothing reads
        # this node's parents or saved arrays again
        node._parents = ()
        node._grad_fn = _released


# ---------------------------------------------------------------------------
# elementwise ops


def _operand_grads(a: Tensor, b: Tensor, grad_a, grad_b):
    """(operand, gradient) pairs of a broadcasting binary op, for the
    operands that require grad only: ``grad_a``/``grad_b`` are called lazily,
    so a constant scale or mask costs no product and no broadcast reduction."""
    return [(t, _unbroadcast(grad(), t.data.shape))
            for t, grad in ((a, grad_a), (b, grad_b)) if t.requires_grad]


def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b), lambda g: _operand_grads(a, b, lambda: g, lambda: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, (a, b), lambda g: _operand_grads(a, b, lambda: g, lambda: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _operand_grads(a, b, lambda: g * b.data, lambda: g * a.data)

    return _make(a.data * b.data, (a, b), grad_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _operand_grads(a, b, lambda: g / b.data,
                              lambda: -g * a.data / (b.data * b.data))

    return _make(a.data / b.data, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: [(a, -g)])


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: [(a, g * (1.0 - y * y))])


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: [(a, g / a.data)])


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    return _make(y, (a,), lambda g: [(a, g * 0.5 / y)])


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + e^-x) of an array, in its dtype.

    Two-sided: e = e^-|x| never overflows, and negative x take e / (1 + e),
    so small results keep their relative precision; expit(0) is 0.5.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    y = expit(a.data)
    return _make(y, (a,), lambda g: [(a, g * y * (1.0 - y))])


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    y = np.logaddexp(np.zeros_like(a.data), a.data)
    return _make(y, (a,), lambda g: [(a, g * expit(a.data))])


def _erf_f32(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array by A&S 7.1.26, evaluated in float32.

    Odd by construction, |erf| <= 1, erf(+-inf) = +-1; max |error| against
    the exact erf stays below 1e-6 (rational form plus float32 rounding).
    """
    t = np.abs(x)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    poly = _AS_A[0] * t
    for c in _AS_A[1:]:
        poly += c
        poly *= t
    # t is spent: reuse it for e^{-x^2}, so only two temporaries are live
    e = np.multiply(x, x, out=t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    poly *= e
    np.subtract(1.0, poly, out=poly)
    return np.copysign(poly, x, out=poly)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, erf form.

    float32 inputs of any size take erf from the float32 rational form
    ``_erf_f32``; float64 inputs take ``math.erf`` element by element.
    """
    x = a.data
    # erf runs on a flat view, so a 0-d input also gives it arrays to write into
    z = x.reshape(-1) * _INV_SQRT2
    if x.dtype == np.float32:
        phi = _erf_f32(z)
    else:
        phi = _erf_f64(z).astype(np.float64)
    phi = phi.reshape(x.shape)
    phi += 1.0
    phi *= 0.5
    y = x * phi

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return [(a, g * (phi + x * pdf))]

    return _make(y.astype(x.dtype, copy=False), (a,), grad_fn)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    data = np.maximum(a.data, lo)

    def grad_fn(g):
        return [(a, g * (a.data > lo))]

    return _make(data, (a,), grad_fn)


# ---------------------------------------------------------------------------
# shape and reduction ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def grad_fn(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return [(a, _unbroadcast(ga, a.data.shape)), (b, _unbroadcast(gb, b.data.shape))]

    return _make(data, (a, b), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` of a (..., D) input, a (D, O) weight and an (O,) bias, as one node.

    The product is one 2-D GEMM over the flattened rows, and the bias is
    added in place into its output. The backward is one row sum for the
    bias and one 2-D GEMM each for the weight and the input, each computed
    only for an operand that requires grad.
    """
    if (w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ValueError(f"linear shape mismatch: {x.data.shape} x {w.data.shape} + {b.data.shape}")
    d_in, d_out = w.data.shape
    data = x.data.reshape(-1, d_in) @ w.data
    data += b.data

    def grad_fn(g):
        g2 = g.reshape(-1, d_out)
        # the input is reshaped again here so a copy of a strided input is not kept alive
        grads = ((x, lambda: (g2 @ w.data.T).reshape(x.data.shape)),
                 (w, lambda: x.data.reshape(-1, d_in).T @ g2),
                 (b, lambda: g2.sum(axis=0)))
        return [(t, grad()) for t, grad in grads if t.requires_grad]

    return _make(data.reshape(x.data.shape[:-1] + (d_out,)), (x, w, b), grad_fn)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    return _make(data, (a,), lambda g: [(a, g.reshape(a.data.shape))])


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    data = a.data.transpose(axes)
    # the inverse permutation is built in the closure: graph-free calls never need it
    return _make(data, (a,), lambda g: [(a, g.transpose(np.argsort(axes)))])


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True))]
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return [(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True))]

    return _make(data, (a,), grad_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for i in ax:
            count *= a.data.shape[i]
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, _as_tensor(1.0 / count, s))


def token_at(a: Tensor, t: int) -> Tensor:
    """Select position ``t`` along axis 1 of a (B, T, D) tensor."""
    data = a.data[:, t, :]

    def grad_fn(g):
        gx = np.zeros_like(a.data)
        gx[:, t, :] = g
        return [(a, gx)]

    return _make(data, (a,), grad_fn)


def narrow0(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice a[start:stop] along axis 0."""
    if not 0 <= start <= stop <= a.data.shape[0]:
        raise ValueError(f"slice [{start}:{stop}] out of range for axis of size {a.data.shape[0]}")
    data = a.data[start:stop]

    def grad_fn(g):
        gx = np.zeros_like(a.data)
        gx[start:stop] = g
        return [(a, gx)]

    return _make(data, (a,), grad_fn)


# ---------------------------------------------------------------------------
# softmax family


def _norm_axis(axis, ndim):
    ax = axis if axis >= 0 else axis + ndim
    if not 0 <= ax < ndim:
        raise ValueError(f"axis {axis} out of range for ndim {ndim}")
    return ax


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; slices along ``axis`` sum to 1."""
    ax = _norm_axis(axis, a.data.ndim)
    if a.data.shape[ax] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def grad_fn(g):
        return [(a, y * (g - (g * y).sum(axis=ax, keepdims=True)))]

    return _make(y, (a,), grad_fn)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    ax = _norm_axis(axis, a.data.ndim)
    if a.data.shape[ax] == 0:
        raise ValueError("log_softmax over an empty axis")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=ax, keepdims=True))
    y = shifted - lse

    def grad_fn(g):
        return [(a, g - np.exp(y) * g.sum(axis=ax, keepdims=True))]

    return _make(y, (a,), grad_fn)


# ---------------------------------------------------------------------------
# indexing ops


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]``; gradients sum back into the rows looked up."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding ids out of range [0, {table.data.shape[0]}): "
            f"min {idx.min()}, max {idx.max()}"
        )
    data = table.data[idx]

    def grad_fn(g):
        # a stable sort groups equal ids and reduceat sums each group, one
        # write per distinct row: faster than an np.add.at scatter, which it
        # matches up to summation order
        gt = np.zeros_like(table.data)
        flat = idx.ravel()
        if flat.size:
            order = np.argsort(flat, kind="stable")
            ids = flat[order]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            rows = g.reshape(flat.size, *table.data.shape[1:])[order]
            gt[ids[starts]] = np.add.reduceat(rows, starts, axis=0)
        return [(table, gt)]

    return _make(data, (table,), grad_fn)


def gather_last(a: Tensor, ids) -> Tensor:
    """Pick one entry along the last axis per leading index, e.g. logp[i, target_i]."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.shape != a.data.shape[:-1]:
        raise ValueError(f"index shape {idx.shape} does not match {a.data.shape[:-1]}")
    width = a.data.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= width):
        raise ValueError(f"gather index out of range [0, {width}): max {idx.max()}")
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        gx = np.zeros_like(a.data)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return [(a, gx)]

    return _make(data, (a,), grad_fn)


# ---------------------------------------------------------------------------
# composite / stochastic ops


def _normalize(s: np.ndarray, gamma: Tensor, beta: Tensor):
    """Layer norm of the array ``s`` over its last axis; returns the output,
    the normalized input ``xn`` and the inverse deviation ``inv``."""
    mu = s.mean(axis=-1, keepdims=True)
    xn = s - mu
    var = (xn * xn).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xn *= inv
    return xn * gamma.data + beta.data, xn, inv


def _normalize_grads(g: np.ndarray, xn: np.ndarray, inv: np.ndarray, gamma: Tensor, beta: Tensor):
    """Gradients of ``_normalize`` with respect to its input, gamma and beta."""
    reduce_axes = tuple(range(g.ndim - 1))
    dgamma = (g * xn).sum(axis=reduce_axes).reshape(gamma.data.shape)
    dbeta = g.sum(axis=reduce_axes).reshape(beta.data.shape)
    dxn = g * gamma.data
    dx = inv * (
        dxn
        - dxn.mean(axis=-1, keepdims=True)
        - xn * (dxn * xn).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    y, xn, inv = _normalize(x.data, gamma, beta)

    def grad_fn(g):
        dx, dgamma, dbeta = _normalize_grads(g, xn, inv, gamma, beta)
        return [(x, dx), (gamma, dgamma), (beta, dbeta)]

    return _make(y, (x, gamma, beta), grad_fn)


def _dropout_mask(shape, p: float, rng, dtype):
    """The scaled keep mask of one dropout draw at ``shape``, or None where
    dropout is the identity; ``dropout``, ``attention`` and
    ``residual_layer_norm`` all draw through here.

    One ``rng.integers(0, 65536, size=shape, dtype=np.uint16)`` call per
    mask: an entry is kept when its draw is at least ``thr = round(p *
    65536)`` and then weighs 65536 / (65536 - thr). A p that rounds to
    ``thr == 0``, evaluation's p = 0 included, draws nothing.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    thr = round(p * 65536)
    if thr == 65536:
        raise ValueError(f"dropout probability {p} rounds to 1 at 16-bit resolution")
    if thr == 0:
        return None
    draw = rng.integers(0, 65536, size=shape, dtype=np.uint16)
    keep = (draw >= thr).astype(dtype)
    keep *= np.asarray(65536 / (65536 - thr), dtype=dtype)
    return keep


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout from 16-bit draws at the input's own shape.

    Each entry draws one uniform uint16 and is kept when the draw is at
    least ``thr = round(p * 65536)``, so the rate is p quantized to 1/65536.
    Kept entries are scaled by 65536 / (65536 - thr), which makes the
    expected output equal the input exactly. A p that rounds to ``thr ==
    0`` is an exact identity and draws nothing, so evaluation passes p = 0;
    a p < 1 that rounds to 65536 is rejected.

    The mask comes from ``_dropout_mask``, which the fused ``attention``
    and ``residual_layer_norm`` nodes draw through as well, so a fused node
    consumes the random stream exactly as its composite would.
    """
    keep = _dropout_mask(x.data.shape, p, rng, x.data.dtype)
    if keep is None:
        return x
    return _make(x.data * keep, (x,), lambda g: [(x, g * keep)])


# ---------------------------------------------------------------------------
# fused nodes: one graph node each for a composite the model runs per
# sublayer, so that backward keeps one or two saved arrays alive instead
# of every intermediate of the composite


def attention(q: Tensor, k: Tensor, v: Tensor, bias, p: float, rng) -> Tensor:
    """``dropout(softmax(q kᵀ / sqrt(d_head) + bias)) v`` as one node.

    ``q`` and ``k`` are (B, h, Tq, d_head) and (B, h, Tk, d_head), ``v`` is
    (B, h, Tk, d_v); ``bias`` is a constant array that broadcasts against
    the (B, h, Tq, Tk) scores, or None. The forward computes the scores,
    scales them, adds the bias and takes the softmax in place, then applies
    the mask ``dropout`` would draw at the probabilities' shape. The
    backward starts from the saved probabilities and mask, as
    FlashAttention's does (without the tiling), so no other (B, h, Tq, Tk)
    array outlives the forward.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 4 or kd.ndim != 4 or vd.ndim != 4 or kd.shape[:3] != vd.shape[:3]
            or kd.shape[:2] != qd.shape[:2] or kd.shape[3] != qd.shape[3]):
        raise ValueError(f"attention shape mismatch: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    scale = np.asarray(1.0 / math.sqrt(qd.shape[-1]), dtype=qd.dtype)
    probs = qd @ np.swapaxes(kd, -1, -2)
    probs *= scale
    if bias is not None:
        probs += np.asarray(bias, dtype=probs.dtype)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = _dropout_mask(probs.shape, p, rng, probs.dtype)
    data = (probs if keep is None else probs * keep) @ vd

    def grad_fn(g):
        grads = []
        if v.requires_grad:
            dropped = probs if keep is None else probs * keep
            grads.append((v, np.swapaxes(dropped, -1, -2) @ g))
            del dropped
        if q.requires_grad or k.requires_grad:
            # softmax backward from the saved probabilities, in place
            ds = g @ np.swapaxes(v.data, -1, -2)
            if keep is not None:
                ds *= keep
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            ds *= scale
            if q.requires_grad:
                grads.append((q, ds @ k.data))
            if k.requires_grad:
                grads.append((k, np.swapaxes(ds, -1, -2) @ q.data))
        return grads

    return _make(data, (q, k, v), grad_fn)


def residual_layer_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor, p: float,
                        rng) -> Tensor:
    """``layer_norm(x + dropout(y))`` as one node: the post-norm epilogue of
    a transformer sublayer, after Megatron-LM's fused bias-dropout-add.

    ``x`` (the residual stream) and ``y`` (the sublayer output) have one
    shape. The mask is the one ``dropout`` would draw at ``y``'s shape; the
    backward keeps only it and the normalized sum.
    """
    if x.data.shape != y.data.shape:
        raise ValueError(f"residual_layer_norm shape mismatch: {x.data.shape} and {y.data.shape}")
    keep = _dropout_mask(y.data.shape, p, rng, y.data.dtype)
    out, xn, inv = _normalize(x.data + (y.data if keep is None else y.data * keep), gamma, beta)

    def grad_fn(g):
        ds, dgamma, dbeta = _normalize_grads(g, xn, inv, gamma, beta)
        grads = [(x, ds), (gamma, dgamma), (beta, dbeta)]
        if y.requires_grad:
            grads.append((y, ds if keep is None else ds * keep))
        return grads

    return _make(out, (x, y, gamma, beta), grad_fn)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine of the angle between two vectors, with an eps-guarded denominator.

    The guard max(|a||b|, eps) keeps the value defined when either vector is
    zero, which tanh-pooled encoders produce at all-zero initialization.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(f"cosine_similarity needs equal-length vectors, got {a.data.shape} and {b.data.shape}")
    num = tsum(mul(a, b))
    na = sqrt(tsum(mul(a, a)))
    nb = sqrt(tsum(mul(b, b)))
    return div(num, clamp_min(mul(na, nb), eps))
