"""Dense tensors with reverse-mode automatic differentiation.

A small NumPy-backed engine: every operation records its parent tensors
and a gradient closure, and ``backward`` walks the implicit graph once in
reverse topological order. Gradients land on leaf tensors only and
accumulate across calls until the caller sets ``grad`` back to None.
``backward`` frees each node's saved arrays as it passes the node, so a
graph runs backward once: a second pass through it raises
``RuntimeError``, and the forward must be run again.

Two precision modes exist: float32 (training default) and float64 (used
by the finite-difference gradient checks). Within one mode, identical
inputs produce bitwise-identical outputs. Only NumPy and the standard
library are used: GELU's erf is a float32 rational form for float32
tensors of any size and ``math.erf`` for float64 ones.

Inside ``no_grad()`` operations record nothing: they return plain
tensors with the same values, and every intermediate is freed as soon as
nothing reads it. Evaluation paths run there, and most of them skip the
ops altogether: the encoder's eval pass and greedy decoding's steps call
the array kernels these nodes run (``_affine``, ``_attend``, ``_gelu``,
``_normalize`` and the head reshapes) on plain arrays, with the bits the
nodes give.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys

import numpy as np

_DTYPES = {"float32": np.float32, "float64": np.float64}
_default_dtype = np.float32
# process-wide, like the default dtype; False inside no_grad()
_grad_enabled = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5  # layer norm's variance floor
_COS_EPS = 1e-8  # cosine_similarity's floor on the norm product

# Abramowitz & Stegun 7.1.26: erf(x) = 1 - t*(a1 + a2 t + ... + a5 t^4) e^{-x^2},
# t = 1 / (1 + p x) for x >= 0, |error| <= 1.5e-7; _AS_A runs a5 down to a1
_AS_P = np.float32(0.3275911)
_AS_A = tuple(np.float32(c) for c in (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
# float64 erf: the standard library's, element by element
_erf_f64 = np.frompyfunc(math.erf, 1, 1)


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def precision(dtype: str):
    """Context manager that makes ``dtype`` ('float32' or 'float64') the
    dtype of newly created tensors, the one way to change it; the caller's
    dtype comes back on exit, also when the block raises."""
    global _default_dtype
    if dtype not in _DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}, expected float32 or float64")
    saved, _default_dtype = _default_dtype, _DTYPES[dtype]
    try:
        yield
    finally:
        _default_dtype = saved


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
    return _make(np.asarray(x, dtype=like.data.dtype), (), None)


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

    Gradients accumulate across calls: running backward twice, each time
    on a freshly built graph, doubles every leaf gradient; a leaf whose
    ``grad`` is None stores a copy of its gradient instead. Right after
    an interior node's closure runs, the node drops its parents and
    closure, so each saved array is freed once no later node needs it
    and nothing of the graph stays reachable through ``loss``. A graph therefore takes one backward pass; a second one
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


def _gelu(x: np.ndarray):
    """GELU of an array, ``x * phi`` with phi = (1 + erf(x / sqrt(2))) / 2;
    returns the output, in ``x``'s dtype, and ``phi``.

    float32 inputs of any size take erf from the float32 rational form
    ``_erf_f32``; float64 inputs take ``math.erf`` element by element.
    """
    # erf runs on a flat view, so a 0-d input also gives it arrays to write into
    z = x.reshape(-1) * _INV_SQRT2
    if x.dtype == np.float32:
        phi = _erf_f32(z)
    else:
        phi = _erf_f64(z).astype(np.float64)
    phi = phi.reshape(x.shape)
    phi += 1.0
    phi *= 0.5
    return (x * phi).astype(x.dtype, copy=False), phi


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, erf form, as ``_gelu`` computes it."""
    x = a.data
    y, phi = _gelu(x)

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return [(a, g * (phi + x * pdf))]

    return _make(y, (a,), grad_fn)


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


def _check_affine(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    if (w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ValueError(f"{op} shape mismatch: {x.data.shape} x {w.data.shape} + {b.data.shape}")


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` of a (..., D) array: one 2-D GEMM over the flattened
    rows, the bias added in place into its output."""
    out = x.reshape(-1, w.shape[0]) @ w
    out += b
    return out.reshape(x.shape[:-1] + w.shape[1:])


def _affine_grads(g: np.ndarray, x: Tensor, w: Tensor, b: Tensor) -> list:
    """(operand, gradient) pairs of ``_affine`` from its output gradient
    ``g``, for the operands that require grad only."""
    d_in, d_out = w.data.shape
    g2 = g.reshape(-1, d_out)
    # the input is reshaped again here so a copy of a strided input is not kept alive
    grads = ((x, lambda: (g2 @ w.data.T).reshape(x.data.shape)),
             (w, lambda: x.data.reshape(-1, d_in).T @ g2),
             (b, lambda: g2.sum(axis=0)))
    return [(t, grad()) for t, grad in grads if t.requires_grad]


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` of a (..., D) input, a (D, O) weight and an (O,) bias, as one node.

    The product is one 2-D GEMM over the flattened rows, and the bias is
    added in place into its output. The backward is one row sum for the
    bias and one 2-D GEMM each for the weight and the input, each computed
    only for an operand that requires grad.
    """
    _check_affine("linear", x, w, b)
    return _make(_affine(x.data, w.data, b.data), (x, w, b),
                 lambda g: _affine_grads(g, x, w, b))


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
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
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


def _checked_ids(ids, n_rows: int) -> np.ndarray:
    """``ids`` as an int64 array of row indices into an ``n_rows``-row
    table; ValueError when one lies outside [0, n_rows)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ValueError(
            f"embedding ids out of range [0, {n_rows}): min {idx.min()}, max {idx.max()}"
        )
    return idx


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]``; gradients sum back into the rows looked up."""
    idx = _checked_ids(ids, table.data.shape[0])
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


@functools.lru_cache(maxsize=None)
def _inv_width(d: int, dtype) -> np.ndarray:
    """A read-only (d,) vector of 1/d in ``dtype``: a GEMV against it takes
    the row means of a (n, d) array."""
    v = np.full(d, 1.0 / d, dtype=dtype)
    v.setflags(write=False)
    return v


def _normalize(s: np.ndarray, gamma: Tensor, beta: Tensor):
    """Layer norm of the array ``s`` over its last axis, on ``s`` flattened to
    (n, d) rows; returns the output, the normalized input ``xn`` and the
    inverse deviation ``inv``, of shape ``s.shape[:-1] + (1,)``.

    Every row mean, here and in ``_normalize_grads``, is one GEMV against
    ``_inv_width``: at one row that costs a fraction of ``ndarray.mean``,
    whose Python wrapper dominates there. A row's bits depend on how many
    rows share the call, as BLAS splits them into blocks, but not on where
    the arrays sit in memory. The (n, 1) row statistics are fresh arrays,
    which at that size cost less than writes in place.
    """
    d = s.shape[-1]
    mean = _inv_width(d, s.dtype.type)
    rows = s.reshape(-1, d)
    xn = rows - (rows @ mean)[:, None]
    inv = 1.0 / np.sqrt(np.square(xn) @ mean + _LN_EPS)[:, None]
    xn *= inv
    out = xn * gamma.data
    out += beta.data
    return out.reshape(s.shape), xn.reshape(s.shape), inv.reshape(s.shape[:-1] + (1,))


def _normalize_grads(g: np.ndarray, xn: np.ndarray, inv: np.ndarray, gamma: Tensor, beta: Tensor):
    """Gradients of ``_normalize`` with respect to its input, gamma and beta:
    dx = inv * (dxn - mean(dxn) - xn * mean(dxn * xn)), dxn = g * gamma."""
    d = g.shape[-1]
    mean = _inv_width(d, g.dtype.type)
    g, xn = g.reshape(-1, d), xn.reshape(-1, d)
    prod = g * xn
    dgamma = prod.sum(axis=0).reshape(gamma.data.shape)
    dbeta = g.sum(axis=0).reshape(beta.data.shape)
    dx = g * gamma.data
    np.multiply(dx, xn, out=prod)
    dx -= (dx @ mean)[:, None]
    dx -= np.multiply(xn, (prod @ mean)[:, None], out=prod)
    dx *= inv.reshape(-1, 1)
    return dx.reshape(inv.shape[:-1] + (d,)), dgamma, dbeta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    y, xn, inv = _normalize(x.data, gamma, beta)

    def grad_fn(g):
        dx, dgamma, dbeta = _normalize_grads(g, xn, inv, gamma, beta)
        return [(x, dx), (gamma, dgamma), (beta, dbeta)]

    return _make(y, (x, gamma, beta), grad_fn)


def _uint16_draws(rng, shape) -> np.ndarray:
    """``rng.integers(0, 65536, size=shape, dtype=np.uint16)``, draw for
    draw, leaving ``rng`` where that call would.

    ``integers`` takes each pair of 16-bit draws from one 32-bit draw, low
    half first, and each pair of 32-bit draws from one 64-bit output of the
    bit generator, low half first; a 32-bit half left over is buffered in
    the generator's state. So when the count is a multiple of four, nothing
    is buffered (``has_uint32`` is 0) and the machine is little-endian,
    the raw 64-bit outputs viewed as uint16 are the same values, at about
    half the cost. Otherwise, and for generators without that state
    (MT19937, or an object with no ``bit_generator``), ``integers`` runs.
    """
    n = math.prod(shape)
    bits = getattr(rng, "bit_generator", None)
    if (n % 4 == 0 and sys.byteorder == "little" and bits is not None
            and bits.state.get("has_uint32") == 0):
        return bits.random_raw(n // 4).view(np.uint16).reshape(shape)
    return rng.integers(0, 65536, size=shape, dtype=np.uint16)


def _dropout_mask(shape, p: float, rng, dtype):
    """One dropout draw at ``shape``: a boolean keep mask and the scale of
    the kept entries, a 0-d array of ``dtype``; ``(None, None)`` where
    dropout is the identity. ``dropout``, ``attention`` and
    ``residual_layer_norm`` all draw through here.

    One ``_uint16_draws`` call per mask, the values of ``rng.integers(0,
    65536, size=shape, dtype=np.uint16)``: an entry is kept when its draw
    is at least ``thr = round(p * 65536)`` and then weighs 65536 / (65536 -
    thr). A p that rounds to ``thr == 0``, evaluation's p = 0 included,
    draws nothing.

    The mask takes one byte per entry, where a mask of the input's dtype
    would take four or eight, and the nodes keep it until backward. They
    apply it with ``_apply_mask``, whose result has the bits of ``a *
    (keep * scale)`` for finite ``a``, signed zeros included.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    thr = round(p * 65536)
    if thr == 65536:
        raise ValueError(f"dropout probability {p} rounds to 1 at 16-bit resolution")
    if thr == 0:
        return None, None
    return _uint16_draws(rng, shape) >= thr, np.asarray(65536 / (65536 - thr), dtype=dtype)


def _apply_mask(a: np.ndarray, keep, scale, out=None) -> np.ndarray:
    """``a * keep``, then scaled in place unless ``scale`` is None: dropped
    entries become a signed zero, kept ones ``a * scale``. ``a`` itself
    where ``keep`` is None; ``out`` may be ``a``."""
    if keep is None:
        return a
    out = np.multiply(a, keep, out=out)
    if scale is not None:
        out *= scale
    return out


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
    keep, scale = _dropout_mask(x.data.shape, p, rng, x.data.dtype)
    if keep is None:
        return x
    return _make(_apply_mask(x.data, keep, scale), (x,),
                 lambda g: [(x, _apply_mask(g, keep, scale))])


# ---------------------------------------------------------------------------
# fused nodes: one graph node each for a composite the model runs per
# sublayer, so that backward keeps one or two saved arrays alive instead
# of every intermediate of the composite


def _split_heads(a: np.ndarray, heads) -> np.ndarray:
    """(B, T, h·d_head) -> a (B, h, T, d_head) view; ``heads`` is (h, d_head)."""
    return a.reshape(a.shape[:2] + heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, h, T, d_head) -> a (B, T, h·d_head) copy."""
    return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], -1)


def _head_scale(d_head: int, dtype) -> np.ndarray:
    """1/sqrt(d_head) as a 0-d array of ``dtype``, the factor ``_attend`` folds into q."""
    return np.asarray(1.0 / math.sqrt(d_head), dtype=dtype)


def _attend(qh, kh, vh, scale, bias=None, keep=None, drop_scale=None):
    """The forward of ``attention`` on head views: ``dropout(softmax(q kᵀ
    scale + bias)) v`` of (B, h, Tq, d_head) queries over (B, h, Tk, d_head)
    keys and values. ``keep`` and ``drop_scale`` are a ``_dropout_mask``
    draw at the (B, h, Tq, Tk) scores' shape, None for none.

    Returns the (B, h, Tq, d_head) context, the exponentiated scores ``e``,
    each row's reciprocal sum ``r`` and the row scale that multiplied the
    products, ``r`` times the dropout scale; ``attention``'s backward reads
    all four.
    """
    e = (qh * scale) @ kh.swapaxes(-1, -2)
    if bias is not None:
        e += np.asarray(bias, dtype=e.dtype)[..., None, :, :]
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    r = 1.0 / e.sum(axis=-1, keepdims=True)
    row_scale = r if keep is None else r * drop_scale
    ctx = _apply_mask(e, keep, None) @ vh
    ctx *= row_scale
    return ctx, e, r, row_scale


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, bias, p: float, rng) -> Tensor:
    """Multi-head ``dropout(softmax(q kᵀ / sqrt(d_head) + bias)) v`` as one node.

    ``q`` is (B, Tq, d), ``k`` and ``v`` are (B, Tk, d): all ``n_heads``
    heads side by side, viewed inside as (B, n_heads, T, d_head), d_head =
    d / n_heads; the (B, Tq, d) context and the gradients are merged back.
    ``bias`` is None or a constant array of two or more axes that
    broadcasts against the (B, Tq, Tk) scores, shared by all heads. The
    mask is the one ``dropout`` would draw at the probabilities' (B,
    n_heads, Tq, Tk) shape.

    As in FlashAttention, the softmax is never normalized at full size:
    1/sqrt(d_head) is folded into q, the forward keeps the exponentiated
    scores ``e`` and each row's reciprocal sum ``r``, and ``r`` times the
    dropout scale multiplies the (B, n_heads, Tq, d_head) products
    instead. The backward takes the softmax's row term as D = dO·O, the
    row dot product of the output gradient and the output, so it keeps no
    other array of the scores' shape.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 3 or kd.ndim != 3 or kd.shape != vd.shape or kd.shape[0] != qd.shape[0]
            or kd.shape[2] != qd.shape[2] or n_heads < 1 or qd.shape[2] % n_heads):
        raise ValueError(f"attention shape mismatch: q {qd.shape}, k {kd.shape}, v {vd.shape}, "
                         f"n_heads {n_heads}")
    heads = (n_heads, qd.shape[2] // n_heads)
    qh, kh, vh = (_split_heads(a, heads) for a in (qd, kd, vd))
    scale = _head_scale(heads[1], qd.dtype)
    # the scores' shape and dtype, drawn before they exist: nothing draws in between
    keep, drop_scale = _dropout_mask(qh.shape[:3] + kh.shape[2:3], p, rng,
                                     np.result_type(qd, kd))
    ctx, e, r, row_scale = _attend(qh, kh, vh, scale, bias, keep, drop_scale)
    data = _merge_heads(ctx)

    def grad_fn(g):
        g_heads = g.reshape(g.shape[:2] + heads)
        gs = g_heads.transpose(0, 2, 1, 3) * row_scale
        grads = []
        if v.requires_grad:
            grads.append((v, _merge_heads(_apply_mask(e, keep, None).swapaxes(-1, -2) @ gs)))
        if q.requires_grad or k.requires_grad:
            # D = dO·O per head and row, times r: the softmax backward's row
            # term at the scale of the unnormalized scores
            d_r = (g_heads * data.reshape(g_heads.shape)).sum(axis=-1).transpose(0, 2, 1)[..., None]
            d_r *= r
            # the scores' gradient e * (mask * (dO r s) vᵀ - D r), in place
            ds = gs @ vh.swapaxes(-1, -2)
            _apply_mask(ds, keep, None, out=ds)
            ds -= d_r
            ds *= e
            if q.requires_grad:
                dq = ds @ kh
                dq *= scale
                grads.append((q, _merge_heads(dq)))
            if k.requires_grad:
                dk = ds.swapaxes(-1, -2) @ qh
                dk *= scale
                grads.append((k, _merge_heads(dk)))
        return grads

    return _make(data, (q, k, v), grad_fn)


def residual_layer_norm(x: Tensor, h: Tensor, w: Tensor, b: Tensor, gamma: Tensor,
                        beta: Tensor, p: float, rng) -> Tensor:
    """``layer_norm(x + dropout(h @ w + b))`` as one node: the output
    projection and post-norm epilogue of a transformer sublayer, after
    Megatron-LM's fused bias-dropout-add.

    ``x`` is the (..., d) residual stream. ``h`` is the sublayer's output
    before its projection (the attention context or the FFN's GELU
    activations), a (..., D) tensor with ``x``'s leading axes, and ``w``
    (D, d) and ``b`` (d,) are that projection, computed as ``linear``
    computes it. The mask is the one ``dropout`` would draw at ``x``'s
    shape. The projected output is never a graph tensor: backward keeps
    ``h``, the 1-byte mask and the normalized sum, and recomputes nothing.
    """
    _check_affine("residual_layer_norm", h, w, b)
    if x.data.shape != h.data.shape[:-1] + w.data.shape[1:]:
        raise ValueError(f"residual_layer_norm shape mismatch: {x.data.shape} and "
                         f"{h.data.shape} x {w.data.shape}")
    s = _affine(h.data, w.data, b.data)
    keep, scale = _dropout_mask(s.shape, p, rng, s.dtype)
    _apply_mask(s, keep, scale, out=s)
    s += x.data
    out, xn, inv = _normalize(s, gamma, beta)

    def grad_fn(g):
        ds, dgamma, dbeta = _normalize_grads(g, xn, inv, gamma, beta)
        grads = [(x, ds), (gamma, dgamma), (beta, dbeta)]
        if h.requires_grad or w.requires_grad or b.requires_grad:
            grads += _affine_grads(_apply_mask(ds, keep, scale), h, w, b)
        return grads

    return _make(out, (x, h, w, b, gamma, beta), grad_fn)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between two vectors, with a guarded denominator.

    The guard max(|a||b|, _COS_EPS) keeps the value defined when either
    vector is zero, which tanh-pooled encoders produce at all-zero
    initialization.
    """
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(f"cosine_similarity needs equal-length vectors, got {a.data.shape} and {b.data.shape}")
    num = tsum(mul(a, b))
    na = sqrt(tsum(mul(a, a)))
    nb = sqrt(tsum(mul(b, b)))
    return div(num, clamp_min(mul(na, nb), _COS_EPS))
