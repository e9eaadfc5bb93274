"""Per-operation scalar-loss builders for gradient checking.

Each builder returns (rebuild, leaf_tensors): ``rebuild()`` constructs the
scalar loss from the leaves' current array contents, so finite differences
can perturb the arrays in place and re-evaluate.
"""
from __future__ import annotations

import numpy as np

from rsvp import autodiff as ad
from rsvp.autodiff import Tensor

DIFFERENTIABLE_OPS = (
    "add", "sub", "mul", "div", "neg", "tanh", "log", "sqrt", "sigmoid",
    "softplus", "gelu", "clamp_min", "matmul", "reshape", "transpose",
    "sum", "mean", "token_at", "narrow0", "softmax", "log_softmax",
    "embedding", "gather_last", "layer_norm", "dropout", "cosine_similarity",
    "linear", "attention", "residual_layer_norm",
)


# ---------------------------------------------------------------------------
# the composites the fused nodes replace, built from the public ops


def composite_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def composite_attention(q, k, v, bias, p, rng):
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), Tensor(scale))
    if bias is not None:
        scores = ad.add(scores, Tensor(bias))
    return ad.matmul(ad.dropout(ad.softmax(scores, axis=-1), p, rng), v)


def composite_residual_layer_norm(x, y, gamma, beta, p, rng):
    return ad.layer_norm(ad.add(x, ad.dropout(y, p, rng)), gamma, beta)


def _leaf(r, shape, scale=1.0):
    return Tensor(r.normal(0.0, scale, size=shape), requires_grad=True)


def make_builder(name: str, r: np.random.Generator, trial: int):
    if name in ("add", "sub", "mul", "div"):
        a = _leaf(r, (3, 4))
        b = Tensor(r.normal(size=(3, 4)) + (3.0 if name == "div" else 0.0), requires_grad=True)
        fn = getattr(ad, name)
        return (lambda: ad.tsum(fn(a, b))), [a, b]
    if name == "neg":
        a = _leaf(r, (5,))
        return (lambda: ad.tsum(ad.neg(a))), [a]
    if name in ("tanh", "sigmoid", "softplus", "gelu"):
        a = _leaf(r, (3, 5))
        fn = getattr(ad, name)
        return (lambda: ad.tsum(fn(a))), [a]
    if name in ("log", "sqrt"):
        a = Tensor(r.uniform(0.5, 3.0, size=(6,)), requires_grad=True)
        fn = getattr(ad, name)
        return (lambda: ad.tsum(fn(a))), [a]
    if name == "clamp_min":
        a = _leaf(r, (8,), scale=2.0)
        a.data[np.abs(a.data - 0.5) < 0.05] += 0.2
        return (lambda: ad.tsum(ad.clamp_min(a, 0.5))), [a]
    if name == "matmul":
        a = _leaf(r, (3, 4))
        b = _leaf(r, (4, 2))
        return (lambda: ad.tsum(ad.matmul(a, b))), [a, b]
    if name == "reshape":
        a = _leaf(r, (3, 4))
        return (lambda: ad.tsum(ad.mul(ad.reshape(a, (2, 6)), ad.reshape(a, (2, 6))))), [a]
    if name == "transpose":
        a = _leaf(r, (2, 3, 4))
        return (
            lambda: ad.tsum(ad.mul(ad.transpose(a, (2, 0, 1)), ad.transpose(a, (2, 0, 1))))
        ), [a]
    if name == "sum":
        a = _leaf(r, (3, 4))
        return (lambda: ad.tsum(ad.mul(ad.tsum(a, axis=1), ad.tsum(a, axis=1)))), [a]
    if name == "mean":
        a = _leaf(r, (3, 4))
        return (lambda: ad.tsum(ad.mul(ad.tmean(a, axis=0), ad.tmean(a, axis=0)))), [a]
    if name == "token_at":
        a = _leaf(r, (2, 5, 3))
        return (lambda: ad.tsum(ad.mul(ad.token_at(a, 2), ad.token_at(a, 2)))), [a]
    if name == "narrow0":
        a = _leaf(r, (6, 3))
        return (lambda: ad.tsum(ad.mul(ad.narrow0(a, 1, 4), ad.narrow0(a, 1, 4)))), [a]
    if name == "softmax":
        a = _leaf(r, (3, 5))
        w = Tensor(r.normal(size=(3, 5)))
        return (lambda: ad.tsum(ad.mul(ad.softmax(a, axis=1), w))), [a]
    if name == "log_softmax":
        a = _leaf(r, (3, 5))
        w = Tensor(r.normal(size=(3, 5)))
        return (lambda: ad.tsum(ad.mul(ad.log_softmax(a, axis=1), w))), [a]
    if name == "embedding":
        table = _leaf(r, (7, 4))
        ids = r.integers(0, 7, size=(3, 5))
        return (
            lambda: ad.tsum(ad.mul(ad.embedding(table, ids), ad.embedding(table, ids)))
        ), [table]
    if name == "gather_last":
        a = _leaf(r, (4, 6))
        ids = r.integers(0, 6, size=4)
        return (
            lambda: ad.tsum(ad.mul(ad.gather_last(a, ids), ad.gather_last(a, ids)))
        ), [a]
    if name == "layer_norm":
        x = _leaf(r, (2, 3, 6))
        gamma = Tensor(r.normal(1.0, 0.1, size=6), requires_grad=True)
        beta = Tensor(r.normal(0.0, 0.1, size=6), requires_grad=True)
        w = Tensor(r.normal(size=(2, 3, 6)))
        return (lambda: ad.tsum(ad.mul(ad.layer_norm(x, gamma, beta), w))), [x, gamma, beta]
    if name == "dropout":
        a = _leaf(r, (4, 5))
        return (
            lambda: ad.tsum(ad.dropout(a, 0.4, np.random.default_rng(trial)))
        ), [a]
    if name == "cosine_similarity":
        a = _leaf(r, (6,))
        b = _leaf(r, (6,))
        return (lambda: ad.cosine_similarity(a, b)), [a, b]
    if name == "linear":
        x = _leaf(r, (2, 3, 4))
        w = _leaf(r, (4, 5))
        b = _leaf(r, (5,))
        return (lambda: ad.tsum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b)))), [x, w, b]
    if name == "attention":
        q = _leaf(r, (2, 2, 3, 4))
        k = _leaf(r, (2, 2, 5, 4))
        v = _leaf(r, (2, 2, 5, 4))
        bias = r.normal(size=(2, 1, 1, 5)) if trial % 2 else None
        w = Tensor(r.normal(size=(2, 2, 3, 4)))
        return (lambda: ad.tsum(ad.mul(ad.attention(
            q, k, v, bias, 0.3, np.random.default_rng(trial)), w))), [q, k, v]
    if name == "residual_layer_norm":
        x = _leaf(r, (2, 3, 6))
        y = _leaf(r, (2, 3, 6))
        gamma = Tensor(r.normal(1.0, 0.1, size=6), requires_grad=True)
        beta = Tensor(r.normal(0.0, 0.1, size=6), requires_grad=True)
        w = Tensor(r.normal(size=(2, 3, 6)))
        return (lambda: ad.tsum(ad.mul(ad.residual_layer_norm(
            x, y, gamma, beta, 0.4, np.random.default_rng(trial)), w))), [x, y, gamma, beta]
    raise KeyError(name)
