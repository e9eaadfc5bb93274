"""Trainable parameters and the AdamW update with decoupled weight decay."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW's moment decay rates and denominator floor


class Parameter(Tensor):
    """A trainable leaf tensor plus its name, AdamW first/second moment
    buffers and step counter; autodiff ops take it like any tensor."""

    __slots__ = ("name", "m", "v", "step")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        # np.zeros leaves the pages unwritten until AdamW's first step, and a
        # checkpoint restore replaces both buffers without writing them
        self.m = np.zeros(self.data.shape, self.data.dtype)
        self.v = np.zeros(self.data.shape, self.data.dtype)
        self.step = 0

    # the parameter itself, for callers written against ``p.tensor``
    tensor = property(lambda self: self)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def adamw_step(
    params,
    lr: float,
    weight_decay: float = 0.0,
    clip_norm: float | None = None,
    grad_norm: float | None = None,
) -> None:
    """One AdamW update over ``params`` with decay rates ``BETA1`` and
    ``BETA2`` and floor ``ADAM_EPS``; gradients are left untouched.

    Weight decay is decoupled from the adaptive gradient term and is applied
    to the pre-update weights. Optional global-norm clipping scales the
    gradients used for the update without mutating the stored buffers;
    ``grad_norm``, when given, is ``global_grad_norm(params)`` already
    computed by the caller, so it is not computed twice.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter '{p.name}' has no gradient; run backward first")

    scale = 1.0
    if clip_norm is not None:
        norm = global_grad_norm(params) if grad_norm is None else grad_norm
        if norm > clip_norm:
            scale = clip_norm / (norm + 1e-12)

    for p in params:
        g = p.grad if scale == 1.0 else p.grad * scale
        p.step += 1
        # m += (1-b1) g;  v += (1-b2) g^2;  data -= lr m_hat / (sqrt(v_hat) + eps),
        # the same operations in the same order, each written into ``buf``,
        # ``den`` or a moment instead of a fresh temporary
        buf = np.multiply(g, 1.0 - BETA1)
        p.m *= BETA1
        p.m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - BETA2
        p.v *= BETA2
        p.v += buf
        den = np.divide(p.v, 1.0 - BETA2 ** p.step)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(p.m, 1.0 - BETA1 ** p.step, out=buf)
        buf *= lr
        buf /= den
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        p.data -= buf
