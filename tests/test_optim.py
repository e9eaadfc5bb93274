from __future__ import annotations

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp.optim import Parameter, adamw_step, global_grad_norm


def test_first_step_moves_by_learning_rate(float64):
    # bias correction makes the very first update lr * g / (|g| + eps)
    p = Parameter("w", np.array([1.0]))
    p.grad = np.array([1.0])
    adamw_step([p], lr=2e-5)
    assert abs((1.0 - p.data[0]) - 2e-5) < 1e-9


def test_zero_grad_zero_decay_leaves_parameter(rng):
    w0 = rng.normal(size=5)
    p = Parameter("w", w0)
    p.grad = np.zeros(5, dtype=np.float32)
    adamw_step([p], lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, w0.astype(np.float32))


def test_decay_shrinks_weights_without_gradient_signal(rng):
    w0 = rng.normal(size=5).astype(np.float32)
    p = Parameter("w", w0.copy())
    p.grad = np.zeros(5, dtype=np.float32)
    adamw_step([p], lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(p.data, w0 * (1 - 0.1 * 0.01), rtol=1e-6)


def test_missing_grad_names_parameter():
    p = Parameter("encoder.pool.w", np.ones(3))
    with pytest.raises(ValueError, match="encoder.pool.w"):
        adamw_step([p], lr=1e-3)


def test_step_counter_and_grads_untouched():
    p = Parameter("w", np.ones(3))
    g = np.full(3, 0.5, dtype=np.float32)
    p.grad = g.copy()
    adamw_step([p], lr=1e-3)
    adamw_step([p], lr=1e-3)
    assert p.step == 2
    np.testing.assert_array_equal(p.grad, g)


def test_clip_norm_scales_update():
    big = Parameter("a", np.zeros(2))
    big.grad = np.array([30.0, 40.0], dtype=np.float32)  # norm 50
    assert abs(global_grad_norm([big]) - 50.0) < 1e-4
    ref = Parameter("b", np.zeros(2))
    ref.grad = np.array([0.6, 0.8], dtype=np.float32)  # already norm 1
    adamw_step([big], lr=1e-2, clip_norm=1.0)
    adamw_step([ref], lr=1e-2)
    np.testing.assert_allclose(big.data, ref.data, rtol=1e-4)


def test_matches_reference_adamw_trajectory(rng, float64):
    """Five steps against a straight transcription of the update equations."""
    w = rng.normal(size=4)
    grads = [rng.normal(size=4) for _ in range(5)]
    p = Parameter("w", w.copy())
    ref = w.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 0.05
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        adamw_step([p], lr=lr, weight_decay=wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref * (1 - lr * wd)
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(p.data, ref, rtol=1e-12)


def _adamw_with_temporaries(params, lr, betas, eps, weight_decay, clip_norm):
    """The update written as one expression per line, each making new arrays."""
    scale = 1.0
    if clip_norm is not None:
        norm = global_grad_norm(params)
        if norm > clip_norm:
            scale = clip_norm / (norm + 1e-12)
    beta1, beta2 = betas
    for p in params:
        g = p.grad if scale == 1.0 else p.grad * scale
        p.step += 1
        p.m *= beta1
        p.m += (1.0 - beta1) * g
        p.v *= beta2
        p.v += (1.0 - beta2) * (g * g)
        m_hat = p.m / (1.0 - beta1 ** p.step)
        v_hat = p.v / (1.0 - beta2 ** p.step)
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("clip_norm", [None, 0.5])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_buffered_update_is_bit_identical_to_temporaries(rng, dtype, weight_decay, clip_norm):
    shapes = [(7, 5), (5,), (3, 4, 2)]
    with ad.precision(dtype):
        ours = [Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
        ref = [Parameter(f"p{i}", p.data.copy()) for i, p in enumerate(ours)]
    for _ in range(6):
        for p, r in zip(ours, ref):
            g = rng.normal(size=p.data.shape).astype(p.data.dtype)
            p.grad, r.grad = g, g.copy()
        adamw_step(ours, lr=1e-2, weight_decay=weight_decay, clip_norm=clip_norm)
        _adamw_with_temporaries(ref, 1e-2, (0.9, 0.999), 1e-8, weight_decay, clip_norm)
    for p, r in zip(ours, ref):
        assert p.data.dtype == np.dtype(dtype)
        for a, b in ((p.data, r.data), (p.m, r.m), (p.v, r.v)):
            np.testing.assert_array_equal(a, b)


def test_parameter_is_a_tensor_autodiff_takes_directly(float64):
    p = Parameter("w", np.array([1.0, -2.0, 3.0]))
    assert isinstance(p, ad.Tensor)
    assert p.tensor is p
    ad.tsum(ad.mul(p, p)).backward()
    np.testing.assert_array_equal(p.grad, 2.0 * p.data)


def test_parameter_takes_no_dtype_argument():
    with pytest.raises(TypeError):
        Parameter("w", np.ones(2), dtype=np.float64)
