from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp.autodiff import Tensor

from . import op_builders
from .oracles import finite_difference_grads, max_rel_error


def _leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def _check_grads(build, arrays, tol=1e-5, h=1e-5):
    """build() -> scalar Tensor from the given arrays; compares backward
    gradients against central finite differences."""
    loss = build()
    loss.backward()
    analytic = [t.grad for t in arrays]
    numeric = finite_difference_grads(lambda: build().item(), [t.data for t in arrays], h=h)
    for a, n in zip(analytic, numeric):
        assert a is not None
        assert max_rel_error(a, n) <= tol


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.matmul(eye, m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)

    def test_gradients_match_finite_differences(self, rng, float64):
        a = _leaf(rng, (3, 4))
        b = _leaf(rng, (4, 2))
        _check_grads(lambda: ad.tsum(ad.matmul(a, b)), [a, b])

    def test_batched_gradients(self, rng, float64):
        a = _leaf(rng, (2, 3, 3, 4))
        b = _leaf(rng, (2, 3, 4, 2))
        _check_grads(lambda: ad.tsum(ad.matmul(a, b)), [a, b])

    def test_weight_broadcast_over_leading_dimensions(self, rng, float64):
        a = _leaf(rng, (2, 3, 4))
        b = _leaf(rng, (4, 5))
        _check_grads(lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])

    def test_single_matrix_input_keeps_the_plain_product(self, rng):
        x = rng.normal(size=(1, 5, 6)).astype(np.float32)
        w = rng.normal(size=(6, 3)).astype(np.float32)
        assert np.array_equal(ad.matmul(Tensor(x), Tensor(w)).data, x @ w)


class TestLinear:
    """x @ W + b as one node: one 2-D GEMM over the flattened rows."""

    def test_gradients_match_finite_differences(self, rng, float64):
        x = _leaf(rng, (2, 3, 4))
        w = _leaf(rng, (4, 5))
        b = _leaf(rng, (5,))
        _check_grads(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))), [x, w, b])

    def test_float32_matches_batched_product_and_batch_sum(self, rng):
        x = rng.normal(size=(3, 7, 16)).astype(np.float32)
        w = rng.normal(size=(16, 8)).astype(np.float32)
        bias = rng.normal(size=8).astype(np.float32)
        g = rng.normal(size=(3, 7, 8)).astype(np.float32)
        a, b, c = (Tensor(arr, requires_grad=True) for arr in (x, w, bias))
        out = ad.linear(a, b, c)
        ad.tsum(ad.mul(out, Tensor(g))).backward()
        assert out.dtype == a.grad.dtype == b.grad.dtype == c.grad.dtype == np.float32
        assert out.shape == (3, 7, 8) and a.grad.shape == x.shape and b.grad.shape == w.shape
        np.testing.assert_allclose(out.data, np.matmul(x, w) + bias, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(a.grad, np.matmul(g, w.T), rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(b.grad, np.matmul(x.transpose(0, 2, 1), g).sum(axis=0),
                                   rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(c.grad, g.sum(axis=(0, 1)), rtol=1e-5, atol=1e-5)

    def test_single_matrix_input_is_the_plain_product_plus_bias(self, rng):
        x = rng.normal(size=(1, 5, 6)).astype(np.float32)
        w = rng.normal(size=(6, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        assert np.array_equal(ad.linear(Tensor(x), Tensor(w), Tensor(b)).data, (x[0] @ w + b)[None])

    @pytest.mark.parametrize("shapes", [((4, 6), (6, 3), (4,)), ((2, 3, 6), (6, 4), (3,)),
                                        ((2, 3, 5), (6, 4), (4,)), ((2, 3, 6), (6,), (6,))])
    def test_shape_mismatch_rejected(self, shapes):
        x, w, b = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ad.linear(x, w, b)


def _fused_and_composite(fused, composite, make_inputs, seed):
    """Run ``fused`` and ``composite`` (each ``fn(*tensors, rng=...)``)
    on equal float64 inputs from ``make_inputs()`` with equal mask
    generators; backpropagate one fixed projection of each output.
    Returns, per side, (output, the gradient of each input that requires
    grad, the generator's state after the forward)."""
    sides = []
    for fn in (fused, composite):
        inputs = make_inputs()
        gen = np.random.default_rng(seed)
        out = fn(*inputs, rng=gen)
        state = gen.bit_generator.state
        weights = np.random.default_rng(99).normal(size=out.shape)
        ad.backward(ad.tsum(ad.mul(out, Tensor(weights))))
        grads = [t.grad for t in inputs if t.requires_grad]
        assert all(g is not None for g in grads)
        assert all(t.grad is None for t in inputs if not t.requires_grad)
        sides.append((out.data, grads, state))
    return sides


def _assert_fused_matches(sides, tol=1e-12):
    (out_f, grads_f, state_f), (out_c, grads_c, state_c) = sides
    assert out_f.dtype == out_c.dtype == np.float64
    assert np.abs(out_f - out_c).max() <= tol
    assert len(grads_f) == len(grads_c)
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f.shape == g_c.shape
        assert np.abs(g_f - g_c).max() <= tol * max(1.0, np.abs(g_c).max())
    assert state_f == state_c


def _inputs(shapes, requires, seed=5):
    """A maker of float64 leaves of the given shapes; every call gives the same values."""
    def make():
        r = np.random.default_rng(seed)
        return [Tensor(r.normal(size=s), requires_grad=q) for s, q in zip(shapes, requires)]
    return make


class TestFusedLinear:
    @pytest.mark.parametrize("x_shape", [(4, 6), (2, 3, 6), (1, 1, 6)])
    @pytest.mark.parametrize("x_requires", [True, False])
    def test_matches_composite(self, x_shape, x_requires):
        with ad.precision("float64"):
            make = _inputs([x_shape, (6, 3), (3,)], [x_requires, True, True])
            sides = _fused_and_composite(lambda x, w, b, rng: ad.linear(x, w, b),
                                         lambda x, w, b, rng: op_builders.composite_linear(x, w, b),
                                         make, seed=0)
        _assert_fused_matches(sides)

    def test_no_input_gradient_for_an_input_without_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6)))
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = ad.linear(x, w, b)
        yielded = [t for t, _ in out._grad_fn(np.ones(out.shape, dtype=out.dtype))]
        assert len(yielded) == 2 and yielded[0] is w and yielded[1] is b


def _heads(a, n_heads):
    """(B, T, h * d_head) -> (B, h, T, d_head)."""
    B, T, d = a.shape
    return a.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


ATTENTION_CASES = {
    # (B, h, Tq, Tk, d_head), bias shape or None; the inputs are (B, T, h * d_head)
    "self_with_key_bias": ((2, 3, 5, 5, 4), (2, 1, 5)),
    "causal_bias": ((2, 2, 4, 4, 3), (4, 4)),
    "no_bias": ((2, 2, 4, 4, 3), None),
    "one_query_row": ((1, 2, 1, 6, 4), None),
    "cross_unequal_lengths": ((2, 2, 3, 7, 4), (2, 1, 7)),
}


class TestFusedAttention:
    """ad.attention against the head split, matmul/scale/bias/softmax/
    dropout/matmul and head merge composite it replaces, in float64."""

    @staticmethod
    def _make(case, requires):
        (B, h, Tq, Tk, dh), bias_shape = ATTENTION_CASES[case]
        make = _inputs([(B, Tq, h * dh), (B, Tk, h * dh), (B, Tk, h * dh)], requires)
        bias = None
        if bias_shape is not None:
            bias = np.random.default_rng(8).normal(size=bias_shape)
            bias[..., -1] = -1e9  # a masked key, as padding gives
        return make, h, bias

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])  # p = 0 is the model's evaluation mode
    def test_matches_composite(self, case, p):
        with ad.precision("float64"):
            make, h, bias = self._make(case, (True, True, True))
            sides = _fused_and_composite(
                lambda q, k, v, rng: ad.attention(q, k, v, h, bias, p, rng),
                lambda q, k, v, rng: op_builders.composite_attention(q, k, v, h, bias, p, rng),
                make, seed=21)
        _assert_fused_matches(sides)

    @pytest.mark.parametrize("requires", [(True, False, False), (False, True, True),
                                          (False, False, True), (True, True, False)])
    def test_inputs_without_grad(self, requires):
        with ad.precision("float64"):
            make, h, bias = self._make("cross_unequal_lengths", requires)
            sides = _fused_and_composite(
                lambda q, k, v, rng: ad.attention(q, k, v, h, bias, 0.3, rng),
                lambda q, k, v, rng: op_builders.composite_attention(q, k, v, h, bias, 0.3, rng),
                make, seed=22)
        _assert_fused_matches(sides)

    def test_closure_yields_only_inputs_that_require_grad(self, rng):
        q = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        k, v = (Tensor(rng.normal(size=(1, 5, 8))) for _ in range(2))
        out = ad.attention(q, k, v, 2, None, 0.2, np.random.default_rng(0))
        assert [t for t, _ in out._grad_fn(np.ones(out.shape))] == [q]

    def test_rates_rounding_to_zero_draw_nothing(self, rng):
        q, k, v = (Tensor(rng.normal(size=(1, 3, 8))) for _ in range(3))
        for p in (0.0, 1e-6):
            gen = np.random.default_rng(0)
            before = gen.bit_generator.state
            ad.attention(q, k, v, 2, None, p, gen)
            assert gen.bit_generator.state == before

    def test_mask_is_one_16_bit_draw_at_the_probabilities_shape(self, rng):
        # three heads of width 6 over 6 keys; each head's values are the identity
        q = Tensor(rng.normal(size=(2, 4, 18)))
        k = Tensor(rng.normal(size=(2, 6, 18)))
        v = Tensor(np.tile(np.eye(6), (2, 1, 3)))
        out = ad.attention(q, k, v, 3, None, 0.3, np.random.default_rng(4))
        draw = np.random.default_rng(4).integers(0, 65536, size=(2, 3, 4, 6), dtype=np.uint16)
        probs = ad.attention(q, k, v, 3, None, 0.0, None).data  # v = I: the probabilities
        thr = round(0.3 * 65536)
        expected = np.where(draw >= thr, _heads(probs, 3) * (65536 / (65536 - thr)), 0.0)
        np.testing.assert_allclose(_heads(out.data, 3), expected.astype(np.float32),
                                   rtol=1e-6, atol=0)

    def test_shape_mismatch_rejected(self):
        q = Tensor(np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="attention shape mismatch"):
            ad.attention(q, Tensor(np.zeros((1, 5, 3))), Tensor(np.zeros((1, 5, 3))),
                         2, None, 0.0, None)
        with pytest.raises(ValueError, match="attention shape mismatch"):
            ad.attention(q, Tensor(np.zeros((1, 5, 4))), Tensor(np.zeros((1, 6, 4))),
                         2, None, 0.0, None)
        with pytest.raises(ValueError, match="attention shape mismatch"):
            ad.attention(q, Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 5, 4))),
                         2, None, 0.0, None)

    def test_width_not_divisible_by_heads_rejected(self):
        q, k, v = (Tensor(np.zeros((1, 3, 6))) for _ in range(3))
        with pytest.raises(ValueError, match="attention shape mismatch.*n_heads 4"):
            ad.attention(q, k, v, 4, None, 0.0, None)


class TestFusedResidualLayerNorm:
    """ad.residual_layer_norm(x, h, w, b, gamma, beta, p, rng) against
    layer_norm(add(x, dropout(linear(h, w, b)))): within 1e-12 in float64,
    bit for bit in float32, output and all six gradients."""

    @staticmethod
    def _make(shape, requires):
        """Inputs for a (..., 6) residual stream and (..., 4) sublayer
        output ``h``; ``requires`` says which of x and h require grad."""
        x_shape, h_shape = shape, shape[:-1] + (4,)
        make = _inputs([x_shape, h_shape, (4, 6), (6,), (6,), (6,)], requires + (True,) * 4)

        def inputs():
            x, h, w, b, gamma, beta = make()
            gamma.data += 1.0
            return [x, h, w, b, gamma, beta]
        return inputs

    @staticmethod
    def _sides(inputs, p):
        return _fused_and_composite(
            lambda *t, rng: ad.residual_layer_norm(*t, p, rng),
            lambda *t, rng: op_builders.composite_residual_layer_norm(*t, p, rng),
            inputs, seed=23)

    # shape1 is the [CLS]-only (B, 1, d) row of the last encoder block
    @pytest.mark.parametrize("shape", [(2, 5, 6), (3, 1, 6), (4, 6)])
    @pytest.mark.parametrize("p", [0.0, 0.4])
    @pytest.mark.parametrize("requires", [(True, True), (True, False), (False, True)])
    def test_matches_composite(self, shape, p, requires):
        with ad.precision("float64"):
            sides = self._sides(self._make(shape, requires), p)
        _assert_fused_matches(sides)

    @pytest.mark.parametrize("shape", [(2, 5, 6), (3, 1, 6), (4, 6)])
    @pytest.mark.parametrize("p", [0.0, 0.4])
    @pytest.mark.parametrize("requires", [(True, True), (True, False), (False, True)])
    def test_float32_bit_for_bit(self, shape, p, requires):
        with ad.precision("float32"):
            (out_f, grads_f, state_f), (out_c, grads_c, state_c) = self._sides(
                self._make(shape, requires), p)
        assert out_f.dtype == out_c.dtype == np.float32
        assert out_f.tobytes() == out_c.tobytes()
        assert len(grads_f) == len(grads_c) == sum(requires) + 4
        for g_f, g_c in zip(grads_f, grads_c):
            assert g_f.dtype == np.float32 and g_f.shape == g_c.shape
            assert g_f.tobytes() == g_c.tobytes()
        assert state_f == state_c

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_no_grad_eval_path(self, precision):
        with ad.precision(precision), ad.no_grad():
            tensors = self._make((3, 1, 6), (True, True))()
            fused = ad.residual_layer_norm(*tensors, 0.0, None)
            composite = op_builders.composite_residual_layer_norm(*tensors, 0.0, None)
        assert not fused.requires_grad and fused._grad_fn is None and fused._parents == ()
        assert fused.data.dtype == np.dtype(precision)
        assert fused.data.tobytes() == composite.data.tobytes()

    def test_closure_yields_only_inputs_that_require_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6)))
        h = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b, gamma, beta = (Tensor(rng.normal(size=6)) for _ in range(3))
        out = ad.residual_layer_norm(x, h, w, b, gamma, beta, 0.3, np.random.default_rng(0))
        yielded = out._grad_fn(np.ones(out.shape, dtype=out.dtype))
        assert [t for t, _ in yielded if t.requires_grad] == [w]
        assert not any(t is h or t is b for t, _ in yielded)

    def test_shape_mismatch_rejected(self):
        g = Tensor(np.ones(4))
        x, h, w = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 1, 5))), Tensor(np.zeros((5, 4)))
        with pytest.raises(ValueError, match="residual_layer_norm shape mismatch"):
            ad.residual_layer_norm(x, h, w, g, g, g, 0.0, None)
        h = Tensor(np.zeros((2, 3, 6)))
        with pytest.raises(ValueError, match="residual_layer_norm shape mismatch"):
            ad.residual_layer_norm(x, h, w, g, g, g, 0.0, None)


class TestGelu:
    def test_float32_erf_against_math_erf(self):
        erf = np.vectorize(math.erf)
        x = np.concatenate([np.linspace(-10.0, 10.0, 400_001), [np.inf, -np.inf]]).astype(np.float32)
        y = ad._erf_f32(x)
        assert y.dtype == np.float32
        assert np.abs(y.astype(np.float64) - erf(x.astype(np.float64))).max() <= 1e-6
        assert np.array_equal(ad._erf_f32(-x), -y)
        assert np.abs(y).max() <= 1.0
        assert y[-2] == 1.0 and y[-1] == -1.0

    def test_float64_equals_math_erf_formula(self, rng, float64):
        erf = np.vectorize(math.erf)
        x = rng.normal(0.0, 3.0, size=(4, 9, 128))
        y = ad.gelu(Tensor(x)).data
        assert y.dtype == np.float64
        assert np.array_equal(y, x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))))

    @pytest.mark.parametrize("shape", [(1, 1, 256), (2, 16, 256)])
    def test_float32_small_and_large_inputs_match_math_erf(self, rng, shape):
        erf = np.vectorize(math.erf)
        x = rng.normal(0.0, 3.0, size=shape).astype(np.float32)
        y = ad.gelu(Tensor(x)).data
        ref = x.astype(np.float64) * 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
        assert y.dtype == np.float32
        np.testing.assert_allclose(y, ref, rtol=1e-5, atol=5e-6)

    def test_float32_row_bits_do_not_depend_on_batch_size(self, rng):
        # one (1, 1, 256) row, as batch-1 scoring and each decoding step
        # compute it, equals the same row inside a batch of 8
        x = rng.normal(0.0, 3.0, size=(8, 1, 256)).astype(np.float32)
        assert np.array_equal(ad.gelu(Tensor(x)).data[:1], ad.gelu(Tensor(x[:1])).data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_zero_d_input_equals_one_element(self, dtype):
        with ad.precision(dtype):
            a, b = Tensor(np.array(0.7), requires_grad=True), Tensor(np.array([0.7]), requires_grad=True)
            ya, yb = ad.gelu(a), ad.gelu(b)
            assert ya.data.shape == () and ya.data == yb.data[0]
            ad.backward(ya)
            ad.backward(ad.tsum(yb))
            assert a.grad.shape == () and a.grad == b.grad[0]


class TestExpit:
    @pytest.mark.parametrize("dtype,max_ulp", [(np.float32, 4), (np.float64, 3)])
    def test_against_extended_precision(self, rng, dtype, max_ulp):
        import mpmath

        lo = np.log(np.finfo(dtype).tiny)
        x = np.concatenate([rng.normal(0.0, 8.0, 2000), np.linspace(lo, 40.0, 2000)]).astype(dtype)
        y = ad.expit(x)
        assert y.dtype == dtype
        ref = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(float(v))))) for v in x])
        ulp = np.spacing(ref.astype(dtype)).astype(np.float64)
        assert (np.abs(y.astype(np.float64) - ref) / ulp).max() <= max_ulp

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturates_without_overflow(self, dtype):
        x = np.array([-1000.0, 0.0, 1000.0], dtype=dtype)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = ad.expit(x)
        assert y.dtype == dtype
        assert y.tolist() == [0.0, 0.5, 1.0]


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = ad.softmax(Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)

    def test_large_logits_do_not_overflow(self):
        out = ad.softmax(Tensor(np.array([1000.0, 0.0])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_matches_extended_precision(self, rng, float64):
        import mpmath

        from .oracles import mp_softmax

        x = rng.normal(size=5)
        out = ad.softmax(Tensor(x)).data
        expected = mp_softmax(x)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_slices_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        out = ad.softmax(x, axis=1).data
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty axis"):
            ad.softmax(Tensor(np.zeros((2, 0))), axis=1)


class TestCosineSimilarity:
    def test_orthogonal(self):
        out = ad.cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert abs(out.item()) < 1e-7

    def test_positive_scaling_invariance(self):
        out = ad.cosine_similarity(Tensor([2.0, 2.0]), Tensor([1.0, 1.0]))
        assert abs(out.item() - 1.0) < 1e-6

    def test_scale_invariance_random(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        base = ad.cosine_similarity(Tensor(a), Tensor(b)).item()
        for c in (0.01, 3.0, 250.0):
            scaled = ad.cosine_similarity(Tensor(c * a), Tensor(b)).item()
            assert abs(scaled - base) < 1e-6

    def test_matches_direct_formula(self, rng, float64):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        expected = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(ad.cosine_similarity(Tensor(a), Tensor(b)).item() - expected) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ad.cosine_similarity(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_self_similarity_is_one(self, rng):
        v = rng.normal(size=5)
        assert abs(ad.cosine_similarity(Tensor(v), Tensor(v)).item() - 1.0) < 1e-6


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_is_identity(self, rng):
        # evaluation is p = 0, which needs no generator
        x = Tensor(rng.normal(size=(10,)))
        out = ad.dropout(x, 0.0, None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zeroed_fraction_near_p(self):
        x = Tensor(np.ones(10_000))
        out = ad.dropout(x, 0.5, np.random.default_rng(7))
        frac = float(np.mean(out.data == 0.0))
        assert abs(frac - 0.5) < 0.02

    def test_survivors_scaled(self):
        x = Tensor(np.ones(1000))
        out = ad.dropout(x, 0.25, np.random.default_rng(3))
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-6)

    def test_distinct_substreams_give_distinct_views(self):
        x = Tensor(np.ones(100))
        gen = np.random.default_rng(5)
        a = ad.dropout(x, 0.3, gen)
        b = ad.dropout(x, 0.3, gen)
        assert not np.array_equal(a.data, b.data)

    def test_invalid_p(self):
        x = Tensor(np.ones(3))
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(x, p, np.random.default_rng(0))

    @pytest.mark.parametrize("p,thr,scale", [(0.3, 19661, 65536 / 45875), (0.5, 32768, 2.0)])
    def test_mask_is_16_bit_draws_at_the_input_shape(self, p, thr, scale, rng):
        gen = np.random.default_rng(4)
        with ad.precision("float64"):
            x = _leaf(rng, (2, 3, 5))
            out = ad.dropout(x, p, gen)
        ref = np.random.default_rng(4)
        draw = ref.integers(0, 65536, size=(2, 3, 5), dtype=np.uint16)
        np.testing.assert_array_equal(out.data, x.data * np.where(draw >= thr, scale, 0.0))
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_every_16_bit_draw_at_or_above_thr_is_kept(self):
        class EveryDraw:  # each of the 65536 values once, in order
            def integers(self, low, high, size, dtype):
                return np.arange(low, high, dtype=dtype).reshape(size)

        with ad.precision("float64"):
            out = ad.dropout(Tensor(np.ones(65536)), 0.1, EveryDraw())
        thr = 6554  # round(0.1 * 65536)
        assert not out.data[:thr].any()
        np.testing.assert_array_equal(out.data[thr:], 65536 / (65536 - thr))
        assert abs(out.data.mean() - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_keep_fraction_within_binomial_bound(self, p):
        n = 1_200_000
        thr = round(p * 65536)
        keep = 1.0 - thr / 65536
        with ad.precision("float64"):
            out = ad.dropout(Tensor(np.ones(n)), p, np.random.default_rng(12))
        kept = int(np.count_nonzero(out.data))
        # six standard deviations of Binomial(n, keep)
        assert abs(kept - n * keep) <= 6.0 * np.sqrt(n * keep * (1.0 - keep))
        scale = np.unique(out.data[out.data != 0.0])
        assert scale.shape == (1,)
        # the scaled mask has mean 1: exactly in expectation, and within
        # the same binomial bound in the sample
        assert abs(scale[0] * keep - 1.0) <= 1e-15
        assert abs(out.data.mean() - 1.0) <= 6.0 * scale[0] * np.sqrt(keep * (1.0 - keep) / n)

    def test_rate_below_half_a_step_is_identity_and_draws_nothing(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        gen = np.random.default_rng(2)
        before = gen.bit_generator.state
        out = ad.dropout(x, 1e-6, gen)
        assert out is x
        assert gen.bit_generator.state == before

    def test_rate_that_rounds_to_one_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError, match="16-bit"):
            ad.dropout(x, 1.0 - 1e-6, np.random.default_rng(0))


class _CountingRng:
    """A generator that counts its ``integers`` calls: the draws that did
    not take the raw 64-bit path."""

    def __init__(self, gen):
        self.gen, self.bit_generator, self.integer_calls = gen, gen.bit_generator, 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return self.gen.integers(*args, **kwargs)


class TestRawMaskDraws:
    """ad._uint16_draws against rng.integers(0, 65536, size, dtype=np.uint16)
    on one PCG64 stream. The shapes' element counts run through every
    residue mod 4, so the stream passes through the buffered 32-bit half
    and back, and counts that are multiples of four meet both states."""

    SHAPES = [(2, 4), (3,), (4, 4), (5,), (2,), (7,), (3, 4), (1,), (1,), (2, 2, 4), (6,),
              (8,), (6,), (4,), (9,), (7,), (12,), (2, 3), (1, 4, 4)]

    @staticmethod
    def _draw_all(spy, ref, shapes):
        """Each shape's draws on both generators, compared; returns the set of
        (count mod 4, buffered half before the draw, took the raw path)."""
        seen = set()
        for shape in shapes:
            buffered = spy.bit_generator.state.get("has_uint32")
            calls = spy.integer_calls
            got = ad._uint16_draws(spy, shape)
            want = ref.integers(0, 65536, size=shape, dtype=np.uint16)
            assert got.dtype == np.uint16 and got.shape == shape
            assert np.array_equal(got, want)
            seen.add((math.prod(shape) % 4, buffered, spy.integer_calls == calls))
        return seen

    def test_equal_to_integers_draw_for_draw(self):
        spy, ref = _CountingRng(np.random.default_rng(31)), np.random.default_rng(31)
        seen = self._draw_all(spy, ref, self.SHAPES)
        # every residue meets both states, and the raw path runs exactly when
        # the count is a multiple of four and nothing is buffered
        states = {(n, buffered) for n, buffered, _ in seen}
        assert states == {(n, b) for n in range(4) for b in (0, 1)}
        assert all(raw == (n == 0 and buffered == 0) for n, buffered, raw in seen)
        # both generators continue alike: 16-, 32- and 64-bit draws and doubles.
        # Their state dicts are not compared: after random_raw with nothing
        # buffered, the unused ``uinteger`` field keeps an older value.
        tails = [[gen.integers(0, 65536, size=3, dtype=np.uint16).tolist(),
                  gen.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
                  gen.integers(0, 2**63, size=3).tolist(), gen.random(3).tolist()]
                 for gen in (spy.gen, ref)]
        assert tails[0] == tails[1]

    def test_big_endian_takes_the_fallback(self, monkeypatch):
        monkeypatch.setattr(sys, "byteorder", "big")
        spy, ref = _CountingRng(np.random.default_rng(32)), np.random.default_rng(32)
        assert {raw for _, _, raw in self._draw_all(spy, ref, self.SHAPES)} == {False}
        assert spy.integer_calls == len(self.SHAPES)

    def test_generator_without_a_buffered_half_takes_the_fallback(self):
        # MT19937 draws 32 bits natively: its state has no has_uint32
        spy = _CountingRng(np.random.Generator(np.random.MT19937(3)))
        ref = np.random.Generator(np.random.MT19937(3))
        assert {raw for _, _, raw in self._draw_all(spy, ref, [(4, 4), (8,)])} == {False}

    def test_dropout_masks_match_integers(self):
        x = Tensor(np.ones((2, 4, 8)))
        fast, ref = np.random.default_rng(33), np.random.default_rng(33)
        for p in (0.1, 0.3, 0.5):
            out = ad.dropout(x, p, fast)
            draw = ref.integers(0, 65536, size=x.shape, dtype=np.uint16)
            assert np.array_equal(out.data != 0, draw >= round(p * 65536))


def _at_byte_offset(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary inside a larger buffer."""
    raw = np.empty(a.nbytes + 64 + offset, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


class TestLayerNormByteOffsets:
    """layer_norm and residual_layer_norm take their row means by GEMV. The
    outputs and gradients must not depend on where the operands sit in
    memory, or the heap layout of a process would change a seed's bits."""

    CASES = {
        # operand shapes: the input (residual stream, sublayer output,
        # projection weight and bias), then gamma and beta
        "layer_norm": [(2, 37, 128), (128,), (128,)],
        "residual_layer_norm": [(2, 37, 128), (2, 37, 64), (64, 128), (128,), (128,), (128,)],
    }

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("op", sorted(CASES))
    def test_bits_do_not_depend_on_byte_offset(self, op, precision):
        dtype = np.dtype(precision)
        r = np.random.default_rng(6)
        arrays = [r.normal(size=s).astype(dtype) for s in self.CASES[op]]
        weights = r.normal(size=self.CASES[op][0]).astype(dtype)
        results = set()
        with ad.precision(precision):
            for offset in range(0, 64, dtype.itemsize):
                inputs = [Tensor(_at_byte_offset(a, offset), requires_grad=True) for a in arrays]
                if op == "layer_norm":
                    out = ad.layer_norm(*inputs)
                else:
                    out = ad.residual_layer_norm(*inputs, 0.1, np.random.default_rng(7))
                ad.backward(ad.tsum(ad.mul(out, Tensor(_at_byte_offset(weights, offset)))))
                results.add(tuple(a.tobytes() for a in [out.data] + [t.grad for t in inputs]))
        assert len(results) == 1


def _closure_arrays(t):
    """The arrays a node's gradient closure keeps alive for backward."""
    return [c.cell_contents for c in t._grad_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


class TestSavedMasks:
    """A node that applies dropout keeps its mask for backward as one byte
    per entry, and keeps no float array of the mask's shape besides the one
    activation its backward reads."""

    @staticmethod
    def _of_shape(t, shape):
        return sorted(a.dtype.name for a in _closure_arrays(t) if a.shape == shape)

    def test_dropout(self, rng):
        x = _leaf(rng, (4, 5, 6))
        out = ad.dropout(x, 0.3, np.random.default_rng(0))
        assert self._of_shape(out, (4, 5, 6)) == ["bool"]

    def test_attention(self, rng):
        q, k, v = _leaf(rng, (2, 3, 8)), _leaf(rng, (2, 5, 8)), _leaf(rng, (2, 5, 8))
        out = ad.attention(q, k, v, 2, None, 0.3, np.random.default_rng(0))
        # the softmax probabilities and the mask
        assert self._of_shape(out, (2, 2, 3, 5)) == ["bool", "float32"]

    def test_residual_layer_norm(self, rng):
        x, h = _leaf(rng, (2, 3, 6)), _leaf(rng, (2, 3, 4))
        w, b = _leaf(rng, (4, 6)), _leaf(rng, (6,))
        gamma, beta = _leaf(rng, (6,)), _leaf(rng, (6,))
        out = ad.residual_layer_norm(x, h, w, b, gamma, beta, 0.3, np.random.default_rng(0))
        # the normalized sum and the mask; the projection h @ w + b is not kept
        assert self._of_shape(out, (2, 3, 6)) == ["bool", "float32"]


class TestEmbedding:
    """The sort-and-reduceat gradient against an np.add.at scatter."""

    @pytest.mark.parametrize("ids", [
        [3, 1, 3, 3, 0, 1],
        [[2, 5, 2, 7], [7, 7, 0, 2], [5, 2, 2, 9]],
        [4],
        list(range(10)),
        np.zeros((0,), dtype=np.int64),
        np.zeros((2, 0), dtype=np.int64),
    ], ids=["repeated", "batch_by_time", "single", "arange", "empty", "empty_2d"])
    def test_gradient_matches_add_at(self, ids, rng):
        ids = np.asarray(ids, dtype=np.int64)
        with ad.precision("float64"):
            table = _leaf(rng, (12, 6))
            out = ad.embedding(table, ids)
            g = rng.normal(size=out.shape)
            ((_, grad),) = out._grad_fn(g)
        expected = np.zeros((12, 6))
        np.add.at(expected, ids, g)
        assert grad.shape == (12, 6)
        assert np.abs(grad - expected).max(initial=0.0) <= 1e-12
        unused = np.setdiff1d(np.arange(12), ids.ravel())
        assert not grad[unused].any()


class TestConstantOperands:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_closure_yields_only_the_operand_that_requires_grad(self, op, rng):
        a = _leaf(rng, (2, 3))
        c = Tensor(rng.uniform(1.0, 2.0, size=(1, 3)))
        for out in (op(a, c), op(c, a)):
            pairs = out._grad_fn(np.ones(out.shape))
            assert len(pairs) == 1 and pairs[0][0] is a
            assert pairs[0][1].shape == a.shape

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_gradient_unchanged_by_constant_partner(self, op, rng, float64):
        a = _leaf(rng, (2, 3))
        c_data = rng.uniform(1.0, 2.0, size=(1, 3))
        ad.backward(ad.tsum(op(a, Tensor(c_data))))
        const_grad = a.grad.copy()
        a.grad = None
        ad.backward(ad.tsum(op(a, Tensor(c_data, requires_grad=True))))
        np.testing.assert_array_equal(const_grad, a.grad)


class TestBackward:
    def test_sum_of_leaf_gives_ones(self):
        w = Tensor(np.arange(4.0), requires_grad=True)
        ad.backward(ad.tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones(4))

    def test_accumulation_doubles_without_zeroing(self):
        w = Tensor(np.arange(4.0), requires_grad=True)
        ad.tsum(w).backward()
        first = w.grad.copy()
        ad.tsum(w).backward()
        np.testing.assert_array_equal(w.grad, 2 * first)

    def test_second_backward_on_one_loss_raises(self):
        w = Tensor(np.arange(4.0), requires_grad=True)
        loss = ad.tsum(ad.mul(w, w))
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="already used by a backward pass"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, first)
        assert loss.item() == 14.0  # the value outlives the graph

    def test_backward_through_an_already_walked_forward_raises(self):
        w = Tensor(np.arange(4.0), requires_grad=True)
        hidden = ad.tanh(ad.mul(w, w))
        ad.tsum(hidden).backward()
        # a released node must not be taken for a leaf and given a .grad
        with pytest.raises(RuntimeError, match="run the forward again"):
            ad.tsum(ad.mul(hidden, hidden)).backward()
        assert hidden.grad is None

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(w + w)

    def test_loss_without_grad_dependencies_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(Tensor(np.array(1.0)))

    def test_shared_leaf_used_twice(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.tsum(ad.mul(w, w))
        loss.backward()
        np.testing.assert_allclose(w.grad, [4.0])


@pytest.mark.parametrize("name", op_builders.DIFFERENTIABLE_OPS)
def test_finite_difference_across_ops(name, rng, float64):
    """Randomized gradient check for every differentiable operation."""
    for trial in range(10):
        r = np.random.default_rng(op_builders.oracle_seed(name, trial))
        build, leaves = op_builders.make_builder(name, r, trial)
        _check_grads(build, leaves)


def test_precision_context_switches_dtype():
    assert Tensor(np.zeros(2)).dtype == np.float32
    with ad.precision("float64"):
        assert Tensor(np.zeros(2)).dtype == np.float64
    assert Tensor(np.zeros(2)).dtype == np.float32


def test_precision_restores_the_callers_dtype_when_the_block_raises():
    with ad.precision("float64"):
        with pytest.raises(KeyError):
            with ad.precision("float32"):
                raise KeyError("inside")
        assert ad.default_dtype() is np.float64
    assert ad.default_dtype() is np.float32


def test_precision_refuses_an_unknown_dtype_and_changes_nothing():
    with pytest.raises(ValueError, match="unsupported dtype 'float16'"):
        with ad.precision("float16"):
            pass
    assert ad.default_dtype() is np.float32


def test_determinism_same_inputs_same_bits(rng):
    x = rng.normal(size=(4, 4))
    a = ad.softmax(Tensor(x), axis=1).data
    b = ad.softmax(Tensor(x), axis=1).data
    assert np.array_equal(a, b)


def test_values_stay_finite_through_deep_graph(rng):
    x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    y = x
    for _ in range(20):
        y = ad.tanh(ad.matmul(y, x))
    loss = ad.tsum(y)
    loss.backward()
    assert np.all(np.isfinite(loss.data))
    assert np.all(np.isfinite(x.grad))


class TestNoGrad:
    @staticmethod
    def _composite(x, w, gamma, beta):
        h = ad.gelu(ad.matmul(x, w))
        h = ad.layer_norm(h, gamma, beta)
        return ad.tsum(ad.softmax(h, axis=-1) * ad.tanh(h))

    def _leaves(self, rng):
        return (_leaf(rng, (2, 5, 6)), _leaf(rng, (6, 4)), _leaf(rng, (4,)), _leaf(rng, (4,)))

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_values_bit_equal_inside_and_outside(self, precision, rng):
        with ad.precision(precision):
            leaves = self._leaves(rng)
            outside = self._composite(*leaves)
            with ad.no_grad():
                inside = self._composite(*leaves)
        assert inside.dtype == outside.dtype == np.dtype(precision)
        assert np.array_equal(inside.data, outside.data)

    def test_outputs_are_plain_tensors_and_backward_raises(self, rng):
        leaves = self._leaves(rng)
        with ad.no_grad():
            out = self._composite(*leaves)
            mid = ad.matmul(leaves[0], leaves[1])
        for t in (out, mid):
            assert t.requires_grad is False
            assert t._parents == () and t._grad_fn is None
        with pytest.raises(ValueError, match="no_grad"):
            ad.backward(out)
        assert all(leaf.grad is None for leaf in leaves)

    def test_leaves_keep_requires_grad(self):
        with ad.no_grad():
            w = Tensor(np.ones(3), requires_grad=True)
        assert w.requires_grad
        ad.tsum(w * w).backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones(3))

    def test_state_restored_after_an_exception(self, rng):
        w = _leaf(rng, (3,))
        with pytest.raises(RuntimeError, match="boom"):
            with ad.no_grad():
                assert not ad.tsum(w).requires_grad
                raise RuntimeError("boom")
        loss = ad.tsum(w * w)
        assert loss.requires_grad
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2 * w.data)

    def test_contexts_nest(self, rng):
        w = _leaf(rng, (3,))
        with ad.no_grad():
            with ad.no_grad():
                assert not (w * w).requires_grad
            # leaving the inner context keeps the outer one in force
            assert not (w * w).requires_grad
        assert (w * w).requires_grad

    def test_decorator_form(self, rng):
        w = _leaf(rng, (3,))

        @ad.no_grad()
        def square(t):
            return t * t

        assert not square(w).requires_grad
        assert (w * w).requires_grad
