from __future__ import annotations

import math

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp import losses as L
from rsvp.autodiff import Tensor

from .oracles import (
    finite_difference_grads,
    max_rel_error,
    mp_classification_loss,
    mp_generation_loss,
    mp_multilabel_loss,
    mp_retrieval_loss,
)


def _rand_embed(rng, n, d):
    return Tensor(rng.normal(size=(n, d)), requires_grad=True)


class TestRetrievalLoss:
    def test_single_pair_is_zero(self, rng, float64):
        q = _rand_embed(rng, 1, 4)
        p = _rand_embed(rng, 1, 4)
        assert abs(L.retrieval_loss(q, p, 0.8).item()) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_uniform_similarities_give_log_n(self, n, float64):
        q = Tensor(np.tile([1.0, 2.0, 3.0], (n, 1)), requires_grad=True)
        p = Tensor(np.tile([0.5, -1.0, 2.0], (n, 1)), requires_grad=True)
        assert abs(L.retrieval_loss(q, p, 0.8).item() - math.log(n)) < 1e-6

    def test_n4_constant_is_1_38629(self, float64):
        q = Tensor(np.ones((4, 3)))
        p = Tensor(np.ones((4, 3)))
        assert abs(L.retrieval_loss(q, p, 0.8).item() - 1.38629) < 1e-5

    def test_matches_high_precision_oracle(self, rng, float64):
        for _ in range(5):
            q = rng.normal(size=(3, 4))
            p = rng.normal(size=(3, 4))
            ours = L.retrieval_loss(Tensor(q), Tensor(p), 0.8).item()
            assert abs(ours - mp_retrieval_loss(q, p, 0.8)) < 1e-6

    def test_gradients_match_finite_differences(self, rng, float64):
        q = _rand_embed(rng, 3, 4)
        p = _rand_embed(rng, 3, 4)
        loss = L.retrieval_loss(q, p, 0.8)
        loss.backward()
        numeric = finite_difference_grads(
            lambda: L.retrieval_loss(Tensor(q.data), Tensor(p.data), 0.8).item(),
            [q.data, p.data],
            h=1e-5,
        )
        assert max_rel_error(q.grad, numeric[0]) < 1e-5
        assert max_rel_error(p.grad, numeric[1]) < 1e-5

    def test_nonnegative_on_random_batches(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(1, 8)), int(rng.integers(2, 10))
            loss = L.retrieval_loss(
                Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))), 0.8
            ).item()
            assert loss >= -1e-6

    def test_positive_row_rescaling_leaves_loss(self, rng, float64):
        q = rng.normal(size=(4, 6))
        p = rng.normal(size=(4, 6))
        base = L.retrieval_loss(Tensor(q), Tensor(p), 0.8).item()
        q2 = q * rng.uniform(0.2, 7.0, size=(4, 1))
        p2 = p * rng.uniform(0.2, 7.0, size=(4, 1))
        assert abs(L.retrieval_loss(Tensor(q2), Tensor(p2), 0.8).item() - base) < 1e-6

    def test_strictly_decreases_as_diagonal_improves(self, float64):
        # anchor 0 aligned more and more with its positive, negatives fixed
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        prev = None
        for angle in (0.9, 0.6, 0.3, 0.0):
            q = np.array([[math.cos(angle), math.sin(angle)], [0.0, 1.0]])
            cur = L.retrieval_loss(Tensor(q), Tensor(p), 0.8).item()
            if prev is not None:
                assert cur < prev
            prev = cur

    def test_temperature_must_be_positive(self, rng):
        q = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError, match="temperature"):
            L.retrieval_loss(q, q, 0.0)

    def test_zero_vector_rows_stay_finite(self, rng):
        q = np.zeros((3, 4))
        p = rng.normal(size=(3, 4))
        loss = L.retrieval_loss(Tensor(q), Tensor(p), 0.8)
        assert np.isfinite(loss.item())


class TestUnsupContrastive:
    def test_closed_form_orthogonal_unit_rows(self, float64):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = L.unsup_contrastive_loss(Tensor(q), Tensor(q), 1.0).item()
        assert abs(loss - (-math.log(math.e / (math.e + 1.0)))) < 1e-6
        assert abs(loss - 0.31326) < 1e-5

    def test_single_row_zero(self, rng):
        q = Tensor(rng.normal(size=(1, 5)))
        assert abs(L.unsup_contrastive_loss(q, q, 0.8).item()) < 1e-12

    def test_identical_code_path_with_retrieval(self, rng):
        a = Tensor(rng.normal(size=(5, 8)))
        b = Tensor(rng.normal(size=(5, 8)))
        assert L.unsup_contrastive_loss(a, b, 0.7).item() == L.retrieval_loss(a, b, 0.7).item()


class TestGenerationLoss:
    def test_confident_correct_prediction_near_zero(self):
        logits = np.zeros((4, 9))
        targets = np.array([1, 3, 5, 7])
        logits[np.arange(4), targets] = 100.0
        assert L.generation_loss(Tensor(logits), targets).item() < 1e-3

    def test_uniform_logits_give_log_vocab(self, float64):
        logits = Tensor(np.zeros((6, 11)))
        targets = np.arange(6)
        assert abs(L.generation_loss(logits, targets).item() - math.log(11)) < 1e-6

    def test_matches_high_precision_oracle(self, rng, float64):
        logits = rng.normal(size=(2, 5, 7))
        targets = rng.integers(1, 7, size=(2, 5))
        targets[0, -1] = 0  # padded position
        ours = L.generation_loss(Tensor(logits), targets, pad_id=0).item()
        assert abs(ours - mp_generation_loss(logits, targets, pad_id=0)) < 1e-6

    def test_pad_positions_excluded(self, rng):
        logits = rng.normal(size=(1, 4, 6))
        full = np.array([[1, 2, 3, 4]])
        padded = np.array([[1, 2, 0, 0]])
        short = L.generation_loss(Tensor(logits[:, :2]), full[:, :2]).item()
        masked = L.generation_loss(Tensor(logits), padded, pad_id=0).item()
        assert abs(short - masked) < 1e-6

    def test_sequence_sum_reduction(self, rng, float64):
        logits = rng.normal(size=(2, 3, 5))
        targets = rng.integers(1, 5, size=(2, 3))
        mean = L.generation_loss(Tensor(logits), targets, reduction="token_mean").item()
        total = L.generation_loss(Tensor(logits), targets, reduction="sequence_sum").item()
        assert abs(total - mean * 3) < 1e-9

    def test_target_out_of_range_rejected(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)))
        with pytest.raises(ValueError, match="out of range"):
            L.generation_loss(logits, np.array([1, 5, 2]))

    def test_gradients_match_finite_differences(self, rng, float64):
        logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        targets = rng.integers(0, 6, size=4)
        L.generation_loss(logits, targets).backward()
        numeric = finite_difference_grads(
            lambda: L.generation_loss(Tensor(logits.data), targets).item(), [logits.data]
        )
        assert max_rel_error(logits.grad, numeric[0]) < 1e-5


class TestClassificationLoss:
    def test_uniform_over_38_intents(self, float64):
        probs = Tensor(np.full((5, 38), 1.0 / 38))
        labels = np.arange(5)
        loss = L.classification_loss(probs, labels).item()
        assert abs(loss - math.log(38)) < 1e-6
        assert abs(loss - 3.6376) < 1e-4

    def test_perfect_prediction_zero(self):
        probs = np.full((3, 4), 1e-12)
        probs[np.arange(3), [0, 1, 2]] = 1.0
        assert abs(L.classification_loss(Tensor(probs), np.array([0, 1, 2])).item()) < 1e-9

    def test_matches_high_precision_oracle(self, rng, float64):
        logits = rng.normal(size=(6, 9))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = rng.integers(0, 9, size=6)
        ours = L.classification_loss(Tensor(probs), labels).item()
        assert abs(ours - mp_classification_loss(probs, labels)) < 1e-6

    def test_label_out_of_range_rejected(self, rng):
        probs = Tensor(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="out of range"):
            L.classification_loss(probs, np.array([0, 3]))

    def test_gradients_through_softmax_match_finite_differences(self, rng, float64):
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=3)
        L.classification_loss(ad.softmax(logits, axis=-1), labels).backward()
        numeric = finite_difference_grads(
            lambda: L.classification_loss(
                ad.softmax(Tensor(logits.data), axis=-1), labels
            ).item(),
            [logits.data],
        )
        assert max_rel_error(logits.grad, numeric[0]) < 1e-5


class TestMultilabelLoss:
    def test_zero_logits_give_log_two(self, float64):
        logits = Tensor(np.zeros((3, 5)))
        y = np.zeros((3, 5))
        y[0, 1] = 1
        assert abs(L.multilabel_loss(logits, y).item() - math.log(2)) < 1e-9

    def test_strong_margins_near_zero(self):
        y = np.array([[1.0, 0.0, 1.0]])
        logits = Tensor(np.array([[100.0, -100.0, 100.0]]))
        assert L.multilabel_loss(logits, y).item() < 1e-6

    def test_matches_high_precision_oracle(self, rng, float64):
        logits = rng.normal(size=(4, 6))
        y = (rng.random((4, 6)) > 0.5).astype(float)
        ours = L.multilabel_loss(Tensor(logits), y).item()
        assert abs(ours - mp_multilabel_loss(logits, y)) < 1e-6

    def test_gradients_match_finite_differences(self, rng, float64):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = (rng.random((3, 4)) > 0.5).astype(float)
        L.multilabel_loss(logits, y).backward()
        numeric = finite_difference_grads(
            lambda: L.multilabel_loss(Tensor(logits.data), y).item(), [logits.data]
        )
        assert max_rel_error(logits.grad, numeric[0]) < 1e-5


class TestCombinedLoss:
    def test_lambda_zero_equals_ce_exactly(self, rng):
        ce = Tensor(np.array(1.7))
        uns = Tensor(np.array(9.9))
        assert L.combined_finetune_loss(ce, uns, 0.0).item() == ce.item()

    def test_arithmetic(self):
        ce = Tensor(np.array(1.0))
        uns = Tensor(np.array(2.0))
        assert abs(L.combined_finetune_loss(ce, uns, 0.5).item() - 2.0) < 1e-7

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            L.combined_finetune_loss(Tensor(np.array(1.0)), Tensor(np.array(1.0)), -0.1)

    def test_gradient_linearity_on_tiny_model(self, rng, float64):
        """grad(ce + lam*uns) must equal grad(ce) + lam*grad(uns)."""
        lam = 0.7

        def build(w_arr):
            w = Tensor(w_arr, requires_grad=True)
            q = ad.tanh(ad.matmul(Tensor(x), w))
            probs = ad.softmax(q, axis=-1)
            ce = L.classification_loss(probs, labels)
            uns = L.unsup_contrastive_loss(q, ad.mul(q, Tensor(np.full(q.shape, 1.3))), 0.8)
            return w, ce, uns

        x = rng.normal(size=(4, 5))
        labels = rng.integers(0, 6, size=4)
        w_arr = rng.normal(size=(5, 6))

        w, ce, uns = build(w_arr)
        L.combined_finetune_loss(ce, uns, lam).backward()
        combined_grad = w.grad.copy()

        w1, ce1, _ = build(w_arr)
        ce1.backward()
        w2, _, uns2 = build(w_arr)
        uns2.backward()
        np.testing.assert_allclose(combined_grad, w1.grad + lam * w2.grad, rtol=1e-9, atol=1e-12)
