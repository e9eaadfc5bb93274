from __future__ import annotations

import numpy as np
import pytest

from rsvp import metrics as M
from rsvp.metrics import Prediction

from .oracles import brute_accuracy, brute_mrr_at_k, brute_multilabel, brute_recall_at_1


def _single_label_preds(rng, n, c):
    scores = rng.random((n, c))
    scores /= scores.sum(axis=1, keepdims=True)
    golds = rng.integers(0, c, size=n)
    return [Prediction(scores=scores[i], gold=int(golds[i])) for i in range(n)], scores, golds


class TestAccuracy:
    def test_all_correct(self):
        preds = [Prediction(np.array([0.9, 0.1]), 0), Prediction(np.array([0.2, 0.8]), 1)]
        assert M.accuracy(preds) == 1.0

    def test_one_of_four(self):
        preds = [Prediction(np.array([1.0, 0.0]), 0)] + [
            Prediction(np.array([1.0, 0.0]), 1) for _ in range(3)
        ]
        assert M.accuracy(preds) == 0.25

    def test_tie_breaks_to_lowest_index(self):
        preds = [Prediction(np.array([0.5, 0.5]), 0)]
        assert M.accuracy(preds) == 1.0
        preds = [Prediction(np.array([0.5, 0.5]), 1)]
        assert M.accuracy(preds) == 0.0

    def test_matches_brute_force_exactly(self, rng):
        preds, scores, golds = _single_label_preds(rng, 100, 7)
        assert M.accuracy(preds) == brute_accuracy(scores.tolist(), golds.tolist())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            M.accuracy([])


class TestMrr:
    def test_rank_one_everywhere(self):
        preds = [Prediction(np.array([0.9, 0.05, 0.05]), 0)] * 4
        assert M.mrr_at_k(preds, 3) == 1.0
        assert M.mrr_at_k(preds, 5) == 1.0

    def test_rank_two_contributes_half(self):
        preds = [Prediction(np.array([0.5, 0.4, 0.1]), 1)]
        assert abs(M.mrr_at_k(preds, 3) - 0.5) < 1e-12

    def test_rank_four_beyond_cutoff(self):
        scores = np.array([0.4, 0.3, 0.2, 0.08, 0.02])
        preds = [Prediction(scores, 3)]
        assert M.mrr_at_k(preds, 3) == 0.0
        assert abs(M.mrr_at_k(preds, 5) - 0.25) < 1e-12

    def test_matches_brute_force_with_ties(self, rng):
        scores = rng.integers(0, 4, size=(200, 6)).astype(float)  # many ties
        golds = rng.integers(0, 6, size=200)
        preds = [Prediction(scores[i], int(golds[i])) for i in range(200)]
        for k in (3, 5):
            expected = brute_mrr_at_k(scores.tolist(), golds.tolist(), k)
            assert abs(M.mrr_at_k(preds, k) - expected) < 1e-12

    def test_ordering_accuracy_mrr3_mrr5(self, rng):
        for _ in range(20):
            preds, _, _ = _single_label_preds(rng, 50, 9)
            acc = M.accuracy(preds)
            m3 = M.mrr_at_k(preds, 3)
            m5 = M.mrr_at_k(preds, 5)
            assert acc <= m3 <= m5 <= 1.0

    def test_permutation_invariance(self, rng):
        preds, _, _ = _single_label_preds(rng, 30, 5)
        shuffled = [preds[i] for i in rng.permutation(30)]
        assert M.accuracy(preds) == M.accuracy(shuffled)
        assert M.mrr_at_k(preds, 3) == M.mrr_at_k(shuffled, 3)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            M.mrr_at_k([Prediction(np.array([1.0]), 0)], 0)


class TestMultilabel:
    def test_perfect_sets(self):
        preds = [Prediction(np.array([0.9, 0.1, 0.8]), np.array([1.0, 0.0, 1.0]))]
        out = M.multilabel_metrics(preds)
        assert out["micro_f1"] == 1.0 and out["subset_accuracy"] == 1.0

    def test_partial_match_counts(self):
        # predicted {A}, gold {A, B}: no subset credit, TP=1 FN=1
        preds = [Prediction(np.array([0.9, 0.2]), np.array([1.0, 1.0]))]
        out = M.multilabel_metrics(preds)
        assert out["subset_accuracy"] == 0.0
        assert abs(out["micro_f1"] - (2 * 1 / (2 * 1 + 0 + 1))) < 1e-12

    def test_threshold_is_strict(self):
        preds = [Prediction(np.array([0.5]), np.array([0.0]))]
        assert M.multilabel_metrics(preds)["subset_accuracy"] == 1.0

    def test_matches_brute_force(self, rng):
        scores = rng.random((150, 6))
        golds = (rng.random((150, 6)) > 0.6).astype(float)
        preds = [Prediction(scores[i], golds[i]) for i in range(150)]
        micro, subset = brute_multilabel(scores.tolist(), golds.tolist())
        out = M.multilabel_metrics(preds)
        assert abs(out["micro_f1"] - micro) < 1e-12
        assert out["subset_accuracy"] == subset

    def test_subset_accuracy_bounded_by_any_correct_decision(self, rng):
        scores = rng.random((80, 4))
        golds = (rng.random((80, 4)) > 0.5).astype(float)
        preds = [Prediction(scores[i], golds[i]) for i in range(80)]
        out = M.multilabel_metrics(preds)
        frac_any_correct = np.mean(
            [np.any((p.scores > 0.5) == (np.asarray(p.gold) > 0.5)) for p in preds]
        )
        assert out["subset_accuracy"] <= frac_any_correct + 1e-12


class TestRecallAt1:
    def test_identical_matrices_with_distinct_rows(self, rng):
        q = rng.normal(size=(8, 5))
        assert M.in_batch_recall_at_1(q, q) == 1.0

    def test_random_independent_near_one_over_n(self, rng):
        n = 50
        total = 0.0
        trials = 40
        for _ in range(trials):
            q = rng.normal(size=(n, 8))
            p = rng.normal(size=(n, 8))
            total += M.in_batch_recall_at_1(q, p)
        assert abs(total / trials - 1.0 / n) < 0.015

    def test_matches_brute_force(self, rng):
        q = rng.normal(size=(12, 6))
        p = rng.normal(size=(12, 6))
        assert M.in_batch_recall_at_1(q, p) == brute_recall_at_1(q, p)


class TestExportEmbeddings:
    def _encoder_and_examples(self):
        from rsvp.model import ConversationalEncoder, EncoderConfig
        from rsvp.rng import SeedHub
        from rsvp.text import EncodedExample

        cfg = EncoderConfig(vocab_size=20, d_model=16, n_layers=1, n_heads=2,
                            d_ffn=32, max_positions=16, pooled_dim=8)
        enc = ConversationalEncoder(cfg, SeedHub(2).stream("encoder_init"))
        examples = [
            EncodedExample(f"ex{i}", np.array([2, 6 + i, 7]), np.array([4, 8, 5]), i % 2)
            for i in range(5)
        ]
        return enc, examples

    def test_shape_and_determinism(self, tmp_path):
        enc, examples = self._encoder_and_examples()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        M.export_embeddings(enc, examples, ["Refund", "Cancel"], p1)
        M.export_embeddings(enc, examples, ["Refund", "Cancel"], p2)
        assert p1.read_bytes() == p2.read_bytes()
        ids, intents, mat = M.load_embeddings(p1)
        assert len(ids) == 5 and mat.shape == (5, 8)
        assert intents[0] == "Refund" and intents[1] == "Cancel"

    def test_round_trip_matches_reencoding(self, tmp_path):
        enc, examples = self._encoder_and_examples()
        path = tmp_path / "emb.csv"
        M.export_embeddings(enc, examples, ["Refund", "Cancel"], path)
        _, _, mat = M.load_embeddings(path)
        for row, ex in zip(mat, examples):
            again = enc.embed([ex.utterance_ids])
            assert np.abs(row - again).max() < 1e-6

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_batched_export_matches_per_example_encode(self, tmp_path, precision):
        """Unequal lengths across several token-budget chunks, with a
        multi-label example among them."""
        from rsvp import autodiff as ad
        from rsvp.model import ConversationalEncoder, EncoderConfig
        from rsvp.rng import SeedHub
        from rsvp.text import EncodedExample

        with ad.precision(precision):
            cfg = EncoderConfig(vocab_size=30, d_model=16, n_layers=2, n_heads=2,
                                d_ffn=32, max_positions=64, pooled_dim=8)
            enc = ConversationalEncoder(cfg, SeedHub(5).stream("encoder_init"))
        rng = np.random.default_rng(9)
        lengths = [1, 64, 3, 17, 40, 2] * 6
        examples = [
            EncodedExample(f"ex{i}", np.array([2] + list(rng.integers(6, 30, size=n - 1))),
                           np.array([4, 5]), i % 3)
            for i, n in enumerate(lengths)
        ]
        examples[4].label = np.array([1.0, 0.0, 1.0], dtype=np.float32)
        forwards = []
        encode_batch = enc.encode_batch

        def counting_encode_batch(seqs, *args, **kwargs):
            out = encode_batch(seqs, *args, **kwargs)
            forwards.append(out.requires_grad)
            return out

        enc.encode_batch = counting_encode_batch
        path = tmp_path / "emb.csv"
        M.export_embeddings(enc, examples, ["A", "B", "C"], path)
        assert 1 < len(forwards) < len(examples)
        assert not any(forwards)
        ids, intents, mat = M.load_embeddings(path)
        assert ids == [ex.example_id for ex in examples]
        assert intents[4] == "A|C" and intents[:4] == ["A", "B", "C", "A"]
        for row, ex in zip(mat, examples):
            assert np.abs(row - enc.embed([ex.utterance_ids])).max() <= 1e-6

    def test_empty_split_writes_the_header_only(self, tmp_path):
        enc, _ = self._encoder_and_examples()
        path = tmp_path / "emb.csv"
        M.export_embeddings(enc, [], ["Refund", "Cancel"], path)
        assert path.read_text().splitlines() == ["id,intent," + ",".join(f"e{i}" for i in range(8))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_are_the_repr_of_each_float(self, tmp_path, dtype):
        """Each value is written as ``repr(float(v))`` of its NumPy scalar
        would write it, for -0.0, the float32 maximum and a subnormal."""
        from types import SimpleNamespace

        from rsvp.text import EncodedExample

        tiny = np.finfo(dtype).smallest_subnormal
        values = np.array([[-0.0, np.finfo(np.float32).max, tiny, 0.1],
                           [1.0 / 3.0, -tiny, 0.0, -2.5e-8]], dtype=dtype)
        enc = SimpleNamespace(cfg=SimpleNamespace(pooled_dim=4),
                              embed=lambda seqs: values[: len(seqs)])
        examples = [EncodedExample(f"ex{i}", np.array([2, 6]), np.array([4, 5]), i)
                    for i in range(2)]
        path = tmp_path / "emb.csv"
        M.export_embeddings(enc, examples, ["A", "B"], path)
        want = ["id,intent,e0,e1,e2,e3"] + [
            f"ex{i},{'AB'[i]}," + ",".join(repr(float(v)) for v in values[i]) for i in range(2)]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
        assert path.read_text().split("\n")[1].startswith("ex0,A,-0.0,")
