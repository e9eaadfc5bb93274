from __future__ import annotations

import json
import logging

import numpy as np
import pytest
from scipy.special import expit

from rsvp import autodiff as ad
from rsvp.config import StageConfig
from rsvp.losses import classification_loss
from rsvp.metrics import Prediction
from rsvp.model import _EVAL_TOKEN_BUDGET, ConversationalEncoder, IntentClassifier, _token_chunks
from rsvp.optim import adamw_step, zero_grad
from rsvp.rng import SeedHub
from rsvp.synth import gen_data
from rsvp.text import EncodedExample
from rsvp import training as tr


def micro_cfg(**kw):
    base = dict(
        retrieval_epochs=2, generation_epochs=2, finetune_epochs=3,
        lr=1e-3, pretrain_batch=8, finetune_batch=8, max_len=48,
        d_model=32, n_layers=1, n_heads=2, d_ffn=64, pooled_dim=32,
        seeds=(0,), dropout_p=0.1,
    )
    base.update(kw)
    return StageConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    records = gen_data(4, 12, seed=3)
    cfg = micro_cfg()
    return tr.prepare(records, cfg), cfg


def _param_bits(components):
    return [p.data.copy() for comp in components for p in comp.parameters()]


def _bits_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPrepare:
    def test_vocab_from_train_split_only(self, dataset):
        prepared, cfg = dataset
        # test-split unique reference tokens cannot be in a train-built vocab
        test_tokens = set()
        for ex in prepared.test:
            test_tokens.update(int(i) for i in ex.utterance_ids)
        assert prepared.vocab.unk_id in test_tokens

    def test_split_sizes(self, dataset):
        prepared, _ = dataset
        assert len(prepared.train) + len(prepared.valid) + len(prepared.test) == 48


class TestStageContracts:
    def test_zero_epochs_leaves_encoder_bitwise(self, dataset):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        before = _param_bits([enc])
        tr.pretrain_retrieval(enc, prepared.train, cfg.replace(retrieval_epochs=0), hub)
        assert _bits_equal(before, _param_bits([enc]))
        dec, _ = tr.pretrain_generation(enc, prepared.train, cfg.replace(generation_epochs=0), hub)
        assert _bits_equal(before, _param_bits([enc]))
        assert dec is not None

    def test_empty_responses_excluded_with_logged_count(self, dataset, caplog):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        hollow = [
            EncodedExample(ex.example_id, ex.utterance_ids, ex.response_ids[:2], ex.label)
            for ex in prepared.train[:4]
        ]
        with caplog.at_level(logging.INFO, logger="rsvp.training"):
            tr.pretrain_retrieval(enc, prepared.train + hollow, cfg.replace(retrieval_epochs=1), hub)
        assert any("excluded 4 pairs" in r.message for r in caplog.records)

    def test_single_pair_trailing_batch_dropped(self, dataset, caplog):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        subset = prepared.train[:9]  # batches of 8 leave a 1-pair remainder
        with caplog.at_level(logging.INFO, logger="rsvp.training"):
            tr.pretrain_retrieval(enc, subset, cfg.replace(retrieval_epochs=1), hub)
        assert any("trailing batch" in r.message for r in caplog.records)

    def test_chunked_equals_monolithic(self, dataset):
        prepared, cfg = dataset
        run_cfg = cfg.replace(retrieval_epochs=4, dropout_p=0.1)
        hub1 = SeedHub(0)
        enc1 = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub1.stream("encoder_init"))
        tr.pretrain_retrieval(enc1, prepared.train, run_cfg, hub1)
        hub2 = SeedHub(0)
        enc2 = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub2.stream("encoder_init"))
        half = run_cfg.replace(retrieval_epochs=2)
        tr.pretrain_retrieval(enc2, prepared.train, half, hub2, epoch_offset=0)
        tr.pretrain_retrieval(enc2, prepared.train, half, hub2, epoch_offset=2)
        assert _bits_equal(_param_bits([enc1]), _param_bits([enc2]))

    def test_generation_updates_encoder_jointly(self, dataset):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        before = _param_bits([enc])
        tr.pretrain_generation(enc, prepared.train, cfg.replace(generation_epochs=1), hub)
        after = _param_bits([enc])
        assert not _bits_equal(before, after)

    def test_first_epoch_loss_near_log_batch_size(self):
        """Freshly initialized embeddings are near-degenerate, so the first
        epoch's mean contrastive loss sits at the uniform-similarity bound."""
        import math

        records = gen_data(5, 40, seed=7)
        cfg = StageConfig(retrieval_epochs=1, lr=1e-3, pretrain_batch=16, max_len=64,
                          seeds=(0,))
        prepared = tr.prepare(records, cfg)
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        hist = tr.pretrain_retrieval(enc, prepared.train, cfg, hub)
        assert abs(hist[0]["loss"] - math.log(16)) < 0.15 * math.log(16)


class RecordingExample(EncodedExample):
    """Counts attribute reads of response_ids for the isolation check."""

    counters: dict = {}

    def __getattribute__(self, name):
        if name == "response_ids":
            RecordingExample.counters["response_reads"] = (
                RecordingExample.counters.get("response_reads", 0) + 1
            )
        return super().__getattribute__(name)


class TestFinetune:
    def test_never_reads_response_tokens(self, dataset):
        prepared, cfg = dataset
        RecordingExample.counters.clear()
        wrapped = [
            RecordingExample(ex.example_id, ex.utterance_ids, ex.response_ids, ex.label)
            for ex in prepared.train
        ]
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        tr.finetune(enc, wrapped, [], cfg.replace(finetune_epochs=1), hub, len(prepared.label_names))
        assert RecordingExample.counters.get("response_reads", 0) == 0

    def test_lambda_zero_bitwise_equals_independent_ce_loop(self, dataset):
        """Degenerate combined objective: an independently written CE-only
        training loop lands on bit-identical weights."""
        prepared, cfg = dataset
        run_cfg = cfg.replace(finetune_epochs=2, lam=0.0, checkpoint_selection="final")
        n_classes = len(prepared.label_names)

        hub1 = SeedHub(0)
        enc1 = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub1.stream("encoder_init"))
        clf1, _ = tr.finetune(enc1, prepared.train, prepared.valid, run_cfg, hub1, n_classes)

        # independent CE-only loop, same substream discipline
        hub2 = SeedHub(0)
        enc2 = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub2.stream("encoder_init"))
        clf2 = IntentClassifier(run_cfg.pooled_dim, n_classes, hub2.stream("classifier_init"))
        feats = [(ex.utterance_ids, ex.label) for ex in prepared.train]
        params = enc2.parameters() + clf2.parameters()
        for epoch in range(2):
            shuffle = hub2.stream("shuffle_finetune", epoch)
            drop = hub2.stream("dropout_finetune", epoch)
            perm = shuffle.permutation(len(feats))
            for start in range(0, len(feats), run_cfg.finetune_batch):
                idx = perm[start : start + run_cfg.finetune_batch]
                seqs = [feats[i][0] for i in idx]
                y = np.asarray([feats[i][1] for i in idx], dtype=np.int64)
                q = enc2.encode_batch(seqs, training=True, rng=drop, dropout_p=run_cfg.dropout_p)
                ce = classification_loss(ad.softmax(clf2(q), axis=-1), y)
                ad.backward(ce)
                adamw_step(params, lr=run_cfg.lr, weight_decay=run_cfg.weight_decay)
                zero_grad(params)

        assert _bits_equal(_param_bits([enc1, clf1]), _param_bits([enc2, clf2]))

    def test_dropout_views_differ_during_training(self, dataset):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        drop = hub.stream("dropout_finetune", 0)
        seqs = [ex.utterance_ids for ex in prepared.train[:4]]
        a = enc.encode_batch(seqs, training=True, rng=drop, dropout_p=0.1).data
        b = enc.encode_batch(seqs, training=True, rng=drop, dropout_p=0.1).data
        assert not np.array_equal(a, b)

    def test_best_valid_selection_restores_best_epoch(self, dataset):
        prepared, cfg = dataset
        run_cfg = cfg.replace(finetune_epochs=3, checkpoint_selection="best_valid")
        hub = SeedHub(0)
        enc = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        clf, history = tr.finetune(enc, prepared.train, prepared.valid, run_cfg, hub,
                                   len(prepared.label_names))
        best = max(h["valid_score"] for h in history)
        preds = tr.predict_examples(enc, clf, prepared.valid)
        from rsvp.metrics import accuracy

        assert abs(accuracy(preds) - best) < 1e-12


class TestEvalChunks:
    def test_chunks_are_consecutive_and_fit_the_token_budget(self):
        rng = np.random.default_rng(5)
        seqs = [[1] * int(n) for n in rng.integers(1, 90, size=200)]
        chunks = list(_token_chunks(seqs, 1024))
        assert chunks[0][0] == 0 and chunks[-1][1] == len(seqs)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        for start, stop in chunks:
            assert stop > start
            assert (stop - start) * max(len(s) for s in seqs[start:stop]) <= 1024

    def test_desk_and_long_shapes(self):
        assert list(_token_chunks([[1] * 16] * 100, 1024)) == [(0, 64), (64, 100)]
        assert [b - a for a, b in _token_chunks([[1] * 85] * 30, 1024)] == [12, 12, 6]

    def test_oversized_sequence_gets_its_own_chunk(self):
        seqs = [[1] * 3, [1] * 2000, [1] * 3]
        assert list(_token_chunks(seqs, 1024)) == [(0, 1), (1, 2), (2, 3)]
        assert list(_token_chunks([], 1024)) == []


def _graph_scores(encoder, classifier, seqs, multi_label):
    """Eval scoring as it ran before it went graph-free: every token-budget
    chunk through encode_batch and the classifier with the graph built,
    then sigmoid or softmax per chunk."""
    out = []
    for start, stop in _token_chunks(seqs, _EVAL_TOKEN_BUDGET):
        logits = classifier(encoder.encode_batch(seqs[start:stop]))
        assert logits.requires_grad
        logits = logits.data.astype(np.float64)
        if multi_label:
            out.append(expit(logits))
        else:
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            out.append(e / e.sum(axis=1, keepdims=True))
    return np.concatenate(out, axis=0)


class TestGraphFreeScoring:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("multi_label", [False, True])
    def test_scores_bit_equal_to_graph_scoring(self, dataset, precision, multi_label):
        prepared, cfg = dataset
        with ad.precision(precision):
            hub = SeedHub(4)
            enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)),
                                        hub.stream("encoder_init"))
            clf = IntentClassifier(cfg.pooled_dim, len(prepared.label_names),
                                   hub.stream("classifier_init"))
        # repeated so the scoring runs over several token-budget chunks
        seqs = [ex.utterance_ids for ex in prepared.train] * 3
        assert len(list(_token_chunks(seqs, _EVAL_TOKEN_BUDGET))) > 1
        reference = _graph_scores(enc, clf, seqs, multi_label)
        outside = tr.score_utterances(enc, clf, seqs, multi_label)
        with ad.no_grad():
            inside = tr.score_utterances(enc, clf, seqs, multi_label)
        assert reference.dtype == outside.dtype == inside.dtype == np.float64
        assert np.array_equal(outside, reference)
        assert np.array_equal(inside, reference)

    @pytest.mark.parametrize("selection", ["final", "best_valid"])
    def test_finetune_unchanged_by_graph_free_validation(self, dataset, monkeypatch, selection):
        prepared, cfg = dataset
        run_cfg = cfg.replace(finetune_epochs=3, checkpoint_selection=selection)

        def run():
            hub = SeedHub(6)
            enc = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)),
                                        hub.stream("encoder_init"))
            clf, history = tr.finetune(enc, prepared.train, prepared.valid, run_cfg, hub,
                                       len(prepared.label_names))
            # gradients of one more loss on the fine-tuned weights
            batch = prepared.train[:8]
            probs = ad.softmax(clf(enc.encode_batch([ex.utterance_ids for ex in batch])), axis=-1)
            ad.backward(classification_loss(probs, np.array([ex.label for ex in batch])))
            params = enc.parameters() + clf.parameters()
            return history, [p.data.copy() for p in params], [p.tensor.grad.copy() for p in params]

        free = run()
        monkeypatch.setattr(tr, "score_utterances", _graph_scores)
        graph = run()
        assert free[0] == graph[0]
        assert all(np.isfinite(row["valid_score"]) for row in free[0])
        for got, want in zip(free[1] + free[2], graph[1] + graph[2]):
            assert np.array_equal(got, want)


class TestPipelines:
    def test_stage_isolation_zero_epochs_equals_baseline(self, dataset):
        prepared, cfg = dataset
        idle = cfg.replace(retrieval_epochs=0, generation_epochs=0, finetune_epochs=0)
        rsvp_report = tr.run_rsvp(prepared, idle)
        base_report = tr.run_baseline_classifier(prepared, idle.replace(lam=0.0))
        assert rsvp_report.per_seed[0]["accuracy"] == base_report.per_seed[0]["accuracy"]
        assert rsvp_report.per_seed[0]["mrr5"] == base_report.per_seed[0]["mrr5"]

    def test_five_seed_report_rows_and_mean(self, dataset):
        prepared, cfg = dataset
        run_cfg = cfg.replace(seeds=(0, 1, 2, 3, 4), retrieval_epochs=1,
                              generation_epochs=0, finetune_epochs=1)
        report = tr.run_rsvp(prepared, run_cfg)
        assert len(report.per_seed) == 5
        for key, value in report.mean.items():
            expected = sum(r[key] for r in report.per_seed) / 5
            assert abs(value - expected) < 1e-9

    def test_reversed_order_runs_and_reports(self, dataset):
        prepared, cfg = dataset
        report = tr.run_rsvp(prepared, cfg.replace(task_order="generation_first"))
        assert set(report.curves["0"]) == {"retrieval", "generation", "finetune"}

    @pytest.mark.parametrize("run", [tr.run_rsvp, tr.run_baseline_classifier])
    def test_float64_run_leaves_float32_default(self, dataset, run, tmp_path):
        prepared, cfg = dataset
        run_cfg = cfg.replace(precision="float64", retrieval_epochs=1, generation_epochs=1,
                              finetune_epochs=1)
        kwargs = {"checkpoint_dir": str(tmp_path)} if run is tr.run_rsvp else {}
        report = run(prepared, run_cfg, **kwargs)
        assert ad.default_dtype() is np.float32
        assert report.per_seed
        if run is tr.run_rsvp:
            _, _, encoder, _, _ = tr.load_stage_checkpoint(str(tmp_path / "finetuned_seed0.ckpt"))
            assert encoder.tok_emb.data.dtype == np.float64

    def test_run_rsvp_deterministic(self, dataset):
        prepared, cfg = dataset
        r1 = tr.run_rsvp(prepared, cfg)
        r2 = tr.run_rsvp(prepared, cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)

    def test_baseline_skips_pretraining_config_flags_only(self, dataset):
        prepared, cfg = dataset
        report = tr.run_baseline_classifier(prepared, cfg, with_uns_cl=False)
        assert report.config["lam"] == 0.0
        assert set(report.curves["0"]) == {"finetune"}

    def test_ablation_variants_cover_grid(self, dataset):
        prepared, cfg = dataset
        variants = tr.ablation_variants(cfg)
        assert set(variants) == {"full", "no_retrieval", "no_generation", "reversed_order", "no_uns_cl"}
        assert variants["no_retrieval"].retrieval_epochs == 0
        assert variants["no_generation"].generation_epochs == 0
        assert variants["reversed_order"].task_order == "generation_first"
        assert variants["no_uns_cl"].lam == 0.0

    def test_report_save_load_round_trip(self, dataset, tmp_path):
        prepared, cfg = dataset
        report = tr.run_rsvp(prepared, cfg)
        paths = report.save(tmp_path)
        loaded = tr.load_report(paths["report"])
        assert loaded.mean == report.mean
        assert loaded.per_seed == report.per_seed
        assert loaded.config == report.config

    def test_sweep_grid_shape_seeds_and_csv_round_trip(self, dataset, tmp_path):
        prepared, cfg = dataset
        fast = cfg.replace(retrieval_epochs=1, generation_epochs=0, finetune_epochs=1, seeds=(0, 1))
        rows = tr.run_sweep(prepared, fast, "lambda")
        assert [v for v, _ in rows] == [0.2, 0.4, 0.6, 0.8]
        seeds_used = {tuple(r["seed"] for r in rep.per_seed) for _, rep in rows}
        assert seeds_used == {(0, 1)}
        path = tmp_path / "sweep.csv"
        tr.sweep_to_csv("lambda", rows, path)
        axis, loaded = tr.load_sweep_csv(path)
        assert axis == "lambda"
        for (value, rep), row in zip(rows, loaded):
            assert row["value"] == value
            for key, v in rep.mean.items():
                assert row[key] == v

    def test_unknown_sweep_axis_rejected(self, dataset):
        prepared, cfg = dataset
        with pytest.raises(ValueError, match="axis"):
            tr.run_sweep(prepared, cfg, "temperature")


class TestMultiLabelMode:
    def test_matches_single_label_argmax_after_convergence(self):
        """On single-intent data, sigmoid multi-label training converges to
        the same argmax decisions as softmax single-label training."""
        records = gen_data(4, 16, seed=21)
        single_cfg = micro_cfg(finetune_epochs=60, lr=2e-3, checkpoint_selection="final")
        multi_cfg = single_cfg.replace(multi_label=True)
        single = tr.prepare(records, single_cfg)
        multi = tr.prepare(records, multi_cfg)

        hub = SeedHub(0)
        enc_s = ConversationalEncoder(single_cfg.encoder_config(len(single.vocab)), hub.stream("encoder_init"))
        clf_s, _ = tr.finetune(enc_s, single.train, [], single_cfg, SeedHub(0), len(single.label_names))
        enc_m = ConversationalEncoder(multi_cfg.encoder_config(len(multi.vocab)), SeedHub(0).stream("encoder_init"))
        clf_m, _ = tr.finetune(enc_m, multi.train, [], multi_cfg, SeedHub(0), len(multi.label_names))

        preds_s = tr.predict_examples(enc_s, clf_s, single.train, multi_label=False)
        preds_m = tr.predict_examples(enc_m, clf_m, multi.train, multi_label=True)
        agree = np.mean(
            [int(np.argmax(a.scores)) == int(np.argmax(b.scores)) for a, b in zip(preds_s, preds_m)]
        )
        assert agree >= 0.95

    def test_multilabel_report_metrics(self):
        records = gen_data(3, 10, seed=5)
        cfg = micro_cfg(multi_label=True, seeds=(0,), retrieval_epochs=1,
                        generation_epochs=0, finetune_epochs=2)
        prepared = tr.prepare(records, cfg)
        report = tr.run_rsvp(prepared, cfg)
        assert set(report.mean) == {"micro_f1", "macro_f1", "subset_accuracy"}


def test_compute_metrics_rejects_broken_ordering(monkeypatch):
    preds = [Prediction(scores=np.array([0.1, 0.7, 0.2]), gold=1)]
    monkeypatch.setattr(tr, "mrr_at_k", lambda preds, k: 0.5)
    with pytest.raises(ValueError, match="accuracy=1.0, mrr3=0.5, mrr5=0.5"):
        tr.compute_metrics(preds)
