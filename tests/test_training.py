from __future__ import annotations

import json
import logging
import tracemalloc
import weakref

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp.config import StageConfig
from rsvp.losses import classification_loss
from rsvp.metrics import Prediction
from rsvp.model import _EVAL_TOKEN_BUDGET, ConversationalEncoder, IntentClassifier, _token_chunks
from rsvp.optim import Parameter, adamw_step
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

    @pytest.mark.parametrize("stage,needs", [("retrieval", "two usable pairs"),
                                             ("generation", "one usable pair")])
    def test_too_few_usable_pairs_blame_the_data_at_a_usable_max_len(self, dataset, stage, needs):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        hollow = [EncodedExample(ex.example_id, ex.utterance_ids, ex.response_ids[:2], ex.label)
                  for ex in prepared.train[:4]]
        with pytest.raises(ValueError) as raised:
            getattr(tr, f"pretrain_{stage}")(enc, hollow, cfg, hub)
        assert str(raised.value) == f"{stage} pre-training needs at least {needs}"

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
                for p in params:
                    p.grad = None

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


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
class TestNonFiniteLoss:
    """A float32 logit gap of 120 underflows the gold class's softmax
    probability to zero, so the cross-entropy is inf and every gradient NaN.
    Without a guard, AdamW writes NaN into all the weights."""

    WRONG = 0

    def _biased(self, dataset, lam):
        prepared, cfg = dataset
        run_cfg = cfg.replace(finetune_epochs=1, lam=lam)
        hub = SeedHub(0)
        enc = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        clf = IntentClassifier(run_cfg.pooled_dim, len(prepared.label_names), hub.stream("classifier_init"))
        clf.lin2.b.data[self.WRONG] += 200.0
        train = [ex for ex in prepared.train if ex.label != self.WRONG]
        logits = enc.embed([ex.utterance_ids for ex in train], head=clf)
        gold = logits[np.arange(len(train)), [ex.label for ex in train]]
        assert logits.dtype == np.float32
        assert np.all(logits[:, self.WRONG] - gold >= 120.0)
        return run_cfg, hub, enc, clf, train

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_raises_before_the_update_and_keeps_weights(self, dataset, lam):
        prepared, _ = dataset
        run_cfg, hub, enc, clf, train = self._biased(dataset, lam)
        before = _param_bits([enc, clf])
        with pytest.raises(FloatingPointError, match=r"finetune: non-finite loss inf at epoch 3, batch 0"):
            tr.finetune(enc, train, prepared.valid, run_cfg, hub, len(prepared.label_names),
                        classifier=clf, epoch_offset=3)
        after = _param_bits([enc, clf])
        assert all(np.all(np.isfinite(a)) for a in after)
        assert _bits_equal(before, after)

    @pytest.mark.parametrize("stage", ["retrieval", "generation"])
    def test_pretraining_stages_guarded(self, dataset, monkeypatch, stage):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        loss_name = f"{stage}_loss"
        real = getattr(tr, loss_name)
        monkeypatch.setattr(tr, loss_name, lambda *a, **k: real(*a, **k) * float("nan"))
        before = _param_bits([enc])
        with pytest.raises(FloatingPointError, match=rf"{stage}: non-finite loss nan at epoch 0, batch 0"):
            if stage == "retrieval":
                tr.pretrain_retrieval(enc, prepared.train, cfg, hub)
            else:
                tr.pretrain_generation(enc, prepared.train, cfg, hub)
        assert _bits_equal(before, _param_bits([enc]))


class TestNonFiniteGradient:
    """A finite loss can still have a non-finite gradient: d sqrt(z)/dz at
    z = 0 is inf, and a zero weight downstream makes the chain rule's
    product 0 * inf = NaN. The second batch here is such a step."""

    @staticmethod
    def _step(p, calls):
        def step(idx, drop_rng):
            calls.append((p.data.copy(), p.m.copy(), p.v.copy(), p.step))
            if len(calls) == 1:
                loss = ad.tsum(ad.mul(p, p))
            else:
                loss = ad.tsum(ad.mul(ad.sqrt(ad.sub(p, p)), ad.Tensor(np.zeros(3))))
            return loss, len(idx), {"loss": loss.item()}
        return step

    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_raises_before_the_update_and_keeps_the_last_finite_step(self, clip_norm):
        p = Parameter("w", np.array([1.0, -2.0, 0.5]))
        calls = []
        cfg = StageConfig(lr=0.1, clip_norm=clip_norm)
        with pytest.raises(FloatingPointError,
                           match=r"generation: non-finite gradient norm nan at epoch 2, batch 1"):
            tr._run_epochs("generation", cfg, SeedHub(0), [p], 4, 2, 1, 2, self._step(p, calls))
        assert len(calls) == 2
        data, m, v, steps = calls[1]  # the state after the one finite step
        assert steps == p.step == 1
        assert np.array_equal(p.data, data) and np.array_equal(p.m, m)
        assert np.array_equal(p.v, v)
        assert np.all(np.isfinite(p.data))

    def test_one_norm_per_step(self, monkeypatch):
        from rsvp import optim

        p = Parameter("w", np.array([1.0, -2.0, 0.5]))
        norms = []
        real = optim.global_grad_norm

        def counting(params):
            norms.append(real(params))
            return norms[-1]

        monkeypatch.setattr(optim, "global_grad_norm", counting)
        monkeypatch.setattr(tr, "global_grad_norm", counting, raising=False)

        def step(idx, drop_rng):
            loss = ad.tsum(ad.mul(p, p))
            return loss, len(idx), {"loss": loss.item()}

        tr._run_epochs("retrieval", StageConfig(lr=0.1, clip_norm=1.0), SeedHub(0), [p], 6, 2,
                       1, 0, step)
        assert len(norms) == 3


class TestEpochLoop:
    @pytest.mark.parametrize("stage", ["retrieval", "generation", "finetune"])
    def test_a_stage_leaves_no_gradient_on_what_it_trained(self, dataset, stage):
        """Each update drops the gradients it read, so a trained model
        carries no gradient buffer into the next stage or a checkpoint."""
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        if stage == "retrieval":
            tr.pretrain_retrieval(enc, prepared.train, cfg, hub)
            trained = enc.parameters()
        elif stage == "generation":
            dec, _ = tr.pretrain_generation(enc, prepared.train, cfg, hub)
            trained = enc.backbone_parameters() + dec.parameters()
        else:
            clf, _ = tr.finetune(enc, prepared.train, prepared.valid, cfg, hub,
                                 len(prepared.label_names))
            trained = enc.parameters() + clf.parameters()
        assert trained and all(p.grad is None for p in trained)

    def test_empty_finetune_epoch_reports_zero_loss(self, dataset):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        _, history = tr.finetune(enc, [], prepared.valid, cfg.replace(finetune_epochs=2), hub,
                                 len(prepared.label_names), epoch_offset=1)
        assert [h["epoch"] for h in history] == [1, 2]
        assert all(h["loss"] == 0.0 for h in history)
        assert [list(h) for h in history] == [["epoch", "loss", "valid_score"]] * 2

    def test_history_keys_per_stage(self, dataset):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        retrieval = tr.pretrain_retrieval(enc, prepared.train, cfg, hub)
        _, generation = tr.pretrain_generation(enc, prepared.train, cfg, hub)
        _, finetune = tr.finetune(enc, prepared.train, [], cfg, hub, len(prepared.label_names))
        assert [list(h) for h in retrieval] == [["epoch", "loss", "recall_at_1"]] * cfg.retrieval_epochs
        assert [list(h) for h in generation] == [["epoch", "loss"]] * cfg.generation_epochs
        assert [list(h) for h in finetune] == [["epoch", "loss", "valid_score"]] * cfg.finetune_epochs
        assert all(np.isnan(h["valid_score"]) for h in finetune)


class TestGraphRelease:
    def test_interior_activation_freed_by_backward(self, dataset):
        prepared, cfg = dataset
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        seqs = [ex.utterance_ids for ex in prepared.train[:4]]
        hidden, _ = enc.forward_hidden(seqs, training=True, rng=hub.stream("dropout"),
                                       dropout_p=cfg.dropout_p)
        loss = ad.tsum(enc.pool_cls(hidden))
        alive = weakref.ref(hidden.data)
        del hidden
        assert alive() is not None  # the graph still holds it
        ad.backward(loss)
        assert alive() is None

    def test_a_step_does_not_keep_the_previous_graph_alive(self):
        # the loop holds step n's loss until step n+1's forward has run; with
        # the graph released by backward, three same-shape batches peak
        # about as high as one (two live graphs would make it about 2x)
        cfg = micro_cfg(pretrain_batch=6, generation_epochs=1)
        prepared = tr.prepare(gen_data(3, 8, seed=1), cfg)
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
        six = prepared.train[:6]
        dec, _ = tr.pretrain_generation(enc, six, cfg, hub)  # warm-up epoch

        def epoch_peak(examples):
            tracemalloc.start()
            try:
                tr.pretrain_generation(enc, examples, cfg, hub, decoder=dec, epoch_offset=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = epoch_peak(six)
        three = epoch_peak(six * 3)  # each batch no longer than the one-batch epoch's
        assert three <= 1.4 * one, (one, three)


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
            out.append(ad.expit(logits))
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
            return history, [p.data.copy() for p in params], [p.grad.copy() for p in params]

        free = run()
        monkeypatch.setattr(tr, "score_utterances", _graph_scores)
        graph = run()
        assert free[0] == graph[0]
        assert all(np.isfinite(row["valid_score"]) for row in free[0])
        for got, want in zip(free[1] + free[2], graph[1] + graph[2]):
            assert np.array_equal(got, want)


class TestStepAfterLoad:
    """Modules loaded from a checkpoint train and decode exactly as the
    in-memory modules that were saved."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_one_step_equals_the_in_memory_step(self, dataset, tmp_path, precision):
        prepared, cfg = dataset
        run_cfg = cfg.replace(precision=precision, generation_epochs=1, finetune_epochs=1,
                              checkpoint_selection="final")
        batch, valid = prepared.train[: run_cfg.pretrain_batch], prepared.valid[:4]  # one step each
        n_labels = len(prepared.label_names)
        path = tmp_path / "m.ckpt"
        with ad.precision(precision):
            hub = SeedHub(0)
            enc = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)),
                                        hub.stream("encoder_init"))
            dec, _ = tr.pretrain_generation(enc, batch, run_cfg, hub)
            clf, _ = tr.finetune(enc, batch, valid, run_cfg, hub, n_labels)
            tr.save_stage_checkpoint(path, "finetuned", run_cfg, len(prepared.vocab), enc,
                                     decoder=dec, classifier=clf)
        saved = (enc, dec, clf)
        _, _, *loaded = tr.load_stage_checkpoint(path, moments=True)
        with ad.precision(precision):
            for e, d, c in (saved, loaded):
                hub = SeedHub(1)
                tr.pretrain_generation(e, batch, run_cfg, hub, decoder=d, epoch_offset=1)
                tr.finetune(e, batch, valid, run_cfg, hub, n_labels, classifier=c, epoch_offset=1)
        assert loaded[0].tok_emb.step == 4
        pairs = [(p, q) for a, b in zip(saved, loaded) for p, q in zip(a.parameters(), b.parameters())]
        for p, q in pairs:
            assert q.step == p.step
            for x, y in ((p.data, q.data), (p.m, q.m), (p.v, q.v)):
                assert y.dtype == np.dtype(precision) and x.tobytes() == y.tobytes()
        u_ids = batch[0].utterance_ids
        assert loaded[1].generate(loaded[0], u_ids, 8) == dec.generate(enc, u_ids, 8)


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

    def test_run_rsvp_writes_vocab_beside_checkpoints(self, dataset, tmp_path):
        prepared, cfg = dataset
        run_cfg = cfg.replace(retrieval_epochs=0, generation_epochs=0, finetune_epochs=1)
        tr.run_rsvp(prepared, run_cfg, checkpoint_dir=str(tmp_path / "run"))
        prepared.vocab.save(str(tmp_path / "vocab.txt"))
        assert (tmp_path / "run" / "finetuned_seed0.ckpt").exists()
        assert (tmp_path / "run" / "vocab.txt").read_bytes() == (tmp_path / "vocab.txt").read_bytes()

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

    @pytest.mark.parametrize("with_uns_cl", [False, True])
    def test_baseline_is_run_rsvp_without_pretraining_epochs(self, dataset, with_uns_cl):
        prepared, cfg = dataset
        idle = cfg.replace(retrieval_epochs=0, generation_epochs=0)
        if with_uns_cl:
            expected = tr.run_rsvp(prepared, idle, variant="baseline_uns_cl")
        else:
            expected = tr.run_rsvp(prepared, idle.replace(lam=0.0), variant="baseline")
        report = tr.run_baseline_classifier(prepared, cfg, with_uns_cl=with_uns_cl)
        assert report.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("stage, other", [("retrieval", "generation"),
                                              ("generation", "retrieval")])
    def test_stage_with_zero_epochs_does_not_run(self, dataset, monkeypatch, stage, other):
        prepared, cfg = dataset

        def refuse(*args, **kwargs):
            raise AssertionError(f"{stage} pre-training ran with 0 epochs")

        monkeypatch.setattr(tr, f"pretrain_{stage}", refuse)
        report = tr.run_rsvp(prepared, cfg.replace(**{f"{stage}_epochs": 0}))
        assert set(report.curves["0"]) == {other, "finetune"}

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
