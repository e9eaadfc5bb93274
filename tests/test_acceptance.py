"""Acceptance suite: one test per criterion, each printing a PASS line.

Published full-scale benchmark numbers are out of reach by design (the
original data is proprietary and the reference systems start from large
pretrained encoders), so acceptance rests on property-based and
oracle-based checks plus desk-scale memorization runs on synthetic data.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp.autodiff import Tensor
from rsvp.config import StageConfig
from rsvp.losses import (
    classification_loss,
    generation_loss,
    multilabel_loss,
    retrieval_loss,
    unsup_contrastive_loss,
)
from rsvp.metrics import Prediction, accuracy, mrr_at_k, multilabel_metrics
from rsvp.model import ConversationalEncoder, IntentClassifier, init_decoder_from_encoder
from rsvp.optim import adamw_step
from rsvp.rng import SeedHub
from rsvp.synth import gen_data
from rsvp import training as tr

from . import op_builders
from .oracles import (
    brute_accuracy,
    brute_mrr_at_k,
    brute_multilabel,
    finite_difference_grads,
    max_rel_error,
)

GRAD_TOL = 1e-5


def _announce(capsys, line):
    with capsys.disabled():
        print(line)


def _desk_cfg(**kw):
    base = dict(
        lr=1e-3, weight_decay=0.0, pretrain_batch=16, finetune_batch=10,
        max_len=64, d_model=128, n_layers=2, n_heads=4, d_ffn=256,
        pooled_dim=128, seeds=(0,),
    )
    base.update(kw)
    return StageConfig(**base)


def _micro_cfg(**kw):
    base = dict(
        retrieval_epochs=2, generation_epochs=1, finetune_epochs=2,
        lr=1e-3, pretrain_batch=8, finetune_batch=8, max_len=48,
        d_model=32, n_layers=1, n_heads=2, d_ffn=64, pooled_dim=32,
        seeds=(0, 1, 2, 3, 4), dropout_p=0.1,
    )
    base.update(kw)
    return StageConfig(**base)


@pytest.fixture(scope="module")
def desk_data():
    records = gen_data(5, 40, seed=7)
    cfg = _desk_cfg()
    return tr.prepare(records, cfg), cfg


@pytest.fixture(scope="module")
def micro_data():
    records = gen_data(4, 12, seed=3)
    cfg = _micro_cfg()
    return tr.prepare(records, cfg), cfg


def _check(build, leaves, h=1e-5):
    loss = build()
    loss.backward()
    numeric = finite_difference_grads(lambda: build().item(), [t.data for t in leaves], h=h)
    for t, n in zip(leaves, numeric):
        assert max_rel_error(t.grad, n) <= GRAD_TOL


def test_oracle_seeds_do_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parents[1]
    code = ("from tests import op_builders; print([op_builders.oracle_seed(n, t) "
            "for n in op_builders.DIFFERENTIABLE_OPS for t in range(10)])")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(root), str(root / "src")]))
        outs.append(subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]


def test_criterion_1_gradient_oracle_suite(capsys, float64):
    """Every differentiable op and all four objectives pass central
    finite-difference checks in 64-bit mode, ten random instances each."""
    start = time.perf_counter()

    for name in op_builders.DIFFERENTIABLE_OPS:
        for trial in range(10):
            r = np.random.default_rng(op_builders.oracle_seed(name, trial))
            build, leaves = op_builders.make_builder(name, r, trial)
            _check(build, leaves)

    for trial in range(10):
        r = np.random.default_rng(10_000 + trial)
        q = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        p = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        _check(lambda: retrieval_loss(q, p, 0.8), [q, p], h=1e-3)

        logits = Tensor(r.normal(size=(4, 6)), requires_grad=True)
        targets = r.integers(1, 6, size=4)
        _check(lambda: generation_loss(logits, targets, pad_id=0), [logits])

        z = Tensor(r.normal(size=(3, 5)), requires_grad=True)
        labels = r.integers(0, 5, size=3)
        _check(lambda: classification_loss(ad.softmax(z, axis=-1), labels), [z])

        qh = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        qb = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        _check(lambda: unsup_contrastive_loss(qh, qb, 0.8), [qh, qb])

        zm = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        y = (r.random((3, 4)) > 0.5).astype(float)
        _check(lambda: multilabel_loss(zm, y), [zm])

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(capsys, f"ACCEPTANCE 1 gradient-oracle-suite: PASS ({elapsed:.1f}s)")


def test_criterion_2_loss_constants(capsys, float64):
    for n in (2, 4, 16):
        q = Tensor(np.tile([1.0, -2.0, 0.5], (n, 1)))
        p = Tensor(np.tile([2.0, 1.0, -1.0], (n, 1)))
        assert abs(retrieval_loss(q, p, 0.8).item() - math.log(n)) < 1e-6
    one = retrieval_loss(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), 0.8).item()
    assert abs(one) < 1e-9

    probs = Tensor(np.full((6, 38), 1.0 / 38))
    assert abs(classification_loss(probs, np.arange(6)).item() - math.log(38)) < 1e-6

    vocab = 23
    logits = Tensor(np.zeros((9, vocab)))
    targets = np.arange(1, 10)
    assert abs(generation_loss(logits, targets).item() - math.log(vocab)) < 1e-6
    _announce(capsys, "ACCEPTANCE 2 loss-constants: PASS")


def test_criterion_3_mask_and_sharing_invariants(capsys, desk_data, float64):
    # 64-bit mode: float32 BLAS blocking noise at d_model=128 sits right at
    # the 1e-6 bound even for mathematically identical paths
    prepared, cfg = desk_data
    hub = SeedHub(42)
    enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
    dec = init_decoder_from_encoder(enc, hub.stream("decoder_init"))
    r = np.random.default_rng(99)
    vocab = len(prepared.vocab)

    for _ in range(50):
        u = [2] + list(r.integers(6, vocab, size=int(r.integers(3, 12))))
        T = int(r.integers(2, 10))
        resp = [4] + list(r.integers(6, vocab, size=T))
        t = int(r.integers(0, T - 1)) if T > 1 else 0
        mutated = list(resp)
        mutated[t + 1 :] = list(r.integers(6, vocab, size=len(resp) - t - 1))
        h, m = enc.forward_hidden([u])
        base, _ = dec.forward_teacher_forced(h, m, [resp])
        mut, _ = dec.forward_teacher_forced(h, m, [mutated])
        assert np.abs(base.data[0, : t + 1] - mut.data[0, : t + 1]).max() <= 1e-6

        plain = enc.embed([u])
        # a batch mate k tokens longer pads u's row by k
        padded = enc.embed([u, u + [u[-1]] * int(r.integers(1, 6))])[:1]
        assert np.abs(plain - padded).max() <= 1e-6

        q, p = enc.embed([u]), enc.embed([u])
        assert np.array_equal(q, p)
    _announce(capsys, "ACCEPTANCE 3 mask-and-sharing-invariants: PASS")


def test_criterion_4_pipeline_memorization(capsys, desk_data):
    """Desk model on synthetic data: retrieval recall, generation loss and
    fine-tune accuracy all reach their bars inside the epoch budgets."""
    prepared, base = desk_data
    with ad.precision(base.precision):
        start = time.perf_counter()
        hub = SeedHub(0)
        enc = ConversationalEncoder(base.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))

        cfg_a = base.replace(dropout_p=0.0, retrieval_epochs=5)
        recall, epochs_a = 0.0, 0
        while epochs_a < 50:
            hist = tr.pretrain_retrieval(enc, prepared.train, cfg_a, hub, epoch_offset=epochs_a)
            epochs_a += cfg_a.retrieval_epochs
            recall = hist[-1]["recall_at_1"]
            if recall >= 0.95:
                break
        assert recall >= 0.95, f"recall@1 {recall:.3f} after {epochs_a} epochs"

        cfg_b = base.replace(dropout_p=0.0, generation_epochs=10)
        subset = prepared.train[:32]
        decoder, gen_loss, epochs_b = None, float("inf"), 0
        while epochs_b < 200:
            decoder, hist = tr.pretrain_generation(enc, subset, cfg_b, hub, decoder=decoder,
                                                   epoch_offset=epochs_b)
            epochs_b += cfg_b.generation_epochs
            gen_loss = hist[-1]["loss"]
            if gen_loss <= 0.1:
                break
        assert gen_loss <= 0.1, f"per-token loss {gen_loss:.4f} after {epochs_b} epochs"

        cfg_c = base.replace(dropout_p=0.1, finetune_epochs=20, checkpoint_selection="final")
        classifier, train_acc, epochs_c = None, 0.0, 0
        while epochs_c < 200:
            classifier, _ = tr.finetune(enc, prepared.train, prepared.valid, cfg_c, hub,
                                        len(prepared.label_names), classifier=classifier,
                                        epoch_offset=epochs_c)
            epochs_c += cfg_c.finetune_epochs
            train_acc = accuracy(tr.predict_examples(enc, classifier, prepared.train))
            if train_acc >= 0.99:
                break
        test_acc = accuracy(tr.predict_examples(enc, classifier, prepared.test))
        elapsed = time.perf_counter() - start
        assert train_acc >= 0.99, f"train accuracy {train_acc:.3f} after {epochs_c} epochs"
        assert test_acc >= 0.90, f"test accuracy {test_acc:.3f}"
        assert elapsed < 600.0
    _announce(
        capsys,
        "ACCEPTANCE 4 pipeline-memorization: PASS "
        f"(recall@1 {recall:.2f}@{epochs_a}ep, gen {gen_loss:.3f}@{epochs_b}ep, "
        f"train {train_acc:.2f}/test {test_acc:.2f}@{epochs_c}ep, {elapsed:.0f}s)",
    )


def test_criterion_5_lambda_zero_bitwise_degeneracy(capsys, micro_data):
    """With the consistency weight at zero, fine-tuning must be bit-identical
    to an independently written cross-entropy-only training loop."""
    prepared, cfg = micro_data
    run_cfg = cfg.replace(finetune_epochs=3, lam=0.0, checkpoint_selection="final", seeds=(0,))
    with ad.precision(run_cfg.precision):
        n_classes = len(prepared.label_names)

        hub1 = SeedHub(0)
        enc1 = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub1.stream("encoder_init"))
        clf1, _ = tr.finetune(enc1, prepared.train, prepared.valid, run_cfg, hub1, n_classes)

        hub2 = SeedHub(0)
        enc2 = ConversationalEncoder(run_cfg.encoder_config(len(prepared.vocab)), hub2.stream("encoder_init"))
        clf2 = IntentClassifier(run_cfg.pooled_dim, n_classes, hub2.stream("classifier_init"))
        feats = [(ex.utterance_ids, ex.label) for ex in prepared.train]
        params = enc2.parameters() + clf2.parameters()
        for epoch in range(run_cfg.finetune_epochs):
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
                for p in params:  # zero-fill and add, where the library drops and copies
                    p.grad.fill(0.0)

        pairs = zip(enc1.parameters() + clf1.parameters(), enc2.parameters() + clf2.parameters())
        assert all(np.array_equal(a.data, b.data) for a, b in pairs)
    _announce(capsys, "ACCEPTANCE 5 lambda-zero-bitwise: PASS")


def test_criterion_6_metric_oracles(capsys):
    r = np.random.default_rng(2024)
    for _ in range(1000):
        n, c = int(r.integers(1, 12)), int(r.integers(2, 9))
        scores = np.round(r.random((n, c)), 2)  # rounding forces ties
        golds = r.integers(0, c, size=n)
        preds = [Prediction(scores[i], int(golds[i])) for i in range(n)]
        acc = accuracy(preds)
        m3 = mrr_at_k(preds, 3)
        m5 = mrr_at_k(preds, 5)
        assert acc == brute_accuracy(scores.tolist(), golds.tolist())
        assert abs(m3 - brute_mrr_at_k(scores.tolist(), golds.tolist(), 3)) < 1e-12
        assert abs(m5 - brute_mrr_at_k(scores.tolist(), golds.tolist(), 5)) < 1e-12
        assert acc <= m3 <= m5 <= 1.0

        hot = (r.random((n, c)) > 0.5).astype(float)
        mpreds = [Prediction(scores[i], hot[i]) for i in range(n)]
        micro, subset = brute_multilabel(scores.tolist(), hot.tolist())
        out = multilabel_metrics(mpreds)
        assert abs(out["micro_f1"] - micro) < 1e-12
        assert out["subset_accuracy"] == subset
    _announce(capsys, "ACCEPTANCE 6 metric-oracles: PASS (1000 prediction sets)")


def test_criterion_7_ablation_grid_and_sweeps(capsys, micro_data, tmp_path):
    prepared, cfg = micro_data
    assert len(cfg.seeds) == 5
    reports = tr.run_ablation_grid(prepared, cfg)
    assert set(reports) == {"full", "no_retrieval", "no_generation", "reversed_order", "no_uns_cl"}
    grid_path = tmp_path / "ablation_grid.csv"
    tr.ablation_grid_to_csv(reports, grid_path)
    lines = grid_path.read_text().splitlines()
    assert len(lines) == 6 and lines[0].startswith("variant,")

    summaries = []
    for axis in ("batch_n", "lambda"):
        rows = tr.run_sweep(prepared, cfg.replace(generation_epochs=0, retrieval_epochs=1,
                                                  finetune_epochs=1), axis)
        path = tmp_path / f"sweep_{axis}.csv"
        tr.sweep_to_csv(axis, rows, path)
        loaded_axis, loaded = tr.load_sweep_csv(path)
        assert loaded_axis == axis and len(loaded) == 4
        for (value, rep), row in zip(rows, loaded):
            assert row["value"] == float(value)
            assert row["accuracy"] == rep.mean["accuracy"]
        summaries.append(f"{axis}: acc {[round(x['accuracy'], 2) for x in loaded]}")

    # directional findings are reported, never asserted: synthetic desk-scale
    # runs need not reproduce the published ordering preferences
    order = sorted(reports, key=lambda k: -reports[k].mean["accuracy"])
    _announce(
        capsys,
        "ACCEPTANCE 7 ablation-grid-and-sweeps: PASS "
        f"(variant ranking {order}; {'; '.join(summaries)})",
    )


def test_criterion_8_soft_comparative_check(capsys):
    records = gen_data(5, 24, seed=11)
    cfg = _desk_cfg(
        retrieval_epochs=8, generation_epochs=4, finetune_epochs=4,
        dropout_p=0.1, seeds=(0, 1, 2, 3, 4),
    )
    prepared = tr.prepare(records, cfg)
    full = tr.run_rsvp(prepared, cfg)
    base = tr.run_baseline_classifier(prepared, cfg, with_uns_cl=False)
    diff = full.mean["accuracy"] - base.mean["accuracy"]
    verdict = "holds" if diff >= 0 else "VIOLATED (logged, non-gating)"
    _announce(
        capsys,
        "ACCEPTANCE 8 soft-comparative-check: PASS "
        f"(rsvp {full.mean['accuracy']:.3f} vs baseline {base.mean['accuracy']:.3f}; {verdict})",
    )


def test_criterion_9_determinism_reports_and_checkpoints(capsys, micro_data, tmp_path):
    prepared, cfg = micro_data
    one_seed = cfg.replace(seeds=(0,))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    r1 = tr.run_rsvp(prepared, one_seed, checkpoint_dir=d1)
    r2 = tr.run_rsvp(prepared, one_seed, checkpoint_dir=d2)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    r1.save(d1)
    r2.save(d2)
    for name in ("report.json", "report_curves.csv", "finetuned_seed0.ckpt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    _announce(capsys, "ACCEPTANCE 9 determinism: PASS (reports, curves and checkpoints bitwise equal)")
