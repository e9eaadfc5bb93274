"""Correctness checks. Each compares the program's output with an
independent computation or with a property the method must have, never
with a stored copy of an earlier output.

Every check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from rsvp import autodiff as ad
from rsvp import checkpoint
from rsvp import training as tr
from rsvp.losses import (
    classification_loss,
    combined_finetune_loss,
    generation_loss,
    retrieval_loss,
    unsup_contrastive_loss,
)
from rsvp.model import ConversationalEncoder, IntentClassifier, init_decoder_from_encoder
from rsvp.text import tokenize

PROB_TOL = 1e-5  # float32 forward passes of different batch shapes
REF_TOL = 1e-4  # float32 program against the float64 reference forward
GRAD_REL_TOL = 1e-6  # float64 directional derivative
_UID_RE = re.compile(r"^id\d+x\d+$")


def _record_dicts(records):
    return [(r.id, r.utterance_turns, r.response_turns, r.intents) for r in records]


# ----------------------------------------------------------------------
# inputs


def check_inputs(workload, seed, records, fresh, prepared, ranges) -> list:
    """Same seed gives the same inputs; lengths and vocabulary fall in the
    stated ranges; serving records share no ids with training records."""
    fails = []
    if _record_dicts(workload.records(seed)) != _record_dicts(records):
        fails.append("inputs: the same seed gave different training records")
    if _record_dicts(workload.fresh(seed)) != _record_dicts(fresh):
        fails.append("inputs: the same seed gave different serving records")
    u = np.mean([len(ex.utterance_ids) for ex in prepared.train])
    r = np.mean([len(ex.response_ids) for ex in prepared.train])
    v = len(prepared.vocab)
    for label, value, (lo, hi) in (("utterance length", u, ranges["utterance"]),
                                   ("response length", r, ranges["response"]),
                                   ("vocabulary", v, ranges["vocab"])):
        if not lo <= value <= hi:
            fails.append(f"inputs: mean {label} {value:.1f} outside [{lo}, {hi}]")
    if {rec.id for rec in records} & {rec.id for rec in fresh}:
        fails.append("inputs: serving records reuse training record ids")
    fresh_uids = {tok for rec in fresh for turn in rec.utterance_turns + rec.response_turns
                  for tok in tokenize(turn) if _UID_RE.match(tok)}
    in_vocab = [tok for tok in fresh_uids if prepared.vocab.id(tok) != prepared.vocab.unk_id]
    if not fresh_uids or in_vocab:
        fails.append(f"inputs: serving reference ids in the training vocabulary: {in_vocab[:3]}")
    return fails


# ----------------------------------------------------------------------
# gradients


def _directional(name, params, loss_fn, seed) -> list:
    """Central difference of the loss along a random unit direction v
    against <grad, v> from backward, in float64."""
    for p in params:
        p.tensor.grad = None
    ad.backward(loss_fn())
    rng = np.random.default_rng(seed)
    vs = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((v * v).sum()) for v in vs))
    vs = [v / norm for v in vs]
    analytic = sum(float((p.grad * v).sum()) for p, v in zip(params, vs) if p.grad is not None)
    originals = [p.tensor.data for p in params]
    eps = 1e-6
    values = []
    for sign in (1.0, -1.0):
        for p, base, v in zip(params, originals, vs):
            p.tensor.data = base + sign * eps * v
        values.append(loss_fn().item())
    for p, base in zip(params, originals):
        p.tensor.data = base
    numeric = (values[0] - values[1]) / (2 * eps)
    if not abs(numeric - analytic) <= GRAD_REL_TOL * max(1.0, abs(analytic)):
        return [f"gradient: {name} directional derivative {numeric!r} vs <grad, v> {analytic!r}"]
    return []


def check_gradients(prepared, cfg, seed) -> list:
    """One float64 directional-derivative check per training stage, on
    one batch, with each stage's own objective and fixed dropout masks."""
    fails = []
    batch = prepared.train[:4]
    utts = [ex.utterance_ids for ex in batch]
    p = cfg.dropout_p
    with ad.precision("float64"):
        rng = np.random.default_rng(seed)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), rng)
        dec = init_decoder_from_encoder(enc, rng, bos_id=tr.BOS_ID, eos_id=tr.EOS_ID)
        clf = IntentClassifier(cfg.pooled_dim, len(prepared.label_names), rng)

        def masks():
            return np.random.default_rng(seed + 1)

        def retrieval():
            both = enc.encode_batch(utts + [ex.response_ids for ex in batch],
                                    training=True, rng=masks(), dropout_p=p)
            n = len(batch)
            return retrieval_loss(ad.narrow0(both, 0, n), ad.narrow0(both, n, 2 * n), cfg.tau)

        def generation():
            drop = masks()
            hidden, mask = enc.forward_hidden(utts, training=True, rng=drop, dropout_p=p)
            seqs = [ex.response_ids[:-1] for ex in batch]
            targets = np.zeros((len(batch), max(len(s) for s in seqs)), dtype=np.int64)
            for i, ex in enumerate(batch):
                targets[i, : len(ex.response_ids) - 1] = ex.response_ids[1:]
            logits, _ = dec.forward_teacher_forced(hidden, mask, seqs, training=True, rng=drop,
                                                   dropout_p=p)
            return generation_loss(logits, targets, pad_id=tr.PAD_ID,
                                   reduction=cfg.gen_loss_reduction)

        def finetune():
            n = len(batch)
            q_all = enc.encode_batch(utts * 3, training=True, rng=masks(), dropout_p=p)
            logits = clf(ad.narrow0(q_all, 0, n))
            labels = np.array([ex.label for ex in batch])
            ce = classification_loss(ad.softmax(logits, axis=-1), labels)
            uns = unsup_contrastive_loss(ad.narrow0(q_all, n, 2 * n),
                                         ad.narrow0(q_all, 2 * n, 3 * n), cfg.tau)
            return combined_finetune_loss(ce, uns, cfg.lam)

        fails += _directional("retrieval", enc.parameters(), retrieval, seed + 2)
        fails += _directional("generation", enc.backbone_parameters() + dec.parameters(),
                              generation, seed + 3)
        fails += _directional("finetune", enc.parameters() + clf.parameters(), finetune, seed + 4)
    return fails


# ----------------------------------------------------------------------
# training


def check_training(rounds, cfg, test_golds, n_classes) -> list:
    """Loss curves, loss bounds and test accuracy of every training round."""
    fails = []
    first = rounds[0]
    for i, rnd in enumerate(rounds):
        if rnd.curves != first.curves or rnd.metrics != first.metrics:
            fails.append(f"training: round {i} differs from round 0 under the same seed")
    n = cfg.pretrain_batch
    ceiling = math.log(1.0 + (n - 1) * math.exp(2.0 / cfg.tau))
    for stage, rows in first.curves.items():
        losses_ = [row["loss"] for row in rows]
        if not all(math.isfinite(x) for x in losses_):
            fails.append(f"training: non-finite {stage} loss {losses_}")
            continue
        if len(losses_) >= 2 and not losses_[-1] < losses_[0]:
            fails.append(f"training: {stage} last-epoch loss {losses_[-1]} "
                         f"not below first {losses_[0]}")
        if stage == "retrieval" and not all(0.0 <= x <= ceiling for x in losses_):
            fails.append(f"training: retrieval loss outside [0, {ceiling:.3f}]: {losses_}")
    scores = first.test_scores
    hits = int(np.sum(np.argmax(scores, axis=1) == np.asarray(test_golds)))
    acc = hits / len(test_golds)
    if acc != first.metrics["accuracy"]:
        fails.append(f"training: accuracy {first.metrics['accuracy']} but raw scores give {acc}")
    if not acc > 1.0 / n_classes:
        fails.append(f"training: test accuracy {acc} not above chance 1/{n_classes}")
    return fails


def check_pipeline_matches_run_rsvp(composed, report, seed) -> list:
    """The benchmark's stage-by-stage pipeline equals run_rsvp bit for bit."""
    per_seed = dict(report.per_seed[0])
    if per_seed.pop("seed") != seed or per_seed != composed.metrics:
        return [f"pipeline: run_rsvp metrics {report.per_seed[0]} vs stages {composed.metrics}"]
    if report.curves[str(seed)] != composed.curves:
        return ["pipeline: run_rsvp loss curves differ from the stage-by-stage curves"]
    return []


# ----------------------------------------------------------------------
# serving


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


_erf = np.vectorize(math.erf)


def reference_probs(arrays, n_heads, ids) -> np.ndarray:
    """Class probabilities of one utterance by a float64 NumPy forward of
    encoder, [CLS] pooling and classifier, read from checkpoint arrays."""
    w = {k: v.astype(np.float64) for k, v in arrays.items()}
    ids = np.asarray(ids)
    x = w["encoder.tok_emb"][ids] + w["encoder.pos_emb"][: len(ids)]
    x = _layer_norm(x, w["encoder.emb_ln.gamma"], w["encoder.emb_ln.beta"])
    T, d = x.shape
    dh = d // n_heads
    layer = 0
    while f"encoder.layer{layer}.ln1.gamma" in w:
        pre = f"encoder.layer{layer}"

        def lin(name, h):
            return h @ w[f"{pre}.{name}.w"] + w[f"{pre}.{name}.b"]

        q, k, v = (lin(f"attn.{n}", x).reshape(T, n_heads, dh).transpose(1, 0, 2)
                   for n in ("wq", "wk", "wv"))
        s = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        ctx = ((e / e.sum(axis=-1, keepdims=True)) @ v).transpose(1, 0, 2).reshape(T, d)
        x = _layer_norm(x + lin("attn.wo", ctx), w[f"{pre}.ln1.gamma"], w[f"{pre}.ln1.beta"])
        h = lin("ffn.lin1", x)
        h = h * 0.5 * (1.0 + _erf(h / math.sqrt(2.0)))
        x = _layer_norm(x + lin("ffn.lin2", h), w[f"{pre}.ln2.gamma"], w[f"{pre}.ln2.beta"])
        layer += 1
    pooled = np.tanh(x[0] @ w["encoder.pool.w"] + w["encoder.pool.b"])
    hidden = np.tanh(pooled @ w["classifier.clf.lin1.w"] + w["classifier.clf.lin1.b"])
    logits = hidden @ w["classifier.clf.lin2.w"] + w["classifier.clf.lin2.b"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def check_scores(batched, single, ckpt_path, n_heads, examples, sample) -> list:
    """Probability rows are distributions, batch-1 equals batched, and a
    sample matches the reference forward."""
    fails = []
    if not np.all(np.isfinite(batched)) or np.max(np.abs(batched.sum(axis=1) - 1.0)) > 1e-9:
        fails.append("serve: batched probability rows are not finite distributions")
    gap = float(np.max(np.abs(batched - single)))
    if gap > PROB_TOL:
        fails.append(f"serve: batch-1 scores differ from batched scores by {gap:.3g}")
    arrays = checkpoint.load_checkpoint(ckpt_path).arrays
    for i in sample:
        ref = reference_probs(arrays, n_heads, examples[i].utterance_ids)
        gap = float(np.max(np.abs(ref - batched[i])))
        if gap > REF_TOL:
            fails.append(f"serve: record {i} differs from the reference forward by {gap:.3g}")
    return fails


def check_predict_output(path, records, batched, labels) -> list:
    """`rsvp predict` picks a top-scoring intent of the batched scores."""
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    if [r["id"] for r in rows] != [rec.id for rec in records]:
        return ["predict: output ids do not match the input records"]
    fails = []
    for i, row in enumerate(rows):
        k = labels.index(row["intent"])
        if batched[i, k] < batched[i].max() - PROB_TOL:
            fails.append(f"predict: record {i} intent {row['intent']} is not the argmax")
        cli_scores = np.array([row["scores"][name] for name in labels])
        if float(np.max(np.abs(cli_scores - batched[i]))) > PROB_TOL:
            fails.append(f"predict: record {i} scores differ from the batched scores")
    return fails[:5]


def check_embeddings(path, examples, label_names, embeddings) -> list:
    """The exported CSV parses back to the batched embeddings, row by row."""
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    d = embeddings.shape[1]
    if header != ["id", "intent"] + [f"e{i}" for i in range(d)]:
        return ["embeddings: unexpected CSV header"]
    if [r[0] for r in body] != [ex.example_id for ex in examples]:
        return ["embeddings: exported ids do not match the split"]
    if [r[1] for r in body] != [label_names[ex.label] for ex in examples]:
        return ["embeddings: exported intents do not match the split"]
    mat = np.array([[float(v) for v in r[2:]] for r in body])
    gap = float(np.max(np.abs(mat - embeddings)))
    if gap > PROB_TOL:
        return [f"embeddings: exported rows differ from batched embeddings by {gap:.3g}"]
    return []


def check_generation(decoder, encoder, utterances, outputs, max_t) -> list:
    """Each greedy token is a maximiser of a teacher-forced pass over
    [BOS] plus its prefix, and decoding stops at [EOS] or max_t."""
    fails = []
    for i, (u_ids, out) in enumerate(zip(utterances, outputs)):
        if len(out) > max_t or decoder.eos_id in out:
            fails.append(f"generate: sequence {i} overruns max_t or contains [EOS]")
            continue
        hidden, mask = encoder.forward_hidden([list(u_ids)])
        logits, _ = decoder.forward_teacher_forced(hidden, mask, [[decoder.bos_id] + list(out)])
        rows = logits.data[0].astype(np.float64)
        tol = 1e-4 * (1.0 + np.abs(rows).max())
        chosen = list(out) + ([decoder.eos_id] if len(out) < max_t else [])
        for t, tok in enumerate(chosen):
            if rows[t, tok] < rows[t].max() - tol:
                fails.append(f"generate: sequence {i} step {t} token {tok} is not the argmax")
                break
    return fails
