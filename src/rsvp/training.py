"""Two-stage training pipeline: response retrieval, response generation,
then intent-detection fine-tuning, plus the baseline, ablation grid,
hyperparameter sweeps, seed averaging and checkpoint wiring.

Each training seed owns isolated named random substreams (weight init,
dropout, shuffling, decoder init, classifier init), so pipeline variants
that skip a stage leave every other stage's randomness untouched.
"""
from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, load_checkpoint, restore_component, save_checkpoint
from .config import StageConfig
from .losses import (
    classification_loss,
    combined_finetune_loss,
    generation_loss,
    multilabel_loss,
    retrieval_loss,
    unsup_contrastive_loss,
)
from .metrics import Prediction, accuracy, in_batch_recall_at_1, mrr_at_k, multilabel_metrics
from .model import (
    ConversationalEncoder,
    IntentClassifier,
    ResponseDecoder,
    init_decoder_from_encoder,
)
from .optim import adamw_step, global_grad_norm, zero_grad
from .rng import SeedHub
from .text import BOS_ID, EOS_ID, PAD_ID, Vocab, build_vocab, flatten_dialogue, label_set, split
from .text import encode as encode_record

logger = logging.getLogger("rsvp.training")

_STAGE_RANK = {"retrieval": 1, "generation": 2, "finetuned": 3}


@dataclass
class PreparedData:
    """Encoded splits plus the vocabulary and label set they were built with."""

    train: list
    valid: list
    test: list
    vocab: Vocab
    label_names: list


def records_vocab(records, cfg: StageConfig) -> Vocab:
    """The vocabulary of every utterance and non-empty response in ``records``."""
    corpus = []
    for rec in records:
        u_text, r_text = flatten_dialogue(rec)
        corpus.append(u_text)
        if r_text:
            corpus.append(r_text)
    return build_vocab(corpus, min_freq=cfg.min_freq, char_fallback=cfg.char_fallback)


def prepare(records, cfg: StageConfig, vocab: Vocab | None = None) -> PreparedData:
    """Split records, build the vocabulary from the training split only
    (unless one is supplied), and encode every split."""
    label_names = label_set(records)
    mode = "multi" if cfg.multi_label else "single"
    train_recs, valid_recs, test_recs = split(records, cfg.split_ratios, cfg.split_seed)
    if vocab is None:
        vocab = records_vocab(train_recs, cfg)

    def enc(recs):
        return [
            encode_record(
                rec,
                vocab,
                label_names,
                h_max=cfg.max_len,
                t_max=cfg.max_len,
                mode=mode,
                char_fallback=cfg.char_fallback,
            )
            for rec in recs
        ]

    return PreparedData(enc(train_recs), enc(valid_recs), enc(test_recs), vocab, label_names)


def _usable_pairs(examples):
    """Pairs whose response carries content beyond the BOS/EOS bracket."""
    usable = [ex for ex in examples if len(ex.response_ids) > 2]
    skipped = len(examples) - len(usable)
    if skipped:
        logger.info("excluded %d pairs with empty responses from pre-training", skipped)
    return usable


def _run_epochs(stage: str, cfg: StageConfig, hub: SeedHub, params, n_items: int,
                batch_size: int, n_epochs: int, epoch_offset: int, step,
                min_last: int = 1, end_epoch=None) -> list:
    """The training loop every stage runs; returns one history row per epoch.

    Each absolute epoch draws its shuffle and dropout substreams
    (``shuffle_<stage>``, ``dropout_<stage>``), so training in chunks
    (``epoch_offset`` advancing) matches one monolithic run exactly. The
    epoch's permutation of ``n_items`` is cut into batches of ``batch_size``;
    a trailing batch shorter than ``min_last`` is dropped. ``step(idx,
    dropout_rng)`` builds the batch of item indices ``idx`` and returns
    ``(loss, weight, stats)``: the history row holds the ``weight``-weighted
    mean of each ``stats`` value, and ``end_epoch()``, if given, returns
    further entries for it. A non-finite loss raises ``FloatingPointError``
    before that batch's backward pass, and a non-finite pre-clip global
    gradient norm raises it before the update, so the weights and optimizer
    state stay those of the last finite step.
    """
    history = []
    for epoch in range(epoch_offset, epoch_offset + n_epochs):
        shuffle_rng = hub.stream(f"shuffle_{stage}", epoch)
        drop_rng = hub.stream(f"dropout_{stage}", epoch)
        perm = shuffle_rng.permutation(n_items)
        batches = [perm[i : i + batch_size] for i in range(0, n_items, batch_size)]
        if batches and len(batches[-1]) < min_last:
            logger.info("dropping a %d-pair trailing batch", len(batches[-1]))
            batches.pop()
        sums, total = {"loss": 0.0}, 0  # an epoch without batches reports loss 0.0
        for b, idx in enumerate(batches):
            loss, weight, stats = step(idx, drop_rng)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise FloatingPointError(
                    f"{stage}: non-finite loss {loss_value} at epoch {epoch}, batch {b}"
                )
            ad.backward(loss)
            norm = global_grad_norm(params)
            if not np.isfinite(norm):
                raise FloatingPointError(
                    f"{stage}: non-finite gradient norm {norm} at epoch {epoch}, batch {b}"
                )
            adamw_step(params, lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                       grad_norm=norm)
            zero_grad(params)
            for key, mean in stats.items():
                sums[key] = sums.get(key, 0.0) + mean * weight
            total += weight
        row = {"epoch": epoch, **{key: s / max(total, 1) for key, s in sums.items()}}
        if end_epoch is not None:
            row.update(end_epoch())
        history.append(row)
        logger.debug("%s epoch %s", stage, row)
    return history


def pretrain_retrieval(encoder, examples, cfg: StageConfig, hub: SeedHub, epoch_offset: int = 0):
    """Contrastive utterance-to-response training; returns per-epoch stats
    (loss and in-batch recall@1, averaged over pairs)."""
    usable = _usable_pairs(examples)
    if cfg.retrieval_epochs > 0 and len(usable) < 2:
        raise ValueError("retrieval pre-training needs at least two usable pairs")

    def step(idx, drop_rng):
        batch = [usable[i] for i in idx]
        bs = len(batch)
        # one encoder pass per side, each padded to its own longest sequence:
        # attention never reads PAD, so no embedding depends on the other
        # side's lengths, and utterances are not padded to the responses'
        q = encoder.encode_batch([ex.utterance_ids for ex in batch], training=True,
                                 rng=drop_rng, dropout_p=cfg.dropout_p)
        p = encoder.encode_batch([ex.response_ids for ex in batch], training=True,
                                 rng=drop_rng, dropout_p=cfg.dropout_p)
        loss = retrieval_loss(q, p, cfg.tau)
        return loss, bs, {"loss": loss.item(), "recall_at_1": in_batch_recall_at_1(q.data, p.data)}

    # a single-pair batch has no negatives and a zero gradient; drop it
    return _run_epochs("retrieval", cfg, hub, encoder.parameters(), len(usable),
                       cfg.pretrain_batch, cfg.retrieval_epochs, epoch_offset, step, min_last=2)


def pretrain_generation(encoder, examples, cfg: StageConfig, hub: SeedHub, decoder=None,
                        epoch_offset: int = 0):
    """Teacher-forced response generation; encoder and decoder update jointly.

    Returns (decoder, per-epoch stats); the epoch loss is per target
    token. The decoder starts as a value copy of the encoder blocks with
    fresh cross-attention and LM head.
    """
    if decoder is None:
        decoder = init_decoder_from_encoder(encoder, hub.stream("decoder_init"))
    usable = _usable_pairs(examples)
    if cfg.generation_epochs > 0 and not usable:
        raise ValueError("generation pre-training needs at least one usable pair")

    def step(idx, drop_rng):
        batch = [usable[i] for i in idx]
        enc_hidden, enc_mask = encoder.forward_hidden(
            [ex.utterance_ids for ex in batch], training=True, rng=drop_rng,
            dropout_p=cfg.dropout_p,
        )
        in_seqs = [ex.response_ids[:-1] for ex in batch]
        max_t = max(len(s) for s in in_seqs)
        targets = np.full((len(batch), max_t), PAD_ID, dtype=np.int64)
        for i, ex in enumerate(batch):
            targets[i, : len(ex.response_ids) - 1] = ex.response_ids[1:]
        logits, _ = decoder.forward_teacher_forced(
            enc_hidden, enc_mask, in_seqs, training=True, rng=drop_rng,
            dropout_p=cfg.dropout_p,
        )
        loss = generation_loss(
            logits, targets, pad_id=PAD_ID, reduction=cfg.gen_loss_reduction
        )
        n_tok = int((targets != PAD_ID).sum())
        per_token = loss.item() if cfg.gen_loss_reduction == "token_mean" else (
            loss.item() * len(batch) / n_tok
        )
        return loss, n_tok, {"loss": per_token}

    # the pooling head sees no gradient from teacher forcing; update only
    # the parameters this objective reaches
    params = encoder.backbone_parameters() + decoder.parameters()
    history = _run_epochs("generation", cfg, hub, params, len(usable), cfg.pretrain_batch,
                          cfg.generation_epochs, epoch_offset, step)
    return decoder, history


def score_utterances(encoder, classifier, utterance_seqs, multi_label: bool):
    """Eval-mode class scores (n, n_classes), float64: sigmoid per class
    when ``multi_label``, softmax otherwise. The encoder and classifier run
    graph-free through ``encoder.embed``, in input order and in chunks of
    at most ``model._EVAL_TOKEN_BUDGET`` padded tokens."""
    logits = encoder.embed(utterance_seqs, head=classifier).astype(np.float64)
    if multi_label:
        return ad.expit(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_examples(encoder, classifier, examples, multi_label: bool = False):
    """Eval-mode predictions; never reads response tokens."""
    seqs = [ex.utterance_ids for ex in examples]
    golds = [ex.label for ex in examples]
    if not examples:
        return []
    scores = score_utterances(encoder, classifier, seqs, multi_label)
    return [Prediction(scores=scores[i], gold=golds[i]) for i in range(len(examples))]


def compute_metrics(preds, multi_label: bool = False) -> dict:
    if multi_label:
        return multilabel_metrics(preds)
    out = {
        "accuracy": accuracy(preds),
        "mrr3": mrr_at_k(preds, 3),
        "mrr5": mrr_at_k(preds, 5),
    }
    # rank-1 hits contribute fully to all three, deeper ranks only to MRR
    if not out["accuracy"] <= out["mrr3"] <= out["mrr5"] <= 1.0:
        raise ValueError(
            "metric ordering violated: need accuracy <= mrr3 <= mrr5 <= 1, got "
            f"accuracy={out['accuracy']!r}, mrr3={out['mrr3']!r}, mrr5={out['mrr5']!r}"
        )
    return out


def finetune(encoder, train_examples, valid_examples, cfg: StageConfig, hub: SeedHub,
             n_classes: int, classifier=None, epoch_offset: int = 0):
    """Intent fine-tuning with cross-entropy plus the lambda-weighted
    dropout-consistency term; responses are never read here.

    Returns (classifier, per-epoch stats). With checkpoint_selection
    'best_valid', the weights revert to the epoch with the highest
    validation score at the end.
    """
    # project once: only utterances and labels flow through this stage
    train_feats = [(ex.utterance_ids, ex.label) for ex in train_examples]
    valid_feats = [(ex.utterance_ids, ex.label) for ex in valid_examples]
    if classifier is None:
        classifier = IntentClassifier(cfg.pooled_dim, n_classes, hub.stream("classifier_init"))
    params = encoder.parameters() + classifier.parameters()
    best_score = -np.inf
    best_snapshot = None

    def step(idx, drop_rng):
        batch = [train_feats[i] for i in idx]
        seqs = [u for u, _ in batch]
        b = len(seqs)
        if cfg.lam > 0:
            # one forward over three stacked copies: the classification
            # view plus the two dropout views, each with its own masks
            q_all = encoder.encode_batch(seqs * 3, training=True, rng=drop_rng, dropout_p=cfg.dropout_p)
            q = ad.narrow0(q_all, 0, b)
            q_hat = ad.narrow0(q_all, b, 2 * b)
            q_bar = ad.narrow0(q_all, 2 * b, 3 * b)
        else:
            q = encoder.encode_batch(seqs, training=True, rng=drop_rng, dropout_p=cfg.dropout_p)
        logits = classifier(q)
        if cfg.multi_label:
            y = np.stack([lab for _, lab in batch])
            ce = multilabel_loss(logits, y)
        else:
            y = np.asarray([lab for _, lab in batch], dtype=np.int64)
            ce = classification_loss(ad.softmax(logits, axis=-1), y)
        if cfg.lam > 0:
            loss = combined_finetune_loss(ce, unsup_contrastive_loss(q_hat, q_bar, cfg.tau), cfg.lam)
        else:
            loss = ce
        return loss, b, {"loss": loss.item()}

    def end_epoch():
        nonlocal best_score, best_snapshot
        if not valid_feats:
            return {"valid_score": float("nan")}
        scores = score_utterances(encoder, classifier, [u for u, _ in valid_feats], cfg.multi_label)
        preds = [Prediction(scores=scores[i], gold=y) for i, (_, y) in enumerate(valid_feats)]
        score = multilabel_metrics(preds)["subset_accuracy"] if cfg.multi_label else accuracy(preds)
        if cfg.checkpoint_selection == "best_valid" and score > best_score:
            best_score = score
            best_snapshot = [p.data.copy() for p in params]
        return {"valid_score": score}

    history = _run_epochs("finetune", cfg, hub, params, len(train_feats), cfg.finetune_batch,
                          cfg.finetune_epochs, epoch_offset, step, end_epoch=end_epoch)
    if best_snapshot is not None:
        for p, arr in zip(params, best_snapshot):
            p.data = arr
    return classifier, history


# ---------------------------------------------------------------------------
# full pipelines


@dataclass
class RunReport:
    """Per-seed metrics, their arithmetic mean, loss curves and the config."""

    variant: str
    per_seed: list
    mean: dict
    curves: dict
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, out_dir, name: str = "report") -> dict:
        """Write <name>.json plus a long-format <name>_curves.csv; returns paths."""
        os.makedirs(out_dir, exist_ok=True)
        json_path = os.path.join(out_dir, f"{name}.json")
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        csv_path = os.path.join(out_dir, f"{name}_curves.csv")
        write_curves_csv(csv_path, self.curves)
        return {"report": json_path, "curves": csv_path}


def write_curves_csv(path, curves: dict) -> None:
    """Long-format loss curves, one (seed, stage, epoch, metric, value) row
    per history entry; ``curves`` maps seed -> stage -> history rows."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["seed", "stage", "epoch", "metric", "value"])
        for seed_key in sorted(curves, key=int):
            for stage_name, rows in curves[seed_key].items():
                for row in rows:
                    for metric, value in row.items():
                        if metric != "epoch":
                            writer.writerow([seed_key, stage_name, row["epoch"], metric, repr(float(value))])


def load_report(path) -> RunReport:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    return RunReport(**{field.name: raw[field.name] for field in fields(RunReport)})


def _mean_metrics(per_seed: list) -> dict:
    keys = [k for k in per_seed[0] if k != "seed"]
    return {k: float(np.mean([row[k] for row in per_seed])) for k in keys}


def _seed_pipeline(prepared: PreparedData, cfg: StageConfig, seed: int, pretraining: bool):
    hub = SeedHub(seed)
    encoder = ConversationalEncoder(
        cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init")
    )
    stage_curves = {}
    if pretraining:
        stages = (
            ("retrieval", "generation")
            if cfg.task_order == "retrieval_first"
            else ("generation", "retrieval")
        )
        for stage in stages:
            if stage == "retrieval":
                stage_curves["retrieval"] = pretrain_retrieval(encoder, prepared.train, cfg, hub)
            else:
                _, hist = pretrain_generation(encoder, prepared.train, cfg, hub)
                stage_curves["generation"] = hist
    classifier, ft_hist = finetune(
        encoder, prepared.train, prepared.valid, cfg, hub, len(prepared.label_names)
    )
    stage_curves["finetune"] = ft_hist
    preds = predict_examples(encoder, classifier, prepared.test, cfg.multi_label)
    metrics = compute_metrics(preds, cfg.multi_label) if preds else {}
    return metrics, stage_curves, encoder, classifier


def _run_seeds(prepared: PreparedData, cfg: StageConfig, variant: str, pretraining: bool,
               on_seed=None) -> RunReport:
    """Run the pipeline once per seed in cfg.seeds, in cfg's precision, and
    report the per-seed metrics, their mean and the loss curves.
    ``on_seed(seed, encoder, classifier)`` sees each seed's trained model."""
    per_seed, curves = [], {}
    with ad.precision(cfg.precision):
        for seed in cfg.seeds:
            metrics, stage_curves, encoder, classifier = _seed_pipeline(
                prepared, cfg, seed, pretraining
            )
            per_seed.append({"seed": seed, **metrics})
            curves[str(seed)] = stage_curves
            if on_seed is not None:
                on_seed(seed, encoder, classifier)
    return RunReport(
        variant=variant,
        per_seed=per_seed,
        mean=_mean_metrics(per_seed),
        curves=curves,
        config=cfg.to_dict(),
    )


def run_rsvp(
    prepared: PreparedData,
    cfg: StageConfig,
    variant: str = "full",
    checkpoint_dir=None,
) -> RunReport:
    """Full two-stage pipeline, repeated over cfg.seeds and averaged.

    With ``checkpoint_dir`` set, the fine-tuned model for each seed is
    saved as finetuned_seed<seed>.ckpt.
    """
    def save(seed, encoder, classifier):
        os.makedirs(checkpoint_dir, exist_ok=True)
        save_stage_checkpoint(
            os.path.join(checkpoint_dir, f"finetuned_seed{seed}.ckpt"),
            "finetuned",
            cfg,
            len(prepared.vocab),
            encoder,
            classifier=classifier,
            labels=prepared.label_names,
        )

    return _run_seeds(prepared, cfg, variant, pretraining=True,
                      on_seed=save if checkpoint_dir is not None else None)


def run_baseline_classifier(
    prepared: PreparedData, cfg: StageConfig, with_uns_cl: bool = False
) -> RunReport:
    """Fine-tuning only, skipping both pre-training stages entirely."""
    eff = cfg if with_uns_cl else cfg.replace(lam=0.0)
    variant = "baseline_uns_cl" if with_uns_cl else "baseline"
    return _run_seeds(prepared, eff, variant, pretraining=False)


def ablation_variants(cfg: StageConfig) -> dict:
    """The ablation grid: full model, one pre-training task removed at a
    time, reversed task order, and no consistency term."""
    return {
        "full": cfg,
        "no_retrieval": cfg.replace(retrieval_epochs=0),
        "no_generation": cfg.replace(generation_epochs=0),
        "reversed_order": cfg.replace(task_order="generation_first"),
        "no_uns_cl": cfg.replace(lam=0.0),
    }


def run_ablation_grid(prepared: PreparedData, cfg: StageConfig) -> dict:
    reports = {}
    for name, variant_cfg in ablation_variants(cfg).items():
        logger.info("ablation variant: %s", name)
        reports[name] = run_rsvp(prepared, variant_cfg, variant=name)
    return reports


SWEEP_VALUES = {"batch_n": (4, 8, 12, 16), "lambda": (0.2, 0.4, 0.6, 0.8)}


def run_sweep(prepared: PreparedData, cfg: StageConfig, axis: str) -> list:
    """Grid over retrieval batch size or lambda; each cell is a full run
    sharing the same seeds."""
    if axis not in SWEEP_VALUES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {sorted(SWEEP_VALUES)}")
    rows = []
    for value in SWEEP_VALUES[axis]:
        cell_cfg = (
            cfg.replace(pretrain_batch=int(value))
            if axis == "batch_n"
            else cfg.replace(lam=float(value))
        )
        logger.info("sweep %s = %s", axis, value)
        rows.append((value, run_rsvp(prepared, cell_cfg, variant=f"{axis}={value}")))
    return rows


def _write_means_csv(path, head: list, rows: list) -> None:
    """One line per (key cells, report) row: the key cells, then the
    report's mean metrics, in the first report's metric order."""
    metric_keys = list(rows[0][1].mean)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(head + [f"{k}_mean" for k in metric_keys])
        for cells, report in rows:
            writer.writerow(cells + [repr(report.mean[k]) for k in metric_keys])


def sweep_to_csv(axis: str, rows: list, path) -> None:
    _write_means_csv(path, ["axis", "value"], [([axis, value], report) for value, report in rows])


def load_sweep_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = []
        axis = None
        for line in reader:
            axis = line[0]
            entry = {"value": float(line[1])}
            for name, val in zip(header[2:], line[2:]):
                entry[name.removesuffix("_mean")] = float(val)
            rows.append(entry)
    return axis, rows


def ablation_grid_to_csv(reports: dict, path) -> None:
    _write_means_csv(path, ["variant"], [([name], report) for name, report in reports.items()])


# ---------------------------------------------------------------------------
# checkpoint wiring


def save_stage_checkpoint(path, stage, cfg: StageConfig, vocab_size: int,
                          encoder, decoder=None, classifier=None, labels=None) -> None:
    components = {"encoder": encoder}
    if decoder is not None:
        components["decoder"] = decoder
    if classifier is not None:
        components["classifier"] = classifier
    config = dict(cfg.to_dict())
    config["vocab_size"] = vocab_size
    save_checkpoint(path, stage, components, config, labels=labels)


def load_stage_checkpoint(path):
    """Rebuild (cfg, encoder, decoder?, classifier?) from a checkpoint file."""
    ckpt = load_checkpoint(path)
    try:
        conf = dict(ckpt.config)
        vocab_size = conf.pop("vocab_size")
        cfg = StageConfig(**conf)
        enc_cfg = cfg.encoder_config(vocab_size)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid config snapshot ({e!r})") from e
    decoder = classifier = None
    # the modules take the checkpoint's precision; the caller's default stays.
    # They are built without an init draw and filled by the restore, which
    # raises for any parameter the file lacks.
    with ad.precision(cfg.precision):
        encoder = ConversationalEncoder(enc_cfg, None)
        restore_component(ckpt, "encoder", encoder)
        if any(name.startswith("decoder.") for name in ckpt.arrays):
            decoder = ResponseDecoder(enc_cfg, None, BOS_ID, EOS_ID)
            restore_component(ckpt, "decoder", decoder)
        if any(name.startswith("classifier.") for name in ckpt.arrays):
            if "classifier.clf.lin2.b" not in ckpt.arrays:
                raise CheckpointError(f"{path}: checkpoint is missing 'classifier.clf.lin2.b'")
            n_classes = ckpt.arrays["classifier.clf.lin2.b"].shape[0]
            classifier = IntentClassifier(cfg.pooled_dim, n_classes, None)
            restore_component(ckpt, "classifier", classifier)
    return ckpt, cfg, encoder, decoder, classifier


def check_stage_transition(ckpt_stage: str, next_stage: str) -> None:
    """Warn when a checkpoint from a later stage seeds an earlier one."""
    if _STAGE_RANK[ckpt_stage] >= _STAGE_RANK[next_stage]:
        logger.warning(
            "loading a %s-stage checkpoint into the %s stage; this rewinds the pipeline",
            ckpt_stage,
            next_stage,
        )
