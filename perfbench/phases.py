"""The three phases of a benchmark run: set-up, training rounds and
serving rounds. Each round repeats the same operations and returns its
timings and outputs; the caller decides how many rounds fit the window.

The program is driven through its public API only: the training stages,
the model classes, checkpoints, the metrics module and the CLI entry
point.
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from rsvp import cli
from rsvp import model
from rsvp import text
from rsvp import training as tr
from rsvp.rng import SeedHub


def _now() -> float:
    return time.perf_counter()


# ----------------------------------------------------------------------
# set-up


@dataclass
class TrainInputs:
    records: list
    cfg: object
    prepared: object


def train_setup(workload, seed, train_seed) -> tuple:
    """Generate the records, prepare them and initialise every model the
    pipeline builds; returns (inputs, (start, end))."""
    t0 = _now()
    records = workload.records(seed)
    cfg = workload.config(train_seed)
    prepared = tr.prepare(records, cfg)
    hub = SeedHub(train_seed)
    encoder = model.ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)),
                                          hub.stream("encoder_init"))
    model.init_decoder_from_encoder(encoder, hub.stream("decoder_init"),
                                    bos_id=tr.BOS_ID, eos_id=tr.EOS_ID)
    model.IntentClassifier(cfg.pooled_dim, len(prepared.label_names), hub.stream("classifier_init"))
    return TrainInputs(records, cfg, prepared), (t0, _now())


@dataclass
class ServeInputs:
    records: list
    examples: list
    labels: list
    encoder: object  # fine-tuned
    classifier: object
    gen_encoder: object  # after response generation
    decoder: object
    export_examples: list = field(default_factory=list)  # what export-embeddings writes


def serve_setup(workload, seed, paths) -> tuple:
    """Load both checkpoints and the vocabulary and encode the serving
    records; returns (inputs, (start, end))."""
    t0 = _now()
    ckpt, cfg, encoder, _, classifier = tr.load_stage_checkpoint(paths["finetuned"])
    _, _, gen_encoder, decoder, _ = tr.load_stage_checkpoint(paths["generation"])
    vocab = text.Vocab.load(paths["vocab"])
    records = workload.fresh(seed)
    examples = [text.encode(rec, vocab, ckpt.labels, h_max=cfg.max_len, t_max=cfg.max_len)
                for rec in records]
    text.save_jsonl(records, paths["fresh"])
    inputs = ServeInputs(records, examples, ckpt.labels, encoder, classifier, gen_encoder, decoder)
    return inputs, (t0, _now())


# ----------------------------------------------------------------------
# training rounds


def _retrieval_batches(n, batch):
    # pretrain_retrieval drops a one-pair trailing batch: it has no negatives
    full, last = divmod(n, batch)
    return full + (1 if last >= 2 else 0), n - (1 if last == 1 else 0)


@dataclass
class TrainRound:
    spans: dict  # (start, end): "finetune"; one per epoch: "retrieval", "generation";
    # "pipeline": every timed segment of the round
    curves: dict
    metrics: dict
    test_scores: np.ndarray
    steps: dict  # stage -> optimizer steps attempted
    failed_steps: int
    work: dict  # per epoch: retrieval pairs, generation target tokens; finetune: per stage


def stage_work(inputs: TrainInputs) -> tuple:
    """(work, steps) of each stage, from the schedule alone: retrieval pairs
    and non-PAD generation target tokens per epoch, fine-tuning utterances
    per stage, and optimizer steps per stage."""
    cfg, train = inputs.cfg, inputs.prepared.train
    usable = [ex for ex in train if len(ex.response_ids) > 2]
    r_batches, r_pairs = _retrieval_batches(len(usable), cfg.pretrain_batch)
    g_batches = -(-len(usable) // cfg.pretrain_batch)
    f_batches = -(-len(train) // cfg.finetune_batch)
    work = {"retrieval": r_pairs,
            "generation": sum(len(ex.response_ids) - 1 for ex in usable),
            "finetune": len(train) * cfg.finetune_epochs}
    steps = {"retrieval": r_batches * cfg.retrieval_epochs,
             "generation": g_batches * cfg.generation_epochs,
             "finetune": f_batches * cfg.finetune_epochs}
    return work, steps


def train_round(inputs: TrainInputs, cfg, paths, mark=lambda: None) -> TrainRound:
    """The full pipeline for one training seed, as run_rsvp composes it,
    saving the generation-stage and fine-tuned checkpoints.

    Both pre-training stages run one epoch per call with ``epoch_offset``
    advancing, which the stages guarantee equals one call over all epochs;
    that times every epoch on its own. ``mark`` runs between the timed
    segments, which together make up the pipeline.
    """
    prepared = inputs.prepared
    seed = cfg.seeds[0]
    hub = SeedHub(seed)
    vocab_size = len(prepared.vocab)
    one_r = cfg.replace(retrieval_epochs=1)
    one_g = cfg.replace(generation_epochs=1)
    segments = []

    def timed(fn):
        mark()
        start = _now()
        out = fn()
        segments.append((start, _now()))
        return out

    encoder = timed(lambda: model.ConversationalEncoder(cfg.encoder_config(vocab_size),
                                                        hub.stream("encoder_init")))
    hist_r = []
    for epoch in range(cfg.retrieval_epochs):
        hist_r += timed(lambda: tr.pretrain_retrieval(encoder, prepared.train, one_r, hub,
                                                      epoch_offset=epoch))
    t_r = segments[1:]
    decoder, hist_g = None, []
    for epoch in range(cfg.generation_epochs):
        decoder, rows = timed(lambda: tr.pretrain_generation(encoder, prepared.train, one_g, hub,
                                                             decoder=decoder, epoch_offset=epoch))
        hist_g += rows
    t_g = segments[1 + len(t_r):]
    if paths is not None:
        timed(lambda: tr.save_stage_checkpoint(paths["generation"], "generation", cfg, vocab_size,
                                               encoder, decoder=decoder,
                                               labels=prepared.label_names))
    classifier, hist_f = timed(lambda: tr.finetune(encoder, prepared.train, prepared.valid, cfg,
                                                   hub, len(prepared.label_names)))
    t_f = segments[-1]

    def evaluate():
        preds = tr.predict_examples(encoder, classifier, prepared.test, cfg.multi_label)
        if paths is not None:
            tr.save_stage_checkpoint(paths["finetuned"], "finetuned", cfg, vocab_size, encoder,
                                     classifier=classifier, labels=prepared.label_names)
        return preds, tr.compute_metrics(preds, cfg.multi_label)

    preds, metrics = timed(evaluate)
    mark()
    curves = {"retrieval": hist_r, "generation": hist_g, "finetune": hist_f}
    work, steps = stage_work(inputs)
    # the stages report losses per epoch: a non-finite epoch fails all its steps
    failed = 0
    for stage, rows in curves.items():
        per_epoch = steps[stage] // max(len(rows), 1)
        failed += per_epoch * sum(1 for row in rows if not np.isfinite(row["loss"]))
    return TrainRound(
        spans={"retrieval": t_r, "generation": t_g, "finetune": t_f, "pipeline": segments},
        curves=curves,
        metrics=metrics,
        test_scores=np.stack([p.scores for p in preds]),
        steps=steps,
        failed_steps=failed,
        work=work,
    )


# ----------------------------------------------------------------------
# serving rounds


@dataclass
class ServeRound:
    spans: dict  # (start, end) of each way of serving
    latencies: list  # (start, end) of each batch-1 call
    batched: np.ndarray
    single: np.ndarray
    generated: list
    generate_steps: int
    attempted: dict
    failed: dict


ROW_SUM_TOL = 1e-5  # a probability row sums to 1 within float32 rounding


def _bad_rows(scores: np.ndarray) -> int:
    """Score rows that are not finite probability distributions."""
    finite = np.all(np.isfinite(scores), axis=1)
    sums_to_one = np.abs(scores.sum(axis=1) - 1.0) <= ROW_SUM_TOL
    return int(np.sum(~(finite & sums_to_one)))


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def serve_round(workload, inputs: ServeInputs, paths) -> ServeRound:
    """Score every serving record five ways: batched, through `rsvp
    predict`, one at a time, through `rsvp export-embeddings`, and decode
    a few of them greedily."""
    ex = inputs.examples
    n = len(ex)
    t0 = _now()
    preds = tr.predict_examples(inputs.encoder, inputs.classifier, ex)
    t1 = _now()
    batched = np.stack([p.scores for p in preds])

    predict_rc = _quiet_cli(["predict", "--ckpt", paths["finetuned"], "--vocab", paths["vocab"],
                             "--input", paths["fresh"], "--out", paths["predict_out"]])
    t2 = _now()

    latencies, single = [], []
    for e in ex:
        s = _now()
        row = tr.predict_examples(inputs.encoder, inputs.classifier, [e])[0].scores
        latencies.append((s, _now()))
        single.append(row)
    t3 = _now()

    export_rc = _quiet_cli(["export-embeddings", "--ckpt", paths["finetuned"],
                            "--vocab", paths["vocab"], "--data", paths["fresh"],
                            "--split", "train", "--out", paths["embeddings"]])
    t4 = _now()

    generated, steps, bad_generations = [], 0, 0
    for e in ex[: workload.generate_records]:
        out = inputs.decoder.generate(inputs.gen_encoder, e.utterance_ids, workload.generate_max_t)
        generated.append(out)
        if len(out) > workload.generate_max_t or inputs.decoder.eos_id in out:
            bad_generations += 1
        # one forward per emitted token, plus the one that chose [EOS]
        steps += len(out) + (1 if len(out) < workload.generate_max_t else 0)
    t5 = _now()

    n_export = len(inputs.export_examples)
    single = np.stack(single)
    return ServeRound(
        spans={"score": (t0, t1), "predict": (t1, t2), "single": (t2, t3), "export": (t3, t4),
               "generate": (t4, t5)},
        latencies=latencies,
        batched=batched,
        single=single,
        generated=generated,
        generate_steps=steps,
        attempted={"scored": 2 * n, "predicted": n, "exported": n_export,
                   "generated": workload.generate_records},
        failed={"scored": _bad_rows(batched) + _bad_rows(single),
                "predicted": n if predict_rc != 0 else 0,
                "exported": n_export if export_rc != 0 else 0, "generated": bad_generations},
    )


def work_paths(work_dir) -> dict:
    names = {"generation": "generation.ckpt", "finetuned": "finetuned.ckpt", "vocab": "vocab.txt",
             "round_generation": "round_generation.ckpt", "round_finetuned": "round_finetuned.ckpt",
             "fresh": "fresh.jsonl", "predict_out": "predictions.jsonl",
             "embeddings": "embeddings.csv"}
    return {k: os.path.join(work_dir, v) for k, v in names.items()}
