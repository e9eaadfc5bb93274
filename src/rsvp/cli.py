"""Command-line front end.

Subcommands cover the whole workflow: synthetic data generation,
vocabulary building, the three training stages individually, the full
pipeline, the baseline, ablations/sweeps, evaluation, prediction and
embedding export. Config values come from an optional flat JSON file,
overridden by repeated --set key=value flags; the resolved config is
stamped into every emitted report and checkpoint. Set RSVP_LOG to adjust
log verbosity.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import autodiff as ad
from . import training as tr
from .checkpoint import CheckpointError
from .config import StageConfig, load_config
from .metrics import export_embeddings
from .rng import SeedHub
from .model import ConversationalEncoder
from .synth import gen_data
from .text import Vocab, encode_utterance, load_jsonl, read_jsonl, split

logger = logging.getLogger("rsvp.cli")


def _setup_logging():
    level = os.environ.get("RSVP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s: %(message)s")


def _resolve_config(args) -> StageConfig:
    cfg = load_config(args.config, args.set or [])
    if args.seeds:
        cfg = cfg.replace(seeds=tuple(int(s) for s in args.seeds.split(",")))
    elif args.seed is not None:
        cfg = cfg.replace(seeds=(int(args.seed),))
    return cfg


def _load_prepared(args, cfg: StageConfig):
    records = load_jsonl(args.data)
    vocab = Vocab.load(args.vocab) if getattr(args, "vocab", None) else None
    return tr.prepare(records, cfg, vocab=vocab)


def _write_resolved_config(out_dir, cfg: StageConfig):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved_config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def cmd_gen_data(args) -> int:
    records = gen_data(
        n_intents=args.n_intents,
        n_per_intent=args.n_per_intent,
        vocab_style=args.vocab_style,
        seed=args.seed if args.seed is not None else 0,
        out_path=args.out,
    )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_build_vocab(args) -> int:
    cfg = load_config(args.config, args.set or [])
    records = load_jsonl(args.data)
    if args.scope == "train":
        records = split(records, cfg.split_ratios, cfg.split_seed)[0]
    vocab = tr.records_vocab(records, cfg)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


def _init_encoder(args, cfg: StageConfig, prepared, seed: int, next_stage: str):
    enc_cfg = cfg.encoder_config(len(prepared.vocab))
    if getattr(args, "init_ckpt", None):
        ckpt, ckpt_cfg, encoder, _, _ = tr.load_stage_checkpoint(args.init_ckpt)
        # precision is not an EncoderConfig field; an encoder of the other
        # precision would be saved under this run's config
        if ckpt_cfg.precision != cfg.precision:
            raise ValueError(f"--init-ckpt {args.init_ckpt} has precision={ckpt_cfg.precision!r}, "
                             f"but this run's config gives {cfg.precision!r}")
        # a model of another shape would train, then write a checkpoint that
        # no command can load with this run's config
        for field in dataclasses.fields(enc_cfg):
            have, want = getattr(encoder.cfg, field.name), getattr(enc_cfg, field.name)
            if have != want:
                raise ValueError(f"--init-ckpt {args.init_ckpt} has {field.name}={have!r}, "
                                 f"but this run's config and data give {want!r}")
        tr.check_stage_transition(ckpt.stage, next_stage)
        return encoder
    hub = SeedHub(seed)
    with ad.precision(cfg.precision):
        return ConversationalEncoder(enc_cfg, hub.stream("encoder_init"))


def _save_stage(args, cfg: StageConfig, seed: int, prepared, stage: str, ckpt_stage: str,
                history, encoder, **heads) -> str:
    """Write a stage command's outputs into --out: the resolved config, the
    checkpoint, <stage>_curves.csv and vocab.txt; returns the checkpoint path."""
    _write_resolved_config(args.out, cfg)
    ckpt_path = os.path.join(args.out, f"{ckpt_stage}.ckpt")
    tr.save_stage_checkpoint(ckpt_path, ckpt_stage, cfg, len(prepared.vocab), encoder,
                             labels=prepared.label_names, **heads)
    tr.write_curves_csv(os.path.join(args.out, f"{stage}_curves.csv"), {str(seed): {stage: history}})
    prepared.vocab.save(os.path.join(args.out, "vocab.txt"))
    return ckpt_path


def cmd_pretrain_retrieval(args) -> int:
    cfg = _resolve_config(args)
    seed = cfg.seeds[0]
    prepared = _load_prepared(args, cfg)
    with ad.precision(cfg.precision):
        encoder = _init_encoder(args, cfg, prepared, seed, "retrieval")
        history = tr.pretrain_retrieval(encoder, prepared.train, cfg, SeedHub(seed))
    ckpt_path = _save_stage(args, cfg, seed, prepared, "retrieval", "retrieval", history, encoder)
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_pretrain_generation(args) -> int:
    cfg = _resolve_config(args)
    seed = cfg.seeds[0]
    prepared = _load_prepared(args, cfg)
    with ad.precision(cfg.precision):
        encoder = _init_encoder(args, cfg, prepared, seed, "generation")
        decoder, history = tr.pretrain_generation(encoder, prepared.train, cfg, SeedHub(seed))
    ckpt_path = _save_stage(args, cfg, seed, prepared, "generation", "generation", history,
                            encoder, decoder=decoder)
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _resolve_config(args)
    seed = cfg.seeds[0]
    prepared = _load_prepared(args, cfg)
    with ad.precision(cfg.precision):
        encoder = _init_encoder(args, cfg, prepared, seed, "finetuned")
        classifier, history = tr.finetune(
            encoder, prepared.train, prepared.valid, cfg, SeedHub(seed), len(prepared.label_names)
        )
    ckpt_path = _save_stage(args, cfg, seed, prepared, "finetune", "finetuned", history,
                            encoder, classifier=classifier)
    preds = tr.predict_examples(encoder, classifier, prepared.test, cfg.multi_label)
    if preds:
        print(json.dumps(tr.compute_metrics(preds, cfg.multi_label), sort_keys=True))
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_run_rsvp(args) -> int:
    cfg = _resolve_config(args)
    prepared = _load_prepared(args, cfg)
    report = tr.run_rsvp(prepared, cfg, checkpoint_dir=args.out)
    paths = report.save(args.out)
    prepared.vocab.save(os.path.join(args.out, "vocab.txt"))
    print(json.dumps(report.mean, sort_keys=True))
    print(f"report: {paths['report']}")
    return 0


def cmd_run_baseline(args) -> int:
    cfg = _resolve_config(args)
    prepared = _load_prepared(args, cfg)
    report = tr.run_baseline_classifier(prepared, cfg, with_uns_cl=args.with_uns_cl)
    paths = report.save(args.out, name="baseline_report")
    print(json.dumps(report.mean, sort_keys=True))
    print(f"report: {paths['report']}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    prepared = _load_prepared(args, cfg)
    if args.axis == "ablation":
        reports = tr.run_ablation_grid(prepared, cfg)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "ablation_grid.csv")
        tr.ablation_grid_to_csv(reports, path)
        for name, report in reports.items():
            report.save(args.out, name=f"report_{name}")
    else:
        rows = tr.run_sweep(prepared, cfg, args.axis)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"sweep_{args.axis}.csv")
        tr.sweep_to_csv(args.axis, rows, path)
    _write_resolved_config(args.out, cfg)
    print(f"grid: {path}")
    return 0


def _check_vocab_size(vocab: Vocab, source: str, encoder) -> None:
    """A vocabulary whose size is not the checkpoint's is an error."""
    expected = encoder.cfg.vocab_size
    if len(vocab) != expected:
        raise ValueError(
            f"vocabulary ({source}) has {len(vocab)} tokens but the checkpoint was "
            f"trained with {expected}; pass --vocab with the vocab.txt written beside it"
        )


def _checkpoint_split(args, cfg: StageConfig, encoder):
    """Prepare ``--data`` with the checkpoint's config; returns (prepared,
    the ``--split`` examples). Without ``--vocab`` the vocabulary is rebuilt
    from the data."""
    prepared = _load_prepared(args, cfg)
    _check_vocab_size(prepared.vocab, args.vocab or f"rebuilt from {args.data}", encoder)
    splits = {"train": prepared.train, "valid": prepared.valid, "test": prepared.test}
    return prepared, splits[args.split]


def cmd_evaluate(args) -> int:
    ckpt, cfg, encoder, _, classifier = tr.load_stage_checkpoint(args.ckpt)
    if classifier is None:
        raise ValueError("evaluate needs a finetuned checkpoint with a classifier head")
    _, examples = _checkpoint_split(args, cfg, encoder)
    preds = tr.predict_examples(encoder, classifier, examples, cfg.multi_label)
    metrics = tr.compute_metrics(preds, cfg.multi_label)
    print(json.dumps(metrics, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"split": args.split, "metrics": metrics, "config": cfg.to_dict()}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
    return 0


def cmd_predict(args) -> int:
    """Predict intents for raw JSONL records; reads only utterance_turns."""
    ckpt, cfg, encoder, _, classifier = tr.load_stage_checkpoint(args.ckpt)
    if classifier is None:
        raise ValueError("predict needs a finetuned checkpoint with a classifier head")
    if ckpt.labels is None:
        raise ValueError("checkpoint does not carry label names")
    vocab = Vocab.load(args.vocab)
    _check_vocab_size(vocab, args.vocab, encoder)
    ids, seqs = [], []
    for lineno, raw in read_jsonl(args.input):
        turns = raw.get("utterance_turns")
        if not turns:
            raise ValueError(f"{args.input}: line {lineno}: missing utterance_turns")
        ids.append(raw.get("id", f"line{lineno}"))
        seqs.append(encode_utterance(turns, vocab, cfg.max_len, cfg.char_fallback))
    outputs = []
    if seqs:
        # the batched scorer predict_examples uses, so scores match it bit for bit
        scores = tr.score_utterances(encoder, classifier, seqs, cfg.multi_label)
        for record_id, row in zip(ids, scores):
            if cfg.multi_label:
                chosen = [ckpt.labels[i] for i in np.flatnonzero(row > 0.5)]
            else:
                chosen = ckpt.labels[int(np.argmax(row))]
            outputs.append(
                {"id": record_id, "intent": chosen,
                 "scores": {name: float(s) for name, s in zip(ckpt.labels, row)}}
            )
    text_out = "\n".join(json.dumps(o, sort_keys=True) for o in outputs) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text_out)
        print(f"predictions: {args.out}")
    else:
        sys.stdout.write(text_out)
    return 0


def cmd_export_embeddings(args) -> int:
    ckpt, cfg, encoder, _, _ = tr.load_stage_checkpoint(args.ckpt)
    prepared, examples = _checkpoint_split(args, cfg, encoder)
    export_embeddings(encoder, examples, prepared.label_names, args.out)
    print(f"embeddings: {args.out}")
    return 0


def _add_config(p):
    p.add_argument("--config", default=None, help="flat JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")


def _add_common(p, data=True, out=True, config=True):
    """``config=False`` is for commands that take their config from a
    checkpoint and so have no use for --config, --set and the seeds."""
    if config:
        _add_config(p)
        seeds = p.add_mutually_exclusive_group()
        seeds.add_argument("--seed", type=int, default=None)
        seeds.add_argument("--seeds", default=None, help="comma-separated seed list")
    if data:
        p.add_argument("--data", required=True, help="JSONL dataset file")
        p.add_argument("--vocab", default=None, help="token-per-line vocab file")
    if out:
        p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsvp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dialogue dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-intents", type=int, default=5)
    p.add_argument("--n-per-intent", type=int, default=40)
    p.add_argument("--vocab-style", default="basic", choices=["basic", "abstract"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    # the vocabulary depends on the config (split_seed included), not on the
    # run seeds, and is what --vocab would load
    p = sub.add_parser("build-vocab", help="build and save a vocabulary")
    _add_config(p)
    p.add_argument("--data", required=True, help="JSONL dataset file")
    p.add_argument("--out", required=True, help="vocab output file")
    p.add_argument("--scope", default="train", choices=["train", "all"])
    p.set_defaults(func=cmd_build_vocab)

    for name, fn in (
        ("pretrain-retrieval", cmd_pretrain_retrieval),
        ("pretrain-generation", cmd_pretrain_generation),
        ("finetune", cmd_finetune),
    ):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} stage")
        _add_common(p)
        p.add_argument("--init-ckpt", default=None, help="checkpoint to start from")
        p.set_defaults(func=fn)

    p = sub.add_parser("run-rsvp", help="full two-stage pipeline over all seeds")
    _add_common(p)
    p.set_defaults(func=cmd_run_rsvp)

    p = sub.add_parser("run-baseline", help="fine-tuning-only baseline")
    _add_common(p)
    p.add_argument("--with-uns-cl", action="store_true")
    p.set_defaults(func=cmd_run_baseline)

    p = sub.add_parser("sweep", help="batch-size/lambda sweeps or the ablation grid")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=["batch_n", "lambda", "ablation"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="evaluate a finetuned checkpoint on a split")
    _add_common(p, out=False, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p.add_argument("--out", default=None, help="optional metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict intents for raw records")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True, help="JSONL with utterance_turns")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export-embeddings", help="CSV export of utterance embeddings")
    _add_common(p, out=False, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CheckpointError, KeyError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
