from __future__ import annotations

import argparse
import csv
import json
import os

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp import cli
from rsvp import training as tr
from rsvp.cli import main
from rsvp.config import StageConfig, load_config
from rsvp.metrics import load_embeddings
from rsvp.text import Vocab, load_jsonl, tokenize
from rsvp.text import encode as encode_record

from .test_training import _graph_scores


MICRO = [
    "retrieval_epochs=1", "generation_epochs=1", "finetune_epochs=2",
    "lr=0.001", "pretrain_batch=8", "finetune_batch=8", "max_len=48",
    "d_model=32", "n_layers=1", "n_heads=2", "d_ffn=64", "pooled_dim=32",
]


def _sets(extra=()):
    out = []
    for kv in list(MICRO) + list(extra):
        out += ["--set", kv]
    return out


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "dialogues.jsonl"
    assert main(["gen-data", "--out", str(path), "--n-intents", "4",
                 "--n-per-intent", "12", "--seed", "3"]) == 0
    return str(path)


class TestConfig:
    def test_defaults_match_published_values(self):
        cfg = StageConfig()
        assert cfg.retrieval_epochs == 10
        assert cfg.generation_epochs == 10
        assert cfg.finetune_epochs == 15
        assert cfg.pretrain_batch == 16
        assert cfg.finetune_batch == 10
        assert cfg.lr == 2e-5
        assert cfg.tau == 0.8
        assert cfg.lam == 0.5
        assert cfg.dropout_p == 0.1
        assert cfg.max_len == 512
        assert len(cfg.seeds) == 5

    def test_file_plus_overrides_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lr": 0.01, "tau": 0.9}))
        cfg = load_config(path, ["lr=0.002"])
        assert cfg.lr == 0.002
        assert cfg.tau == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 0.01}))
        with pytest.raises(ValueError, match="learning_rate"):
            load_config(path)
        with pytest.raises(ValueError, match="bogus"):
            load_config(None, ["bogus=3"])

    def test_removed_truncate_side_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"truncate_side": "right"}))
        with pytest.raises(ValueError, match="unknown config key 'truncate_side'"):
            load_config(path)
        with pytest.raises(ValueError, match="unknown config key 'truncate_side'"):
            load_config(None, ["truncate_side=right"])
        assert "truncate_side" not in StageConfig().to_dict()

    def test_seed_list_parsing(self):
        cfg = load_config(None, ["seeds=7,8,9"])
        assert cfg.seeds == (7, 8, 9)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, ["tau=0"])
        with pytest.raises(ValueError):
            load_config(None, ["task_order=sideways"])


class TestGenDataCommand:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-data", "--out", str(a), "--n-intents", "3", "--n-per-intent", "5", "--seed", "9"])
        main(["gen-data", "--out", str(b), "--n-intents", "3", "--n-per-intent", "5", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_sizes_exit_nonzero(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x.jsonl"), "--n-intents", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBuildVocab(object):
    def test_writes_token_per_line(self, data_path, tmp_path):
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--data", data_path, "--out", str(out)] + _sets()) == 0
        lines = out.read_text().splitlines()
        assert lines[:6] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[BOS]", "[EOS]"]
        assert len(lines) > 6

    @pytest.mark.parametrize("extra", [(), ("min_freq=2",), ("char_fallback=true",)])
    def test_train_scope_equals_stage_vocab_file(self, data_path, tmp_path, extra):
        built = tmp_path / "built.txt"
        assert main(["build-vocab", "--data", data_path, "--scope", "train",
                     "--out", str(built)] + _sets(extra)) == 0
        stage = tmp_path / "retr"
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(stage),
                     "--seed", "0"] + _sets(extra)) == 0
        assert built.read_bytes() == (stage / "vocab.txt").read_bytes()

    @pytest.mark.parametrize("flag,value", [("--seed", "1"), ("--seeds", "1,2"),
                                            ("--vocab", "vocab.txt")])
    def test_unused_flags_rejected_by_argparse(self, flag, value, data_path, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab", "--data", data_path, "--out", str(out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert not out.exists()


class TestStageCommands:
    def test_pipeline_of_stage_commands(self, data_path, tmp_path):
        d1 = tmp_path / "retr"
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(d1),
                     "--seed", "0"] + _sets()) == 0
        assert (d1 / "retrieval.ckpt").exists()
        assert (d1 / "retrieval_curves.csv").exists()
        assert (d1 / "resolved_config.json").exists()

        d2 = tmp_path / "gen"
        assert main(["pretrain-generation", "--data", data_path, "--out", str(d2),
                     "--init-ckpt", str(d1 / "retrieval.ckpt"), "--seed", "0"] + _sets()) == 0
        assert (d2 / "generation.ckpt").exists()

        d3 = tmp_path / "ft"
        assert main(["finetune", "--data", data_path, "--out", str(d3),
                     "--init-ckpt", str(d2 / "generation.ckpt"), "--seed", "0"] + _sets()) == 0
        assert (d3 / "finetuned.ckpt").exists()

    @pytest.fixture(scope="class")
    def retrieval_ckpt(self, data_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("retr")
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(out),
                     "--seed", "0"] + _sets()) == 0
        return str(out / "retrieval.ckpt")

    @pytest.mark.parametrize("cmd", ["pretrain-retrieval", "pretrain-generation", "finetune"])
    def test_init_ckpt_of_other_model_size_exits_1(self, cmd, data_path, retrieval_ckpt,
                                                   tmp_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([cmd, "--data", data_path, "--out", str(out), "--init-ckpt", retrieval_ckpt,
                   "--seed", "0"] + _sets(["d_model=64"]))
        err = capsys.readouterr().err
        assert rc == 1
        assert "d_model" in err and "32" in err and "64" in err
        assert not out.exists()

    def test_init_ckpt_of_other_vocabulary_size_exits_1(self, data_path, retrieval_ckpt,
                                                        tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main(["gen-data", "--out", str(other), "--n-intents", "4", "--n-per-intent", "12",
                     "--seed", "9", "--vocab-style", "abstract"]) == 0
        ckpt_size = tr.load_stage_checkpoint(retrieval_ckpt)[2].cfg.vocab_size
        rebuilt_size = len(tr.prepare(load_jsonl(str(other)), load_config(None, MICRO)).vocab)
        assert rebuilt_size != ckpt_size
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["finetune", "--data", str(other), "--out", str(out),
                   "--init-ckpt", retrieval_ckpt, "--seed", "0"] + _sets())
        err = capsys.readouterr().err
        assert rc == 1
        assert "vocab_size" in err and str(ckpt_size) in err and str(rebuilt_size) in err
        assert not out.exists()

    def test_init_ckpt_of_other_precision_exits_1(self, data_path, retrieval_ckpt, tmp_path, capsys):
        retr64 = tmp_path / "retr64"
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(retr64),
                     "--seed", "0"] + _sets(["precision=float64"])) == 0
        for ckpt, extra, have, want in (
                (str(retr64 / "retrieval.ckpt"), [], "float64", "float32"),
                (retrieval_ckpt, ["precision=float64"], "float32", "float64")):
            out = tmp_path / "out"
            capsys.readouterr()
            rc = main(["finetune", "--data", data_path, "--out", str(out),
                       "--init-ckpt", ckpt, "--seed", "0"] + _sets(extra))
            err = capsys.readouterr().err
            assert rc == 1
            assert f"precision={have!r}" in err and repr(want) in err
            assert not out.exists()

    def test_init_ckpt_may_change_dropout(self, data_path, retrieval_ckpt, tmp_path):
        assert main(["finetune", "--data", data_path, "--out", str(tmp_path / "ft"),
                     "--init-ckpt", retrieval_ckpt, "--seed", "0"]
                    + _sets(["dropout_p=0.2"])) == 0

    def test_stage_curves_use_the_report_layout(self, data_path, tmp_path):
        ft = tmp_path / "ft"
        assert main(["finetune", "--data", data_path, "--out", str(ft), "--seed", "5"] + _sets()) == 0
        with open(ft / "finetune_curves.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["seed", "stage", "epoch", "metric", "value"]
        assert [r[:4] for r in rows[1:]] == [
            ["5", "finetune", "0", "loss"], ["5", "finetune", "0", "valid_score"],
            ["5", "finetune", "1", "loss"], ["5", "finetune", "1", "valid_score"],
        ]
        # the baseline with the consistency term runs the same fine-tuning
        base = tmp_path / "base"
        assert main(["run-baseline", "--with-uns-cl", "--data", data_path, "--out", str(base),
                     "--seeds", "5"] + _sets()) == 0
        assert (ft / "finetune_curves.csv").read_bytes() == (base / "baseline_report_curves.csv").read_bytes()


class TestDtypeScope:
    """A float64 config runs in float64 and leaves the process default alone."""

    def test_init_encoder_builds_in_config_precision(self, data_path):
        cfg = load_config(None, MICRO + ["precision=float64"])
        prepared = tr.prepare(load_jsonl(data_path), cfg)
        encoder = cli._init_encoder(argparse.Namespace(init_ckpt=None), cfg, prepared, 0, "retrieval")
        assert encoder.tok_emb.data.dtype == np.float64
        assert ad.default_dtype() is np.float32

    def test_stage_commands_leave_float32_default(self, data_path, tmp_path):
        init = []
        for cmd, ckpt in (("pretrain-retrieval", "retrieval.ckpt"),
                          ("pretrain-generation", "generation.ckpt"),
                          ("finetune", "finetuned.ckpt")):
            out = tmp_path / cmd
            assert main([cmd, "--data", data_path, "--out", str(out), "--seed", "0"] + init
                        + _sets(["precision=float64"])) == 0
            assert ad.default_dtype() is np.float32
            init = ["--init-ckpt", str(out / ckpt)]
            _, _, encoder, _, _ = tr.load_stage_checkpoint(str(out / ckpt))
            assert encoder.tok_emb.data.dtype == np.float64


class TestRunCommands:
    def test_run_rsvp_writes_report_and_checkpoints(self, data_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run-rsvp", "--data", data_path, "--out", str(out),
                     "--seeds", "0,1"] + _sets()) == 0
        stdout = capsys.readouterr().out
        assert "report:" in stdout
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_seed"]) == 2
        assert (out / "finetuned_seed0.ckpt").exists()
        assert (out / "finetuned_seed1.ckpt").exists()
        assert (out / "report_curves.csv").exists()
        # resolved config stamped into the report
        assert report["config"]["d_model"] == 32

    def test_evaluate_reproduces_report_metrics_exactly(self, data_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run-rsvp", "--data", data_path, "--out", str(out), "--seeds", "0"] + _sets())
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        assert main(["evaluate", "--data", data_path, "--ckpt",
                     str(out / "finetuned_seed0.ckpt"), "--split", "test"]) == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        row = report["per_seed"][0]
        assert metrics["accuracy"] == row["accuracy"]
        assert metrics["mrr3"] == row["mrr3"]
        assert metrics["mrr5"] == row["mrr5"]

    def test_run_baseline(self, data_path, tmp_path):
        out = tmp_path / "base"
        assert main(["run-baseline", "--data", data_path, "--out", str(out),
                     "--seeds", "0"] + _sets()) == 0
        report = json.loads((out / "baseline_report.json").read_text())
        assert report["variant"] == "baseline"

    def test_sweep_ablation_grid(self, data_path, tmp_path):
        out = tmp_path / "abl"
        assert main(["sweep", "--axis", "ablation", "--data", data_path, "--out", str(out),
                     "--seeds", "0"] + _sets(("retrieval_epochs=1", "generation_epochs=1",
                                              "finetune_epochs=1"))) == 0
        grid = (out / "ablation_grid.csv").read_text().splitlines()
        assert grid[0].startswith("variant,")
        assert len(grid) == 6  # header + 5 variants


class TestPredict:
    def test_predict_without_responses_or_labels(self, data_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run-rsvp", "--data", data_path, "--out", str(out), "--seeds", "0"] + _sets())
        inputs = tmp_path / "incoming.jsonl"
        inputs.write_text(
            json.dumps({"id": "q1", "utterance_turns": ["hello i need help with my refund"],
                        "response_turns": []})
            + "\n"
            + json.dumps({"utterance_turns": ["my parcel is lost", "reference is id999"]})
            + "\n"
        )
        capsys.readouterr()
        assert main(["predict", "--ckpt", str(out / "finetuned_seed0.ckpt"),
                     "--vocab", str(out / "vocab.txt"), "--input", str(inputs)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["id"] == "q1"
        assert isinstance(lines[0]["intent"], str)
        assert abs(sum(lines[0]["scores"].values()) - 1.0) < 1e-6


    @pytest.mark.parametrize("value", [None, 7, True, {"k": 1}, ["a"]],
                             ids=["null", "number", "bool", "object", "list"])
    def test_id_that_is_not_a_string_exits_1(self, finetuned_dir, tmp_path, capsys, value):
        inputs = tmp_path / "incoming.jsonl"
        inputs.write_text(json.dumps({"id": "q1", "utterance_turns": ["refund"]}) + "\n"
                          + json.dumps({"id": value, "utterance_turns": ["refund"]}) + "\n")
        out = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert main(["predict", "--ckpt", str(finetuned_dir / "finetuned.ckpt"),
                     "--vocab", str(finetuned_dir / "vocab.txt"), "--input", str(inputs),
                     "--out", str(out)]) == 1
        assert "line 2: id must be a string" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("multi_label", [False, True])
    def test_scores_bit_equal_to_predict_examples(self, data_path, tmp_path, capsys,
                                                  multi_label):
        out = tmp_path / "ft"
        extra = ("retrieval_epochs=0", "generation_epochs=0", f"multi_label={multi_label}")
        assert main(["finetune", "--data", data_path, "--out", str(out), "--seed", "0"]
                    + _sets(extra)) == 0
        ckpt = out / "finetuned.ckpt"
        vocab_path = out / "vocab.txt"
        capsys.readouterr()
        assert main(["predict", "--ckpt", str(ckpt), "--vocab", str(vocab_path),
                     "--input", data_path]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]

        meta, cfg, encoder, _, classifier = tr.load_stage_checkpoint(str(ckpt))
        records = load_jsonl(data_path)
        vocab = Vocab.load(str(vocab_path))
        examples = [encode_record(rec, vocab, meta.labels, h_max=cfg.max_len, t_max=cfg.max_len,
                                  mode="multi" if multi_label else "single")
                    for rec in records]
        preds = tr.predict_examples(encoder, classifier, examples, multi_label)
        assert [r["id"] for r in rows] == [rec.id for rec in records]
        for row, pred in zip(rows, preds):
            assert [row["scores"][name] for name in meta.labels] == pred.scores.tolist()
            if multi_label:
                assert row["intent"] == [n for n, s in zip(meta.labels, pred.scores) if s > 0.5]
            else:
                assert row["intent"] == meta.labels[int(np.argmax(pred.scores))]


def _previous_predict_output(ckpt_path, vocab_path, input_path) -> bytes:
    """What `rsvp predict` wrote before its utterance encoding moved into
    rsvp.text and eval scoring went graph-free: its own inline encoder,
    graph-built chunked scoring and the same JSON lines."""
    meta, cfg, encoder, _, classifier = tr.load_stage_checkpoint(ckpt_path)
    vocab = Vocab.load(vocab_path)
    ids, seqs = [], []
    with open(input_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            raw = json.loads(line)
            text = " [SEP] ".join(raw["utterance_turns"])
            seq = [vocab.cls_id] + vocab.encode_tokens(tokenize(text, cfg.char_fallback))
            ids.append(raw.get("id", f"line{lineno}"))
            seqs.append(seq[: cfg.max_len])
    scores = _graph_scores(encoder, classifier, seqs, cfg.multi_label)
    outputs = [
        {"id": record_id, "intent": meta.labels[int(np.argmax(row))],
         "scores": {name: float(s) for name, s in zip(meta.labels, row)}}
        for record_id, row in zip(ids, scores)
    ]
    return ("\n".join(json.dumps(o, sort_keys=True) for o in outputs) + "\n").encode("utf-8")


class TestPredictOutputUnchanged:
    @pytest.mark.parametrize("char_fallback", [False, True])
    def test_bytes_equal_previous_predict(self, data_path, tmp_path, char_fallback):
        out = tmp_path / "ft"
        extra = ("retrieval_epochs=0", "generation_epochs=0", "max_len=12",
                 f"char_fallback={char_fallback}")
        assert main(["finetune", "--data", data_path, "--out", str(out), "--seed", "0"]
                    + _sets(extra)) == 0
        ckpt, vocab_path = str(out / "finetuned.ckpt"), str(out / "vocab.txt")
        long_turns = ["hello i need help with my refund please, it was charged twice",
                      "the order number is 12345 https://shop.example/o/12345 \U0001F600"]
        assert len(tokenize(" [SEP] ".join(long_turns))) + 1 > 12
        inputs = tmp_path / "incoming.jsonl"
        inputs.write_text(
            json.dumps({"id": "long", "utterance_turns": long_turns, "response_turns": []}) + "\n"
            + json.dumps({"id": "short", "utterance_turns": ["cancel"]}) + "\n\n"
            + json.dumps({"utterance_turns": ["my parcel is lost", "id999"]}) + "\n",
            encoding="utf-8",
        )
        pred_path = tmp_path / "pred.jsonl"
        assert main(["predict", "--ckpt", ckpt, "--vocab", vocab_path, "--input", str(inputs),
                     "--out", str(pred_path)]) == 0
        assert pred_path.read_bytes() == _previous_predict_output(ckpt, vocab_path, inputs)


class TestExportEmbeddings:
    def test_export_round_trip(self, data_path, tmp_path):
        out = tmp_path / "run"
        main(["run-rsvp", "--data", data_path, "--out", str(out), "--seeds", "0"] + _sets())
        csv_path = tmp_path / "emb.csv"
        assert main(["export-embeddings", "--data", data_path,
                     "--ckpt", str(out / "finetuned_seed0.ckpt"),
                     "--split", "test", "--out", str(csv_path)]) == 0
        ids, intents, mat = load_embeddings(csv_path)
        assert mat.shape[1] == 32
        assert len(ids) == len(intents) == mat.shape[0] > 0


class TestCheckpointVocabulary:
    """evaluate and export-embeddings without --vocab rebuild the vocabulary
    from --data; one of another size than the checkpoint's is an error."""

    def test_rebuilt_vocab_of_other_size_exits_1(self, data_path, tmp_path, capsys):
        ft = tmp_path / "ft"
        assert main(["finetune", "--data", data_path, "--out", str(ft), "--seed", "0"] + _sets()) == 0
        other = tmp_path / "other.jsonl"
        assert main(["gen-data", "--out", str(other), "--n-intents", "4", "--n-per-intent", "12",
                     "--seed", "9", "--vocab-style", "abstract"]) == 0
        ckpt_size = len((ft / "vocab.txt").read_text(encoding="utf-8").splitlines())
        cfg = load_config(None, MICRO)
        rebuilt_size = len(tr.prepare(load_jsonl(str(other)), cfg).vocab)
        assert rebuilt_size != ckpt_size
        commands = (["evaluate"], ["export-embeddings", "--out", str(tmp_path / "emb.csv")])
        capsys.readouterr()
        for cmd in commands:
            rc = main(cmd + ["--data", str(other), "--ckpt", str(ft / "finetuned.ckpt")])
            err = capsys.readouterr().err
            assert rc == 1
            assert f"has {rebuilt_size} tokens" in err
            assert f"trained with {ckpt_size}" in err
            assert "pass --vocab" in err
        assert not (tmp_path / "emb.csv").exists()
        for cmd in commands:
            assert main(cmd + ["--data", str(other), "--ckpt", str(ft / "finetuned.ckpt"),
                               "--vocab", str(ft / "vocab.txt")]) == 0


class TestPredictVocabulary:
    def test_vocab_of_other_size_exits_1(self, data_path, tmp_path, capsys):
        ft = tmp_path / "ft"
        assert main(["finetune", "--data", data_path, "--out", str(ft), "--seed", "0"] + _sets()) == 0
        other = tmp_path / "other.jsonl"
        assert main(["gen-data", "--out", str(other), "--n-intents", "4", "--n-per-intent", "12",
                     "--seed", "9", "--vocab-style", "abstract"]) == 0
        other_vocab = tmp_path / "other_vocab.txt"
        assert main(["build-vocab", "--data", str(other), "--out", str(other_vocab)]
                    + _sets()) == 0
        ckpt_size = len((ft / "vocab.txt").read_text(encoding="utf-8").splitlines())
        other_size = len(other_vocab.read_text(encoding="utf-8").splitlines())
        assert other_size != ckpt_size
        pred_path = tmp_path / "pred.jsonl"
        capsys.readouterr()
        rc = main(["predict", "--ckpt", str(ft / "finetuned.ckpt"), "--vocab", str(other_vocab),
                   "--input", str(other), "--out", str(pred_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"has {other_size} tokens" in err
        assert f"trained with {ckpt_size}" in err
        assert not pred_path.exists()
        assert main(["predict", "--ckpt", str(ft / "finetuned.ckpt"),
                     "--vocab", str(ft / "vocab.txt"), "--input", str(other),
                     "--out", str(pred_path)]) == 0


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["run-rsvp", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o")] + _sets())
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_1_without_traceback(self, data_path, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["run-rsvp", "--data", data_path, "--out", str(tmp_path / "o"), "--seeds", "0"]
                  + _sets(["lr=1e12"]))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "non-finite loss" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting,message", [
        ("d_model=0", "d_model must be >= 1, got 0"),
        ("d_ffn=0", "d_ffn must be >= 1, got 0"),
        ("pooled_dim=0", "pooled_dim must be >= 1, got 0"),
        ("n_layers=-1", "n_layers must be >= 0, got -1"),
        ("dropout_p=1.0", "dropout_p must be in [0, 1), got 1.0"),
    ])
    def test_invalid_model_setting_exits_1_before_training(self, setting, message, data_path,
                                                           tmp_path, capsys):
        out = tmp_path / "ft"
        capsys.readouterr()
        rc = main(["finetune", "--data", data_path, "--out", str(out), "--seed", "0"]
                  + _sets([setting]))
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_needs_classifier(self, data_path, tmp_path, capsys):
        d1 = tmp_path / "retr"
        main(["pretrain-retrieval", "--data", data_path, "--out", str(d1), "--seed", "0"] + _sets())
        rc = main(["evaluate", "--data", data_path, "--ckpt", str(d1 / "retrieval.ckpt")])
        assert rc == 1
        assert "classifier" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ('["where is my order"]', "line 2: expected a JSON object"),
        ('{"utterance_turns": "where is my order"}', "line 2: utterance_turns must be a list"),
    ])
    def test_predict_rejects_malformed_line(self, finetuned_dir, tmp_path, capsys, line, message):
        inputs = tmp_path / "incoming.jsonl"
        inputs.write_text('{"utterance_turns": ["where is my order"]}\n' + line + "\n")
        pred_path = tmp_path / "pred.jsonl"
        capsys.readouterr()
        rc = main(["predict", "--ckpt", str(finetuned_dir / "finetuned.ckpt"),
                   "--vocab", str(finetuned_dir / "vocab.txt"), "--input", str(inputs),
                   "--out", str(pred_path)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not pred_path.exists()


class TestCheckpointCommandFlags:
    """evaluate and export-embeddings take their config from the checkpoint."""

    REJECTED = [(cmd, flag, value)
                for cmd in ("evaluate", "export-embeddings")
                for flag, value in (("--config", "/nonexistent.json"), ("--set", "lr=0.5"),
                                    ("--seed", "7"), ("--seeds", "3,4"))]

    @pytest.mark.parametrize("cmd,flag,value", REJECTED)
    def test_config_flags_rejected_by_argparse(self, cmd, flag, value, tmp_path, capsys):
        argv = [cmd, "--data", str(tmp_path / "d.jsonl"), "--ckpt", str(tmp_path / "m.ckpt"),
                "--out", str(tmp_path / "o"), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_export_set_rejected_by_argparse(self, data_path, tmp_path, capsys):
        # the checkpoint's own lr once passed; dropout is no model field to restate
        ft = tmp_path / "ft"
        assert main(["finetune", "--data", data_path, "--out", str(ft), "--seed", "0"] + _sets()) == 0
        csv_path = tmp_path / "emb.csv"
        for item in ("lr=0.001", "dropout_p=0.1"):
            with pytest.raises(SystemExit) as exc:
                main(["export-embeddings", "--data", data_path, "--ckpt", str(ft / "finetuned.ckpt"),
                      "--vocab", str(ft / "vocab.txt"), "--out", str(csv_path), "--set", item])
            assert exc.value.code == 2
            assert "--set" in capsys.readouterr().err
        assert not csv_path.exists()


def test_seed_and_seeds_are_exclusive(data_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pretrain-retrieval", "--data", data_path, "--out", str(tmp_path / "o"),
              "--seed", "7", "--seeds", "3,4"] + _sets())
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _unread_flags(parser, argv):
    """Run ``argv`` through its handler on a namespace that records every
    attribute the handler reads; returns the destinations of the
    subcommand's flags that it never read."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = parser.parse_args(argv, namespace=Recording())
    reads.clear()  # parsing itself reads the namespace
    assert args.func(args) == 0
    sub = _subparsers(parser)[argv[0]]
    return {a.dest for a in sub._actions if a.option_strings and a.dest != "help"} - reads


@pytest.fixture(scope="module")
def finetuned_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("ft")
    assert main(["finetune", "--data", data_path, "--out", str(out), "--seed", "0"] + _sets()) == 0
    return out


class TestEveryFlagIsRead:
    """Each subcommand runs on micro data with only the flags it needs, the
    rest at their defaults, and its handler must read every flag it
    registers: a flag that is parsed and never read silently does nothing."""

    ONE_SEED = ["--set", "seeds=0"]

    def _argv(self, cmd, data, ft, out):
        """A run of ``cmd`` that passes only its required flags; a new
        subcommand fails here until it is added."""
        ckpt, vocab = str(ft / "finetuned.ckpt"), str(ft / "vocab.txt")
        sets = _sets() + self.ONE_SEED
        return {
            "gen-data": ["gen-data", "--out", out],
            "build-vocab": ["build-vocab", "--data", data, "--out", out] + sets,
            "pretrain-retrieval": ["pretrain-retrieval", "--data", data, "--out", out] + sets,
            "pretrain-generation": ["pretrain-generation", "--data", data, "--out", out] + sets,
            "finetune": ["finetune", "--data", data, "--out", out] + sets,
            "run-rsvp": ["run-rsvp", "--data", data, "--out", out] + sets,
            "run-baseline": ["run-baseline", "--data", data, "--out", out] + sets,
            "sweep": ["sweep", "--axis", "lambda", "--data", data, "--out", out]
                     + _sets(["retrieval_epochs=0", "generation_epochs=0"]) + self.ONE_SEED,
            "evaluate": ["evaluate", "--data", data, "--ckpt", ckpt],
            "predict": ["predict", "--ckpt", ckpt, "--vocab", vocab, "--input", data,
                        "--out", out],
            "export-embeddings": ["export-embeddings", "--data", data, "--ckpt", ckpt,
                                  "--out", out],
        }[cmd]

    @pytest.mark.parametrize("cmd", sorted(_subparsers(cli.build_parser())))
    def test_handler_reads_every_registered_flag(self, cmd, data_path, finetuned_dir, tmp_path):
        argv = self._argv(cmd, data_path, finetuned_dir, str(tmp_path / "out"))
        assert _unread_flags(cli.build_parser(), argv) == set()

    def test_a_planted_unread_flag_is_reported(self, tmp_path):
        parser = cli.build_parser()
        _subparsers(parser)["gen-data"].add_argument("--planted", default=None)
        argv = ["gen-data", "--out", str(tmp_path / "d.jsonl"), "--planted", "x"]
        assert _unread_flags(parser, argv) == {"planted"}
