from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import re
import warnings

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp import checkpoint, cli
from rsvp import training as tr
from rsvp.cli import main
from rsvp.config import StageConfig, load_config
from rsvp.metrics import Prediction, load_embeddings, multilabel_metrics
from rsvp.text import Vocab, load_jsonl, tokenize
from rsvp.text import encode as encode_record

from .test_checkpoint import _header, _with_header
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

    # (key, JSON value in a --config file, the same value spelled for --set)
    FILE_AND_SET = [
        ("d_model", 2.5, "2.5"), ("finetune_epochs", 1.9, "1.9"), ("lr", True, "true"),
        ("lr", [1], "[1]"), ("d_model", None, "none"), ("d_model", {"a": 1}, '{"a": 1}'),
        ("seeds", 5, "5"), ("seeds", [0, 1], "0,1"), ("seeds", [], ""), ("seeds", [[0]], "[0]"),
        ("split_ratios", [0.5, 0.25, 0.25], "0.5,0.25,0.25"), ("clip_norm", None, "none"),
        ("clip_norm", 2, "2"), ("multi_label", True, "true"), ("multi_label", 1.0, "1.0"),
        ("lr", 1, "1"), ("lr", "0.5", "0.5"), ("precision", "float64", "float64"),
    ]

    @pytest.mark.parametrize("key,value,spelling", FILE_AND_SET)
    def test_a_file_value_parses_as_its_set_spelling(self, tmp_path, key, value, spelling):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        try:
            expected = load_config(None, [f"{key}={spelling}"])
        except ValueError as e:
            assert f"{key}=" in str(e) or f"{key} " in str(e)
            with pytest.raises(ValueError, match=f"{key}[= ]"):
                load_config(path)
        else:
            assert load_config(path) == expected

    def test_mistyped_file_values_are_refused_by_key(self, tmp_path):
        # each once trained with the value cut to the field's type
        for key, value in (("d_model", 2.5), ("finetune_epochs", 1.9), ("lr", True)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ValueError, match=f"{path}: cannot read config value {key}="):
                load_config(path)

    def test_empty_seed_list_items_are_refused(self):
        for seeds in ("0,,1", "0,1,", ",0"):
            with pytest.raises(ValueError, match="config value seeds="):
                load_config(None, [f"seeds={seeds}"])

    @pytest.mark.parametrize("fields,message", [
        ({"lr": 0.0}, "lr must be positive, got 0.0"),
        ({"lr": -1.0}, "lr must be positive, got -1.0"),
        ({"lr": float("nan")}, "lr must be positive, got nan"),
        ({"weight_decay": -5.0}, "weight_decay must be nonnegative, got -5.0"),
        ({"lam": float("nan")}, "lam must be nonnegative, got nan"),
        ({"tau": float("nan")}, "tau must be positive, got nan"),
        ({"clip_norm": 0.0}, "clip_norm must be positive"),
        ({"clip_norm": -1.0}, "clip_norm must be positive"),
        ({"pretrain_batch": 1}, "pretrain_batch must be >= 2 while retrieval_epochs > 0, got 1"),
        ({"max_len": 1}, "max_len must be >= 2, got 1"),
        ({"split_ratios": (0.5, 0.5)}, "split_ratios must be three nonnegative values summing to 1"),
        ({"split_ratios": (float("nan"), 0.5, 0.5)}, "split_ratios must be three nonnegative"),
        ({"split_ratios": (0.5, float("nan"), 0.5)}, "split_ratios must be three nonnegative"),
        ({"split_ratios": (float("inf"), 0.5, 0.5)}, "split_ratios must be three nonnegative"),
        ({"split_ratios": (-0.5, 0.75, 0.75)}, "split_ratios must be three nonnegative"),
        ({"split_ratios": (0.5, 0.25, 0.2)}, "split_ratios must be three nonnegative"),
    ])
    def test_configs_that_cannot_train_are_refused(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StageConfig(**fields)

    def test_configs_near_the_refused_ones_stay_valid(self):
        StageConfig(pretrain_batch=1, retrieval_epochs=0)
        StageConfig(weight_decay=0.0, clip_norm=None, lr=1e12)
        StageConfig(clip_norm=1e-3)
        StageConfig(max_len=2, split_ratios=(1.0, 0.0, 0.0))
        for batch in tr.SWEEP_VALUES["batch_n"]:
            StageConfig(pretrain_batch=batch)

    def test_resolved_config_loads_back_equal_in_every_field(self, data_path, tmp_path):
        # every field away from its default, so a field that does not round-trip shows
        sets = [
            "retrieval_epochs=0", "generation_epochs=3", "finetune_epochs=4",
            "task_order=generation_first", "pretrain_batch=5", "finetune_batch=6", "lr=0.003",
            "weight_decay=0.02", "clip_norm=1.5", "tau=0.7", "lam=0.25", "dropout_p=0.2",
            "seeds=4,2", "precision=float64", "d_model=32", "n_layers=1", "n_heads=2",
            "d_ffn=64", "pooled_dim=32", "max_len=48", "min_freq=2", "char_fallback=true",
            "split_ratios=0.7,0.2,0.1", "split_seed=3", "multi_label=true",
            "checkpoint_selection=final", "gen_loss_reduction=sequence_sum",
        ]
        cfg = load_config(None, sets)
        default = StageConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(StageConfig))
        first = tmp_path / "first"
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(first)]
                    + [arg for item in sets for arg in ("--set", item)]) == 0
        written = first / "resolved_config.json"
        assert load_config(written) == cfg
        again = tmp_path / "again"
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(again),
                     "--config", str(written)]) == 0
        assert (again / "resolved_config.json").read_bytes() == written.read_bytes()


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

    @pytest.mark.parametrize("order,precision", [("retrieval_first", "float32"),
                                                 ("generation_first", "float64")])
    def test_stage_chain_reproduces_run_rsvp(self, order, precision, data_path, tmp_path, caplog):
        """The stage commands chained at seed 0 in the task order write
        run-rsvp's seed-0 checkpoint, vocabulary and curve rows, and no
        stage transition in that order warns."""
        sets = _sets([f"task_order={order}", f"precision={precision}"])
        run = tmp_path / "run"
        assert main(["run-rsvp", "--data", data_path, "--out", str(run), "--seeds", "0"] + sets) == 0
        pretrain = [("pretrain-retrieval", "retrieval", "retrieval"),
                    ("pretrain-generation", "generation", "generation")]
        if order == "generation_first":
            pretrain.reverse()
        init, curve_rows = [], []
        for cmd, stage, tag in pretrain + [("finetune", "finetune", "finetuned")]:
            out = tmp_path / cmd
            with caplog.at_level(logging.WARNING, logger="rsvp.training"):
                assert main([cmd, "--data", data_path, "--out", str(out), "--seed", "0"]
                            + init + sets) == 0
            init = ["--init-ckpt", str(out / f"{tag}.ckpt")]
            with open(out / f"{stage}_curves.csv", encoding="utf-8", newline="") as f:
                curve_rows += list(csv.reader(f))[1:]
        assert not [r for r in caplog.records if r.name == "rsvp.training"]
        ft = tmp_path / "finetune"
        assert (ft / "finetuned.ckpt").read_bytes() == (run / "finetuned_seed0.ckpt").read_bytes()
        assert (ft / "vocab.txt").read_bytes() == (run / "vocab.txt").read_bytes()
        with open(run / "report_curves.csv", encoding="utf-8", newline="") as f:
            assert curve_rows == list(csv.reader(f))[1:]

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

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_init_ckpt_resumes_adamw_state_bit_for_bit(self, precision, data_path, tmp_path):
        """A stage resumed from --init-ckpt starts from every saved AdamW
        moment and step count, as a serving load does not."""
        out = tmp_path / "retr"
        assert main(["pretrain-retrieval", "--data", data_path, "--out", str(out), "--seed", "0"]
                    + _sets([f"precision={precision}"])) == 0
        path = str(out / "retrieval.ckpt")
        ckpt = checkpoint.load_checkpoint(path)
        cfg = load_config(None, MICRO + [f"precision={precision}"])
        encoder = cli._resume_encoder(argparse.Namespace(init_ckpt=path), cfg,
                                      tr.prepare(load_jsonl(data_path), cfg), "generation")
        params = encoder.named_parameters()
        assert len(params) == len(ckpt.moments1) == len(ckpt.moments2)
        for name, p in params:
            full = f"encoder.{name}"
            assert p.m.dtype == p.v.dtype == np.dtype(precision)
            assert p.m.tobytes() == ckpt.moments1[full].tobytes()
            assert p.v.tobytes() == ckpt.moments2[full].tobytes()
            assert p.step == ckpt.steps[full] > 0
        assert any(p.m.any() for _, p in params)

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
        cfg = load_config(None, MICRO + ["precision=float64", "retrieval_epochs=0"])
        prepared = tr.prepare(load_jsonl(data_path), cfg)
        _, _, encoder, _ = tr._seed_pipeline(prepared, cfg, 0, ["retrieval"])
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


    def test_no_records_write_an_empty_file(self, finetuned_dir, tmp_path, capsys):
        inputs = tmp_path / "incoming.jsonl"
        inputs.write_text("\n")
        out = tmp_path / "pred.jsonl"
        common = ["predict", "--ckpt", str(finetuned_dir / "finetuned.ckpt"),
                  "--input", str(inputs)]
        assert main(common + ["--out", str(out)]) == 0
        assert out.read_bytes() == b""
        capsys.readouterr()
        assert main(common) == 0
        assert capsys.readouterr().out == ""

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


    def test_multi_label_intents_are_the_classes_the_metrics_count(self, data_path, tmp_path,
                                                                   capsys):
        """Class 0 scores exactly 0.5 (a zero logit) and is not predicted;
        class 1 scores above it for every record and always is."""
        out = tmp_path / "ft"
        extra = ("retrieval_epochs=0", "generation_epochs=0", "multi_label=True")
        assert main(["finetune", "--data", data_path, "--out", str(out), "--seed", "0"]
                    + _sets(extra)) == 0
        meta, cfg, encoder, _, classifier = tr.load_stage_checkpoint(str(out / "finetuned.ckpt"))
        lin2 = classifier.lin2
        lin2.w.data[:, :2] = 0.0
        lin2.b.data[:2] = (0.0, 5.0)
        ckpt = tmp_path / "edge.ckpt"
        tr.save_stage_checkpoint(ckpt, "finetuned", cfg, encoder.cfg.vocab_size, encoder,
                                 classifier=classifier, labels=meta.labels)
        capsys.readouterr()
        assert main(["predict", "--ckpt", str(ckpt), "--vocab", str(out / "vocab.txt"),
                     "--input", data_path]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows
        for row in rows:
            scores = np.array([row["scores"][name] for name in meta.labels])
            assert scores[0] == 0.5
            chosen = np.array([name in row["intent"] for name in meta.labels], dtype=float)
            assert multilabel_metrics([Prediction(scores, chosen)])["subset_accuracy"] == 1.0
            assert meta.labels[0] not in row["intent"] and meta.labels[1] in row["intent"]


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
    """evaluate, export-embeddings and predict read the vocabulary from
    --vocab, else from the vocab.txt beside --ckpt; they never build one
    from --data."""

    @pytest.fixture(scope="class")
    def ft3(self, tmp_path_factory):
        """A checkpoint fine-tuned on 3 intents at data seed 1, and data
        of the same make-up at seed 2."""
        d = tmp_path_factory.mktemp("ft3")
        for seed in (1, 2):
            assert main(["gen-data", "--out", str(d / f"data{seed}.jsonl"), "--n-intents", "3",
                         "--n-per-intent", "8", "--seed", str(seed)]) == 0
        assert main(["finetune", "--data", str(d / "data1.jsonl"), "--out", str(d / "ft"),
                     "--seed", "0"] + _sets()) == 0
        return d

    def test_export_of_other_data_uses_the_checkpoints_vocab(self, ft3, tmp_path):
        ft, other = ft3 / "ft", str(ft3 / "data2.jsonl")
        for name, extra in (("beside.csv", []), ("given.csv", ["--vocab", str(ft / "vocab.txt")])):
            assert main(["export-embeddings", "--data", other, "--ckpt", str(ft / "finetuned.ckpt"),
                         "--split", "train", "--out", str(tmp_path / name)] + extra) == 0
        assert (tmp_path / "beside.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()

    # each command ends in the flag that takes the data
    @pytest.mark.parametrize("cmd", [["evaluate", "--data"],
                                     ["export-embeddings", "--out", "emb.csv", "--data"],
                                     ["predict", "--out", "pred.jsonl", "--input"]])
    def test_checkpoint_without_vocab_beside_it_exits_1(self, cmd, ft3, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        alone = tmp_path / "alone"
        alone.mkdir()
        ckpt = alone / "finetuned.ckpt"
        ckpt.write_bytes((ft3 / "ft" / "finetuned.ckpt").read_bytes())
        capsys.readouterr()
        rc = main(cmd + [str(ft3 / "data1.jsonl"), "--ckpt", str(ckpt)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(alone / "vocab.txt") in captured.err and "--vocab" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "emb.csv").exists() and not (tmp_path / "pred.jsonl").exists()

    def test_vocab_of_other_size_exits_1(self, data_path, finetuned_dir, tmp_path, capsys):
        ckpt = str(finetuned_dir / "finetuned.ckpt")
        other = tmp_path / "other.jsonl"
        assert main(["gen-data", "--out", str(other), "--n-intents", "4", "--n-per-intent", "12",
                     "--seed", "9", "--vocab-style", "abstract"]) == 0
        other_vocab = tmp_path / "other_vocab.txt"
        assert main(["build-vocab", "--data", str(other), "--out", str(other_vocab)]
                    + _sets()) == 0
        ckpt_size = len((finetuned_dir / "vocab.txt").read_text(encoding="utf-8").splitlines())
        other_size = len(other_vocab.read_text(encoding="utf-8").splitlines())
        assert other_size != ckpt_size
        commands = (["evaluate"], ["export-embeddings", "--out", str(tmp_path / "emb.csv")])
        capsys.readouterr()
        for cmd in commands:
            rc = main(cmd + ["--data", data_path, "--ckpt", ckpt, "--vocab", str(other_vocab)])
            err = capsys.readouterr().err
            assert rc == 1
            assert f"has {other_size} tokens" in err
            assert f"trained with {ckpt_size}" in err
        assert not (tmp_path / "emb.csv").exists()
        # without --vocab, other data exports; evaluate still refuses data
        # whose intents are not the checkpoint's
        for cmd, want in zip(commands, (1, 0)):
            assert main(cmd + ["--data", str(other), "--ckpt", ckpt]) == want
        assert "but the checkpoint was trained on" in capsys.readouterr().err


class TestEvaluateLabels:
    """evaluate scores data only when its intents are the checkpoint's:
    gold labels index the data's sorted intent list, scores the checkpoint's."""

    @staticmethod
    def _subset(data_path, tmp_path):
        path = tmp_path / "subset.jsonl"
        with open(data_path, encoding="utf-8") as f:
            kept = [line for line in f if "BookingChange" not in json.loads(line)["intents"]]
        path.write_text("".join(kept), encoding="utf-8")
        return path

    @staticmethod
    def _superset(data_path, tmp_path):
        path = tmp_path / "superset.jsonl"
        assert main(["gen-data", "--out", str(path), "--n-intents", "5", "--n-per-intent", "12",
                     "--seed", "3"]) == 0
        return path

    @pytest.mark.parametrize("make", ["_subset", "_superset"])
    def test_other_intents_exit_1(self, make, data_path, finetuned_dir, tmp_path, capsys):
        other = getattr(self, make)(data_path, tmp_path)
        data_labels = tr.prepare(load_jsonl(str(other)), load_config(None, MICRO)).label_names
        ckpt_labels = tr.load_stage_checkpoint(str(finetuned_dir / "finetuned.ckpt"))[0].labels
        assert data_labels != ckpt_labels
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        rc = main(["evaluate", "--data", str(other), "--ckpt", str(finetuned_dir / "finetuned.ckpt"),
                   "--vocab", str(finetuned_dir / "vocab.txt"), "--split", "train",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert str(data_labels) in captured.err and str(ckpt_labels) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


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

    def test_without_vocab_reads_the_vocab_beside_the_checkpoint(self, data_path, finetuned_dir,
                                                                 tmp_path):
        ckpt = str(finetuned_dir / "finetuned.ckpt")
        for name, extra in (("beside.jsonl", []),
                            ("given.jsonl", ["--vocab", str(finetuned_dir / "vocab.txt")])):
            assert main(["predict", "--ckpt", ckpt, "--input", data_path,
                         "--out", str(tmp_path / name)] + extra) == 0
        assert (tmp_path / "beside.jsonl").read_bytes() == (tmp_path / "given.jsonl").read_bytes()


class TestErrorPaths:
    @pytest.mark.parametrize("argv,message", [
        (["--seeds", ""], "seeds must hold at least one seed"),
        (["--seeds", "0,,1"], "cannot read config value seeds='0,,1'"),
        (["--set", "seeds=0,,1"], "cannot read config value seeds='0,,1'"),
        (["--seed", "1.5"], "cannot read config value seeds='1.5'"),
        (["--set", "lr=0"], "lr must be positive, got 0.0"),
        (["--set", "clip_norm=0"], "clip_norm must be positive"),
        (["--set", "weight_decay=-5"], "weight_decay must be nonnegative, got -5.0"),
        (["--set", "pretrain_batch=1"], "pretrain_batch must be >= 2 while retrieval_epochs > 0"),
        (["--set", "split_ratios=0.5,0.5"], "split_ratios must be three nonnegative values"),
        (["--set", "split_ratios=nan,0.5,0.5"], "split_ratios must be three nonnegative values"),
        (["--set", "max_len=1"], "max_len must be >= 2, got 1"),
        (["--seeds", "0,0"], "seeds must be distinct, got [0, 0]"),
        (["--seeds", "1,0,1"], "seeds must be distinct, got [1, 0, 1]"),
        (["--set", "seeds=-1"], "seeds must be nonnegative, got [-1]"),
        (["--seeds", "0,-2"], "seeds must be nonnegative, got [0, -2]"),
        (["--set", "split_seed=-1"], "split_seed must be nonnegative, got -1"),
    ])
    def test_refused_setting_exits_1_with_one_error_line(self, argv, message, data_path,
                                                         tmp_path, capsys):
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["run-rsvp", "--data", data_path, "--out", str(out)] + _sets() + argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,stage,needs", [
        ("pretrain-retrieval", "retrieval", "two usable pairs"),
        ("pretrain-generation", "generation", "one usable pair"),
    ])
    def test_max_len_that_empties_every_response_is_named(self, cmd, stage, needs, data_path,
                                                          tmp_path, capsys):
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main([cmd, "--data", data_path, "--out", str(out), "--seed", "0"]
                  + _sets(["max_len=2"]))
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {stage} pre-training needs at least {needs}; "
                                           "max_len=2 truncates every response to [BOS][EOS]\n")
        assert not out.exists()

    def test_finetune_runs_at_max_len_2(self, data_path, tmp_path):
        assert main(["finetune", "--data", data_path, "--out", str(tmp_path / "ft"), "--seed", "0"]
                    + _sets(["max_len=2"])) == 0

    def test_mistyped_config_file_exits_1_before_training(self, data_path, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d_model": 2.5}))
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["run-rsvp", "--data", data_path, "--out", str(out), "--config", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {path}: cannot read config value "
                                           "d_model='2.5' as int\n")
        assert not out.exists()

    def test_seed_means_set_seeds(self, data_path, tmp_path):
        for name, argv in (("seed", ["--seed", "3"]), ("set", ["--set", "seeds=3"]),
                           ("seeds", ["--seeds", " 3"])):
            assert main(["pretrain-retrieval", "--data", data_path, "--out", str(tmp_path / name)]
                        + _sets() + argv) == 0
        written = {(tmp_path / name / "resolved_config.json").read_bytes()
                   for name in ("seed", "set", "seeds")}
        assert len(written) == 1 and '"seeds": [\n    3\n  ]' in written.pop().decode()

    def test_key_error_is_not_caught(self, data_path, tmp_path, monkeypatch):
        # no input reaches a KeyError; one is a bug and keeps its traceback
        def broken(*args, **kwargs):
            raise KeyError("planted")

        monkeypatch.setattr(tr, "prepare", broken)
        with pytest.raises(KeyError, match="planted"):
            main(["run-rsvp", "--data", data_path, "--out", str(tmp_path / "o")] + _sets())

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["run-rsvp", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o")] + _sets())
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_loss_exits_1_without_traceback(self, data_path, tmp_path, capsys):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run-rsvp", "--data", data_path, "--out", str(tmp_path / "o"),
                       "--seeds", "0"] + _sets(["lr=1e12"]))
        err = capsys.readouterr().err
        assert rc == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
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

    @pytest.mark.parametrize("key,value", [
        ("labels", lambda header: 5),
        ("labels", lambda header: header["labels"][:1]),
        ("stage", lambda header: "pretrain"),
        ("steps", lambda header: dict(header["steps"], **{"encoder.pool.b": "7"})),
    ], ids=["number-labels", "one-label-for-four-classes", "unknown-stage", "string-step"])
    def test_predict_on_malformed_checkpoint_header_exits_1(self, finetuned_dir, data_path,
                                                            tmp_path, capsys, key, value):
        blob = (finetuned_dir / "finetuned.ckpt").read_bytes()
        header = _header(blob)
        header[key] = value(header)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(_with_header(blob, json.dumps(header).encode()))
        capsys.readouterr()
        rc = main(["predict", "--ckpt", str(ckpt), "--vocab", str(finetuned_dir / "vocab.txt"),
                   "--input", data_path])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {ckpt}: ") and "Traceback" not in err

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
        ckpt = str(ft / "finetuned.ckpt")
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
            "predict": ["predict", "--ckpt", ckpt, "--input", data, "--out", out],
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
