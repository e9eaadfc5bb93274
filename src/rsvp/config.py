"""Run configuration: stage hyperparameters, model size, data handling.

The published defaults: ten epochs per pre-training task, fifteen
fine-tuning epochs, pre-training batch 16, fine-tuning batch 10, learning
rate 2e-5, temperature 0.8, lambda 0.5, dropout 0.1, 512-token maximum,
five seeds. Desk-scale runs override the optimization fields.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .model import EncoderConfig
from .text import _checked_ratios


@dataclass
class StageConfig:
    # stage schedule
    retrieval_epochs: int = 10
    generation_epochs: int = 10
    finetune_epochs: int = 15
    task_order: str = "retrieval_first"  # or "generation_first"
    # optimization
    pretrain_batch: int = 16
    finetune_batch: int = 10
    lr: float = 2e-5
    weight_decay: float = 0.01
    clip_norm: float | None = None  # gradient clipping off unless set
    tau: float = 0.8
    lam: float = 0.5
    dropout_p: float = 0.1
    seeds: tuple = (0, 1, 2, 3, 4)
    precision: str = "float32"
    # model size (desk-scale defaults)
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ffn: int = 256
    pooled_dim: int = 128
    # data handling
    max_len: int = 512
    min_freq: int = 1
    char_fallback: bool = False
    split_ratios: tuple = (0.8, 0.1, 0.1)
    split_seed: int = 0
    multi_label: bool = False
    # reporting / selection
    checkpoint_selection: str = "best_valid"  # or "final"
    gen_loss_reduction: str = "token_mean"  # or "sequence_sum"

    def __post_init__(self):
        for name in ("retrieval_epochs", "generation_epochs", "finetune_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("pretrain_batch", "finetune_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # a one-pair retrieval batch has no negative, so its gradient is zero
        if self.retrieval_epochs > 0 and self.pretrain_batch < 2:
            raise ValueError(f"pretrain_batch must be >= 2 while retrieval_epochs > 0, "
                             f"got {self.pretrain_batch}")
        # the comparisons are written so that NaN is refused too
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, or none to turn clipping off, "
                             f"got {self.clip_norm}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.task_order not in ("retrieval_first", "generation_first"):
            raise ValueError(f"unknown task_order {self.task_order!r}")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.checkpoint_selection not in ("best_valid", "final"):
            raise ValueError(f"unknown checkpoint_selection {self.checkpoint_selection!r}")
        if self.gen_loss_reduction not in ("token_mean", "sequence_sum"):
            raise ValueError(f"unknown gen_loss_reduction {self.gen_loss_reduction!r}")
        # a response of max_len ids keeps [BOS] and [EOS]
        if self.max_len < 2:
            raise ValueError(f"max_len must be >= 2, got {self.max_len}")
        if not self.seeds:
            raise ValueError("seeds must hold at least one seed")
        self.seeds = tuple(int(s) for s in self.seeds)
        # a repeated seed would train twice into one checkpoint and one curve set
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        # NumPy's seeding refuses a negative seed without naming the key
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if self.split_seed < 0:
            raise ValueError(f"split_seed must be nonnegative, got {self.split_seed}")
        self.split_ratios = _checked_ratios(self.split_ratios, "split_ratios")

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_ffn=self.d_ffn,
            max_positions=self.max_len,
            pooled_dim=self.pooled_dim,
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["seeds"] = list(self.seeds)
        out["split_ratios"] = list(self.split_ratios)
        return out

    def replace(self, **kwargs) -> "StageConfig":
        return dataclasses.replace(self, **kwargs)


_FIELDS = {f.name: f for f in dataclasses.fields(StageConfig)}
# comma-separated fields and the type of their items
_LISTS = {"seeds": int, "split_ratios": float}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _spelling(name: str, value) -> str:
    """A config file's JSON ``value`` for ``name`` as ``--set`` would spell
    it: a list only for the comma-separated fields, null only for clip_norm."""
    if isinstance(value, list) and name in _LISTS:
        items = value
    elif value is None and name == "clip_norm":
        return "none"
    else:
        items = [value]
    if not all(isinstance(v, (str, int, float)) for v in items):
        raise ValueError(f"config value {name}={json.dumps(value)} is not a JSON string, number "
                         f"or boolean" + (", or a list of them" if name in _LISTS else ""))
    return ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)


def _parse_value(name: str, raw):
    """The one parse rule for a config value: ``raw`` is the text of
    ``--set name=raw``, or a config file's JSON value, read as its
    ``--set`` spelling. Every refusal is a ValueError naming ``name``."""
    if name not in _FIELDS:
        raise ValueError(f"unknown config key {name!r}")
    text = (raw if isinstance(raw, str) else _spelling(name, raw)).strip()
    if name == "clip_norm" and text in ("none", "None", ""):
        return None
    kind = _LISTS.get(name) or (float if name == "clip_norm" else type(_FIELDS[name].default))
    try:
        if name in _LISTS:
            # int("") raises: "0,,1" is refused, not read as (0, 1)
            return tuple(kind(item) for item in text.split(",")) if text else ()
        if kind is bool:
            return _BOOLS[text.lower()]
        return kind(text)
    except (KeyError, ValueError):
        of = "a comma-separated list of " if name in _LISTS else ""
        raise ValueError(
            f"cannot read config value {name}={text!r} as {of}{kind.__name__}") from None


def _parse_overrides(items) -> dict:
    """``key=value`` items parsed by ``_parse_value``, by key; a later item
    wins. ``tools/ab_time.py`` applies its ``--set`` items through this."""
    values = {}
    for item in items:
        key, eq, text = item.partition("=")
        if not eq:
            raise ValueError(f"override {item!r} is not of the form key=value")
        values[key.strip()] = _parse_value(key.strip(), text)
    return values


def load_config(path=None, overrides=None) -> StageConfig:
    """Build a StageConfig from an optional flat JSON file plus key=value
    overrides, which win over the file. A file value is accepted exactly
    when its ``--set`` spelling would be, and parses to the same value.
    Unknown keys are rejected."""
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a flat JSON object")
        try:
            values = {key: _parse_value(key, val) for key, val in raw.items()}
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    values.update(_parse_overrides(overrides or []))
    return StageConfig(**values)
