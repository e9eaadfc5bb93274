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
        if min(self.retrieval_epochs, self.generation_epochs, self.finetune_epochs) < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.pretrain_batch < 1 or self.finetune_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
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
        if not self.seeds:
            raise ValueError("at least one seed is required")
        self.seeds = tuple(int(s) for s in self.seeds)
        self.split_ratios = tuple(float(r) for r in self.split_ratios)

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


def _parse_value(name: str, raw):
    """Coerce a config value (possibly a string from the CLI) to field type."""
    f = _FIELDS[name]
    if name in ("seeds", "split_ratios"):
        if isinstance(raw, str):
            raw = [x for x in raw.replace(" ", "").split(",") if x]
        caster = int if name == "seeds" else float
        return tuple(caster(x) for x in raw)
    if name == "clip_norm":
        if raw in (None, "none", "None", ""):
            return None
        return float(raw)
    typ = f.type if isinstance(f.type, type) else type(f.default)
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes"):
            return True
        if str(raw).lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"cannot parse boolean config value {name}={raw!r}")
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    return str(raw)


def load_config(path=None, overrides=None) -> StageConfig:
    """Build a StageConfig from an optional flat JSON file plus key=value
    overrides. Unknown keys are rejected; overrides win over the file."""
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a flat JSON object")
        for key, val in raw.items():
            if key not in _FIELDS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            values[key] = _parse_value(key, val)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, val.strip())
    return StageConfig(**values)
