"""Benchmark workloads: stage settings plus inputs generated from a seed.

Every input is a pure function of the workload seed, so two runs with the
same seed train and serve on identical records. The program only ever
sees the generated records.
"""
from __future__ import annotations

from dataclasses import dataclass

from rsvp import synth
from rsvp.config import StageConfig
from rsvp.text import DialogueRecord

N_INTENTS = 5
# the fresh serving traffic comes from a seed no training run uses, so its
# reference ids are out of the training vocabulary, as in real traffic
FRESH_SEED_OFFSET = 1_000_003
FRESH_RECORDS = 100  # serving records scored per serve round

# the desk model of the acceptance suite, demos and README
_DESK_MODEL = dict(
    d_model=128, n_layers=2, n_heads=4, d_ffn=256, pooled_dim=128,
    lr=1e-3, weight_decay=0.0, lam=0.5, tau=0.8, dropout_p=0.1,
)


@dataclass(frozen=True)
class Workload:
    make: object  # (seed, n) -> records
    stage: dict  # StageConfig fields besides the desk model and the seed
    records_per_run: int  # training records, before the split
    generate_records: int  # fresh records decoded greedily per serve round
    generate_max_t: int

    def config(self, train_seed: int) -> StageConfig:
        return StageConfig(**_DESK_MODEL, **self.stage, seeds=(train_seed,))

    def records(self, seed: int) -> list:
        return self.make(seed, self.records_per_run)

    def fresh(self, seed: int) -> list:
        return self.make(seed + FRESH_SEED_OFFSET, FRESH_RECORDS)


def desk_records(seed: int, n: int) -> list:
    """n single-dialogue records, n / N_INTENTS per intent."""
    return synth.gen_data(N_INTENTS, n // N_INTENTS, seed=seed)


LONG_JOIN = 6  # same-intent dialogues joined into one long dialogue


def long_records(seed: int, n: int) -> list:
    """n multi-turn records, each the turns of LONG_JOIN same-intent
    synthetic dialogues in order: ~85-token utterances, ~125-token responses."""
    source = synth.gen_data(N_INTENTS, n // N_INTENTS * LONG_JOIN, seed=seed)
    by_intent: dict = {}
    for rec in source:
        by_intent.setdefault(rec.intents[0], []).append(rec)
    out = []
    for intent, recs in by_intent.items():
        for start in range(0, len(recs), LONG_JOIN):
            group = recs[start : start + LONG_JOIN]
            out.append(
                DialogueRecord(
                    id=f"long{seed}x{len(out):05d}",
                    utterance_turns=[t for r in group for t in r.utterance_turns],
                    response_turns=[t for r in group for t in r.response_turns],
                    intents=[intent],
                )
            )
    return out


WORKLOADS = {
    # gen_data(5 intents x 40) at max_len 64: 12-16-token utterances,
    # 19-24-token responses, ~257-token vocabulary. Eight fine-tuning
    # epochs: with five, a slow-learning seed can end at chance accuracy.
    "desk": Workload(
        make=desk_records,
        stage=dict(
            max_len=64, pretrain_batch=16, finetune_batch=10,
            retrieval_epochs=3, generation_epochs=2, finetune_epochs=8,
        ),
        records_per_run=200,
        generate_records=8,
        generate_max_t=32,
    ),
    # 80 long dialogues at max_len 256. Smaller batches give the stages
    # enough steps to learn in a round; the 40% test split keeps the
    # above-chance check on test accuracy meaningful.
    "long": Workload(
        make=long_records,
        stage=dict(
            max_len=256, pretrain_batch=8, finetune_batch=5,
            retrieval_epochs=3, generation_epochs=2, finetune_epochs=5,
            split_ratios=(0.5, 0.1, 0.4),
        ),
        records_per_run=80,
        generate_records=1,
        generate_max_t=128,
    ),
}
