"""Stage 2: intent-detection fine-tuning.

The decoder is discarded; an MLP head goes on top of the pooled utterance
embedding. The objective is cross-entropy plus a lambda-weighted
unsupervised contrastive term over two dropout views of each utterance.
Responses are never read in this stage.

Run:  python3 demos/05_intent_finetuning.py   (~30 s)
"""
from rsvp.config import StageConfig
from rsvp.model import ConversationalEncoder
from rsvp.metrics import accuracy, mrr_at_k
from rsvp.rng import SeedHub
from rsvp.synth import gen_data
from rsvp.training import (
    compute_metrics,
    finetune,
    predict_examples,
    prepare,
    pretrain_generation,
    pretrain_retrieval,
)

cfg = StageConfig(
    retrieval_epochs=10, generation_epochs=5, finetune_epochs=25,
    lr=1e-3, weight_decay=0.0, pretrain_batch=16, finetune_batch=10,
    max_len=64, dropout_p=0.1,
)
records = gen_data(5, 40, seed=7)
prepared = prepare(records, cfg)
hub = SeedHub(0)
encoder = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))

print("pre-training (retrieval then generation) ...")
pre_cfg = cfg.replace(dropout_p=0.0)
pretrain_retrieval(encoder, prepared.train, pre_cfg, hub)
pretrain_generation(encoder, prepared.train, pre_cfg, hub)

print(f"fine-tuning with lambda={cfg.lam}, tau={cfg.tau}, batch={cfg.finetune_batch} ...")
classifier, history = finetune(
    encoder, prepared.train, prepared.valid, cfg, hub, len(prepared.label_names)
)
for h in history[::5]:
    print(f"  epoch {h['epoch']:>3}  loss {h['loss']:.4f}  valid acc {h['valid_score']:.3f}")

preds = predict_examples(encoder, classifier, prepared.test)
metrics = compute_metrics(preds)
print("\ntest metrics:")
for key, value in metrics.items():
    print(f"  {key:>9}: {value:.4f}")
print("accuracy <= MRR@3 <= MRR@5 holds by construction.")
