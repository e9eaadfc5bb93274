"""Stage 1a: contrastive response retrieval pre-training.

The encoder learns to pull each utterance toward its own agent response
and away from the other responses in the batch. Watch the in-batch
recall@1 diagnostic climb from chance (1/16) toward 1.

Run:  python3 demos/03_response_retrieval.py   (~15 s)
"""
import math

from rsvp.config import StageConfig
from rsvp.model import ConversationalEncoder
from rsvp.rng import SeedHub
from rsvp.synth import gen_data
from rsvp.training import prepare, pretrain_retrieval

cfg = StageConfig(
    retrieval_epochs=20, lr=1e-3, weight_decay=0.0, dropout_p=0.0,
    pretrain_batch=16, max_len=64,
)
records = gen_data(5, 40, seed=7)
prepared = prepare(records, cfg)
print(f"pairs: {len(prepared.train)} train, vocab {len(prepared.vocab)}, batch n=16, tau={cfg.tau}")
print(f"uniform-similarity bound: ln 16 = {math.log(16):.4f}\n")

hub = SeedHub(0)
encoder = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))
history = pretrain_retrieval(encoder, prepared.train, cfg, hub)

print(f"{'epoch':>5} {'loss':>8} {'recall@1':>9}")
for h in history:
    bar = "#" * int(40 * h["recall_at_1"])
    print(f"{h['epoch']:>5} {h['loss']:>8.4f} {h['recall_at_1']:>9.3f}  {bar}")
print("\nepoch-0 loss starts at the ln(n) bound because freshly initialized")
print("pooled embeddings are nearly identical across inputs.")
