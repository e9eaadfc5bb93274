"""Stage 1b: teacher-forced response generation.

The decoder starts as a value copy of the encoder blocks (causally
masked) plus fresh cross-attention and LM head; encoder and decoder are
updated jointly. After training, greedy decoding reproduces memorized
agent responses.

Run:  python3 demos/04_response_generation.py   (~20 s)
"""
from rsvp.config import StageConfig
from rsvp.model import ConversationalEncoder
from rsvp.rng import SeedHub
from rsvp.synth import gen_data
from rsvp.training import prepare, pretrain_generation, pretrain_retrieval

cfg = StageConfig(
    retrieval_epochs=10, generation_epochs=40, lr=1e-3, weight_decay=0.0,
    dropout_p=0.0, pretrain_batch=16, max_len=64,
)
records = gen_data(5, 40, seed=7)
prepared = prepare(records, cfg)
hub = SeedHub(0)
encoder = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)), hub.stream("encoder_init"))

print("retrieval warm-up ...")
pretrain_retrieval(encoder, prepared.train, cfg, hub)

subset = prepared.train[:32]
print(f"generation training on {len(subset)} pairs ...")
decoder, history = pretrain_generation(encoder, subset, cfg, hub)
for h in history[::5]:
    print(f"  epoch {h['epoch']:>3}  per-token loss {h['loss']:.4f}")

print("\ngreedy samples (gold vs generated):")
for ex in subset[:3]:
    gold = prepared.vocab.decode_ids(ex.response_ids[1:-1])
    out = decoder.generate(encoder, ex.utterance_ids, max_t=40)
    gen = prepared.vocab.decode_ids(out)
    print(f"  utterance: {' '.join(prepared.vocab.decode_ids(ex.utterance_ids[1:]))}")
    print(f"  gold:      {' '.join(gold)}")
    print(f"  generated: {' '.join(gen)}\n")
