from __future__ import annotations

import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp.config import StageConfig
from rsvp.losses import generation_loss
from rsvp.model import (
    _EVAL_TOKEN_BUDGET,
    INIT_STD,
    ConversationalEncoder,
    EncoderConfig,
    IntentClassifier,
    ResponseDecoder,
    _token_chunks,
    init_decoder_from_encoder,
    pad_batch,
)
from rsvp.optim import adamw_step
from rsvp.rng import SeedHub
from rsvp.synth import gen_data
from rsvp import training as tr

from . import op_builders


def small_config(**kw):
    base = dict(
        vocab_size=40, d_model=32, n_layers=2, n_heads=4, d_ffn=64,
        max_positions=24, pooled_dim=16,
    )
    base.update(kw)
    return EncoderConfig(**base)


# the desk model: float32 bits depend on layout at d_model 32, so
# bit-equality tests run at both shapes
DESK_SHAPE = dict(vocab_size=257, d_model=128, n_heads=4, d_ffn=256, max_positions=64,
                  pooled_dim=128)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: unlike ``array_equal``, -0.0 is not 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def encoder():
    return ConversationalEncoder(small_config(), SeedHub(3).stream("encoder_init"))


class TestEncoderConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            small_config(d_model=30, n_heads=4)

    def test_zero_heads_rejected(self):
        with pytest.raises(ValueError, match="n_heads 0"):
            small_config(n_heads=0)

    @pytest.mark.parametrize("field", ["d_model", "d_ffn", "pooled_dim"])
    def test_size_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            small_config(**{field: 0})

    def test_negative_layer_count_rejected(self):
        with pytest.raises(ValueError, match="n_layers must be >= 0, got -1"):
            small_config(n_layers=-1)

    def test_dropout_is_not_a_model_field(self):
        # the rate is a stage setting, passed to every training forward
        assert "dropout_p" not in {f.name for f in dataclasses.fields(EncoderConfig)}
        with pytest.raises(TypeError):
            small_config(dropout_p=0.1)


class TestStageConfig:
    def test_dropout_range_enforced(self):
        for p in (-0.1, 1.0):
            with pytest.raises(ValueError, match="dropout_p must be in"):
                StageConfig(dropout_p=p)


class TestEncode:
    def test_zero_weights_give_zero_embedding(self, encoder):
        for p in encoder.parameters():
            p.data[...] = 0.0
        q = encoder.embed([[2, 7, 8]])
        np.testing.assert_array_equal(q, np.zeros((1, 16), dtype=np.float32))

    def test_components_inside_tanh_range(self, encoder, rng):
        for _ in range(5):
            seq = [2] + list(rng.integers(6, 40, size=8))
            q = encoder.embed([seq])
            assert np.all(q > -1.0) and np.all(q < 1.0)

    def test_pad_invariance(self, encoder, rng):
        for _ in range(5):
            seq = [2] + list(rng.integers(6, 40, size=int(rng.integers(3, 10))))
            plain = encoder.embed([seq])
            # a batch mate padded to 20 tokens pads seq's row to 20 as well
            padded = encoder.embed([seq, seq + [seq[-1]] * (20 - len(seq))])[:1]
            assert np.abs(plain - padded).max() <= 1e-6

    def test_eval_mode_deterministic(self, encoder):
        q1 = encoder.embed([[2, 9, 9, 11]])
        q2 = encoder.embed([[2, 9, 9, 11]])
        assert np.array_equal(q1, q2)

    def test_too_long_sequence_rejected(self, encoder):
        with pytest.raises(ValueError, match="max_positions"):
            encoder.embed([[2] + [6] * 30])

    @pytest.mark.parametrize("entry", ["forward_hidden", "encode_batch", "forward_teacher_forced"])
    def test_training_without_dropout_p_raises(self, encoder, entry):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        hidden, mask = encoder.forward_hidden([[2, 7, 9]])
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        call = {
            "forward_hidden": lambda: encoder.forward_hidden([[2, 7, 9]], training=True, rng=gen),
            "encode_batch": lambda: encoder.encode_batch([[2, 7, 9]], training=True, rng=gen),
            "forward_teacher_forced": lambda: dec.forward_teacher_forced(
                hidden, mask, [[4, 20, 21]], training=True, rng=gen),
        }[entry]
        with pytest.raises(ValueError, match="training=True needs dropout_p"):
            call()
        assert gen.bit_generator.state == state

    def test_empty_sequence_rejected(self, encoder):
        with pytest.raises(ValueError, match="empty"):
            encoder.embed([[]])


class TestEmptyInput:
    """pad_batch refuses an empty batch or an empty sequence, and every
    entry point that pads a batch refuses it through pad_batch."""

    @pytest.fixture
    def calls(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        return {
            "pad_batch": pad_batch,
            "forward_hidden": encoder.forward_hidden,
            "encode_batch": encoder.encode_batch,
            "embed": encoder.embed,
            "generate": lambda seqs: dec.generate(encoder, seqs[-1], 5),
        }

    @pytest.mark.parametrize("seqs", [[[]], [[2, 7, 9], []]], ids=["alone", "with_a_mate"])
    @pytest.mark.parametrize("entry", ["pad_batch", "forward_hidden", "encode_batch", "embed",
                                       "generate"])
    def test_empty_sequence_raises_value_error(self, calls, entry, seqs):
        with pytest.raises(ValueError, match="empty"):
            calls[entry](seqs)

    @pytest.mark.parametrize("entry", ["pad_batch", "forward_hidden", "encode_batch", "embed"])
    def test_empty_batch_raises_value_error(self, calls, entry):
        with pytest.raises(ValueError, match="empty"):
            calls[entry]([])


def _pooled_with_grads(enc, pooled):
    """Run ``pooled()`` and backpropagate a fixed projection of its output;
    returns (embeddings, every parameter gradient)."""
    params = enc.parameters()
    for p in params:
        p.grad = None
    out = pooled()
    weights = np.random.default_rng(11).normal(size=out.shape)
    ad.backward(ad.tsum(ad.mul(out, ad.Tensor(weights))))
    return out.data.copy(), [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                             for p in params]


class _RowConstantBits:
    """Dropout bit source whose draws do not vary along the query/position
    axis (axis -2 of both (B, h, Tq, Tk) attention probabilities and
    (B, T, d) states): a (..., 1, n) draw broadcast to the requested shape.
    A pass over one row and a pass over T rows then get the same masks for
    that row and consume the same bits; ``requested`` counts what a real
    generator would have drawn."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.requested = 0

    def integers(self, low, high, size, dtype):
        self.requested += int(np.prod(size))
        row = tuple(size[:-2]) + (1, size[-1])
        return np.broadcast_to(self.gen.integers(low, high, size=row, dtype=dtype), size)


class TestClsOnlyLastBlock:
    """encode_batch runs the last block for the [CLS] row only; pooling the
    full-sequence forward_hidden is its oracle. In training mode both run
    on a bit source whose draws do not vary along the position axis, so
    the [CLS] row gets the same masks in both."""

    CASES = {
        "unequal_lengths": [[2, 7, 9, 11, 13, 30], [2, 8], [2, 31, 32, 33]],
        # a longer batch mate pads the two shorter rows to 9 tokens
        "pad_to": [[2, 7, 9], [2, 8, 10, 12], [2, 8, 10, 12] + [12] * 5],
        "batch_1": [[2, 7, 9, 11]],
    }

    @pytest.mark.parametrize("precision,tol", [("float64", 1e-12), ("float32", 1e-5)])
    @pytest.mark.parametrize("n_layers", [2, 1, 0])
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_pooled_full_sequence(self, precision, tol, n_layers, training, case):
        seqs = self.CASES[case]
        with ad.precision(precision):
            enc = ConversationalEncoder(small_config(n_layers=n_layers),
                                        SeedHub(3).stream("encoder_init"))
            bits_fast, bits_full = _RowConstantBits(17), _RowConstantBits(17)
            fast, fast_grads = _pooled_with_grads(enc, lambda: enc.encode_batch(
                seqs, training=training, rng=bits_fast, dropout_p=0.1))
            full, full_grads = _pooled_with_grads(enc, lambda: enc.pool_cls(enc.forward_hidden(
                seqs, training, bits_full, 0.1)[0]))
        assert fast.dtype == full.dtype == np.dtype(precision)
        assert np.abs(fast - full).max() <= tol
        for g_fast, g_full in zip(fast_grads, full_grads):
            assert np.abs(g_fast - g_full).max() <= tol * max(1.0, np.abs(g_full).max())
        assert bits_fast.gen.bit_generator.state == bits_full.gen.bit_generator.state
        # the last block draws masks for the [CLS] row only
        if training and n_layers > 0:
            assert 0 < bits_fast.requested < bits_full.requested
        else:
            assert bits_fast.requested == bits_full.requested

    def test_cls_only_hidden_is_one_row(self, encoder):
        hidden, mask = encoder.forward_hidden([[2, 7, 9], [2, 8]], cls_only=True)
        assert hidden.shape == (2, 1, 32)
        assert mask.shape == (2, 3)
        full, _ = encoder.forward_hidden([[2, 7, 9], [2, 8]])
        assert full.shape == (2, 3, 32)


class TestPaddingInvariance:
    """Retrieval encodes utterances and responses in separate passes, each
    padded to its own longest sequence. That is the objective of one joint
    pass only if padding never reaches a real row."""

    UTTS = [[2, 7, 9], [2, 8, 10, 12, 14], [2, 31]]
    RESPONSE = [2, 11, 13, 15, 17, 19, 21, 23]

    @pytest.mark.parametrize("n_layers", [2, 1])
    def test_utterances_alone_equal_their_rows_of_a_longer_joint_batch(self, n_layers):
        n = len(self.UTTS)
        with ad.precision("float64"):
            enc = ConversationalEncoder(small_config(n_layers=n_layers),
                                        SeedHub(4).stream("encoder_init"))
            alone, alone_grads = _pooled_with_grads(enc, lambda: enc.encode_batch(self.UTTS))
            # the last batch mate pads the batch 3 tokens past the response
            joint, joint_grads = _pooled_with_grads(enc, lambda: ad.narrow0(enc.encode_batch(
                self.UTTS + [self.RESPONSE, self.RESPONSE + [23] * 3]), 0, n))
        assert np.abs(alone - joint).max() <= 1e-12
        for g_alone, g_joint in zip(alone_grads, joint_grads):
            assert np.abs(g_alone - g_joint).max() <= 1e-12


class TestEncodePair:
    def test_identical_sequences_identical_embeddings_bitwise(self, encoder):
        q, p = encoder.embed([[2, 7, 9]]), encoder.embed([[2, 7, 9]])
        assert np.array_equal(q, p)

    def test_shared_parameter_sensitivity(self, encoder):
        u, r = [2, 7, 9], [2, 11, 13, 14]
        q0, p0 = encoder.embed([u]), encoder.embed([r])
        encoder.pool.w.data[0, 0] += 0.05
        q1, p1 = encoder.embed([u]), encoder.embed([r])
        assert not np.array_equal(q0, q1)
        assert not np.array_equal(p0, p1)

    def test_batch_shapes(self, encoder, rng):
        seqs = [[2] + list(rng.integers(6, 40, size=5)) for _ in range(6)]
        q = encoder.encode_batch(seqs)
        assert q.shape == (6, 16)


class TestDecoder:
    def test_copied_weights_bitwise_and_independent(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        enc = dict(encoder.named_parameters())
        shared = [(p, enc[name]) for name, p in dec.named_parameters() if name in enc]
        assert len(shared) == len(encoder.backbone_parameters())
        for dp, ep in shared:
            assert np.array_equal(dp.data, ep.data)
        # updating one side never moves the other
        dec.blocks[0].wq.w.data += 1.0
        assert not np.array_equal(dec.blocks[0].wq.w.data, encoder.blocks[0].wq.w.data)

    def test_zeroed_cross_attention_ignores_utterance(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        for blk in dec.blocks:
            blk.cross_wo.w.data[...] = 0.0
            blk.cross_wo.b.data[...] = 0.0
        r = [4, 7, 8, 5]
        h1, m1 = encoder.forward_hidden([[2, 7, 9]])
        h2, m2 = encoder.forward_hidden([[2, 30, 31, 32, 33]])
        l1, _ = dec.forward_teacher_forced(h1, m1, [r])
        l2, _ = dec.forward_teacher_forced(h2, m2, [r])
        assert np.abs(l1.data - l2.data).max() <= 1e-6

    def test_causal_mask_future_mutations_invisible(self, encoder, rng):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        h, m = encoder.forward_hidden([[2, 7, 9, 11]])
        for _ in range(10):
            T = int(rng.integers(3, 8))
            r = [4] + list(rng.integers(6, 40, size=T))
            t = int(rng.integers(1, T))
            mutated = list(r)
            mutated[t + 1 :] = list(rng.integers(6, 40, size=len(r) - t - 1))
            base, _ = dec.forward_teacher_forced(h, m, [r])
            mut, _ = dec.forward_teacher_forced(h, m, [mutated])
            assert np.abs(base.data[0, : t + 1] - mut.data[0, : t + 1]).max() <= 1e-6

    def test_bos_only_gives_one_logit_row(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        h, m = encoder.forward_hidden([[2, 7]])
        logits, _ = dec.forward_teacher_forced(h, m, [[4]])
        assert logits.shape == (1, 1, 40)

    def test_missing_bos_rejected(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        h, m = encoder.forward_hidden([[2, 7]])
        with pytest.raises(ValueError, match="BOS"):
            dec.forward_teacher_forced(h, m, [[7, 8]])

    def test_generation_loss_reaches_cross_attention(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        h, m = encoder.forward_hidden([[2, 7, 9]])
        logits, _ = dec.forward_teacher_forced(h, m, [[4, 7, 8]])
        loss = generation_loss(logits, np.array([[7, 8, 5]]), pad_id=0)
        loss.backward()
        cross_mass = sum(
            float(np.abs(p.grad).sum())
            for name, p in dec.named_parameters()
            if ".cross." in name and p.grad is not None
        )
        assert cross_mass > 0

    def test_generate_max_zero_is_empty(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        assert dec.generate(encoder, [2, 7], 0) == []

    def test_generate_deterministic(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        a = dec.generate(encoder, [2, 7, 9], 6)
        b = dec.generate(encoder, [2, 7, 9], 6)
        assert a == b

    def test_overfit_one_pair_regenerates_response(self):
        # memorization oracle: a single pair trained to convergence must be
        # reproduced exactly by greedy decoding
        enc = ConversationalEncoder(
            small_config(), SeedHub(11).stream("encoder_init")
        )
        dec = init_decoder_from_encoder(enc, SeedHub(11).stream("decoder_init"))
        u = [2, 7, 9, 13]
        r = [4, 20, 21, 22, 23, 5]
        params = enc.backbone_parameters() + dec.parameters()
        targets = np.array([r[1:]])
        for _ in range(150):
            h, m = enc.forward_hidden([u])
            logits, _ = dec.forward_teacher_forced(h, m, [r[:-1]])
            loss = generation_loss(logits, targets, pad_id=0)
            ad.backward(loss)
            adamw_step(params, lr=3e-3)
            for p in params:
                p.grad = None
        assert dec.generate(enc, u, 10) == [20, 21, 22, 23]


class TestFusedNodesMatchTheComposites:
    """The model's fused attention, Linear and post-norm epilogue nodes
    against the composites they replace, patched into ``ad`` for the
    reference pass: float64 losses and every parameter gradient, in
    training mode, with the dropout generator in the same state after."""

    UTTS = [[2, 7, 9, 11, 13], [2, 8], [2, 31, 32]]
    RESPONSES = [[4, 20, 21, 22, 5], [4, 23, 5], [4, 24, 25, 26, 27, 28, 5]]

    def _loss_and_grads(self, enc, dec):
        params = enc.parameters() + dec.parameters()
        for p in params:
            p.grad = None
        gen = np.random.default_rng(41)
        q = enc.encode_batch(self.UTTS, training=True, rng=gen, dropout_p=0.1)
        hidden, mask = enc.forward_hidden(self.UTTS, training=True, rng=gen, dropout_p=0.1)
        seqs = [r[:-1] for r in self.RESPONSES]
        targets = np.zeros((len(seqs), max(map(len, seqs))), dtype=np.int64)
        for i, r in enumerate(self.RESPONSES):
            targets[i, : len(r) - 1] = r[1:]
        logits, _ = dec.forward_teacher_forced(hidden, mask, seqs, training=True, rng=gen,
                                               dropout_p=0.1)
        weights = np.random.default_rng(12).normal(size=q.shape)
        loss = ad.add(generation_loss(logits, targets, pad_id=0),
                      ad.tsum(ad.mul(q, ad.Tensor(weights))))
        ad.backward(loss)
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
        return loss.item(), grads, gen.bit_generator.state

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_encoder_and_decoder_gradients(self, n_layers, monkeypatch):
        with ad.precision("float64"):
            enc, dec = _random_models(6, n_layers=n_layers)
            fused = self._loss_and_grads(enc, dec)
            monkeypatch.setattr(ad, "linear", op_builders.composite_linear)
            monkeypatch.setattr(ad, "attention", op_builders.composite_attention)
            monkeypatch.setattr(ad, "residual_layer_norm",
                                op_builders.composite_residual_layer_norm)
            composite = self._loss_and_grads(enc, dec)
        assert abs(fused[0] - composite[0]) <= 1e-12 * abs(composite[0])
        for g_fused, g_comp in zip(fused[1], composite[1]):
            assert np.abs(g_fused - g_comp).max() <= 1e-12 * max(1.0, np.abs(g_comp).max())
        assert fused[2] == composite[2]


class TestSavedGraphMemory:
    """What one training step keeps alive for backward, by ``tracemalloc``."""

    # measured 13.55 MB with 1-byte dropout masks and every sublayer's
    # output projection inside its residual-norm node; a float32 mask
    # (15.31 MB) or a standalone wo/lin2 projection (15.76 MB) crosses it
    DESK_GENERATION_BOUND_MB = 13.55 * 1.10

    def test_desk_generation_step(self):
        """The graph of one desk-shaped generation step (batch 16, 14-token
        utterances, 22-token responses, 257-token vocabulary, the desk
        model) in float32 training mode, as ``pretrain_generation`` builds it."""
        r = np.random.default_rng(0)
        cfg = EncoderConfig(vocab_size=257, d_model=128, n_layers=2, n_heads=4, d_ffn=256,
                            pooled_dim=128)
        enc = ConversationalEncoder(cfg, r)
        dec = init_decoder_from_encoder(enc, r)
        utts = [[2, *r.integers(5, 257, size=13)] for _ in range(16)]
        resp = [[dec.bos_id, *r.integers(5, 257, size=21)] for _ in range(16)]
        targets = r.integers(5, 257, size=(16, 22))
        gen = np.random.default_rng(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hidden, mask = enc.forward_hidden(utts, training=True, rng=gen, dropout_p=0.1)
            logits, _ = dec.forward_teacher_forced(hidden, mask, resp, training=True, rng=gen,
                                                   dropout_p=0.1)
            loss = generation_loss(logits, targets, pad_id=0)
            del hidden, mask, logits
            graph_mb = (tracemalloc.get_traced_memory()[0] - before) / 1e6
        finally:
            tracemalloc.stop()
        ad.backward(loss)
        assert graph_mb <= self.DESK_GENERATION_BOUND_MB


def _uncached_generate(dec, enc, u_ids, max_t, rows):
    """Reference greedy loop: a teacher-forced pass over [BOS] and every
    token so far, then the argmax of its last row. Appends each step's
    logit row to ``rows``."""
    hidden, mask = enc.forward_hidden([list(u_ids)])
    seq = [dec.bos_id]
    for _ in range(max_t):
        logits, _ = dec.forward_teacher_forced(hidden, mask, [seq])
        rows.append(logits.data[0, -1])
        nxt = int(np.argmax(rows[-1]))
        if nxt == dec.eos_id:
            break
        seq.append(nxt)
    return seq[1:]


def _cached_generate(dec, enc, u_ids, max_t, rows):
    """``generate``'s steps, appending each step's logit row to ``rows``."""
    tokens = []
    for tok, row in dec._greedy_steps(enc, u_ids, max_t):
        rows.append(row)
        if tok != dec.eos_id:
            tokens.append(tok)
    return tokens


def _random_models(seed, n_layers=2, **kw):
    cfg = small_config(n_layers=n_layers, **kw)
    enc = ConversationalEncoder(cfg, SeedHub(seed).stream("encoder_init"))
    dec = init_decoder_from_encoder(enc, SeedHub(seed).stream("decoder_init"))
    return enc, dec


def _assert_same_steps(cached, oracle):
    assert len(cached) == len(oracle)
    for a, b in zip(cached, oracle):
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


class TestIncrementalGenerate:
    """generate's cached steps against the uncached loop, in float64."""

    @pytest.mark.parametrize("n_layers,utt_len,seed", [(1, 1, 0), (2, 5, 1), (2, 17, 2), (1, 17, 3)])
    def test_matches_uncached_loop(self, n_layers, utt_len, seed):
        with ad.precision("float64"):
            enc, dec = _random_models(seed, n_layers=n_layers)
            dec.lm_head.b.data[dec.eos_id] = -1e3  # decode all max_t steps
            u = [2] + list(np.random.default_rng(seed).integers(6, 40, size=utt_len - 1))
            cached, oracle = [], []
            tokens = _cached_generate(dec, enc, u, 20, cached)
            assert tokens == _uncached_generate(dec, enc, u, 20, oracle)
        assert len(tokens) == 20
        _assert_same_steps(cached, oracle)

    def test_float64_model_under_float32_default(self):
        with ad.precision("float64"):
            enc, dec = _random_models(4)
        assert ad.default_dtype() == np.float32
        cached, oracle = [], []
        tokens = _cached_generate(dec, enc, [2, 9, 11, 13], 12, cached)
        assert tokens == _uncached_generate(dec, enc, [2, 9, 11, 13], 12, oracle)
        assert cached[0].dtype == np.float64
        _assert_same_steps(cached, oracle)

    def test_eos_at_first_step_returns_empty(self):
        with ad.precision("float64"):
            enc, dec = _random_models(5)
            dec.lm_head.b.data[dec.eos_id] = 1e3
            cached, oracle = [], []
            assert _cached_generate(dec, enc, [2, 7], 8, cached) == []
            assert _uncached_generate(dec, enc, [2, 7], 8, oracle) == []
        _assert_same_steps(cached, oracle)

    def test_max_t_one(self):
        with ad.precision("float64"):
            enc, dec = _random_models(6)
            dec.lm_head.b.data[dec.eos_id] = -1e3
            cached, oracle = [], []
            tokens = _cached_generate(dec, enc, [2, 7, 9], 1, cached)
            assert tokens == _uncached_generate(dec, enc, [2, 7, 9], 1, oracle)
        assert len(tokens) == 1
        _assert_same_steps(cached, oracle)

    def test_float32_trained_model_matches_teacher_forced_argmax(self):
        """In float32 the one-row cached step and the full teacher-forced
        pass round differently in the last bits; on a briefly trained model
        every greedy token must still be the teacher-forced argmax."""
        cfg = StageConfig(generation_epochs=3, lr=3e-3, pretrain_batch=8, max_len=48,
                          d_model=32, n_layers=2, n_heads=4, d_ffn=64, pooled_dim=16,
                          seeds=(0,), dropout_p=0.1)
        prepared = tr.prepare(gen_data(4, 12, seed=3), cfg)
        hub = SeedHub(0)
        enc = ConversationalEncoder(cfg.encoder_config(len(prepared.vocab)),
                                    hub.stream("encoder_init"))
        dec, history = tr.pretrain_generation(enc, prepared.train, cfg, hub)
        assert history[-1]["loss"] < history[0]["loss"]
        emitted = 0
        for ex in prepared.test:
            cached, oracle = [], []
            tokens = _cached_generate(dec, enc, ex.utterance_ids, 24, cached)
            assert tokens == _uncached_generate(dec, enc, ex.utterance_ids, 24, oracle)
            assert len(cached) == len(oracle) and cached[0].dtype == np.float32
            for a, b in zip(cached, oracle):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-4 * np.abs(b).max())
            emitted += len(tokens)
        assert emitted > len(prepared.test)

    @pytest.mark.parametrize("max_t,raises", [(8, False), (9, True), (1000, True)])
    def test_max_positions_limit_at_same_step(self, max_t, raises):
        with ad.precision("float64"):
            enc, dec = _random_models(7, max_positions=8)
            dec.lm_head.b.data[dec.eos_id] = -1e3
            cached, oracle = [], []
            if raises:
                with pytest.raises(ValueError, match="sequence length 9 exceeds max_positions 8"):
                    _cached_generate(dec, enc, [2, 7], max_t, cached)
                with pytest.raises(ValueError, match="sequence length 9 exceeds max_positions 8"):
                    _uncached_generate(dec, enc, [2, 7], max_t, oracle)
            else:
                tokens = _cached_generate(dec, enc, [2, 7], max_t, cached)
                assert tokens == _uncached_generate(dec, enc, [2, 7], max_t, oracle)
        assert len(cached) == 8
        _assert_same_steps(cached, oracle)


class TestSharedOptimizerPath:
    def test_one_step_moves_q_and_p_identically(self, encoder):
        """The q- and p-paths share one parameter store: after an update both
        embeddings of the same input remain equal."""
        seq = [2, 8, 10]
        drop = SeedHub(9).stream("dropout")
        q = encoder.encode_batch([seq], training=True, rng=drop, dropout_p=0.1)
        loss = ad.tsum(ad.mul(q, q))
        loss.backward()
        params = encoder.parameters()
        adamw_step(params, lr=1e-3)
        q2, p2 = encoder.embed([seq]), encoder.embed([seq])
        assert np.array_equal(q2, p2)


def _block_names(i, *sublayers):
    names = []
    for sub in sublayers:
        if sub in ("attn", "cross"):
            names += [f"layer{i}.{sub}.{w}.{x}" for w in ("wq", "wk", "wv", "wo") for x in "wb"]
        elif sub == "ffn":
            names += [f"layer{i}.ffn.{w}.{x}" for w in ("lin1", "lin2") for x in "wb"]
        else:
            names += [f"layer{i}.{sub}.gamma", f"layer{i}.{sub}.beta"]
    return names


EMB_NAMES = ["tok_emb", "pos_emb", "emb_ln.gamma", "emb_ln.beta"]


class TestParameterLayout:
    """The ordered parameter names are the checkpoint layout and the order
    of the gradient-norm sum; pin them for a 2-layer model."""

    ENCODER = (EMB_NAMES + _block_names(0, "attn", "ln1", "ffn", "ln2")
               + _block_names(1, "attn", "ln1", "ffn", "ln2") + ["pool.w", "pool.b"])
    DECODER = (EMB_NAMES + _block_names(0, "attn", "ln1", "cross", "ln_cross", "ffn", "ln2")
               + _block_names(1, "attn", "ln1", "cross", "ln_cross", "ffn", "ln2")
               + ["lm_head.w", "lm_head.b"])

    def test_encoder_names_and_order(self, encoder):
        assert [name for name, _ in encoder.named_parameters()] == self.ENCODER
        assert [p.name for p in encoder.backbone_parameters()] == self.ENCODER[:-2]
        assert all(p is q for (_, p), q in zip(encoder.named_parameters(), encoder.parameters()))

    def test_decoder_names_and_order(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        assert [name for name, _ in dec.named_parameters()] == self.DECODER

    def test_classifier_names_and_order(self):
        clf = IntentClassifier(16, 5, SeedHub(1).stream("classifier_init"))
        assert [name for name, _ in clf.named_parameters()] == [
            "clf.lin1.w", "clf.lin1.b", "clf.lin2.w", "clf.lin2.b"]

    def test_decoder_init_copies_exactly_the_shared_names(self, encoder):
        dec = init_decoder_from_encoder(encoder, SeedHub(5).stream("decoder_init"))
        fresh = dict(ResponseDecoder(encoder.cfg, SeedHub(5).stream("decoder_init"),
                                     bos_id=4, eos_id=5).named_parameters())
        enc = dict(encoder.named_parameters())
        shared = set(enc) & set(self.DECODER)
        assert shared == set(EMB_NAMES + _block_names(0, "attn", "ln1", "ffn", "ln2")
                             + _block_names(1, "attn", "ln1", "ffn", "ln2"))
        for name, p in dec.named_parameters():
            if name in shared:
                assert np.array_equal(p.data, enc[name].data), name
                assert p.data is not enc[name].data, name
            else:
                assert name.startswith(("layer0.cross.", "layer1.cross.", "layer0.ln_cross.",
                                        "layer1.ln_cross.", "lm_head.")), name
                assert np.array_equal(p.data, fresh[name].data), name


class TestInitDrawOrder:
    """Which init draw each weight gets: names and order alone do not pin
    it, since building one projection before another keeps both."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("build", [
        lambda rng: ConversationalEncoder(small_config(), rng),
        lambda rng: ResponseDecoder(small_config(), rng, bos_id=4, eos_id=5),
        lambda rng: IntentClassifier(16, 5, rng),
    ], ids=["encoder", "decoder", "classifier"])
    def test_weights_take_consecutive_draws(self, build, precision):
        with ad.precision(precision):
            model = build(np.random.default_rng(11))
        draws = np.random.default_rng(11)
        for name, p in model.named_parameters():
            if name.endswith(".w") or name in ("tok_emb", "pos_emb"):
                want = draws.normal(0.0, INIT_STD, p.data.shape).astype(p.data.dtype)
                assert np.array_equal(p.data, want), name
            elif name.endswith((".b", ".beta")):
                assert not p.data.any(), name
            else:
                assert name.endswith(".gamma") and (p.data == 1).all(), name
            assert p.data.dtype == np.dtype(precision), name


class TestClassifier:
    def test_two_layer_shapes(self, rng):
        clf = IntentClassifier(16, 5, SeedHub(1).stream("classifier_init"))
        x = ad.Tensor(rng.normal(size=(3, 16)))
        out = clf(x)
        assert out.shape == (3, 5)


class TestGraphFreeEval:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_encode_batch_bit_equal_under_no_grad(self, precision):
        with ad.precision(precision):
            enc = ConversationalEncoder(small_config(), SeedHub(8).stream("encoder_init"))
        seqs = [[2, 7, 9], [2] + list(range(6, 26)), [2, 11]]
        outside = enc.encode_batch(seqs)
        with ad.no_grad():
            inside = enc.encode_batch(seqs)
        assert outside.requires_grad and not inside.requires_grad
        assert inside._parents == ()
        assert inside.dtype == np.dtype(precision)
        assert np.array_equal(inside.data, outside.data)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_generate_runs_graph_free_and_bit_equal(self, precision):
        """generate's tokens and every step's logits row, bit for bit, against
        the graph composition over the same (1, n, d_model) caches. The desk
        model and d_model 32: at 32, a head-major cache layout changed float32
        logits in the last bits, as BLAS rounding follows operand layout."""
        for seed, kw in ((9, {}), (10, DESK_SHAPE)):
            with ad.precision(precision):
                enc, dec = _random_models(seed, **kw)
            dec.lm_head.b.data[dec.eos_id] = -1e3  # decode all max_t steps
            u = [2] + list(np.random.default_rng(seed).integers(6, 40, size=13))
            tokens, graph_rows = op_builders.graph_greedy_steps(dec, enc, u, 24)
            rows = []
            assert _cached_generate(dec, enc, u, 24, rows) == tokens
            assert dec.generate(enc, u, 24) == tokens and len(tokens) == 24
            assert all(r.requires_grad for r in graph_rows)
            assert len(rows) == len(graph_rows)
            for a, b in zip(rows, graph_rows):
                assert a.dtype == np.dtype(precision)
                assert np.array_equal(a, b.data[0, 0])

    def test_decode_step_makes_no_tensor_and_draws_no_mask(self, monkeypatch):
        """After the encoder pass, a step builds no Tensor and calls no dropout."""
        enc, dec = _random_models(9)
        dec.lm_head.b.data[dec.eos_id] = -1e3
        calls = []
        for name in ("_make", "_dropout_mask"):
            fn = getattr(ad, name)
            monkeypatch.setattr(ad, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        steps = dec._greedy_steps(enc, [2, 8, 13, 21], 6)
        next(steps)
        assert calls == ["_make"]  # the encoder pass wraps its states in one Tensor
        calls.clear()
        assert len(list(steps)) == 5
        assert calls == []

    def test_embed_matches_per_chunk_encode_batch(self, encoder):
        rng = np.random.default_rng(4)
        # 24-token sequences: 42 fit one 1024-slot chunk, so this spans three
        seqs = [[2] + list(rng.integers(6, 40, size=int(n))) for n in rng.integers(0, 24, size=100)]
        seqs[5] = [2] + [7] * 23
        head = IntentClassifier(16, 3, SeedHub(1).stream("classifier_init"))
        chunks = list(_token_chunks(seqs, _EVAL_TOKEN_BUDGET))
        assert len(chunks) > 1
        emb = encoder.embed(seqs)
        logits = encoder.embed(seqs, head=head)
        assert emb.shape == (100, 16) and logits.shape == (100, 3)
        for start, stop in chunks:
            q = encoder.encode_batch(seqs[start:stop])
            assert np.array_equal(emb[start:stop], q.data)
            assert np.array_equal(logits[start:stop], head(q).data)

    def test_embed_builds_no_graph(self, encoder):
        seen = []

        def head(q):
            seen.append(q.requires_grad)
            return q

        encoder.embed([[2, 7], [2, 9, 11]], head=head)
        assert seen == [False]
        assert (encoder.encode_batch([[2, 7]])).requires_grad

    def test_embed_rejects_an_empty_list(self, encoder):
        with pytest.raises(ValueError, match="empty"):
            encoder.embed([])


class TestEvalArrayPass:
    """Under ``no_grad()`` the encoder runs on plain arrays; its hidden
    states, pooled embeddings and ``embed`` rows equal the graph path's
    (gradients on) bit for bit."""

    SHAPES = {"small": {}, "desk": DESK_SHAPE}
    CASES = {
        # lengths 1..24: every row but the longest is padded
        "padded": [[2] + list(np.random.default_rng(5).integers(6, 40, size=n))
                   for n in (0, 7, 23, 3, 12, 1, 18, 9)],
        "batch_1": [[2, 7, 9, 11, 13]],
        # no row padded: the array pass adds no key bias
        "unpadded": [[2, 7, 9, 11], [2, 8, 10, 12], [2, 31, 32, 33]],
    }

    @staticmethod
    def _model(shape, precision, seed=8):
        with ad.precision(precision):
            return ConversationalEncoder(small_config(**TestEvalArrayPass.SHAPES[shape]),
                                         SeedHub(seed).stream("encoder_init"))

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("shape", ["small", "desk"])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("cls_only", [False, True], ids=["full", "cls_only"])
    def test_forward_hidden_bit_equal_to_graph(self, precision, shape, case, cls_only):
        enc, seqs = self._model(shape, precision), self.CASES[case]
        with ad.precision(precision):
            graph, graph_mask = enc.forward_hidden(seqs, cls_only=cls_only)
            with ad.no_grad():
                arrays, mask = enc.forward_hidden(seqs, cls_only=cls_only)
        assert graph.requires_grad and not arrays.requires_grad and arrays._parents == ()
        assert arrays.dtype == np.dtype(precision)
        assert _same_bits(arrays.data, graph.data)
        assert _same_bits(mask, graph_mask)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("shape", ["small", "desk"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_encode_batch_bit_equal_to_graph(self, precision, shape, case):
        enc, seqs = self._model(shape, precision), self.CASES[case]
        with ad.precision(precision):
            graph = enc.encode_batch(seqs)
            with ad.no_grad():
                arrays = enc.encode_batch(seqs)
        assert graph.requires_grad and not arrays.requires_grad and arrays._parents == ()
        assert _same_bits(arrays.data, graph.data)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("shape", ["small", "desk"])
    def test_embed_of_padded_chunks_bit_equal_to_graph(self, precision, shape):
        enc = self._model(shape, precision)
        rng = np.random.default_rng(6)
        seqs = [[2] + list(rng.integers(6, 40, size=int(n))) for n in rng.integers(0, 24, size=90)]
        seqs[3] = [2] + [7] * 23
        chunks = list(_token_chunks(seqs, _EVAL_TOKEN_BUDGET))
        assert len(chunks) > 1
        with ad.precision(precision):
            head = IntentClassifier(enc.cfg.pooled_dim, 3, SeedHub(1).stream("classifier_init"))
            emb, logits = enc.embed(seqs), enc.embed(seqs, head=head)
            graph = [enc.encode_batch(seqs[start:stop]) for start, stop in chunks]
        assert _same_bits(emb, np.concatenate([q.data for q in graph]))
        assert _same_bits(logits, np.concatenate([head(q).data for q in graph]))

    @pytest.mark.parametrize("shape", ["small", "desk"])
    def test_float64_model_under_float32_default(self, shape):
        enc = self._model(shape, "float64")
        assert ad.default_dtype() == np.float32
        seqs = self.CASES["padded"]
        for run in (lambda: enc.forward_hidden(seqs)[0], lambda: enc.encode_batch(seqs)):
            graph = run()
            with ad.no_grad():
                arrays = run()
            assert arrays.dtype == np.float64
            assert _same_bits(arrays.data, graph.data)

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_makes_no_node_per_block_and_draws_no_mask(self, monkeypatch, n_layers):
        enc = ConversationalEncoder(small_config(n_layers=n_layers),
                                    SeedHub(8).stream("encoder_init"))
        calls = []
        for name in ("_make", "_dropout_mask"):
            fn = getattr(ad, name)
            monkeypatch.setattr(ad, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with ad.no_grad():
            enc.forward_hidden(self.CASES["padded"], rng=gen)
            assert calls == ["_make"]  # the hidden states, whatever the depth
            calls.clear()
            enc.encode_batch(self.CASES["padded"], rng=gen)
            assert calls == ["_make", "_make"]  # the hidden states and the pooled rows
        assert gen.bit_generator.state == state

    def test_out_of_range_id_raises_as_in_the_graph(self, encoder):
        for grad in (True, False):
            with (contextlib.nullcontext() if grad else ad.no_grad()):
                with pytest.raises(ValueError, match=r"ids out of range \[0, 40\)"):
                    encoder.forward_hidden([[2, 7], [2, 40]])
