"""Conversational encoder, response decoder, and the intent classifier head.

The encoder is a bidirectional transformer whose position-0 ([CLS]) hidden
state passes through a linear+tanh pooling head to give the utterance or
response embedding. The decoder reuses the encoder's block weights by value,
adds causal masking and per-block cross-attention over the encoder's
per-position hidden states, and puts a language-model head on top.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import Parameter
from .text import BOS_ID, EOS_ID

MASK_BIAS = -1e9  # additive logit bias for disallowed attention edges
INIT_STD = 0.1  # larger than the 768-dim convention; desk-scale models train from scratch
# padded token slots per eval forward: keeps long utterances in small
# batches and short ones in large batches
_EVAL_TOKEN_BUDGET = 1024


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ffn: int = 256
    max_positions: int = 512
    pooled_dim: int = 128

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "d_ffn", "max_positions", "pooled_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # zero blocks leave embeddings plus pooling, a working model
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


def _normal(rng: np.random.Generator | None, shape):
    """Init weights drawn from ``rng``; without one, zeros in the default
    dtype, for a module that a checkpoint restore fills."""
    if rng is None:
        return np.zeros(shape, ad.default_dtype())
    return rng.normal(0.0, INIT_STD, size=shape)


class Module:
    """Base of every layer and model. ``parameters()`` walks the attributes
    in the order the constructor assigned them and collects each
    ``Parameter``, each ``Module`` and each list of ``Module``s; that order
    is the checkpoint layout and the order of the gradient-norm sum. Built
    with ``rng=None``, a module draws no init and holds zero weights, for a
    checkpoint restore to fill."""

    def parameters(self) -> list:
        params = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def named_parameters(self) -> list:
        return [(p.name, p) for p in self.parameters()]


class Linear(Module):
    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator | None):
        self.w = Parameter(f"{name}.w", _normal(rng, (d_in, d_out)))
        self.b = Parameter(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, name: str, dim: int):
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)

    def residual(self, x: Tensor, h: Tensor, proj: Linear, dropout_p, rng) -> Tensor:
        """The output projection and post-norm epilogue of a sublayer: this
        norm of x + dropout(proj(h)), one ``ad.residual_layer_norm`` node."""
        return ad.residual_layer_norm(x, h, proj.w, proj.b, self.gamma, self.beta, dropout_p, rng)


class MultiHeadAttention(Module):
    """Scaled dot-product attention over full query/key projections."""

    def __init__(self, name: str, d_model: int, n_heads: int, rng: np.random.Generator | None):
        self.n_heads = n_heads
        self.wq = Linear(f"{name}.wq", d_model, d_model, rng)
        self.wk = Linear(f"{name}.wk", d_model, d_model, rng)
        self.wv = Linear(f"{name}.wv", d_model, d_model, rng)
        self.wo = Linear(f"{name}.wo", d_model, d_model, rng)

    def project_kv(self, x_kv: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of all heads, each (B, Tk, d_model)."""
        return self.wk(x_kv), self.wv(x_kv)

    def attend(self, x_q: Tensor, k: Tensor, v: Tensor, bias, dropout_p, rng) -> Tensor:
        """Attention of the queries projected from ``x_q`` over keys and
        values from ``project_kv``; ``bias`` is added to the logits. Returns
        the (B, Tq, d_model) context before ``wo``, which the caller's
        ``LayerNorm.residual`` applies."""
        return ad.attention(self.wq(x_q), k, v, self.n_heads, bias, dropout_p, rng)


class FeedForward(Module):
    """``lin2(gelu(lin1(x)))``; calling it returns the GELU activations,
    and the caller's ``LayerNorm.residual`` applies ``lin2``."""

    def __init__(self, name: str, d_model: int, d_ffn: int, rng: np.random.Generator | None):
        self.lin1 = Linear(f"{name}.lin1", d_model, d_ffn, rng)
        self.lin2 = Linear(f"{name}.lin2", d_ffn, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.gelu(self.lin1(x))


class EncoderBlock(Module):
    """Post-norm transformer block: attention and FFN sublayers with residuals."""

    def __init__(self, name: str, cfg: EncoderConfig, rng: np.random.Generator | None):
        self.attn = MultiHeadAttention(f"{name}.attn", cfg.d_model, cfg.n_heads, rng)
        self.ln1 = LayerNorm(f"{name}.ln1", cfg.d_model)
        self.ffn = FeedForward(f"{name}.ffn", cfg.d_model, cfg.d_ffn, rng)
        self.ln2 = LayerNorm(f"{name}.ln2", cfg.d_model)

    def __call__(self, x: Tensor, bias, dropout_p, rng, cls_only=False) -> Tensor:
        """(B, T, d) states in, (B, T, d) out; with ``cls_only``, only the
        position-0 row is computed, (B, 1, d), attending over all T keys;
        its dropout masks are drawn for that row alone.
        """
        B, _, d = x.shape
        k, v = self.attn.project_kv(x)
        if cls_only:
            x = ad.token_at(x, 0).reshape(B, 1, d)
        a = self.attn.attend(x, k, v, bias, dropout_p, rng)
        x = self.ln1.residual(x, a, self.attn.wo, dropout_p, rng)
        return self.ln2.residual(x, self.ffn(x), self.ffn.lin2, dropout_p, rng)


def pad_batch(seqs):
    """Right-pad integer sequences with PAD (id 0) to the longest one;
    returns (ids, mask). An empty batch or an empty sequence raises
    ValueError: it has no [CLS] row to pool or attend from."""
    if not len(seqs):
        raise ValueError("cannot pad an empty batch")
    lengths = [len(s) for s in seqs]
    if min(lengths) == 0:
        raise ValueError(f"sequence {lengths.index(0)} of the batch is empty")
    T = max(lengths)
    ids = np.zeros((len(seqs), T), dtype=np.int64)
    mask = np.zeros((len(seqs), T), dtype=np.float64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = np.asarray(s, dtype=np.int64)
        mask[i, : len(s)] = 1.0
    return ids, mask


def _token_chunks(seqs, budget: int):
    """Consecutive (start, stop) runs whose count x longest length fits
    the budget; a single sequence longer than the budget gets its own run."""
    start, longest = 0, 0
    for i, s in enumerate(seqs):
        longest = max(longest, len(s))
        if i > start and (i + 1 - start) * longest > budget:
            yield start, i
            start, longest = i, len(s)
    if seqs:
        yield start, len(seqs)


def _dropout_rate(training: bool, dropout_p) -> float:
    """A forward's dropout rate: ``dropout_p``, required in training; 0 in evaluation."""
    if training and dropout_p is None:
        raise ValueError("training=True needs dropout_p, the stage's dropout rate")
    return dropout_p if training else 0.0


def _key_bias(mask: np.ndarray, dtype) -> np.ndarray:
    # (B, T) validity mask -> additive (B, 1, T) bias over key positions
    return ((1.0 - mask) * MASK_BIAS)[:, None, :].astype(dtype)


def _causal_bias(T: int, dtype) -> np.ndarray:
    return np.triu(np.full((T, T), MASK_BIAS), k=1).astype(dtype)


class _Embedded(Module):
    """Token and position embeddings with their layer norm, the input path
    the encoder and the decoder share."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.tok_emb = Parameter("tok_emb", _normal(rng, (cfg.vocab_size, cfg.d_model)))
        self.pos_emb = Parameter("pos_emb", _normal(rng, (cfg.max_positions, cfg.d_model)))
        self.emb_ln = LayerNorm("emb_ln", cfg.d_model)

    def _embed(self, ids: np.ndarray, start: int = 0) -> Tensor:
        """Layer-normed token plus position embeddings of (B, T) ``ids``
        standing at positions start .. start + T - 1."""
        stop = start + ids.shape[1]
        if stop > self.cfg.max_positions:
            raise ValueError(
                f"sequence length {stop} exceeds max_positions {self.cfg.max_positions}"
            )
        x = ad.embedding(self.tok_emb, ids) + ad.embedding(self.pos_emb, np.arange(start, stop))
        return self.emb_ln(x)


class ConversationalEncoder(_Embedded):
    """Shared transformer encoder + linear/tanh pooling over the [CLS] state."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None):
        super().__init__(cfg, rng)
        self.blocks = [EncoderBlock(f"layer{i}", cfg, rng) for i in range(cfg.n_layers)]
        self.pool = Linear("pool", cfg.d_model, cfg.pooled_dim, rng)

    def backbone_parameters(self):
        """Everything except the pooling head; the per-position hidden-state
        path that response generation trains."""
        pool = self.pool.parameters()
        return [p for p in self.parameters() if not any(p is q for q in pool)]

    def forward_hidden(self, seqs, training=False, rng=None, dropout_p=None, *, cls_only=False):
        """Per-position hidden states for a batch of id sequences.

        Returns (hidden (B, T, d_model) tensor, validity mask (B, T) array).
        Attention never reads PAD positions. Training runs dropout at
        ``dropout_p``, which it requires, drawing from ``rng``; evaluation
        draws nothing. With ``cls_only``, the last block computes only the
        [CLS] row and hidden is (B, 1, d_model); that block then draws
        dropout masks for the [CLS] row only, so ``rng`` advances less than
        without it.
        """
        p = _dropout_rate(training, dropout_p)
        ids, mask = pad_batch(seqs)
        bias = _key_bias(mask, self.tok_emb.dtype)
        x = ad.dropout(self._embed(ids), p, rng)
        last = len(self.blocks) - 1
        for i, blk in enumerate(self.blocks):
            x = blk(x, bias, p, rng, cls_only=cls_only and i == last)
        return x, mask

    def pool_cls(self, hidden: Tensor) -> Tensor:
        """tanh(W h_cls + b): components always lie in (-1, 1)."""
        return ad.tanh(self.pool(ad.token_at(hidden, 0)))

    def encode_batch(self, seqs, training=False, rng=None, dropout_p=None) -> Tensor:
        """Pooled (B, pooled_dim) embeddings; only the [CLS] row of the
        last block is computed, since pooling reads nothing else."""
        hidden, _ = self.forward_hidden(
            seqs, training=training, rng=rng, dropout_p=dropout_p, cls_only=True
        )
        return self.pool_cls(hidden)

    def embed(self, seqs, head=None) -> np.ndarray:
        """Eval-mode pooled embeddings of ``seqs`` as one (n, pooled_dim)
        array, in input order, built graph-free under ``ad.no_grad()``.

        Sequences run in consecutive chunks of at most ``_EVAL_TOKEN_BUDGET``
        padded tokens. ``head``, when given, maps each chunk's embedding
        tensor to the tensor whose rows are returned instead (a classifier's
        logits, say), so it runs once per chunk and graph-free as well.
        """
        if not len(seqs):
            raise ValueError("cannot embed an empty list of sequences")
        out = []
        with ad.no_grad():
            for start, stop in _token_chunks(seqs, _EVAL_TOKEN_BUDGET):
                q = self.encode_batch(seqs[start:stop])
                out.append((q if head is None else head(q)).data)
        return np.concatenate(out, axis=0)


class DecoderBlock(Module):
    """Causal self-attention, cross-attention over encoder states, FFN."""

    def __init__(self, name: str, cfg: EncoderConfig, rng: np.random.Generator | None):
        self.self_attn = MultiHeadAttention(f"{name}.attn", cfg.d_model, cfg.n_heads, rng)
        self.ln1 = LayerNorm(f"{name}.ln1", cfg.d_model)
        self.cross_attn = MultiHeadAttention(f"{name}.cross", cfg.d_model, cfg.n_heads, rng)
        self.ln_cross = LayerNorm(f"{name}.ln_cross", cfg.d_model)
        self.ffn = FeedForward(f"{name}.ffn", cfg.d_model, cfg.d_ffn, rng)
        self.ln2 = LayerNorm(f"{name}.ln2", cfg.d_model)

    def __call__(self, x, self_bias, cross_kv, cross_bias, dropout_p, rng, cache=None, t=0):
        """(B, T, d) states in, (B, T, d) out; ``cross_kv`` is
        ``cross_attn.project_kv`` of the encoder states.

        With ``cache``, x (1, 1, d) is the one position ``t``: its
        self-attention key and value are written into row ``t`` of the
        cache buffers (1, >t, d), and it attends over rows 0..t, every one
        of which precedes it.
        """
        k, v = self.self_attn.project_kv(x)
        if cache is not None:
            for buf, new in zip(cache, (k, v)):
                buf[:, t] = new.data[:, 0]
            # _as_tensor keeps the buffers' dtype; Tensor() would cast to the default
            k, v = (ad._as_tensor(buf[:, : t + 1], x) for buf in cache)
        a = self.self_attn.attend(x, k, v, self_bias, dropout_p, rng)
        x = self.ln1.residual(x, a, self.self_attn.wo, dropout_p, rng)
        c = self.cross_attn.attend(x, *cross_kv, cross_bias, dropout_p, rng)
        x = self.ln_cross.residual(x, c, self.cross_attn.wo, dropout_p, rng)
        return self.ln2.residual(x, self.ffn(x), self.ffn.lin2, dropout_p, rng)


class ResponseDecoder(_Embedded):
    """Causal decoder with cross-attention and a language-model head."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None, bos_id: int,
                 eos_id: int):
        super().__init__(cfg, rng)
        self.bos_id = bos_id
        self.eos_id = eos_id
        self.blocks = [DecoderBlock(f"layer{i}", cfg, rng) for i in range(cfg.n_layers)]
        self.lm_head = Linear("lm_head", cfg.d_model, cfg.vocab_size, rng)

    def forward_teacher_forced(self, enc_hidden, enc_mask, r_seqs, training=False, rng=None,
                               dropout_p=None):
        """Logits over next tokens for gold-prefix response sequences.

        Row t of the output depends only on response tokens <= t (causal
        mask) and on the non-PAD utterance states. Every sequence must
        start with [BOS]. Dropout runs as in the encoder's
        ``forward_hidden``: at ``dropout_p`` in training, none in evaluation.

        Returns (logits (B, T, vocab) tensor, response validity mask (B, T)).
        """
        for i, s in enumerate(r_seqs):
            if len(s) == 0 or int(s[0]) != self.bos_id:
                raise ValueError(f"response sequence {i} is missing the leading BOS token")
        p = _dropout_rate(training, dropout_p)
        ids, mask = pad_batch(r_seqs)
        x = ad.dropout(self._embed(ids), p, rng)
        dtype = self.tok_emb.dtype
        self_bias = _causal_bias(ids.shape[1], dtype) + _key_bias(mask, dtype)
        cross_bias = _key_bias(enc_mask, dtype)
        for blk in self.blocks:
            x = blk(x, self_bias, blk.cross_attn.project_kv(enc_hidden), cross_bias, p, rng)
        return self.lm_head(x), mask

    @ad.no_grad()
    def generate(self, encoder: ConversationalEncoder, u_ids, max_t: int) -> list[int]:
        """Greedy decoding from [BOS] until [EOS] or max_t tokens; deterministic,
        and graph-free: it runs under ``ad.no_grad()``.

        Decoding is incremental. The utterance's encoder states are projected
        to each block's cross-attention keys/values once per call; each step
        then runs only the newest token, one row, through the blocks teacher
        forcing runs and the LM head, attending over the self-attention
        keys/values cached by the earlier steps. Step t emits what the last
        row of ``forward_teacher_forced`` over [BOS] and the t tokens before
        it would pick, and raises ValueError where that sequence would
        exceed ``max_positions``.
        """
        if max_t <= 0:
            return []
        enc_hidden, _ = encoder.forward_hidden([list(u_ids)])
        cross_kv = [blk.cross_attn.project_kv(enc_hidden) for blk in self.blocks]
        shape = (1, min(max_t, self.cfg.max_positions), self.cfg.d_model)
        dtype = self.tok_emb.dtype
        self_kv = [(np.empty(shape, dtype), np.empty(shape, dtype)) for _ in self.blocks]
        tok, out = self.bos_id, []
        for t in range(max_t):
            x = self._embed(np.array([[tok]]), start=t)
            for blk, kv, ckv in zip(self.blocks, self_kv, cross_kv):
                x = blk(x, None, ckv, None, 0.0, None, cache=kv, t=t)
            tok = int(np.argmax(self.lm_head(x).data[0, 0]))
            if tok == self.eos_id:
                break
            out.append(tok)
        return out


def init_decoder_from_encoder(
    encoder: ConversationalEncoder,
    rng: np.random.Generator,
    bos_id: int = BOS_ID,
    eos_id: int = EOS_ID,
) -> ResponseDecoder:
    """Build a decoder whose parameters that share a name with the
    encoder's (embeddings, self-attention, FFN and their norms) are value
    copies of them; cross-attention and LM head stay fresh.

    The copies are independent: training the decoder afterwards never
    mutates the encoder weights, and vice versa.
    """
    dec = ResponseDecoder(encoder.cfg, rng, bos_id=bos_id, eos_id=eos_id)
    shared = dict(encoder.named_parameters())
    for name, p in dec.named_parameters():
        if name in shared:
            p.data = shared[name].data.copy()
    return dec


class IntentClassifier(Module):
    """Two-layer MLP over pooled embeddings: linear, tanh, linear."""

    def __init__(self, pooled_dim: int, n_classes: int, rng: np.random.Generator | None):
        self.n_classes = n_classes
        self.lin1 = Linear("clf.lin1", pooled_dim, pooled_dim, rng)
        self.lin2 = Linear("clf.lin2", pooled_dim, n_classes, rng)

    def __call__(self, q: Tensor) -> Tensor:
        return self.lin2(ad.tanh(self.lin1(q)))
