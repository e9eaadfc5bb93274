"""Per-operation scalar-loss builders for gradient checking.

Each builder returns (rebuild, leaf_tensors): ``rebuild()`` constructs the
scalar loss from the leaves' current array contents, so finite differences
can perturb the arrays in place and re-evaluate. The composites below
are the references that fused nodes and graph-free decoding must match.
"""
from __future__ import annotations

import zlib

import numpy as np

from rsvp import autodiff as ad
from rsvp.autodiff import Tensor

DIFFERENTIABLE_OPS = (
    "add", "sub", "mul", "div", "neg", "tanh", "log", "sqrt", "sigmoid",
    "softplus", "gelu", "clamp_min", "matmul", "reshape", "transpose",
    "sum", "mean", "token_at", "narrow0", "softmax", "log_softmax",
    "embedding", "gather_last", "layer_norm", "dropout", "cosine_similarity",
    "linear", "attention", "residual_layer_norm",
)


def oracle_seed(name: str, trial: int) -> int:
    """The seed of gradient-check instance ``trial`` of op ``name``, derived
    as ``SeedHub`` derives a stream's key, so every process draws the same
    instances whatever its PYTHONHASHSEED."""
    return zlib.crc32(f"acc/{name}/{trial}".encode())


# ---------------------------------------------------------------------------
# the composites the fused nodes and array-level decoding replace, built
# from the public ops


def composite_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def composite_attention(q, k, v, n_heads, bias, p, rng):
    """Per-head attention over (B, T, d) projections, the heads split and
    merged by ``reshape`` and ``transpose`` nodes."""
    B, Tq, d = q.shape
    dh = d // n_heads

    def split(x):
        return ad.transpose(ad.reshape(x, (B, x.shape[1], n_heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scale = 1.0 / np.sqrt(dh)
    scores = ad.mul(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), Tensor(scale))
    if bias is not None:
        scores = ad.add(scores, Tensor(np.asarray(bias)[..., None, :, :]))
    ctx = ad.matmul(ad.dropout(ad.softmax(scores, axis=-1), p, rng), vh)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, Tq, d))


def composite_residual_layer_norm(x, h, w, b, gamma, beta, p, rng):
    return ad.layer_norm(ad.add(x, ad.dropout(ad.linear(h, w, b), p, rng)), gamma, beta)


def graph_greedy_steps(dec, enc, u_ids, max_t):
    """Greedy decoding composed of graph nodes with the graph on, the
    reference for ``ResponseDecoder.generate``: each step embeds the newest
    token at its position and runs every block as ``ad.linear``,
    ``ad.attention``, ``ad.residual_layer_norm`` and ``ad.gelu`` nodes,
    attending over self-attention keys/values cached in (1, n, d_model)
    arrays. Returns the tokens before [EOS] and each step's logits tensor,
    (1, 1, vocab_size)."""
    if max_t <= 0:
        return [], []
    hidden, _ = enc.forward_hidden([list(u_ids)])
    cross_kv = [blk.cross_attn.project_kv(hidden) for blk in dec.blocks]
    shape = (1, min(max_t, dec.cfg.max_positions), dec.cfg.d_model)
    caches = [(np.empty(shape, dec.tok_emb.dtype), np.empty(shape, dec.tok_emb.dtype))
              for _ in dec.blocks]
    tok, tokens, logits = dec.bos_id, [], []
    for t in range(max_t):
        x = dec._embed(np.array([[tok]]), start=t)
        for blk, cache, (ck, cv) in zip(dec.blocks, caches, cross_kv):
            sa, ca, ffn = blk.self_attn, blk.cross_attn, blk.ffn
            for buf, lin in zip(cache, (sa.wk, sa.wv)):
                buf[:, t] = ad.linear(x, lin.w, lin.b).data[:, 0]
            # _as_tensor keeps the buffers' dtype; Tensor() would cast to the default
            k, v = (ad._as_tensor(buf[:, : t + 1], x) for buf in cache)
            a = ad.attention(ad.linear(x, sa.wq.w, sa.wq.b), k, v, sa.n_heads, None, 0.0, None)
            x = ad.residual_layer_norm(x, a, sa.wo.w, sa.wo.b, blk.ln1.gamma, blk.ln1.beta,
                                       0.0, None)
            c = ad.attention(ad.linear(x, ca.wq.w, ca.wq.b), ck, cv, ca.n_heads, None, 0.0, None)
            x = ad.residual_layer_norm(x, c, ca.wo.w, ca.wo.b, blk.ln_cross.gamma,
                                       blk.ln_cross.beta, 0.0, None)
            f = ad.gelu(ad.linear(x, ffn.lin1.w, ffn.lin1.b))
            x = ad.residual_layer_norm(x, f, ffn.lin2.w, ffn.lin2.b, blk.ln2.gamma, blk.ln2.beta,
                                       0.0, None)
        logits.append(ad.linear(x, dec.lm_head.w, dec.lm_head.b))
        tok = int(np.argmax(logits[-1].data[0, 0]))
        if tok == dec.eos_id:
            break
        tokens.append(tok)
    return tokens, logits


def _leaf(r, shape, scale=1.0):
    return Tensor(r.normal(0.0, scale, size=shape), requires_grad=True)


def make_builder(name: str, r: np.random.Generator, trial: int):
    if name in ("add", "sub", "mul", "div"):
        a = _leaf(r, (3, 4))
        b = Tensor(r.normal(size=(3, 4)) + (3.0 if name == "div" else 0.0), requires_grad=True)
        fn = getattr(ad, name)
        return (lambda: ad.tsum(fn(a, b))), [a, b]
    if name == "neg":
        a = _leaf(r, (5,))
        return (lambda: ad.tsum(ad.neg(a))), [a]
    if name in ("tanh", "sigmoid", "softplus", "gelu"):
        a = _leaf(r, (3, 5))
        fn = getattr(ad, name)
        return (lambda: ad.tsum(fn(a))), [a]
    if name in ("log", "sqrt"):
        a = Tensor(r.uniform(0.5, 3.0, size=(6,)), requires_grad=True)
        fn = getattr(ad, name)
        return (lambda: ad.tsum(fn(a))), [a]
    if name == "clamp_min":
        a = _leaf(r, (8,), scale=2.0)
        a.data[np.abs(a.data - 0.5) < 0.05] += 0.2
        return (lambda: ad.tsum(ad.clamp_min(a, 0.5))), [a]
    if name == "matmul":
        a = _leaf(r, (3, 4))
        b = _leaf(r, (4, 2))
        return (lambda: ad.tsum(ad.matmul(a, b))), [a, b]
    if name == "reshape":
        a = _leaf(r, (3, 4))
        return (lambda: ad.tsum(ad.mul(ad.reshape(a, (2, 6)), ad.reshape(a, (2, 6))))), [a]
    if name == "transpose":
        a = _leaf(r, (2, 3, 4))
        return (
            lambda: ad.tsum(ad.mul(ad.transpose(a, (2, 0, 1)), ad.transpose(a, (2, 0, 1))))
        ), [a]
    if name == "sum":
        a = _leaf(r, (3, 4))
        return (lambda: ad.tsum(ad.mul(ad.tsum(a, axis=1), ad.tsum(a, axis=1)))), [a]
    if name == "mean":
        a = _leaf(r, (3, 4))
        return (lambda: ad.tsum(ad.mul(ad.tmean(a, axis=0), ad.tmean(a, axis=0)))), [a]
    if name == "token_at":
        a = _leaf(r, (2, 5, 3))
        return (lambda: ad.tsum(ad.mul(ad.token_at(a, 2), ad.token_at(a, 2)))), [a]
    if name == "narrow0":
        a = _leaf(r, (6, 3))
        return (lambda: ad.tsum(ad.mul(ad.narrow0(a, 1, 4), ad.narrow0(a, 1, 4)))), [a]
    if name == "softmax":
        a = _leaf(r, (3, 5))
        w = Tensor(r.normal(size=(3, 5)))
        return (lambda: ad.tsum(ad.mul(ad.softmax(a, axis=1), w))), [a]
    if name == "log_softmax":
        a = _leaf(r, (3, 5))
        w = Tensor(r.normal(size=(3, 5)))
        return (lambda: ad.tsum(ad.mul(ad.log_softmax(a, axis=1), w))), [a]
    if name == "embedding":
        table = _leaf(r, (7, 4))
        ids = r.integers(0, 7, size=(3, 5))
        return (
            lambda: ad.tsum(ad.mul(ad.embedding(table, ids), ad.embedding(table, ids)))
        ), [table]
    if name == "gather_last":
        a = _leaf(r, (4, 6))
        ids = r.integers(0, 6, size=4)
        return (
            lambda: ad.tsum(ad.mul(ad.gather_last(a, ids), ad.gather_last(a, ids)))
        ), [a]
    if name == "layer_norm":
        x = _leaf(r, (2, 3, 6))
        gamma = Tensor(r.normal(1.0, 0.1, size=6), requires_grad=True)
        beta = Tensor(r.normal(0.0, 0.1, size=6), requires_grad=True)
        w = Tensor(r.normal(size=(2, 3, 6)))
        return (lambda: ad.tsum(ad.mul(ad.layer_norm(x, gamma, beta), w))), [x, gamma, beta]
    if name == "dropout":
        a = _leaf(r, (4, 5))
        return (
            lambda: ad.tsum(ad.dropout(a, 0.4, np.random.default_rng(trial)))
        ), [a]
    if name == "cosine_similarity":
        a = _leaf(r, (6,))
        b = _leaf(r, (6,))
        return (lambda: ad.cosine_similarity(a, b)), [a, b]
    if name == "linear":
        x = _leaf(r, (2, 3, 4))
        w = _leaf(r, (4, 5))
        b = _leaf(r, (5,))
        return (lambda: ad.tsum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b)))), [x, w, b]
    if name == "attention":
        q = _leaf(r, (2, 3, 8))
        k = _leaf(r, (2, 5, 8))
        v = _leaf(r, (2, 5, 8))
        bias = r.normal(size=(2, 1, 5)) if trial % 2 else None
        w = Tensor(r.normal(size=(2, 3, 8)))
        return (lambda: ad.tsum(ad.mul(ad.attention(
            q, k, v, 2, bias, 0.3, np.random.default_rng(trial)), w))), [q, k, v]
    if name == "residual_layer_norm":
        x = _leaf(r, (2, 3, 6))
        h = _leaf(r, (2, 3, 5))
        w = _leaf(r, (5, 6), scale=0.5)
        b = _leaf(r, (6,))
        gamma = Tensor(r.normal(1.0, 0.1, size=6), requires_grad=True)
        beta = Tensor(r.normal(0.0, 0.1, size=6), requires_grad=True)
        leaves = [x, h, w, b, gamma, beta]
        proj = Tensor(r.normal(size=(2, 3, 6)))
        return (lambda: ad.tsum(ad.mul(ad.residual_layer_norm(
            *leaves, 0.4, np.random.default_rng(trial)), proj))), leaves
    raise KeyError(name)
