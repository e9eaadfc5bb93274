"""Training objectives.

Four losses drive the pipeline: the in-batch contrastive retrieval loss,
teacher-forced generation cross-entropy, classification cross-entropy,
and the dropout-view unsupervised contrastive term, combined as
ce + lambda * unsupervised. A sigmoid binary cross-entropy covers the
multi-label variant. All of them are differentiable compositions of the
autodiff primitives.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

COSINE_EPS = 1e-8


def cosine_matrix(q: Tensor, p: Tensor) -> Tensor:
    """Pairwise cosine similarities: out[i, j] = cos(q_i, p_j).

    Denominators are clamped at ``COSINE_EPS`` so zero vectors stay finite.
    """
    if q.ndim != 2 or p.ndim != 2 or q.shape[1] != p.shape[1]:
        raise ValueError(f"need (n, d) and (m, d) embeddings, got {q.shape} and {p.shape}")
    dots = ad.matmul(q, p.transpose())
    qn = ad.sqrt(ad.tsum(ad.mul(q, q), axis=1, keepdims=True))
    pn = ad.sqrt(ad.tsum(ad.mul(p, p), axis=1, keepdims=True))
    denom = ad.clamp_min(ad.matmul(qn, pn.transpose()), COSINE_EPS)
    return ad.div(dots, denom)


def retrieval_loss(q: Tensor, p: Tensor, tau: float) -> Tensor:
    """In-batch contrastive loss over utterance/response embedding pairs.

    Row i's positive is p_i; every other response in the batch is a
    negative. The value is -mean_i log softmax(sim(q_i, p_.) / tau)[i],
    always >= 0, and exactly ln(n) when all similarities in a row tie.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if q.shape != p.shape:
        raise ValueError(f"anchor/candidate shapes differ: {q.shape} vs {p.shape}")
    n = q.shape[0]
    if n < 1:
        raise ValueError("batch must hold at least one pair")
    sims = cosine_matrix(q, p) * (1.0 / tau)
    logp = ad.log_softmax(sims, axis=1)
    diag = ad.gather_last(logp, np.arange(n))
    return ad.neg(ad.tmean(diag))


def unsup_contrastive_loss(q_hat: Tensor, q_bar: Tensor, tau: float) -> Tensor:
    """Consistency term over two dropout views of the same utterances.

    Identical functional form to the retrieval loss with the first views
    as anchors and the second views as candidates.
    """
    return retrieval_loss(q_hat, q_bar, tau)


def generation_loss(
    logits: Tensor,
    target_ids: np.ndarray,
    pad_id: int | None = None,
    reduction: str = "token_mean",
) -> Tensor:
    """Cross-entropy of next-token predictions under teacher forcing.

    ``logits`` has shape (T, vocab) or (B, T, vocab); ``target_ids`` aligns
    with it (already shifted one step past BOS). Positions equal to
    ``pad_id`` are excluded. token_mean divides by the number of scored
    tokens; sequence_sum divides by the batch size only.
    """
    if reduction not in ("token_mean", "sequence_sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    targets = np.asarray(target_ids, dtype=np.int64)
    vocab = logits.shape[-1]
    if targets.size and targets.max() >= vocab:
        raise ValueError(f"target id {targets.max()} out of range for vocab size {vocab}")
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.gather_last(logp, targets)
    if pad_id is None:
        mask = np.ones(targets.shape, dtype=logits.dtype)
    else:
        mask = (targets != pad_id).astype(logits.dtype)
    n_tokens = float(mask.sum())
    if n_tokens == 0:
        raise ValueError("no non-PAD target positions to score")
    total = ad.neg(ad.tsum(ad.mul(picked, ad.Tensor(mask))))
    if reduction == "token_mean":
        return total * (1.0 / n_tokens)
    batch = 1 if targets.ndim == 1 else targets.shape[0]
    return total * (1.0 / batch)


def classification_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the gold class.

    ``probs`` rows are softmax outputs (each sums to 1); ``labels`` are
    gold class indices.
    """
    y = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or y.shape != (probs.shape[0],):
        raise ValueError(f"got probs {probs.shape} and labels {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= probs.shape[1]):
        raise ValueError(f"label out of range [0, {probs.shape[1]}): max {y.max()}")
    gold = ad.gather_last(probs, y)
    return ad.neg(ad.tmean(ad.log(gold)))


def multilabel_loss(logits: Tensor, y: np.ndarray) -> Tensor:
    """Mean per-element sigmoid binary cross-entropy against multi-hot targets."""
    hot = np.asarray(y, dtype=logits.dtype)
    if hot.shape != logits.shape:
        raise ValueError(f"target shape {hot.shape} does not match logits {logits.shape}")
    # -[y log s + (1-y) log(1-s)] == softplus(z) - z*y for y in {0, 1}
    per_elem = ad.sub(ad.softplus(logits), ad.mul(logits, ad.Tensor(hot)))
    return ad.tmean(per_elem)


def combined_finetune_loss(ce: Tensor, uns: Tensor, lam: float) -> Tensor:
    """Fine-tuning objective: cross-entropy plus lambda-weighted consistency term."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return ce + uns * lam
