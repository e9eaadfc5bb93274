"""Evaluation metrics and embedding export."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Prediction:
    """Per-class scores plus the gold label (index, or multi-hot array)."""

    scores: np.ndarray
    gold: object


def accuracy(preds: list[Prediction]) -> float:
    """Fraction of predictions whose top-scoring class is the gold class.

    Score ties resolve to the lowest class index.
    """
    if not preds:
        raise ValueError("cannot compute accuracy over an empty prediction list")
    hits = sum(1 for p in preds if int(np.argmax(p.scores)) == int(p.gold))
    return hits / len(preds)


def _gold_rank(scores: np.ndarray, gold: int) -> int:
    # 1-based rank under descending score, ties broken by ascending class index
    g = float(scores[gold])
    higher = int(np.sum(scores > g))
    tied_before = int(np.sum(scores[:gold] == g))
    return 1 + higher + tied_before


def mrr_at_k(preds: list[Prediction], k: int) -> float:
    """Mean reciprocal rank of the gold class, zero beyond cutoff k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not preds:
        raise ValueError("cannot compute MRR over an empty prediction list")
    total = 0.0
    for p in preds:
        r = _gold_rank(p.scores, int(p.gold))
        if r <= k:
            total += 1.0 / r
    return total / len(preds)


def multilabel_predicted(scores: np.ndarray) -> np.ndarray:
    """The multi-label decision: a class is predicted when its score
    strictly exceeds 0.5, so a score of exactly 0.5 is not."""
    return scores > 0.5


def multilabel_metrics(preds: list[Prediction]) -> dict:
    """Micro/macro F1 and subset accuracy for multi-label output.

    The predicted classes are those ``multilabel_predicted`` picks; subset
    accuracy requires the predicted set to equal the gold set.
    """
    if not preds:
        raise ValueError("cannot compute metrics over an empty prediction list")
    n_classes = preds[0].scores.shape[0]
    tp = np.zeros(n_classes)
    fp = np.zeros(n_classes)
    fn = np.zeros(n_classes)
    exact = 0
    for p in preds:
        pred_set = multilabel_predicted(p.scores)
        gold_set = np.asarray(p.gold) > 0.5
        if np.array_equal(pred_set, gold_set):
            exact += 1
        tp += pred_set & gold_set
        fp += pred_set & ~gold_set
        fn += ~pred_set & gold_set
    tp_all, fp_all, fn_all = tp.sum(), fp.sum(), fn.sum()
    denom = 2 * tp_all + fp_all + fn_all
    micro_f1 = (2 * tp_all / denom) if denom > 0 else 1.0
    per_class = np.where(
        2 * tp + fp + fn > 0, 2 * tp / np.maximum(2 * tp + fp + fn, 1e-12), 1.0
    )
    return {
        "micro_f1": float(micro_f1),
        "macro_f1": float(per_class.mean()),
        "subset_accuracy": exact / len(preds),
    }


def in_batch_recall_at_1(q: np.ndarray, p: np.ndarray) -> float:
    """Fraction of rows whose own candidate is their cosine-nearest one."""
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    pn = p / np.maximum(np.linalg.norm(p, axis=1, keepdims=True), 1e-12)
    sims = qn @ pn.T
    return float(np.mean(np.argmax(sims, axis=1) == np.arange(q.shape[0])))


def export_embeddings(encoder, examples, label_names: list[str], path) -> None:
    """Write eval-mode utterance embeddings as CSV: id, intent, e0..e{d-1}.

    The utterances run graph-free in token-budget chunks through
    ``encoder.embed``, the path eval scoring takes. Output is
    deterministic, so re-export of the same model and examples is
    byte-identical.
    """
    d = encoder.cfg.pooled_dim
    header = "id,intent," + ",".join(f"e{i}" for i in range(d))
    lines = [header]
    # Python floats: a float32 value converts exactly, so repr writes the
    # text repr(float(v)) of each NumPy scalar would, at a fraction of the calls
    rows = encoder.embed([ex.utterance_ids for ex in examples]).tolist() if examples else []
    for ex, row in zip(examples, rows):
        if isinstance(ex.label, (int, np.integer)):
            intent = label_names[int(ex.label)]
        else:
            active = [label_names[i] for i in np.flatnonzero(np.asarray(ex.label) > 0.5)]
            intent = "|".join(active)
        values = ",".join(map(repr, row))
        lines.append(f"{ex.example_id},{intent},{values}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def load_embeddings(path):
    """Read an embedding CSV back as (ids, intents, matrix)."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    header, body = rows[0], rows[1:]
    d = len(header) - 2
    ids = [r[0] for r in body]
    intents = [r[1] for r in body]
    mat = np.array([[float(v) for v in r[2 : 2 + d]] for r in body])
    return ids, intents, mat
