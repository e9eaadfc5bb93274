"""Dataset ingestion, cleanup, tokenization, vocabulary and splits.

Dialogue records arrive as JSONL lines with customer-side and agent-side
turns plus intent labels. Cleanup strips URLs and emoji, multi-turn sides
are flattened with an explicit separator marker, and a whitespace
tokenizer (with a per-character fallback for unsegmented scripts) feeds a
frequency-ordered vocabulary.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD, UNK, CLS, SEP, BOS, EOS = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[BOS]", "[EOS]"
RESERVED_TOKENS = (PAD, UNK, CLS, SEP, BOS, EOS)
# every vocabulary starts with RESERVED_TOKENS, so their ids are fixed
PAD_ID, UNK_ID, CLS_ID, SEP_ID, BOS_ID, EOS_ID = range(len(RESERVED_TOKENS))

_URL_RE = re.compile(r"(?:\b[a-zA-Z][a-zA-Z0-9+.\-]*://\S+|\bwww\.\S+)")

# codepoint ranges treated as emoji (pictographs, transport, symbols,
# dingbats, flags, skin-tone/variation modifiers, ZWJ sequences)
_EMOJI_RANGES = (
    (0x1F1E6, 0x1F1FF),
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F700, 0x1F77F),
    (0x1F780, 0x1F7FF),
    (0x1F800, 0x1F8FF),
    (0x1F900, 0x1F9FF),
    (0x1FA00, 0x1FA6F),
    (0x1FA70, 0x1FAFF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0x2B00, 0x2BFF),
    (0xFE00, 0xFE0F),
    (0x200D, 0x200D),
    (0x20E3, 0x20E3),
)
_EMOJI_RE = re.compile(
    "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "]"
)
_TURN_JOINER = f" {SEP} "


def _strip_urls_and_emoji(text: str) -> str:
    """Replace URLs, then emoji, with spaces. Each pass runs only on text
    it can match: a URL match holds "://" or "www." (case-sensitive), and
    every emoji code point is above U+007F."""
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if not text.isascii():
        text = _EMOJI_RE.sub(" ", text)
    return text


def preprocess(text: str) -> str:
    """Strip URLs and emoji, collapse whitespace, trim. Idempotent."""
    return " ".join(_strip_urls_and_emoji(text).split())


@dataclass
class DialogueRecord:
    """One dialogue: customer turns, agent turns, and its intent label(s)."""

    id: str
    utterance_turns: list[str]
    response_turns: list[str]
    intents: list[str]

    def __post_init__(self):
        if not self.utterance_turns:
            raise ValueError(f"record {self.id!r}: needs at least one utterance turn")
        if not self.intents:
            raise ValueError(f"record {self.id!r}: needs at least one intent")


def flatten_dialogue(rec: DialogueRecord) -> tuple[str, str]:
    """Join each side's turns, in order, with the separator marker."""
    return _TURN_JOINER.join(rec.utterance_turns), _TURN_JOINER.join(rec.response_turns)


def tokenize(text: str, char_fallback: bool = False) -> list[str]:
    """Whitespace tokens over preprocessed text; optionally split to characters.

    The character fallback handles scripts without word boundaries; reserved
    marker tokens are kept intact in either mode.
    """
    # str.split() splits on exactly the characters \s matches
    tokens = _strip_urls_and_emoji(text).split()
    if not char_fallback:
        return tokens
    out: list[str] = []
    for tok in tokens:
        if tok in RESERVED_TOKENS:
            out.append(tok)
        else:
            out.extend(tok)
    return out


class Vocab:
    """Bijective token<->id map with the six reserved tokens at ids 0..5."""

    pad_id, unk_id, cls_id, sep_id, bos_id, eos_id = PAD_ID, UNK_ID, CLS_ID, SEP_ID, BOS_ID, EOS_ID

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocab must start with the reserved tokens")
        self._tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise ValueError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self._tokens)

    def id(self, token: str) -> int:
        return self._ids.get(token, self.unk_id)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        get, unk = self._ids.get, self.unk_id
        return [get(t, unk) for t in tokens]

    def decode_ids(self, ids) -> list[str]:
        return [self._tokens[int(i)] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self._tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        return cls(tokens)


def build_vocab(corpus, min_freq: int = 1, char_fallback: bool = False) -> Vocab:
    """Count tokens over a corpus and keep those with frequency >= min_freq.

    Ordering is frequency-descending with lexicographic tie-break, after the
    reserved tokens, so two builds over the same corpus assign identical ids.
    """
    docs = list(corpus)
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(tokenize(doc, char_fallback=char_fallback))
    kept = [
        tok
        for tok, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if c >= min_freq and tok not in RESERVED_TOKENS
    ]
    return Vocab(list(RESERVED_TOKENS) + kept)


def encode_utterance(turns, vocab: Vocab, h_max: int, char_fallback: bool = False) -> list[int]:
    """[CLS] plus the ids of the customer turns joined with the separator
    marker, right-truncated to ``h_max`` ids. The one utterance encoding
    that training data and raw serving input share."""
    text = _TURN_JOINER.join(turns)
    return ([vocab.cls_id] + vocab.encode_tokens(tokenize(text, char_fallback)))[:h_max]


@dataclass
class EncodedExample:
    """Token-encoded (utterance, response, label) triple."""

    example_id: str
    utterance_ids: np.ndarray
    response_ids: np.ndarray
    label: object  # int index in single-label mode, multi-hot float array otherwise


def encode(
    rec: DialogueRecord,
    vocab: Vocab,
    label_names: list[str],
    h_max: int = 512,
    t_max: int = 512,
    mode: str = "single",
    char_fallback: bool = False,
) -> EncodedExample:
    """Encode a record: [CLS]-prefixed utterance ids, [BOS]/[EOS]-bracketed
    response ids, both right-truncated, plus the label encoding."""
    if mode not in ("single", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    if h_max < 1 or t_max < 2:
        raise ValueError("h_max must be >= 1 and t_max >= 2")
    label_index = {name: i for i, name in enumerate(label_names)}
    for name in rec.intents:
        if name not in label_index:
            raise ValueError(f"record {rec.id!r}: unknown intent label {name!r}")

    u_ids = encode_utterance(rec.utterance_turns, vocab, h_max, char_fallback)
    r_text = _TURN_JOINER.join(rec.response_turns)
    r_content = vocab.encode_tokens(tokenize(r_text, char_fallback))
    r_ids = [vocab.bos_id] + r_content[: t_max - 2] + [vocab.eos_id]

    if mode == "single":
        if len(rec.intents) != 1:
            raise ValueError(
                f"record {rec.id!r}: single-label mode needs exactly one intent, got {len(rec.intents)}"
            )
        label = label_index[rec.intents[0]]
    else:
        hot = np.zeros(len(label_names), dtype=np.float32)
        for name in rec.intents:
            hot[label_index[name]] = 1.0
        label = hot
    return EncodedExample(
        example_id=rec.id,
        utterance_ids=np.asarray(u_ids, dtype=np.int64),
        response_ids=np.asarray(r_ids, dtype=np.int64),
        label=label,
    )


def read_jsonl(path):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    Each line must hold a JSON object whose ``id``, where present, is a
    string and whose ``utterance_turns``, ``response_turns`` and
    ``intents``, where present, are lists of strings; anything else raises
    ValueError naming the path and line.
    """
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{where}: invalid JSON ({e.msg})") from e
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(raw).__name__}")
            # ids key output lines: a null or number turned into text could collide
            if not isinstance(raw.get("id", ""), str):
                raise ValueError(f"{where}: id must be a string")
            for key in ("utterance_turns", "response_turns", "intents"):
                value = raw.get(key, [])
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise ValueError(f"{where}: {key} must be a list of strings")
            yield lineno, raw


def load_jsonl(path) -> list[DialogueRecord]:
    """Parse one DialogueRecord per line; malformed lines name their line number."""
    records = []
    for lineno, raw in read_jsonl(path):
        try:
            records.append(
                DialogueRecord(
                    id=raw["id"],
                    utterance_turns=raw["utterance_turns"],
                    response_turns=raw.get("response_turns", []),
                    intents=raw["intents"],
                )
            )
        except KeyError as e:
            raise ValueError(f"{path}: line {lineno}: missing field {e.args[0]!r}") from e
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from e
    return records


def save_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(
                json.dumps(
                    {
                        "id": rec.id,
                        "utterance_turns": rec.utterance_turns,
                        "response_turns": rec.response_turns,
                        "intents": rec.intents,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def label_set(records) -> list[str]:
    """Sorted union of intent names across the records."""
    names = set()
    for rec in records:
        names.update(rec.intents)
    return sorted(names)


def _checked_ratios(ratios, name: str) -> tuple:
    """``ratios`` as a tuple of floats, or a ValueError naming ``name``
    unless they are three finite, nonnegative values summing to 1. The
    comparisons are written so that NaN and infinities are refused too."""
    ratios = tuple(float(r) for r in ratios)
    if not (len(ratios) == 3 and all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ValueError(f"{name} must be three nonnegative values summing to 1, got {ratios}")
    return ratios


def split(records, ratios, seed: int):
    """Stratified-by-first-intent split into (train, valid, test).

    Within each stratum, largest-remainder allocation keeps per-intent
    proportions within one example of the targets; single-member strata go
    to training. Deterministic under ``seed``.
    """
    ratios = _checked_ratios(ratios, "ratios")
    rng = np.random.default_rng(seed)
    strata: dict[str, list[DialogueRecord]] = {}
    for rec in records:
        strata.setdefault(rec.intents[0], []).append(rec)

    out: tuple[list, list, list] = ([], [], [])
    for intent in sorted(strata):
        members = list(strata[intent])
        order = rng.permutation(len(members))
        members = [members[i] for i in order]
        n = len(members)
        if n == 1:
            out[0].extend(members)
            continue
        exact = [n * r for r in ratios]
        counts = [int(e) for e in exact]
        leftovers = n - sum(counts)
        remainders = sorted(
            range(3), key=lambda i: (-(exact[i] - counts[i]), i)
        )
        for i in range(leftovers):
            counts[remainders[i % 3]] += 1
        pos = 0
        for bucket, c in zip(out, counts):
            bucket.extend(members[pos : pos + c])
            pos += c
    return out
