from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from rsvp import text as tx


class TestPreprocess:
    def test_url_removed(self):
        assert tx.preprocess("see https://x.co/a now") == "see now"

    def test_www_prefix_removed(self):
        assert tx.preprocess("go to www.example.com/page please") == "go to please"

    def test_plain_text_untouched(self):
        assert tx.preprocess("hello") == "hello"

    def test_emoji_removed(self):
        assert tx.preprocess("ok \U0001F44D thanks") == "ok thanks"

    def test_mixed_emoji_blocks(self):
        assert tx.preprocess("fire \U0001F525 star ⭐ check ✔") == "fire star check"

    def test_whitespace_collapsed_and_trimmed(self):
        assert tx.preprocess("  a \t b\n\nc  ") == "a b c"

    def test_idempotent(self, rng):
        cases = [
            "see https://x.co/a now",
            "ok \U0001F44D thanks",
            "  spaced   out  ",
            "mixed www.x.org \U0001F600 end",
            "plain sentence with words",
        ]
        for s in cases:
            once = tx.preprocess(s)
            assert tx.preprocess(once) == once


# the cleanup as three unconditional passes, the definition the guarded
# passes of tx.preprocess and tx.tokenize must reproduce
_WS_RE = re.compile(r"\s+")


def _reference_preprocess(text):
    text = tx._URL_RE.sub(" ", text)
    text = tx._EMOJI_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def _reference_tokenize(text, char_fallback):
    tokens = _reference_preprocess(text).split()
    if not char_fallback:
        return tokens
    return [c for tok in tokens for c in ([tok] if tok in tx.RESERVED_TOKENS else tok)]


_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_PIECES = (
    ["refund", "Order", "a1", "x", "?", "[SEP]", "[CLS]", "é", "中文", "café",
     "https://shop.example/a?b=1", "ftp://files.example.org/f", "x://y", "9://z",
     "www.shop.example/p", "WWW.SHOP.EXAMPLE", "awww.b", "http:/half", "://",
     "www.", "\u200d", "\ufe0f"]
    + [chr(c) for bounds in tx._EMOJI_RANGES for c in bounds]
    + _SPACES
)


def _fuzzed_texts(n, seed=0):
    """Random joins of the pieces, abutting or separated by whitespace."""
    r = random.Random(seed)
    seps = ["", " ", "  "] + _SPACES
    return [
        "".join(r.choice(_PIECES) + r.choice(seps) for _ in range(r.randint(0, 12)))
        for _ in range(n)
    ]


class TestGuardedCleanup:
    def test_emoji_ranges_are_outside_ascii(self):
        assert min(lo for lo, _ in tx._EMOJI_RANGES) > 0x7F

    def test_uppercase_www_survives(self):
        assert tx.preprocess("see WWW.SHOP.EXAMPLE now") == "see WWW.SHOP.EXAMPLE now"

    def test_matches_unconditional_passes_on_fuzzed_text(self):
        for text in _fuzzed_texts(12_000):
            assert tx.preprocess(text) == _reference_preprocess(text), repr(text)
            for fallback in (False, True):
                assert tx.tokenize(text, fallback) == _reference_tokenize(text, fallback), repr(text)

    def test_build_vocab_matches_counting_by_dict(self):
        texts = _fuzzed_texts(2_000, seed=2)
        for fallback in (False, True):
            counts = {}
            for text in texts:
                for tok in _reference_tokenize(text, fallback):
                    counts[tok] = counts.get(tok, 0) + 1
            order = sorted((t for t in counts if t not in tx.RESERVED_TOKENS),
                           key=lambda t: (-counts[t], t))
            vocab = tx.build_vocab(texts, char_fallback=fallback)
            assert [vocab.token(i) for i in range(len(vocab))] == list(tx.RESERVED_TOKENS) + order

    def test_encode_tokens_matches_id_per_token(self):
        texts = _fuzzed_texts(2_000, seed=1)
        vocab = tx.build_vocab(texts[:1_000], min_freq=2)
        for text in texts:
            tokens = tx.tokenize(text) + ["never-seen-token"]
            assert vocab.encode_tokens(tokens) == [vocab.id(t) for t in tokens]


class TestFlatten:
    def test_single_turns(self):
        rec = tx.DialogueRecord("r1", ["a"], ["b"], ["X"])
        assert tx.flatten_dialogue(rec) == ("a", "b")

    def test_multi_turn_concatenation_with_separator(self):
        rec = tx.DialogueRecord("r2", ["a", "c"], ["b"], ["X"])
        assert tx.flatten_dialogue(rec) == ("a [SEP] c", "b")

    def test_empty_response_turns_for_prediction_records(self):
        rec = tx.DialogueRecord("r3", ["question"], [], ["X"])
        assert tx.flatten_dialogue(rec) == ("question", "")

    def test_record_requires_utterance_and_intent(self):
        with pytest.raises(ValueError):
            tx.DialogueRecord("bad", [], ["r"], ["X"])
        with pytest.raises(ValueError):
            tx.DialogueRecord("bad", ["u"], ["r"], [])


class TestVocab:
    def test_min_freq_filters(self):
        vocab = tx.build_vocab(["a a b"], min_freq=2)
        assert vocab.id("a") != vocab.unk_id
        assert vocab.id("b") == vocab.unk_id

    def test_reserved_plus_corpus_tokens(self):
        vocab = tx.build_vocab(["x"], min_freq=1)
        assert len(vocab) == 7
        assert vocab.id("x") == 6

    def test_reserved_ids_contiguous_and_distinct(self):
        vocab = tx.build_vocab(["hello world"])
        ids = [vocab.pad_id, vocab.unk_id, vocab.cls_id, vocab.sep_id, vocab.bos_id, vocab.eos_id]
        assert ids == [0, 1, 2, 3, 4, 5]

    def test_deterministic_assignment(self):
        corpus = ["b a a c c c", "d a"]
        v1 = tx.build_vocab(corpus)
        v2 = tx.build_vocab(corpus)
        assert [v1.token(i) for i in range(len(v1))] == [v2.token(i) for i in range(len(v2))]
        # frequency descending, lexicographic ties
        assert v1.token(6) == "a" and v1.token(7) == "c"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            tx.build_vocab([])

    def test_separator_in_corpus_not_duplicated(self):
        vocab = tx.build_vocab(["a [SEP] b"])
        assert vocab.id("[SEP]") == 3

    def test_save_load_round_trip(self, tmp_path):
        vocab = tx.build_vocab(["alpha beta beta gamma"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = tx.Vocab.load(path)
        assert len(loaded) == len(vocab)
        for i in range(len(vocab)):
            assert loaded.token(i) == vocab.token(i)

    def test_char_fallback_splits_unsegmented(self):
        toks = tx.tokenize("ab cd", char_fallback=True)
        assert toks == ["a", "b", "c", "d"]
        assert tx.tokenize("a [SEP] b", char_fallback=True) == ["a", "[SEP]", "b"]


class TestEncode:
    def _setup(self):
        recs = [
            tx.DialogueRecord("r1", ["need refund for order one"], ["refund issued"], ["Refund"]),
            tx.DialogueRecord("r2", ["cancel my booking"], ["booking cancelled"], ["Cancel"]),
        ]
        labels = tx.label_set(recs)
        corpus = []
        for r in recs:
            u, t = tx.flatten_dialogue(r)
            corpus += [u, t]
        return recs, labels, tx.build_vocab(corpus)

    def test_long_utterance_truncated_keeping_cls(self):
        recs, labels, vocab = self._setup()
        long_rec = tx.DialogueRecord("r3", [" ".join(["refund"] * 600)], ["ok"], ["Refund"])
        ex = tx.encode(long_rec, vocab, labels, h_max=512, t_max=512)
        assert len(ex.utterance_ids) == 512
        assert ex.utterance_ids[0] == vocab.cls_id

    def test_empty_utterance_is_cls_only(self):
        recs, labels, vocab = self._setup()
        rec = tx.DialogueRecord("r4", [""], ["ok"], ["Refund"])
        ex = tx.encode(rec, vocab, labels, h_max=16, t_max=16)
        assert list(ex.utterance_ids) == [vocab.cls_id]

    def test_unknown_label_named_in_error(self):
        recs, labels, vocab = self._setup()
        rec = tx.DialogueRecord("r5", ["hello"], ["hi"], ["Voucher"])
        with pytest.raises(ValueError, match="Voucher"):
            tx.encode(rec, vocab, labels, 16, 16)

    def test_response_bracketed_by_bos_eos(self):
        recs, labels, vocab = self._setup()
        ex = tx.encode(recs[0], vocab, labels, 32, 32)
        assert ex.response_ids[0] == vocab.bos_id
        assert ex.response_ids[-1] == vocab.eos_id

    def test_long_response_truncated_keeps_brackets(self):
        recs, labels, vocab = self._setup()
        rec = tx.DialogueRecord("r6", ["hi"], [" ".join(["refund"] * 100)], ["Refund"])
        ex = tx.encode(rec, vocab, labels, h_max=16, t_max=10)
        assert len(ex.response_ids) == 10
        assert ex.response_ids[0] == vocab.bos_id and ex.response_ids[-1] == vocab.eos_id

    def test_round_trip_to_unk_normalized_tokens(self):
        recs, labels, vocab = self._setup()
        ex = tx.encode(recs[0], vocab, labels, 32, 32)
        tokens = vocab.decode_ids(ex.utterance_ids[1:])
        original = tx.tokenize(tx.flatten_dialogue(recs[0])[0])
        normalized = [t if vocab.id(t) != vocab.unk_id else "[UNK]" for t in original]
        assert tokens == normalized

    def test_multi_hot_labels(self):
        recs, labels, vocab = self._setup()
        rec = tx.DialogueRecord("r7", ["hello"], ["hi"], ["Refund", "Cancel"])
        ex = tx.encode(rec, vocab, labels, 16, 16, mode="multi")
        np.testing.assert_array_equal(ex.label, np.ones(2, dtype=np.float32))

    def test_single_mode_rejects_multiple_intents(self):
        recs, labels, vocab = self._setup()
        rec = tx.DialogueRecord("r8", ["hello"], ["hi"], ["Refund", "Cancel"])
        with pytest.raises(ValueError, match="single-label"):
            tx.encode(rec, vocab, labels, 16, 16, mode="single")


class TestJsonl:
    def test_round_trip(self, tmp_path):
        recs = [
            tx.DialogueRecord("a", ["hi there"], ["hello"], ["X"]),
            tx.DialogueRecord("b", ["one", "two"], [], ["Y"]),
        ]
        path = tmp_path / "data.jsonl"
        tx.save_jsonl(recs, path)
        loaded = tx.load_jsonl(path)
        assert [r.id for r in loaded] == ["a", "b"]
        assert loaded[1].utterance_turns == ["one", "two"]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "utterance_turns": ["x"], "intents": ["X"]}\n{broken\n')
        with pytest.raises(ValueError, match="line 2"):
            tx.load_jsonl(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "intents": ["X"]}\n')
        with pytest.raises(ValueError, match="line 1.*utterance_turns"):
            tx.load_jsonl(path)

    # a bare string used to load as one turn or one intent per character
    @pytest.mark.parametrize("field,value", [
        ("intents", "track"), ("utterance_turns", "where is my order"),
        ("response_turns", None), ("intents", ["X", 3]),
    ])
    def test_field_that_is_not_a_list_of_strings_rejected(self, tmp_path, field, value):
        good = {"id": "a", "utterance_turns": ["x"], "intents": ["X"]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ValueError, match=f"line 2: {field} must be a list of strings"):
            tx.load_jsonl(path)

    # str() once turned null into "None", so two such records shared an id
    @pytest.mark.parametrize("value", [None, 7, True, {"k": 1}, ["a"]],
                             ids=["null", "number", "bool", "object", "list"])
    def test_id_that_is_not_a_string_rejected(self, tmp_path, value):
        good = {"id": "a", "utterance_turns": ["x"], "intents": ["X"]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": value}) + "\n")
        with pytest.raises(ValueError, match="line 2: id must be a string"):
            tx.load_jsonl(path)
        with pytest.raises(ValueError, match="line 2: id must be a string"):
            list(tx.read_jsonl(path))

    @pytest.mark.parametrize("line", ['["where is my order"]', '"text"', "3"])
    def test_line_that_is_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="line 1: expected a JSON object"):
            tx.load_jsonl(path)


class TestSplit:
    def _records(self, per_intent=20, intents=("A", "B", "C", "D", "E")):
        recs = []
        for name in intents:
            for i in range(per_intent):
                recs.append(tx.DialogueRecord(f"{name}{i}", [f"u {i}"], ["r"], [name]))
        return recs

    def test_sizes_80_10_10(self):
        train, valid, test = tx.split(self._records(), (0.8, 0.1, 0.1), seed=0)
        assert (len(train), len(valid), len(test)) == (80, 10, 10)

    def test_same_seed_same_membership(self):
        recs = self._records()
        s1 = tx.split(recs, (0.8, 0.1, 0.1), seed=5)
        s2 = tx.split(recs, (0.8, 0.1, 0.1), seed=5)
        for a, b in zip(s1, s2):
            assert [r.id for r in a] == [r.id for r in b]

    def test_disjoint_and_exhaustive(self):
        recs = self._records(per_intent=13)
        train, valid, test = tx.split(recs, (0.7, 0.15, 0.15), seed=1)
        ids = [r.id for r in train] + [r.id for r in valid] + [r.id for r in test]
        assert sorted(ids) == sorted(r.id for r in recs)
        assert len(set(ids)) == len(ids)

    def test_stratification_within_one_example(self):
        recs = self._records(per_intent=17)
        train, valid, test = tx.split(recs, (0.8, 0.1, 0.1), seed=2)
        for bucket, ratio in ((train, 0.8), (valid, 0.1), (test, 0.1)):
            for name in "ABCDE":
                count = sum(1 for r in bucket if r.intents[0] == name)
                assert abs(count - 17 * ratio) <= 1

    def test_singleton_stratum_goes_to_train(self):
        recs = self._records(per_intent=10, intents=("A", "B")) + [
            tx.DialogueRecord("solo", ["one of a kind"], ["r"], ["Rare"])
        ]
        train, valid, test = tx.split(recs, (0.8, 0.1, 0.1), seed=3)
        assert any(r.id == "solo" for r in train)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            tx.split(self._records(), (0.5, 0.2, 0.2), seed=0)
