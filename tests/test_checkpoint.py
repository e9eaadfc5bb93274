from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp.checkpoint import CheckpointError, load_checkpoint, restore_component, save_checkpoint
from rsvp.config import StageConfig
from rsvp.model import ConversationalEncoder, IntentClassifier
from rsvp.rng import SeedHub
from rsvp.training import (
    check_stage_transition,
    load_stage_checkpoint,
    save_stage_checkpoint,
)


def _encoder_and_cfg():
    cfg = StageConfig(d_model=32, n_layers=1, n_heads=2, d_ffn=64, pooled_dim=16, max_len=24)
    ad.set_default_dtype(cfg.precision)
    enc = ConversationalEncoder(cfg.encoder_config(30), SeedHub(8).stream("encoder_init"))
    return enc, cfg


def test_save_load_encode_bitwise(tmp_path):
    enc, cfg = _encoder_and_cfg()
    before = enc.encode([2, 7, 9, 11]).data.copy()
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    _, _, restored, _, _ = load_stage_checkpoint(path)
    after = restored.encode([2, 7, 9, 11]).data
    assert np.array_equal(before, after)


def test_optimizer_state_round_trips(tmp_path):
    enc, cfg = _encoder_and_cfg()
    p = enc.pool.w
    p.m[...] = 0.25
    p.v[...] = 0.5
    p.step = 7
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    _, _, restored, _, _ = load_stage_checkpoint(path)
    rp = restored.pool.w
    np.testing.assert_array_equal(rp.m, p.m)
    np.testing.assert_array_equal(rp.v, p.v)
    assert rp.step == 7


def test_labels_and_stage_preserved(tmp_path):
    enc, cfg = _encoder_and_cfg()
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "generation", cfg, 30, enc, labels=["A", "B"])
    ckpt = load_checkpoint(path)
    assert ckpt.stage == "generation"
    assert ckpt.labels == ["A", "B"]
    assert ckpt.config["vocab_size"] == 30


def test_truncated_file_raises_integrity_error(tmp_path):
    enc, cfg = _encoder_and_cfg()
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 257])
    with pytest.raises(CheckpointError, match="truncated|checksum"):
        load_checkpoint(path)


def test_corrupted_payload_raises_checksum_error(tmp_path):
    enc, cfg = _encoder_and_cfg()
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_stage_transitions(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="rsvp.training"):
        check_stage_transition("retrieval", "generation")  # forward: silent
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="rsvp.training"):
        check_stage_transition("finetuned", "retrieval")  # rewind: warns
    assert any("rewinds" in r.message for r in caplog.records)


def test_bitwise_identical_files_for_identical_models(tmp_path):
    enc, cfg = _encoder_and_cfg()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_stage_checkpoint(p1, "retrieval", cfg, 30, enc)
    save_stage_checkpoint(p2, "retrieval", cfg, 30, enc)
    assert p1.read_bytes() == p2.read_bytes()


def test_float64_checkpoint_leaves_default_dtype(tmp_path):
    cfg = StageConfig(d_model=32, n_layers=1, n_heads=2, d_ffn=64, pooled_dim=16, max_len=24,
                      precision="float64")
    seqs = [[2, 7, 9, 11], [2, 13]]
    path = tmp_path / "model.ckpt"
    with ad.precision("float64"):
        enc = ConversationalEncoder(cfg.encoder_config(30), SeedHub(8).stream("encoder_init"))
        clf = IntentClassifier(16, 3, SeedHub(8).stream("classifier_init"))
        save_stage_checkpoint(path, "finetuned", cfg, 30, enc, classifier=clf, labels=["A", "B", "C"])
        _, _, ref_enc, _, ref_clf = load_stage_checkpoint(path)
        expected = ref_clf(ref_enc.encode_batch(seqs)).data
    assert ad.default_dtype() == np.float32
    _, _, restored, _, classifier = load_stage_checkpoint(path)
    assert ad.default_dtype() == np.float32
    scores = classifier(restored.encode_batch(seqs)).data
    assert scores.dtype == np.float64
    np.testing.assert_array_equal(scores, expected)


def _saved_blob(tmp_path):
    enc, cfg = _encoder_and_cfg()
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    return path, path.read_bytes()


def _with_header(blob: bytes, header: bytes) -> bytes:
    """The checkpoint ``blob`` with its JSON header replaced by ``header``
    and the header checksum rewritten to match it."""
    hlen = int.from_bytes(blob[12:20], "little")
    head = blob[:12] + len(header).to_bytes(8, "little") + header
    return head + zlib.crc32(head).to_bytes(4, "little") + blob[24 + hlen :]


def _header(blob: bytes) -> dict:
    hlen = int.from_bytes(blob[12:20], "little")
    return json.loads(blob[20 : 20 + hlen])


@pytest.mark.parametrize("header", [b"{not json", b'{"stage": "\xff\xfe"}', b"[1, 2]"])
def test_unreadable_header_raises_checkpoint_error(tmp_path, header):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_with_header(blob, header))
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["params", "stage", "config"])
def test_header_missing_key_raises_checkpoint_error(tmp_path, key):
    path, blob = _saved_blob(tmp_path)
    header = _header(blob)
    del header[key]
    path.write_bytes(_with_header(blob, json.dumps(header).encode()))
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(path)


@pytest.mark.parametrize("moment", ["moment1.", "moment2."])
def test_missing_moment_buffers_raise_checkpoint_error(tmp_path, moment):
    path, blob = _saved_blob(tmp_path)
    header = _header(blob)
    header["params"] = [e for e in header["params"] if not e["name"].startswith(moment)]
    path.write_bytes(_with_header(blob, json.dumps(header).encode()))
    ckpt = load_checkpoint(path)
    enc, _ = _encoder_and_cfg()
    with pytest.raises(CheckpointError, match="moments"):
        restore_component(ckpt, "encoder", enc)


def test_truncated_or_bit_flipped_checkpoints_fail_only_as_checkpoint_error(tmp_path):
    """Loading a damaged file either succeeds or raises CheckpointError."""
    cfg = StageConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=32, pooled_dim=8, max_len=12)
    enc = ConversationalEncoder(cfg.encoder_config(20), SeedHub(8).stream("encoder_init"))
    clf = IntentClassifier(8, 3, SeedHub(8).stream("classifier_init"))
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "finetuned", cfg, 20, enc, classifier=clf, labels=["A", "B", "C"])
    blob = path.read_bytes()
    header_end = 20 + int.from_bytes(blob[12:20], "little")
    rng = np.random.default_rng(2024)
    damaged = tmp_path / "damaged.ckpt"
    failures = 0
    for trial in range(600):
        data = bytearray(blob)
        if trial % 4 == 0:
            data = data[: int(rng.integers(0, len(blob)))]
        else:
            for _ in range(int(rng.integers(1, 4))):
                # mostly the unchecksummed prefix and header, sometimes anywhere
                end = header_end if rng.random() < 0.8 else len(blob)
                data[int(rng.integers(0, end))] ^= 1 << int(rng.integers(0, 8))
        damaged.write_bytes(bytes(data))
        try:
            load_stage_checkpoint(damaged)
        except CheckpointError:
            failures += 1
    assert failures > 500


def test_every_single_bit_flip_of_the_header_fails(tmp_path):
    """Magic, version, header length, JSON header and header checksum: no
    single flipped bit among them loads."""
    cfg = StageConfig(d_model=4, n_layers=0, n_heads=1, d_ffn=4, pooled_dim=2, max_len=4)
    enc = ConversationalEncoder(cfg.encoder_config(8), SeedHub(8).stream("encoder_init"))
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 8, enc, labels=["A", "B"])
    blob = path.read_bytes()
    header_end = 24 + int.from_bytes(blob[12:20], "little")
    damaged = tmp_path / "damaged.ckpt"
    loaded = []
    for byte in range(header_end):
        for bit in range(8):
            data = bytearray(blob)
            data[byte] ^= 1 << bit
            damaged.write_bytes(bytes(data))
            try:
                load_checkpoint(damaged)
            except CheckpointError:
                continue
            loaded.append((byte, bit))
    assert loaded == []


def test_version_1_file_fails_as_checkpoint_error(tmp_path):
    path, blob = _saved_blob(tmp_path)
    hlen = int.from_bytes(blob[12:20], "little")
    # the version-1 layout: no header checksum after the JSON header
    v1 = blob[:8] + (1).to_bytes(4, "little") + blob[12 : 20 + hlen] + blob[24 + hlen :]
    path.write_bytes(v1)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_config_snapshot_with_removed_key_fails_as_checkpoint_error(tmp_path):
    enc, cfg = _encoder_and_cfg()
    config = dict(cfg.to_dict(), vocab_size=30, truncate_side="right")
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, "retrieval", {"encoder": enc}, config)
    with pytest.raises(CheckpointError, match="invalid config snapshot"):
        load_stage_checkpoint(path)
