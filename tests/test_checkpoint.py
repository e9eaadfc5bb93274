from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from rsvp import autodiff as ad
from rsvp import model
from rsvp.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    restore_component,
    save_checkpoint,
)
from rsvp.config import StageConfig
from rsvp.model import ConversationalEncoder, IntentClassifier, init_decoder_from_encoder
from rsvp.rng import SeedHub
from rsvp.training import (
    check_stage_transition,
    load_stage_checkpoint,
    save_stage_checkpoint,
)


def _encoder_and_cfg():
    cfg = StageConfig(d_model=32, n_layers=1, n_heads=2, d_ffn=64, pooled_dim=16, max_len=24)
    enc = ConversationalEncoder(cfg.encoder_config(30), SeedHub(8).stream("encoder_init"))
    return enc, cfg


def test_save_load_encode_bitwise(tmp_path):
    enc, cfg = _encoder_and_cfg()
    before = enc.embed([[2, 7, 9, 11]])
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    _, _, restored, _, _ = load_stage_checkpoint(path)
    after = restored.embed([[2, 7, 9, 11]])
    assert np.array_equal(before, after)


def test_optimizer_state_round_trips(tmp_path):
    enc, cfg = _encoder_and_cfg()
    p = enc.pool.w
    p.m[...] = 0.25
    p.v[...] = 0.5
    p.step = 7
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "retrieval", cfg, 30, enc)
    _, _, restored, _, _ = load_stage_checkpoint(path, moments=True)
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

    for order, forward in (("retrieval_first", ("retrieval", "generation")),
                           ("generation_first", ("generation", "retrieval"))):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rsvp.training"):
            check_stage_transition(*forward, order)  # forward in this task order: silent
            check_stage_transition(forward[1], "finetuned", order)
        assert not caplog.records
        for ckpt_stage, next_stage in (("finetuned", "retrieval"), forward[::-1]):  # rewinds
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="rsvp.training"):
                check_stage_transition(ckpt_stage, next_stage, order)
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


@pytest.mark.parametrize("key,value", [
    ("stage", "pretrain"), ("stage", ["retrieval"]),
    ("labels", 5), ("labels", "AB"), ("labels", ["A", 2]),
    ("steps", [1]), ("steps", {"encoder.pool.b": "7"}), ("steps", {"encoder.pool.b": 1.5}),
    ("steps", {"encoder.pool.b": -1}), ("steps", {"encoder.pool.b": True}),
], ids=["unknown-stage", "list-stage", "number-labels", "string-labels", "number-label",
        "list-steps", "string-step", "float-step", "negative-step", "bool-step"])
def test_malformed_header_field_raises_checkpoint_error(tmp_path, key, value):
    path, blob = _saved_blob(tmp_path)
    header = _header(blob)
    header[key] = value
    path.write_bytes(_with_header(blob, json.dumps(header).encode()))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


def _classifier_parts():
    cfg = StageConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=32, pooled_dim=8, max_len=12)
    enc = ConversationalEncoder(cfg.encoder_config(20), SeedHub(8).stream("encoder_init"))
    clf = IntentClassifier(8, 3, SeedHub(8).stream("classifier_init"))
    return cfg, enc, clf


def test_label_count_other_than_classifier_width_raises_checkpoint_error(tmp_path):
    cfg, enc, clf = _classifier_parts()
    path = tmp_path / "model.ckpt"
    save_stage_checkpoint(path, "finetuned", cfg, 20, enc, classifier=clf, labels=["A", "B", "C"])
    blob = path.read_bytes()
    header = _header(blob)
    header["labels"] = ["A"]
    path.write_bytes(_with_header(blob, json.dumps(header).encode()))
    assert load_checkpoint(path).labels == ["A"]
    with pytest.raises(CheckpointError, match="1 label names for a 3-class classifier"):
        load_stage_checkpoint(path)


_MALFORMED_LABELS = {"number-labels": 5, "string-labels": "ABC",
                     "tuple-labels": ("A", "B", "C"), "number-label": ["A", 2, "C"]}


@pytest.mark.parametrize("labels", list(_MALFORMED_LABELS.values()), ids=list(_MALFORMED_LABELS))
def test_save_checkpoint_refuses_malformed_labels(tmp_path, labels):
    enc, cfg = _encoder_and_cfg()
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="labels must be null or a list of strings"):
        save_checkpoint(path, "retrieval", {"encoder": enc}, cfg.to_dict(), labels=labels)
    assert not path.exists()


@pytest.mark.parametrize("labels,message", [
    (["A", 2, "C"], "labels must be null or a list of strings"),
    (["A"], "1 label names for a 3-class classifier"),
    ([], "0 label names for a 3-class classifier"),
    (["A", "B", "C", "D"], "4 label names for a 3-class classifier"),
], ids=["number-label", "one-label", "no-labels", "four-labels"])
def test_save_stage_checkpoint_refuses_labels_load_refuses(tmp_path, labels, message):
    cfg, enc, clf = _classifier_parts()
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=message):
        save_stage_checkpoint(path, "finetuned", cfg, 20, enc, classifier=clf, labels=labels)
    assert not path.exists()


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


@pytest.mark.parametrize("moment", ["moment1.", "moment2."])
def test_moment_buffer_of_other_shape_raises_checkpoint_error(tmp_path, moment):
    path, blob = _saved_blob(tmp_path)
    header = _header(blob)
    entry = next(e for e in header["params"] if e["name"] == moment + "encoder.pool.b")
    entry["shape"], entry["nbytes"] = [entry["shape"][0] // 2], entry["nbytes"] // 2
    path.write_bytes(_with_header(blob, json.dumps(header).encode()))
    ckpt = load_checkpoint(path)
    enc, _ = _encoder_and_cfg()
    with pytest.raises(CheckpointError, match="shape mismatch for 'encoder.pool.b'"):
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


def _payload_size(entries) -> int:
    return max(e["offset"] + e["nbytes"] for e in entries)


@pytest.mark.parametrize("field,value", [
    ("offset", lambda e, table: -64),  # in a view of the whole file: header bytes
    ("offset", lambda e, table: -2 * e["nbytes"]),  # the bytes of the last arrays
    ("offset", lambda e, table: _payload_size(table) - e["nbytes"] + 4),  # past the end
    ("offset", lambda e, table: e["offset"] + 0.5),
    ("offset", lambda e, table: True),
    ("dtype", lambda e, table: "float16"),
    ("dtype", lambda e, table: ["float32"]),
    ("nbytes", lambda e, table: e["nbytes"] - 4),
    ("nbytes", lambda e, table: e["nbytes"] + 4),
    ("shape", lambda e, table: [-16]),
    ("shape", lambda e, table: [16.0]),
    ("shape", lambda e, table: e["shape"] + [2]),
], ids=["offset-into-header", "negative-offset", "past-payload-end", "float-offset",
        "bool-offset", "unknown-dtype", "list-dtype", "short-nbytes", "long-nbytes",
        "negative-shape", "float-shape", "other-shape"])
def test_parameter_table_entries_are_bounds_checked(tmp_path, field, value):
    """An entry with an unknown dtype, a size that is not its shape's, or
    bytes outside the payload fails as CheckpointError instead of loading
    some other array's bytes."""
    path, blob = _saved_blob(tmp_path)
    header = _header(blob)
    entry = next(e for e in header["params"] if e["name"] == "encoder.pool.b")
    entry[field] = value(entry, header["params"])
    path.write_bytes(_with_header(blob, json.dumps(header).encode()))
    with pytest.raises(CheckpointError, match="malformed parameter table"):
        load_checkpoint(path)


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


def _trained_looking_modules(precision):
    """Encoder, decoder and classifier in ``precision`` whose every
    parameter has its own weights, AdamW moments and step count."""
    cfg = StageConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=32, pooled_dim=8, max_len=12,
                      precision=precision)
    hub = SeedHub(8)
    with ad.precision(precision):
        enc = ConversationalEncoder(cfg.encoder_config(20), hub.stream("encoder_init"))
        dec = init_decoder_from_encoder(enc, hub.stream("decoder_init"))
        clf = IntentClassifier(8, 3, hub.stream("classifier_init"))
    rng = np.random.default_rng(5)
    modules = {"encoder": enc, "decoder": dec, "classifier": clf}
    for i, p in enumerate(p for m in modules.values() for p in m.parameters()):
        p.m[...] = rng.normal(size=p.m.shape)
        p.v[...] = rng.random(p.v.shape)
        p.step = i + 1
    return cfg, modules


def _save_modules(path, cfg, modules):
    save_stage_checkpoint(path, "finetuned", cfg, 20, modules["encoder"],
                          decoder=modules["decoder"], classifier=modules["classifier"],
                          labels=["A", "B", "C"])


def _restored_arrays(modules):
    return [a for m in modules for p in m.parameters() for a in (p.data, p.m, p.v)]


@pytest.mark.parametrize("precision", ["float32", "float64"])
class TestLoadPath:
    def test_weights_moments_and_steps_restore_bitwise(self, tmp_path, precision):
        cfg, saved = _trained_looking_modules(precision)
        _save_modules(tmp_path / "m.ckpt", cfg, saved)
        _, _, *restored = load_stage_checkpoint(tmp_path / "m.ckpt", moments=True)
        for module, back in zip(saved.values(), restored):
            assert [n for n, _ in module.named_parameters()] == [n for n, _ in back.named_parameters()]
            for p, q in zip(module.parameters(), back.parameters()):
                for a, b in ((p.data, q.data), (p.m, q.m), (p.v, q.v)):
                    assert b.dtype == np.dtype(precision)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert q.step == p.step

    def test_restored_arrays_are_owned_writable_copies(self, tmp_path, precision):
        cfg, saved = _trained_looking_modules(precision)
        _save_modules(tmp_path / "m.ckpt", cfg, saved)
        ckpt, _, *restored = load_stage_checkpoint(tmp_path / "m.ckpt", moments=True)
        _, _, *again = load_stage_checkpoint(tmp_path / "m.ckpt", moments=True)
        views = [*ckpt.arrays.values(), *ckpt.moments1.values(), *ckpt.moments2.values()]
        assert len(views) == len(_restored_arrays(restored))
        assert not any(v.flags.writeable for v in views)
        others = views + _restored_arrays(again)
        for a in _restored_arrays(restored):
            assert a.flags.writeable and a.flags.c_contiguous
            assert not any(np.shares_memory(a, b) for b in others)

    def test_serving_load_copies_no_moment_array(self, tmp_path, precision):
        """By default a load restores the weights bit for bit and leaves
        every parameter's moments the zero buffers, step 0, of a fresh one."""
        cfg, saved = _trained_looking_modules(precision)
        _save_modules(tmp_path / "m.ckpt", cfg, saved)
        ckpt, _, *restored = load_stage_checkpoint(tmp_path / "m.ckpt")
        views = [*ckpt.moments1.values(), *ckpt.moments2.values()]
        for module, back in zip(saved.values(), restored):
            for p, q in zip(module.parameters(), back.parameters()):
                assert q.data.tobytes() == p.data.tobytes()
                for buf in (q.m, q.v):
                    assert buf.dtype == np.dtype(precision) and buf.shape == p.data.shape
                    assert not buf.any()
                    assert not any(np.shares_memory(buf, v) for v in views)
                assert q.step == 0

    def test_serving_load_checks_the_moments(self, tmp_path, precision):
        cfg, saved = _trained_looking_modules(precision)
        _save_modules(tmp_path / "m.ckpt", cfg, saved)
        path, blob = tmp_path / "m.ckpt", (tmp_path / "m.ckpt").read_bytes()
        header = _header(blob)
        header["params"] = [e for e in header["params"]
                            if e["name"] != "moment2.encoder.pool.b"]
        path.write_bytes(_with_header(blob, json.dumps(header).encode()))
        with pytest.raises(CheckpointError, match="moments for 'encoder.pool.b'"):
            load_stage_checkpoint(path)

    def test_load_leaves_the_callers_default_dtype(self, tmp_path, precision):
        cfg, saved = _trained_looking_modules(precision)
        _save_modules(tmp_path / "m.ckpt", cfg, saved)
        caller = "float64" if precision == "float32" else "float32"
        with ad.precision(caller):
            _, _, *restored = load_stage_checkpoint(tmp_path / "m.ckpt")
            assert ad.default_dtype() == np.dtype(caller)
        assert all(a.dtype == np.dtype(precision) for a in _restored_arrays(restored))

    def test_load_draws_no_init(self, tmp_path, precision, monkeypatch):
        cfg, saved = _trained_looking_modules(precision)
        _save_modules(tmp_path / "m.ckpt", cfg, saved)
        generators = []
        normal = model._normal

        def recording_normal(rng, shape):
            generators.append(rng)
            return normal(rng, shape)

        def no_rng(*args, **kwargs):
            raise AssertionError("a checkpoint load created a generator")

        monkeypatch.setattr(model, "_normal", recording_normal)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        load_stage_checkpoint(tmp_path / "m.ckpt")
        assert generators and all(rng is None for rng in generators)


def _documented_layout(stage, components, config, labels=None) -> bytes:
    """A checkpoint file's bytes, built independently of ``save_checkpoint``
    from the layout the module docstring gives: magic, version, header
    length, JSON header, header CRC, payload length, every array's
    little-endian bytes in parameter order, payload CRC."""
    entries, blobs, steps = [], [], {}
    for comp_name, comp in components.items():
        for pname, p in comp.named_parameters():
            full = f"{comp_name}.{pname}"
            for name, arr in ((full, p.data), (f"moment1.{full}", p.m), (f"moment2.{full}", p.v)):
                raw = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
                entries.append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype),
                                "offset": sum(map(len, blobs)), "nbytes": len(raw)})
                blobs.append(raw)
            steps[full] = p.step
    header = json.dumps({"stage": stage, "config": config, "labels": labels, "steps": steps,
                         "params": entries}, sort_keys=True).encode("utf-8")
    head = MAGIC + VERSION.to_bytes(4, "little") + len(header).to_bytes(8, "little") + header
    payload = b"".join(blobs)
    return (head + zlib.crc32(head).to_bytes(4, "little") + len(payload).to_bytes(8, "little")
            + payload + zlib.crc32(payload).to_bytes(4, "little"))


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_file_bytes_follow_the_documented_layout(tmp_path, precision):
    _, modules = _trained_looking_modules(precision)
    # a Fortran-ordered weight is stored in C order
    p = modules["encoder"].pool.w
    p.data = np.asfortranarray(p.data)
    config = {"precision": precision, "note": "any JSON"}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "finetuned", modules, config, labels=["A", "B", "C"])
    assert path.read_bytes() == _documented_layout("finetuned", modules, config, ["A", "B", "C"])

