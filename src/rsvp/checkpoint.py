"""Self-describing binary checkpoints.

Layout: magic, format version, a JSON header (stage tag, config snapshot,
optional label names, parameter/optimizer blob table), a CRC32 of every
byte so far, then the raw little-endian array bytes, then a CRC32 of the
payload. Loading verifies the magic, version and declared lengths, the
header checksum before parsing the header and the payload checksum before
reading an array, so truncation or corruption fails loudly. Every entry of
the parameter table must lie inside the payload and hold exactly its
shape's bytes.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"RSVPCKP1"
VERSION = 2  # 2 added the header checksum
STAGES = ("retrieval", "generation", "finetuned")

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    """In-memory view of a loaded checkpoint. ``arrays`` and the moments are
    read-only views into the bytes read from the file; ``restore_component``
    copies them into a module."""

    stage: str
    config: dict
    labels: list | None
    arrays: dict
    moments1: dict
    moments2: dict
    steps: dict


def check_labels(labels, n_classes: int | None) -> None:
    """The label rule saving and loading share: ``labels`` is None or a list
    of strings, and beside a classifier of ``n_classes`` outputs (None when
    there is none) a list names each class once. Raises ``ValueError``."""
    if labels is None:
        return
    if not (isinstance(labels, list) and all(isinstance(name, str) for name in labels)):
        raise ValueError(f"labels must be null or a list of strings, got {labels!r}")
    if n_classes is not None and len(labels) != n_classes:
        raise ValueError(f"{len(labels)} label names for a {n_classes}-class classifier")


def save_checkpoint(path, stage: str, components: dict, config: dict, labels=None) -> None:
    """Serialize named components (objects exposing named_parameters()).

    Parameter tensors and their AdamW moment buffers are all stored, so a
    reload restores training state exactly. An unknown stage tag or labels
    that ``check_labels`` refuses raise ``ValueError`` before the file is
    opened.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage tag {stage!r}, expected one of {STAGES}")
    check_labels(labels, None)
    entries = []
    blobs = []
    steps = {}
    offset = 0

    def _push(name, arr):
        nonlocal offset
        dtype_name = str(arr.dtype)
        if dtype_name not in _DTYPE_CODES:
            raise ValueError(f"unsupported array dtype {dtype_name} for {name}")
        raw = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[dtype_name]).tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": dtype_name,
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)

    for comp_name, comp in components.items():
        for pname, p in comp.named_parameters():
            full = f"{comp_name}.{pname}"
            _push(full, p.data)
            _push(f"moment1.{full}", p.m)
            _push(f"moment2.{full}", p.v)
            steps[full] = p.step

    header = {
        "stage": stage,
        "config": config,
        "labels": labels,
        "steps": steps,
        "params": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(blobs)
    with open(path, "wb") as f:
        head = (MAGIC + VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(8, "little")
                + header_bytes)
        f.write(head)
        f.write(zlib.crc32(head).to_bytes(4, "little"))
        f.write(len(payload).to_bytes(8, "little"))
        f.write(payload)
        f.write(zlib.crc32(payload).to_bytes(4, "little"))


def _entry_view(data: bytes, start: int, plen: int, entry: dict) -> np.ndarray:
    """The read-only array of one parameter-table entry, viewed in place in
    the ``plen``-byte payload that begins at ``data[start]``."""
    name, dtype_name = entry["name"], entry["dtype"]
    shape, offset, nbytes = entry["shape"], entry["offset"], entry["nbytes"]
    if not isinstance(name, str):
        raise ValueError(f"entry name {name!r} is not a string")
    if dtype_name not in _DTYPE_CODES:
        raise ValueError(f"entry {name!r} has unknown dtype {dtype_name!r}")
    if not all(type(n) is int and n >= 0 for n in (offset, nbytes, *shape)):
        raise ValueError(f"entry {name!r} has a negative or non-integer offset, size or shape")
    dtype = np.dtype(_DTYPE_CODES[dtype_name])
    count = math.prod(shape)
    if nbytes != count * dtype.itemsize:
        raise ValueError(f"entry {name!r} has {nbytes} bytes, not {count} x {dtype.itemsize}")
    if offset + nbytes > plen:
        raise ValueError(f"entry {name!r} ends at byte {offset + nbytes} of a {plen}-byte payload")
    return np.frombuffer(data, dtype, count, start + offset).reshape(shape)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 12 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(MAGIC)
    version = int.from_bytes(data[pos : pos + 4], "little")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    pos += 4
    hlen = int.from_bytes(data[pos : pos + 8], "little")
    pos += 8
    if pos + hlen + 4 > len(data):
        raise CheckpointError(f"{path}: truncated header")
    crc = int.from_bytes(data[pos + hlen : pos + hlen + 4], "little")
    if zlib.crc32(data[: pos + hlen]) != crc:
        raise CheckpointError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
        stage, config, entries = header["stage"], header["config"], header["params"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed header ({e!r})") from e
    labels, steps = header.get("labels"), header.get("steps", {})
    if stage not in STAGES:
        raise CheckpointError(f"{path}: unknown stage tag {stage!r}, expected one of {STAGES}")
    try:
        check_labels(labels, None)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
    if not (isinstance(steps, dict)
            and all(type(n) is int and n >= 0 for n in steps.values())):
        raise CheckpointError(f"{path}: steps must map names to non-negative integers")
    pos += hlen + 4
    plen = int.from_bytes(data[pos : pos + 8], "little")
    pos += 8
    if pos + plen + 4 > len(data):
        raise CheckpointError(f"{path}: truncated payload")
    crc = int.from_bytes(data[pos + plen : pos + plen + 4], "little")
    if zlib.crc32(memoryview(data)[pos : pos + plen]) != crc:
        raise CheckpointError(f"{path}: payload checksum mismatch")

    arrays, m1, m2 = {}, {}, {}
    try:
        for entry in entries:
            arr = _entry_view(data, pos, plen, entry)
            name = entry["name"]
            if name.startswith("moment1."):
                m1[name[len("moment1.") :]] = arr
            elif name.startswith("moment2."):
                m2[name[len("moment2.") :]] = arr
            else:
                arrays[name] = arr
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed parameter table ({e!r})") from e
    return Checkpoint(
        stage=stage,
        config=config,
        labels=labels,
        arrays=arrays,
        moments1=m1,
        moments2=m2,
        steps=steps,
    )


def restore_component(ckpt: Checkpoint, comp_name: str, component, moments: bool = False) -> None:
    """Copy checkpoint weights into a live component: one owned, writable,
    C-contiguous copy of each, in the module's dtype.

    With ``moments``, the AdamW moments and step counts are copied too, for
    training to resume from. Without, as serving wants, the moments are
    checked for presence and shape but not copied, and each parameter keeps
    the untouched zero buffers and step 0 its constructor gave it.
    """
    for pname, p in component.named_parameters():
        full = f"{comp_name}.{pname}"
        if full not in ckpt.arrays:
            raise CheckpointError(f"checkpoint is missing parameter {full!r}")
        if full not in ckpt.moments1 or full not in ckpt.moments2:
            raise CheckpointError(f"checkpoint is missing AdamW moments for {full!r}")
        shape, dtype = p.data.shape, p.data.dtype
        stored = (ckpt.arrays[full], ckpt.moments1[full], ckpt.moments2[full])
        for arr in stored:
            if arr.shape != shape:
                raise CheckpointError(
                    f"shape mismatch for {full!r}: checkpoint {arr.shape} vs model {shape}"
                )
        p.data = stored[0].astype(dtype, order="C")
        if moments:
            p.m, p.v = (arr.astype(dtype, order="C") for arr in stored[1:])
            p.step = int(ckpt.steps.get(full, 0))
