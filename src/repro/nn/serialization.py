"""Checkpoint save/load for models moving between cloud and device.

Pelican downloads the general model from the cloud to the device for
personalization (paper §V-A2) and may upload a personalized model back for
cloud deployment (§V-A3).  Two codecs coexist (DESIGN.md §14):

* **format 1** — plain ``.npz`` archives of the module's state dict plus a
  JSON metadata blob.  This is the *logical* wire format: every transport
  and registry byte account is defined against npz sizes, so goldens pinned
  against them cannot move.
* **format 2** — a raw fixed-header tensor layout (magic ``RBC2``) used for
  *physical* registry storage: a small JSON header (metadata + per-tensor
  name/dtype/shape/offset table) followed by 64-byte-aligned raw payloads
  decoded zero-copy via ``numpy.frombuffer``.  The header embeds the
  logical (npz) byte size so accounting survives transcoding; payloads keep
  whatever dtype the dtype policy gave each parameter (float64/32/16).

:func:`deserialize_state` sniffs the magic and accepts either format.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from repro.nn.module import Module

_META_KEY = "__meta__"

#: Magic prefix: zip archives (npz) start with ``PK\x03\x04``; the compact
#: codec claims its own four bytes.
COMPACT_MAGIC = b"RBC2"
_ALIGN = 64
# magic (4) + header length (uint32) + logical bytes (uint64)
_FIXED_HEADER = struct.Struct("<4sIQ")


def serialize_state(state: Dict[str, np.ndarray], metadata: Dict[str, Any] | None = None) -> bytes:
    """Serialize a state dict (plus metadata) to bytes."""
    buffer = io.BytesIO()
    payload = dict(state)
    meta = json.dumps(metadata or {}).encode("utf-8")
    payload[_META_KEY] = np.frombuffer(meta, dtype=np.uint8)
    np.savez(buffer, **payload)
    return buffer.getvalue()


def deserialize_state(blob: bytes) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Inverse of :func:`serialize_state`; accepts format-1 or format-2 blobs."""
    if is_compact(blob):
        return deserialize_state_compact(blob)
    with np.load(io.BytesIO(bytes(blob))) as archive:
        state = {key: archive[key] for key in archive.files if key != _META_KEY}
        metadata: Dict[str, Any] = {}
        if _META_KEY in archive.files:
            metadata = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
    return state, metadata


# ----------------------------------------------------------------------
# Format 2: compact raw-tensor codec
# ----------------------------------------------------------------------
def is_compact(blob: Union[bytes, memoryview]) -> bool:
    """True when ``blob`` is a format-2 compact checkpoint."""
    return bytes(blob[:4]) == COMPACT_MAGIC


def logical_nbytes(blob: Union[bytes, memoryview]) -> int:
    """The *logical* (npz-equivalent) byte size of a checkpoint blob.

    Format-2 blobs embed the size of the npz archive they were transcoded
    from; anything else is billed at its physical length.  All simulated
    transfer accounting goes through this so storing compact blobs cannot
    move signatures (DESIGN.md §14).
    """
    if is_compact(blob):
        _, _, logical = _FIXED_HEADER.unpack_from(bytes(blob[: _FIXED_HEADER.size]))
        return logical
    return len(blob)


def _pad(offset: int) -> int:
    return -offset % _ALIGN


def serialize_state_compact(
    state: Dict[str, np.ndarray],
    metadata: Dict[str, Any] | None = None,
    logical_bytes: int | None = None,
) -> bytes:
    """Serialize a state dict to the format-2 compact layout.

    The layout is deterministic for a given ``(state, metadata,
    logical_bytes)`` — unlike npz there are no archive timestamps — so a
    stored blob can be checked byte-for-byte against a fresh transcode.
    """
    tensors: List[Tuple[str, bytes, str, Tuple[int, ...]]] = []
    for name, value in state.items():
        array = np.ascontiguousarray(value)
        tensors.append((name, array.tobytes(), array.dtype.str, array.shape))

    # Two passes: the header length shifts payload offsets, so lay tensors
    # out against a zero base first, then against the real payload base.
    def build_header(base: int) -> Tuple[bytes, List[int]]:
        offsets: List[int] = []
        cursor = base
        table = []
        for name, raw, dtype, shape in tensors:
            cursor += _pad(cursor)
            offsets.append(cursor)
            table.append([name, dtype, list(shape), cursor, len(raw)])
            cursor += len(raw)
        header = json.dumps(
            {"meta": metadata or {}, "tensors": table},
            separators=(",", ":"),
        ).encode("utf-8")
        return header, offsets

    header, _ = build_header(0)
    base = _FIXED_HEADER.size + len(header)
    # The header itself only changes length if offset digit counts change;
    # iterate until stable (at most a couple of rounds).
    while True:
        header2, offsets = build_header(base)
        if len(header2) == len(header):
            header = header2
            break
        header = header2
        base = _FIXED_HEADER.size + len(header)

    out = io.BytesIO()
    physical_guess = offsets[-1] + len(tensors[-1][1]) if tensors else base
    logical = physical_guess if logical_bytes is None else logical_bytes
    out.write(_FIXED_HEADER.pack(COMPACT_MAGIC, len(header), logical))
    out.write(header)
    cursor = base
    for (_, raw, _, _), offset in zip(tensors, offsets):
        out.write(b"\x00" * (offset - cursor))
        out.write(raw)
        cursor = offset + len(raw)
    return out.getvalue()


def _parse_compact(blob: Union[bytes, memoryview]) -> Tuple[Dict[str, Any], List[List[Any]]]:
    magic, header_len, _ = _FIXED_HEADER.unpack_from(bytes(blob[: _FIXED_HEADER.size]))
    if magic != COMPACT_MAGIC:
        raise ValueError("not a format-2 compact checkpoint")
    start = _FIXED_HEADER.size
    header = json.loads(bytes(blob[start : start + header_len]).decode("utf-8"))
    return header["meta"], header["tensors"]


def deserialize_state_compact(
    blob: Union[bytes, memoryview],
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Inverse of :func:`serialize_state_compact`.

    Arrays are zero-copy views over ``blob`` (``np.frombuffer``); callers
    that keep them must copy — ``Module.load_state_dict`` already does.
    """
    meta, table = _parse_compact(blob)
    view = memoryview(blob)
    state: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset, nbytes in table:
        array = np.frombuffer(view[offset : offset + nbytes], dtype=np.dtype(dtype))
        state[name] = array.reshape(tuple(shape))
    return state, meta


def encode_compact(blob: bytes) -> bytes:
    """Transcode a format-1 (npz) blob to format 2, embedding its logical size.

    Format-2 input is returned unchanged, so the transcode is idempotent.
    """
    if is_compact(blob):
        return blob
    state, metadata = deserialize_state(blob)
    return serialize_state_compact(state, metadata, logical_bytes=len(blob))


def save_module(module: Module, path: Union[str, Path], metadata: Dict[str, Any] | None = None) -> int:
    """Write a module checkpoint to ``path``; returns the byte size."""
    blob = serialize_state(module.state_dict(), metadata)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return len(blob)


def load_module(module: Module, path: Union[str, Path], strict: bool = True) -> Dict[str, Any]:
    """Load a checkpoint into ``module``; returns the stored metadata."""
    state, metadata = deserialize_state(Path(path).read_bytes())
    module.load_state_dict(state, strict=strict)
    return metadata
