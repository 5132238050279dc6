"""Blob stores backing :class:`~repro.pelican.registry.ModelRegistry`.

The registry durably holds one serialized checkpoint per registered user
(paper §V-A3: personalized models uploaded for cloud serving).  A plain
in-memory dict caps registered-user count by RAM long before the serving
path saturates, so the store is an interface with two implementations
(DESIGN.md §14):

* :class:`MemoryBlobStore` — the historical dict semantics, still the
  default.  Blobs live on the heap; resident memory is O(total blob bytes).
* :class:`DiskBlobStore` — append-only segment files plus an in-memory
  ``{user_id: (segment, offset, length)}`` index.  Reads are served through
  ``mmap`` (page-cache backed, zero-copy via :meth:`BlobStore.view`), so
  resident memory stays O(index), not O(blobs).

Both expose the mutable-mapping API the fleet and cluster layers
use on the shared store (``items``/``get``/``update``/indexing) plus
``total_bytes``, ``view`` and ``close``; the registry, fleet and cluster
accept a :class:`BlobStore` (or ``None`` for a fresh memory store) and
nothing else.  Stores are byte-transparent: the bytes read back are exactly the bytes written, which
is why store choice cannot move responses or signatures.
"""

from __future__ import annotations

import mmap
import shutil
import tempfile
from collections.abc import MutableMapping
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Store kinds accepted by :func:`make_blob_store` and the ``--store`` knob.
STORE_KINDS = ("memory", "disk")

#: Documented accounting estimate for one disk-index entry: a dict slot, an
#: int key, and a three-int tuple.  Used by ``resident_bytes`` so the
#: benchmark gate is deterministic rather than allocator-dependent.
INDEX_ENTRY_BYTES = 120


class BlobStore(MutableMapping):
    """Mutable mapping of ``user_id -> bytes`` with residency accounting."""

    @property
    def total_bytes(self) -> int:
        """Physical bytes of all live blobs (O(1) running counter)."""
        raise NotImplementedError

    def resident_bytes(self) -> int:
        """Heap bytes this store keeps resident between calls."""
        raise NotImplementedError

    def view(self, user_id: int) -> Union[bytes, memoryview]:
        """A read-only buffer over one blob; may avoid copying.

        Unlike ``__getitem__`` (which always returns owned ``bytes``),
        a view may alias an ``mmap`` — callers must not hold it across
        writes to the same store.
        """
        return self[user_id]

    def close(self) -> None:
        """Release file handles / maps; remove owned scratch directories."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(entries={len(self)}, total_bytes={self.total_bytes})"


class MemoryBlobStore(BlobStore):
    """Heap-resident store with the exact semantics of the historical dict."""

    def __init__(self) -> None:
        self._data: Dict[int, bytes] = {}
        self._total = 0

    @property
    def total_bytes(self) -> int:
        return self._total

    def resident_bytes(self) -> int:
        return self._total

    def __setitem__(self, user_id: int, blob: bytes) -> None:
        blob = bytes(blob)
        prior = self._data.get(user_id)
        self._data[user_id] = blob
        self._total += len(blob) - (0 if prior is None else len(prior))

    def __getitem__(self, user_id: int) -> bytes:
        return self._data[user_id]

    def __delitem__(self, user_id: int) -> None:
        blob = self._data.pop(user_id)
        self._total -= len(blob)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._data


class DiskBlobStore(BlobStore):
    """Append-only segment files with an in-memory location index.

    Writes append to the active segment (rolling at ``segment_bytes``);
    overwrites simply append a new copy and repoint the index, leaving the
    old bytes as garbage — redeploys are rare relative to reads, so no
    compaction is needed at simulation scale.  Reads map the owning segment
    once and slice it, so steady-state resident memory is the index alone.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        segment_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        self._owns_dir = directory is None
        self._dir = Path(
            tempfile.mkdtemp(prefix="repro-blobstore-") if directory is None else directory
        )
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = int(segment_bytes)
        self._index: Dict[int, Tuple[int, int, int]] = {}
        self._segment_sizes: Dict[int, int] = {}
        self._active = 0
        self._total = 0
        self._writer = None
        self._maps: Dict[int, Tuple[int, mmap.mmap]] = {}
        self._retired: List[mmap.mmap] = []

    # -- write path ----------------------------------------------------
    def _segment_path(self, segment: int) -> Path:
        return self._dir / f"segment-{segment:05d}.blob"

    def _open_writer(self):
        if self._writer is None:
            self._writer = open(self._segment_path(self._active), "ab")
        return self._writer

    def __setitem__(self, user_id: int, blob: bytes) -> None:
        data = bytes(blob)
        size = self._segment_sizes.get(self._active, 0)
        if size > 0 and size + len(data) > self._segment_bytes:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            self._active += 1
            size = 0
        writer = self._open_writer()
        # No flush here: the read path flushes before (re)mapping the
        # active segment, so bulk registration streams through the OS
        # buffer at full speed.
        writer.write(data)
        prior = self._index.get(user_id)
        # Overwrites repoint in place, preserving dict insertion order.
        self._index[user_id] = (self._active, size, len(data))
        self._segment_sizes[self._active] = size + len(data)
        self._total += len(data) - (0 if prior is None else prior[2])

    # -- read path -----------------------------------------------------
    def _map_segment(self, segment: int, needed: int) -> mmap.mmap:
        cached = self._maps.get(segment)
        if cached is not None and cached[0] >= needed:
            return cached[1]
        if segment == self._active and self._writer is not None:
            self._writer.flush()
        size = self._segment_sizes[segment]
        with open(self._segment_path(segment), "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
        if cached is not None:
            # A view handed out earlier may still alias the old map; close
            # it only at store close.
            self._retired.append(cached[1])
        self._maps[segment] = (size, mapped)
        return mapped

    def view(self, user_id: int) -> memoryview:
        segment, offset, length = self._index[user_id]
        mapped = self._map_segment(segment, offset + length)
        return memoryview(mapped)[offset : offset + length]

    def __getitem__(self, user_id: int) -> bytes:
        return bytes(self.view(user_id))

    def __delitem__(self, user_id: int) -> None:
        _, _, length = self._index.pop(user_id)
        self._total -= length

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._index

    # -- accounting ----------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self._total

    def resident_bytes(self) -> int:
        return len(self._index) * INDEX_ENTRY_BYTES

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        for mapped in [m for _, m in self._maps.values()] + self._retired:
            try:
                mapped.close()
            except BufferError:
                # A caller still holds a view over this map; leave it to
                # process teardown rather than invalidating their buffer.
                pass
        self._maps.clear()
        self._retired.clear()
        if self._owns_dir:
            shutil.rmtree(self._dir, ignore_errors=True)


def make_blob_store(
    kind: str = "memory", directory: Optional[Union[str, Path]] = None
) -> BlobStore:
    """Build a store by kind (``memory`` / ``disk``)."""
    if kind == "memory":
        return MemoryBlobStore()
    if kind == "disk":
        return DiskBlobStore(directory)
    raise ValueError(f"unknown blob store kind {kind!r}; expected one of {STORE_KINDS}")
