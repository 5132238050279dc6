"""Cloud-side personalized-model registry (DESIGN.md §7).

A production cloud cannot keep millions of personal models resident in
memory.  The registry models that constraint: every registered model is
durably stored as a serialized checkpoint (``repro.nn.serialization``),
and at most ``capacity`` deserialized models stay *live* under LRU
eviction.  Touching an evicted model triggers a **cold load** — the blob
is deserialized and the model rebuilt bit-identically
(:func:`~repro.pelican.deployment.rebuild_personal_model`) — which costs
simulated storage-fetch seconds, so fleet reports expose the cache
pressure a given capacity implies.

Everything is deterministic: eviction order depends only on the access
sequence, and rebuild RNGs are derived from ``seed + user_id`` (the init
draws are overwritten by the checkpoint load anyway).

Byte accounting is split in two (DESIGN.md §14): blobs are *stored* in the
compact format-2 codec (physical bytes, what a store holds), but every
simulated fetch is *billed* at the logical npz size embedded in the compact
header — the size the transport layer books for the same checkpoint — so
swapping the physical codec or the store cannot move signatures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.models.architecture import NextLocationModel
from repro.nn.serialization import encode_compact, logical_nbytes
from repro.pelican.deployment import rebuild_personal_model, serialize_personal_model
from repro.pelican.storage import BlobStore, MemoryBlobStore

#: Simulated checkpoint-store fetch bandwidth: a cold load of a ``b``-byte
#: blob costs ``b * 8 / (STORAGE_MBPS * 1e6)`` seconds.
STORAGE_MBPS = 400.0


@dataclass
class RegistryStats:
    """Cache behaviour of one registry over its lifetime."""

    hits: int = 0
    cold_loads: int = 0
    evictions: int = 0
    simulated_load_seconds: float = 0.0
    #: user ids in eviction order — the determinism tests compare this.
    eviction_log: List[int] = field(default_factory=list)


class ModelRegistry:
    """LRU cache of live personal models over a durable blob store.

    Parameters
    ----------
    capacity:
        Maximum number of deserialized models kept live.  ``None`` means
        unbounded (everything stays hot; cold loads never happen).
    seed:
        Base seed for rebuild RNGs (determinism of cold loads).
    store:
        The durable :class:`~repro.pelican.storage.BlobStore` to
        read/write.  Defaults to a private
        :class:`~repro.pelican.storage.MemoryBlobStore`; a
        :class:`~repro.pelican.cluster.Cluster` passes one shared store to
        every shard's registry, modeling cluster-wide durable storage
        under per-shard live caches — which is what lets a failover shard
        cold-load a user it never registered (DESIGN.md §9, §14).
    """

    def __init__(
        self,
        capacity: Optional[int] = 64,
        seed: int = 0,
        store: Optional[BlobStore] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("registry capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.seed = seed
        self._blobs: BlobStore = MemoryBlobStore() if store is None else store
        self._live: "OrderedDict[int, NextLocationModel]" = OrderedDict()
        self.stats = RegistryStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._blobs

    @property
    def resident_ids(self) -> List[int]:
        """Live user ids, least- to most-recently used."""
        return list(self._live)

    @property
    def stored_bytes(self) -> int:
        """Total physical size of the durable blob store.

        O(1): every store maintains a running byte counter across all
        mutation paths, including the cluster's direct writes that bypass
        any registry.
        """
        return self._blobs.total_bytes

    # ------------------------------------------------------------------
    def register(self, user_id: int, model: NextLocationModel) -> int:
        """Store a (re)deployed personal model; returns the logical blob size.

        The model is serialized into the durable store and becomes the
        most-recently-used live entry (a fresh deployment is about to be
        queried).  Re-registering a user replaces both copies.  Physical
        storage uses the compact format-2 transcode; the returned size is
        the logical npz size the transport layer would book.
        """
        blob = serialize_personal_model(model)
        self._blobs[user_id] = encode_compact(blob)
        self._live.pop(user_id, None)
        self._live[user_id] = model
        self._evict_over_capacity()
        return len(blob)

    def get(self, user_id: int) -> NextLocationModel:
        """The live model for ``user_id``, cold-loading if evicted."""
        if user_id not in self._blobs:
            raise KeyError(f"user {user_id} has no registered model")
        if user_id in self._live:
            self.stats.hits += 1
            self._live.move_to_end(user_id)
            return self._live[user_id]
        # Zero-copy read where the store supports it (mmap-backed tiers);
        # rebuild copies every tensor out, so the view never outlives this
        # call.
        blob = self._blobs.view(user_id)
        model = rebuild_personal_model(
            blob, np.random.default_rng(self.seed + user_id)
        )
        self.stats.cold_loads += 1
        self.stats.simulated_load_seconds += self._fetch_seconds(user_id, blob)
        self._live[user_id] = model
        self._evict_over_capacity()
        return model

    def peek(self, user_id: int) -> Optional[NextLocationModel]:
        """The live model if resident, else ``None`` — no accounting,
        no LRU bump, no cold load.

        The resilience layer's stale tier (DESIGN.md §11) reads through
        this: during a full outage there is no shard to bill a durable
        fetch to, so a degraded answer may only reuse a copy that is
        already hot.
        """
        return self._live.get(user_id)

    def _fetch_seconds(self, user_id: int, blob: bytes) -> float:
        """Simulated cost of fetching one checkpoint from durable storage.

        Billed at the *logical* (npz-equivalent) blob size, not the
        physical compact size, so the stored codec cannot move signatures.
        Overridable hook: the chaos layer's flaky registry charges failed
        fetch attempts here, on top of this clean baseline.
        """
        return logical_nbytes(blob) * 8 / (STORAGE_MBPS * 1e6)

    def evict(self, user_id: int) -> bool:
        """Explicitly drop a live model (the blob stays); True if it was live."""
        if user_id in self._live:
            del self._live[user_id]
            self.stats.evictions += 1
            self.stats.eviction_log.append(user_id)
            return True
        return False

    def _evict_over_capacity(self) -> None:
        if self.capacity is None:
            return
        while len(self._live) > self.capacity:
            evicted, _ = self._live.popitem(last=False)
            self.stats.evictions += 1
            self.stats.eviction_log.append(evicted)
