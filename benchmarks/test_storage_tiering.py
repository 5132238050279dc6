"""Blob storage benchmarks (DESIGN.md §14).

Two claims back the disk store and the compact codec:

* **Residency** — a registry over :class:`DiskBlobStore` keeps O(index)
  bytes resident instead of O(total blobs), so 100k+ registered models
  fit where an in-memory store would need gigabytes.  Gated hard at
  every scale: the in-memory store's resident bytes must be ≥ 10x the
  disk store's (in practice the ratio is ~50x at the benchmarked blob
  size).  The 1M-user point is env-gated (``STORAGE_BENCH_1M=1``) — it
  writes ~6 GB of segment data.
* **Cold-load latency** — rebuilding a personal model from a compact
  format-2 checkpoint skips the zip/npz machinery, so registry cold
  loads get faster.  Parity is gated first (both formats rebuild the
  bit-identical state dict); the ≥ 1.5x speedup is a hard gate on quiet
  hardware and record-only under CI (shared runners jitter too much for
  a latency ratio to gate on).

Blobs are one serialized personal model copied under every user id:
store mechanics depend only on blob size and count, and personalizing
100k real models would take hours for no additional signal.  The scale
population uses a deliberately tiny model (~6 KB compact) to bound the
benchmark's disk traffic; the cold-load comparison uses a
representative serving-sized model.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.data.features import FeatureSpec
from repro.models import NextLocationModel
from repro.nn.serialization import encode_compact
from repro.pelican.deployment import rebuild_personal_model, serialize_personal_model
from repro.pelican.storage import INDEX_ENTRY_BYTES, DiskBlobStore, MemoryBlobStore

MIN_RESIDENCY_RATIO = 10.0
#: Latency gates are record-only on shared CI runners.
MIN_CODEC_SPEEDUP = None if os.environ.get("CI") else 1.5

SCALES = [10_000, 100_000]
if os.environ.get("STORAGE_BENCH_1M"):
    SCALES.append(1_000_000)


def _model_blob(num_locations: int, hidden_size: int) -> bytes:
    spec = FeatureSpec(num_locations=num_locations)
    model = NextLocationModel(
        input_width=spec.width,
        num_locations=spec.num_locations,
        hidden_size=hidden_size,
        num_layers=1,
        dropout=0.0,
        rng=np.random.default_rng(0),
    )
    model.set_privacy_temperature(1e-3)
    model.eval()
    return serialize_personal_model(model)


@pytest.fixture(scope="module")
def tiny_blob() -> bytes:
    """~6 KB compact checkpoint: bounds the 100k-scale disk traffic."""
    return encode_compact(_model_blob(num_locations=4, hidden_size=2))


@pytest.fixture(scope="module")
def serving_blobs():
    """(npz, compact) for a representative serving-sized model."""
    npz = _model_blob(num_locations=8, hidden_size=8)
    return npz, encode_compact(npz)


@pytest.fixture(scope="module")
def populated_disk(tiny_blob):
    """A disk store holding 10k checkpoints, shared by the read benches."""
    store = DiskBlobStore()
    for uid in range(10_000):
        store[uid] = tiny_blob
    yield store
    store.close()


# ----------------------------------------------------------------------
# Residency gates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_users", SCALES)
def test_disk_residency_ratio(tiny_blob, num_users):
    """Disk-store resident memory is ≥ 10x below in-memory at every scale."""
    memory = MemoryBlobStore()
    disk = DiskBlobStore()
    try:
        for uid in range(num_users):
            memory[uid] = tiny_blob
            disk[uid] = tiny_blob
        assert len(disk) == num_users
        assert disk.total_bytes == memory.total_bytes == num_users * len(tiny_blob)
        assert disk.resident_bytes() == num_users * INDEX_ENTRY_BYTES
        ratio = memory.resident_bytes() / disk.resident_bytes()
        assert ratio >= MIN_RESIDENCY_RATIO, (
            f"disk residency only {ratio:.1f}x below in-memory at "
            f"{num_users} users"
        )
        # Reads still come back byte-exact through the mmap path.
        assert disk[num_users // 2] == tiny_blob
    finally:
        disk.close()


# ----------------------------------------------------------------------
# Cold-load codec comparison
# ----------------------------------------------------------------------
def test_compact_cold_load_speedup_and_parity(serving_blobs):
    """Format-2 cold loads rebuild the identical model ≥ 1.5x faster
    than the npz path (record-only under CI)."""
    npz, compact = serving_blobs
    from_npz = rebuild_personal_model(npz, np.random.default_rng(1))
    from_compact = rebuild_personal_model(compact, np.random.default_rng(1))
    for (name_a, tensor_a), (name_b, tensor_b) in zip(
        sorted(from_npz.state_dict().items()),
        sorted(from_compact.state_dict().items()),
    ):
        assert name_a == name_b
        assert np.array_equal(tensor_a, tensor_b)

    def best_of(blob, rounds=20):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            rebuild_personal_model(blob, np.random.default_rng(1))
            best = min(best, time.perf_counter() - start)
        return best

    npz_seconds = best_of(npz)
    compact_seconds = best_of(compact)
    speedup = npz_seconds / compact_seconds
    if MIN_CODEC_SPEEDUP is not None:
        assert speedup >= MIN_CODEC_SPEEDUP, (
            f"compact cold load only {speedup:.2f}x faster than npz "
            f"({compact_seconds * 1e6:.0f}us vs {npz_seconds * 1e6:.0f}us)"
        )


# ----------------------------------------------------------------------
# Micro-benchmarks (pytest-benchmark: tracked against the baseline)
# ----------------------------------------------------------------------
def test_cold_load_npz(benchmark, serving_blobs):
    npz, _ = serving_blobs
    benchmark(lambda: rebuild_personal_model(npz, np.random.default_rng(1)))


def test_cold_load_compact(benchmark, serving_blobs):
    _, compact = serving_blobs
    benchmark(lambda: rebuild_personal_model(compact, np.random.default_rng(1)))


def test_disk_store_read_10k(benchmark, populated_disk, tiny_blob):
    """Zero-copy mmap reads across a populated store (strided so every
    round touches many segments, not one hot page)."""
    uids = list(range(0, 10_000, 97))

    def read_sweep():
        for uid in uids:
            assert len(populated_disk.view(uid)) == len(tiny_blob)

    benchmark(read_sweep)


def test_disk_store_populate_1k(benchmark, tiny_blob):
    """Append-path write throughput, fresh store per round."""

    def populate():
        store = DiskBlobStore()
        try:
            for uid in range(1_000):
                store[uid] = tiny_blob
        finally:
            store.close()

    benchmark.pedantic(populate, rounds=3, iterations=1)
