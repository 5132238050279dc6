"""Blob storage: stores, compact codec, delta redeploys (DESIGN.md §14).

Three layers of guarantees:

* store semantics — every `BlobStore` is a byte-transparent mutable
  mapping with dict insertion-order behaviour and O(1) byte counters;
* codec — format-2 blobs round-trip state dicts exactly (dtypes
  included), embed the logical npz size, and delta blobs reconstitute
  the full compact blob byte-for-byte;
* integration — a registry (and a delta-updating Pelican deploy) behaves
  identically over either store, and `stored_bytes` stays equal to the
  recomputed sum through register/evict/overwrite churn.
"""

import numpy as np
import pytest

from repro.models import NextLocationModel
from repro.nn import init as nn_init
from repro.nn.serialization import (
    apply_state_delta,
    deserialize_state,
    encode_compact,
    is_compact,
    is_delta,
    logical_nbytes,
    serialize_state,
    serialize_state_compact,
    state_delta,
)
from repro.pelican import (
    STORE_KINDS,
    DiskBlobStore,
    MemoryBlobStore,
    ModelRegistry,
    make_blob_store,
    rebuild_personal_model,
    serialize_personal_model,
)
from repro.pelican.deployment import (
    deploy_cloud,
    deploy_cloud_delta,
    serialize_personal_model_delta,
)
from repro.pelican.transport import Channel
from repro.data.features import FeatureSpec


def _model(seed=0, temperature=1e-3):
    model = NextLocationModel(
        input_width=10,
        num_locations=6,
        hidden_size=8,
        num_layers=1,
        dropout=0.0,
        rng=np.random.default_rng(seed),
    )
    model.set_privacy_temperature(temperature)
    model.eval()
    return model


def _stores(tmp_path):
    return [
        MemoryBlobStore(),
        DiskBlobStore(tmp_path / "disk"),
    ]


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
class TestStoreSemantics:
    def test_roundtrip_overwrite_delete(self, tmp_path):
        for store in _stores(tmp_path):
            store[1] = b"alpha"
            store[2] = b"beta" * 100
            assert store[1] == b"alpha" and store[2] == b"beta" * 100
            assert len(store) == 2 and 1 in store and 3 not in store
            assert store.total_bytes == 5 + 400
            store[1] = b"gamma!"  # overwrite
            assert store[1] == b"gamma!"
            assert store.total_bytes == 6 + 400
            del store[2]
            assert 2 not in store and len(store) == 1
            assert store.total_bytes == 6
            assert store.get(2) is None
            store.close()

    def test_insertion_order_survives_overwrite(self, tmp_path):
        """Dict semantics: iteration order is first-insertion order."""
        for store in _stores(tmp_path):
            for uid in (5, 3, 9):
                store[uid] = bytes([uid])
            store[3] = b"replaced"
            assert list(store) == [5, 3, 9]
            assert [k for k, _ in store.items()] == [5, 3, 9]
            store.close()

    def test_update_routes_through_setitem(self, tmp_path):
        for store in _stores(tmp_path):
            store.update({1: b"a", 2: b"bb"})
            assert store.total_bytes == 3
            assert dict(store.items()) == {1: b"a", 2: b"bb"}
            store.close()

    def test_make_blob_store(self, tmp_path):
        assert isinstance(make_blob_store("memory"), MemoryBlobStore)
        disk = make_blob_store("disk", tmp_path / "d")
        assert isinstance(disk, DiskBlobStore)
        for kind in ("punched-cards", "tiered"):
            with pytest.raises(ValueError, match="unknown blob store") as err:
                make_blob_store(kind, tmp_path / "t")
            assert "'memory'" in str(err.value) and "'disk'" in str(err.value)
        assert STORE_KINDS == ("memory", "disk")
        disk.close()


class TestDiskBlobStore:
    def test_segment_rolling(self, tmp_path):
        store = DiskBlobStore(tmp_path / "seg", segment_bytes=256)
        blobs = {uid: bytes([uid % 251]) * 100 for uid in range(10)}
        for uid, blob in blobs.items():
            store[uid] = blob
        segments = list((tmp_path / "seg").glob("segment-*.blob"))
        assert len(segments) > 1  # rolled at least once
        for uid, blob in blobs.items():
            assert store[uid] == blob
        store.close()

    def test_view_is_zero_copy_and_reads_back(self, tmp_path):
        store = DiskBlobStore(tmp_path / "v")
        payload = np.arange(64, dtype=np.float32).tobytes()
        store[7] = payload
        view = store.view(7)
        assert isinstance(view, memoryview)
        assert bytes(view) == payload
        # A read after a later append still sees the right bytes.
        store[8] = b"x" * 999
        assert store[7] == payload
        store.close()

    def test_resident_is_o_index_not_o_blobs(self, tmp_path):
        store = DiskBlobStore(tmp_path / "r")
        for uid in range(50):
            store[uid] = b"z" * 4096
        assert store.total_bytes == 50 * 4096
        assert store.resident_bytes() < store.total_bytes / 10
        store.close()

    def test_owned_tmpdir_removed_on_close(self):
        store = DiskBlobStore()
        store[1] = b"ephemeral"
        directory = store._dir
        assert directory.exists()
        store.close()
        assert not directory.exists()


# ----------------------------------------------------------------------
# Compact codec + deltas
# ----------------------------------------------------------------------
class TestCompactCodec:
    def test_roundtrip_preserves_dtypes(self):
        state = {
            "w64": np.linspace(0, 1, 12).reshape(3, 4),
            "w32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "w16": np.ones(5, dtype=np.float16) * 0.5,
        }
        meta = {"hidden": 8, "temperature": 1e-3}
        compact = serialize_state_compact(state, meta)
        assert is_compact(compact)
        out, meta_out = deserialize_state(compact)
        assert meta_out == meta
        for name, value in state.items():
            np.testing.assert_array_equal(out[name], value)
            assert out[name].dtype == value.dtype

    def test_encode_embeds_logical_size(self):
        state = {"w": np.zeros((32, 32))}
        npz = serialize_state(state, {"k": 1})
        compact = encode_compact(npz)
        assert logical_nbytes(compact) == len(npz)
        assert logical_nbytes(npz) == len(npz)
        assert encode_compact(compact) is compact  # idempotent
        # Compact drops the zip framing: physically smaller here.
        assert len(compact) < len(npz)

    def test_model_blob_roundtrips_via_both_formats(self):
        model = _model(3)
        npz = serialize_personal_model(model)
        compact = encode_compact(npz)
        batch = np.random.default_rng(1).normal(size=(2, 2, 10))
        expected = model.infer_logits(batch)
        for blob in (npz, compact):
            rebuilt = rebuild_personal_model(blob, np.random.default_rng(99))
            np.testing.assert_array_equal(rebuilt.infer_logits(batch), expected)

    def test_delta_reconstitutes_byte_identical(self):
        model = _model(5)
        prior = encode_compact(serialize_personal_model(model))
        # Nudge one tensor: the delta must carry less than the full blob
        # and apply back to the exact new serialization.
        model.head.weight.data = model.head.weight.data + 0.25
        delta, full = serialize_personal_model_delta(model, prior)
        assert is_delta(delta)
        assert len(delta) < len(full)
        assert apply_state_delta(prior, delta) == full
        assert full == encode_compact(serialize_personal_model(model))

    def test_identical_redeploy_ships_no_tensors(self):
        model = _model(6)
        prior = encode_compact(serialize_personal_model(model))
        delta, full = serialize_personal_model_delta(model, prior)
        assert full == prior
        assert apply_state_delta(prior, delta) == prior
        assert len(delta) < len(prior) / 4


class TestZeroInit:
    def test_skip_init_consumes_no_draws(self):
        rng = np.random.default_rng(0)
        with nn_init.skip_init():
            zeroed = nn_init.xavier_uniform(rng, (4, 4))
            lstm = nn_init.uniform_lstm(rng, (8, 2), hidden_size=2)
        assert not zeroed.any() and not lstm.any()
        # No draws were consumed inside the block.
        fresh = np.random.default_rng(0)
        np.testing.assert_array_equal(rng.uniform(size=3), fresh.uniform(size=3))
        # And the flag is restored.
        assert nn_init.xavier_uniform(rng, (4, 4)).any()


# ----------------------------------------------------------------------
# Registry / deploy integration
# ----------------------------------------------------------------------
class TestRegistryOverStores:
    def test_identical_behaviour_across_tiers(self, tmp_path):
        batch = np.random.default_rng(2).normal(size=(2, 2, 10))
        results = []
        for store in _stores(tmp_path):
            registry = ModelRegistry(capacity=1, seed=0, store=store)
            for uid in (1, 2, 3):
                registry.register(uid, _model(uid))
            outs = [registry.get(uid).infer_logits(batch) for uid in (1, 3, 2, 1)]
            results.append(
                (
                    [o.tobytes() for o in outs],
                    registry.stats.cold_loads,
                    registry.stats.eviction_log,
                    registry.stats.simulated_load_seconds,
                    registry.stored_bytes,
                )
            )
            store.close()
        assert results[0] == results[1]

    def test_stored_bytes_counter_matches_recomputed_sum(self, tmp_path):
        for store in _stores(tmp_path):
            registry = ModelRegistry(capacity=2, seed=0, store=store)
            for step, uid in enumerate((1, 2, 3, 1, 2, 4, 1)):
                registry.register(uid, _model(uid + step))
                assert registry.stored_bytes == sum(
                    len(blob) for blob in store.values()
                )
            del store[3]
            assert registry.stored_bytes == sum(len(b) for b in store.values())
            store.close()

    def test_fetch_billed_at_logical_bytes(self, tmp_path):
        """The compact transcode must not move simulated load seconds."""
        store = DiskBlobStore(tmp_path / "bill")
        registry = ModelRegistry(capacity=1, seed=0, store=store)
        model = _model(1)
        logical = registry.register(1, model)
        assert logical == len(serialize_personal_model(model))
        registry.register(2, _model(2))
        registry.get(1)  # cold load off disk
        expected = logical * 8 / (registry.storage_mbps * 1e6)
        np.testing.assert_allclose(registry.stats.simulated_load_seconds, expected)
        # Physically the stored blob is compact, not npz.
        assert is_compact(store[1]) and len(store[1]) != logical
        store.close()


class TestDeltaDeploy:
    def test_redeploy_ships_fewer_bytes_same_answers(self):
        spec = FeatureSpec(num_locations=6)
        batch = np.random.default_rng(3).normal(size=(2, 2, 10))

        full_channel = Channel()
        model = _model(1)
        deploy_cloud(model, spec, full_channel, np.random.default_rng(7))
        full_bytes = full_channel.bytes_up

        delta_channel = Channel()
        endpoint_first, _, stored = deploy_cloud_delta(
            _model(1), spec, delta_channel, np.random.default_rng(7), None
        )
        assert delta_channel.bytes_up == full_bytes  # first deploy: full blob
        updated = _model(1)
        updated.head.weight.data = updated.head.weight.data + 0.125
        endpoint_second, _, stored2 = deploy_cloud_delta(
            updated, spec, delta_channel, np.random.default_rng(8), stored
        )
        delta_bytes = delta_channel.bytes_up - full_bytes
        assert 0 < delta_bytes < full_bytes
        np.testing.assert_array_equal(
            endpoint_second.predictor.model.infer_logits(batch),
            updated.infer_logits(batch),
        )
        assert stored2 == encode_compact(serialize_personal_model(updated))
