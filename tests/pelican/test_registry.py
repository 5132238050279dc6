"""Unit tests for the cloud-side personalized-model registry."""

import numpy as np
import pytest

from repro.models import NextLocationModel
from repro.pelican import ModelRegistry


def _model(seed=0, temperature=1.0):
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


class TestRegistry:
    def test_register_and_get_hit(self):
        registry = ModelRegistry(capacity=2)
        model = _model()
        registry.register(7, model)
        assert registry.get(7) is model
        assert registry.stats.hits == 1
        assert registry.stats.cold_loads == 0

    def test_unknown_user_rejected(self):
        registry = ModelRegistry(capacity=2)
        with pytest.raises(KeyError):
            registry.get(99)

    def test_lru_eviction_order(self):
        registry = ModelRegistry(capacity=2)
        for uid in (1, 2, 3):
            registry.register(uid, _model(uid))
        assert registry.stats.eviction_log == [1]  # least recently used
        assert registry.resident_ids == [2, 3]
        assert len(registry) == 3  # blobs are durable

    def test_access_refreshes_recency(self):
        registry = ModelRegistry(capacity=2)
        registry.register(1, _model(1))
        registry.register(2, _model(2))
        registry.get(1)  # 1 becomes most recent
        registry.register(3, _model(3))
        assert registry.stats.eviction_log == [2]

    def test_cold_load_rebuilds_identically(self):
        registry = ModelRegistry(capacity=1)
        original = _model(5, temperature=1e-3)
        registry.register(5, original)
        registry.register(6, _model(6))  # evicts 5
        reloaded = registry.get(5)
        assert registry.stats.cold_loads == 1
        assert registry.stats.simulated_load_seconds > 0
        assert reloaded is not original
        assert reloaded.privacy_temperature == original.privacy_temperature
        batch = np.random.default_rng(0).normal(size=(3, 2, 10))
        np.testing.assert_array_equal(
            reloaded.infer_logits(batch), original.infer_logits(batch)
        )

    def test_explicit_evict(self):
        registry = ModelRegistry(capacity=4)
        registry.register(1, _model(1))
        assert registry.evict(1)
        assert not registry.evict(1)
        assert 1 in registry  # blob survives
        registry.get(1)
        assert registry.stats.cold_loads == 1

    def test_reregister_replaces(self):
        registry = ModelRegistry(capacity=2)
        registry.register(1, _model(1))
        replacement = _model(2)
        registry.register(1, replacement)
        assert registry.get(1) is replacement
        assert len(registry) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ModelRegistry(capacity=0)

    def test_unbounded_capacity_never_evicts(self):
        registry = ModelRegistry(capacity=None)
        for uid in range(20):
            registry.register(uid, _model(uid))
        assert registry.stats.evictions == 0
        assert registry.resident_ids == list(range(20))


class TestEvictionUnderQueryPressure:
    """Interleaved queries against more users than the cache can hold.

    A pure-python reference LRU tracks what the registry *should* do at
    every step; the registry must match it on cold-load counts, residency
    order, and eviction log — and every reloaded model must answer
    exactly like the original.
    """

    USERS = range(5)
    # Interleaving with re-touches, bursts, and a full rotation — the
    # shapes fleet serving produces (batch per model, LRU refresh per hit).
    PATTERN = [0, 1, 2, 0, 3, 1, 4, 0, 2, 3, 4, 4, 1, 0, 2, 1, 3, 0, 4, 2]

    def _run(self, capacity):
        registry = ModelRegistry(capacity=capacity)
        originals = {uid: _model(uid) for uid in self.USERS}
        for uid, model in originals.items():
            registry.register(uid, model)

        # Reference LRU over the same access sequence (registrations first).
        live: list = []
        expected_cold = 0
        expected_evictions = []
        for uid in self.USERS:
            live.append(uid)
            if len(live) > capacity:
                expected_evictions.append(live.pop(0))
        for uid in self.PATTERN:
            if uid in live:
                live.remove(uid)
            else:
                expected_cold += 1
            live.append(uid)
            if len(live) > capacity:
                expected_evictions.append(live.pop(0))
            registry.get(uid)
            assert registry.resident_ids == live  # LRU order, every step
        return registry, originals, expected_cold, expected_evictions

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_cold_loads_and_lru_order_match_reference(self, capacity):
        registry, _, expected_cold, expected_evictions = self._run(capacity)
        assert registry.stats.cold_loads == expected_cold
        assert registry.stats.eviction_log == expected_evictions
        assert registry.stats.hits == len(self.PATTERN) - expected_cold
        assert registry.stats.evictions == len(expected_evictions)

    def test_post_reload_parity_for_every_user(self):
        registry, originals, _, _ = self._run(capacity=2)
        batch = np.random.default_rng(1).normal(size=(3, 2, 10))
        for uid in self.USERS:
            np.testing.assert_array_equal(
                registry.get(uid).infer_logits(batch),
                originals[uid].infer_logits(batch),
            )

    def test_pressure_run_deterministic(self):
        a, _, _, _ = self._run(capacity=2)
        b, _, _, _ = self._run(capacity=2)
        assert a.stats.eviction_log == b.stats.eviction_log
        assert a.stats.simulated_load_seconds == b.stats.simulated_load_seconds
