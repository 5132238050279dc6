"""Fault-injection layer tests (DESIGN.md §8).

The chaos layer's contract has three parts, each covered here:

* faults change *cost and timing*, never answers (rankings survive every
  policy; retries and failed fetches land in the existing accounting);
* every faulty run is bit-deterministic (same policy seed + schedule ⇒
  identical responses, signature, and chaos counters);
* the null policy is byte-for-byte identical to running without the
  chaos layer at all.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.data import SpatialLevel
from repro.models import GeneralModelConfig, NextLocationModel, PersonalizationConfig
from repro.nn.serialization import logical_nbytes
from repro.pelican import (
    CHAOS_POLICIES,
    Channel,
    ChaosPolicy,
    ChaosStats,
    DeploymentMode,
    FaultyChannel,
    Fleet,
    FleetSchedule,
    FlakyModelRegistry,
    Pelican,
    PelicanConfig,
    QueryRequest,
    ResiliencePolicy,
    ResilienceStats,
    chaos_policy,
    perturb_schedule,
    resilience_policy,
)
from repro.pelican.registry import STORAGE_MBPS

LEVEL = SpatialLevel.BUILDING


# ----------------------------------------------------------------------
# Policy plumbing
# ----------------------------------------------------------------------
class TestChaosPolicy:
    def test_null_detection(self):
        assert ChaosPolicy().is_null
        assert CHAOS_POLICIES["none"].is_null
        for name in ("lossy_network", "flaky_cloud", "churn", "hostile"):
            assert not CHAOS_POLICIES[name].is_null

    def test_presets_reseeded_by_name(self):
        policy = chaos_policy("lossy_network", seed=42)
        assert policy.seed == 42
        assert policy.drop_probability == CHAOS_POLICIES["lossy_network"].drop_probability
        with pytest.raises(KeyError, match="unknown chaos policy"):
            chaos_policy("meteor_strike")

    def test_keyed_rng_is_order_independent(self):
        policy = ChaosPolicy(seed=5)
        first = policy.rng(1, 7).random()
        policy.rng(2, 99).random()  # interleaved other-stream draw
        assert policy.rng(1, 7).random() == first

    @pytest.mark.parametrize(
        "policy, stream",
        [(ChaosPolicy(name="c", seed=5), 6), (ResiliencePolicy(name="r", seed=5), 9)],
        ids=["chaos", "resilience"],
    )
    def test_for_shard_reseeds_on_the_policy_stream(self, policy, stream):
        """Shard reseeding keeps its committed stream ids (chaos 6,
        resilience 9) and changes nothing but the seed."""
        shard = policy.for_shard(2)
        derived = np.random.default_rng((5, stream, 2)).integers(0, 2**31 - 1)
        assert shard == replace(policy, seed=int(derived))


# ----------------------------------------------------------------------
# Faulty transport
# ----------------------------------------------------------------------
class TestFaultyChannel:
    def test_zero_probability_matches_clean_channel(self):
        clean = Channel()
        faulty = FaultyChannel(policy=ChaosPolicy(), chaos=ChaosStats())
        for channel in (clean, faulty):
            channel.upload(b"x" * 1000, label="blob")
            channel.bulk_download(256, 5, label="batch")
        assert faulty.bytes_up == clean.bytes_up
        assert faulty.bytes_down == clean.bytes_down
        assert faulty.total_simulated_seconds == clean.total_simulated_seconds
        assert faulty.transfer_count == clean.transfer_count

    def test_retries_inflate_books_and_records(self):
        policy = ChaosPolicy(seed=1, drop_probability=0.5, max_retries=4)
        faulty = FaultyChannel(policy=policy, chaos=ChaosStats())
        clean = Channel()
        for channel in (clean, faulty):
            for i in range(20):
                channel.upload(b"y" * 512, label=f"t{i}")
        assert faulty.chaos.transfer_retries > 0
        assert faulty.bytes_up == clean.bytes_up + faulty.chaos.retry_bytes
        assert faulty.transfer_count == clean.transfer_count + faulty.chaos.transfer_retries
        np.testing.assert_allclose(
            faulty.total_simulated_seconds,
            clean.total_simulated_seconds + faulty.chaos.retry_seconds,
        )
        # Conservation: the records still sum to the running counters.
        assert sum(r.num_bytes for r in faulty.records) == faulty.bytes_up
        assert sum(r.count for r in faulty.records) == faulty.transfer_count

    def test_bulk_transfer_draws_per_logical_transfer(self):
        """Every device in a coalesced batch rolls its own dice."""
        policy = ChaosPolicy(seed=3, drop_probability=0.5, max_retries=3)
        faulty = FaultyChannel(policy=policy, chaos=ChaosStats())
        faulty.bulk_upload(100, 40, label="batch")
        [record] = faulty.records
        assert record.count == 40 + faulty.chaos.transfer_retries
        assert faulty.chaos.transfer_retries > 0
        assert record.num_bytes == 100 * record.count

    def test_deterministic_across_instances(self):
        def run():
            channel = FaultyChannel(
                policy=ChaosPolicy(seed=9, drop_probability=0.4), chaos=ChaosStats()
            )
            channel.bulk_upload(64, 10)
            channel.upload(b"z" * 999)
            return (
                channel.bytes_up,
                channel.total_simulated_seconds,
                channel.chaos.transfer_retries,
            )

        assert run() == run()

    def test_checkpoint_rollback_restores_draws_and_chaos(self):
        policy = ChaosPolicy(seed=2, drop_probability=0.5)
        faulty = FaultyChannel(policy=policy, chaos=ChaosStats())
        faulty.bulk_upload(128, 8)
        state = faulty.checkpoint()
        before = (
            faulty.bytes_up,
            faulty._draws,
            faulty.chaos.transfer_retries,
            faulty.chaos.retry_bytes,
            faulty.chaos.retry_seconds,
        )
        faulty.bulk_upload(128, 8)
        faulty.rollback(state)
        assert before == (
            faulty.bytes_up,
            faulty._draws,
            faulty.chaos.transfer_retries,
            faulty.chaos.retry_bytes,
            faulty.chaos.retry_seconds,
        )
        # The replay after rollback sees the identical fault sequence.
        faulty.bulk_upload(128, 8)
        replay = faulty.checkpoint()
        faulty.rollback(state)
        faulty.bulk_upload(128, 8)
        assert faulty.checkpoint() == replay

    def test_wrap_preserves_existing_traffic(self):
        clean = Channel()
        clean.upload(b"a" * 100, label="pre")
        faulty = FaultyChannel.wrap(clean, ChaosPolicy(), ChaosStats())
        assert faulty.bytes_up == 100
        assert faulty.transfer_count == 1
        assert faulty.records[0].label == "pre"


# ----------------------------------------------------------------------
# Flaky registry
# ----------------------------------------------------------------------
def _personal_model(seed=0):
    model = NextLocationModel(
        input_width=10,
        num_locations=6,
        hidden_size=8,
        num_layers=1,
        dropout=0.0,
        rng=np.random.default_rng(seed),
    )
    model.set_privacy_temperature(1e-3)
    model.eval()
    return model


class TestFlakyRegistry:
    def _thrash(self, policy):
        registry = FlakyModelRegistry(
            capacity=1, seed=0, policy=policy, chaos=ChaosStats()
        )
        originals = {uid: _personal_model(uid) for uid in (1, 2)}
        for uid, model in originals.items():
            registry.register(uid, model)
        for uid in (1, 2, 1, 2, 1):  # every get after the first is a cold load
            registry.get(uid)
        return registry, originals

    def test_zero_probability_matches_clean_cost(self):
        flaky, _ = self._thrash(ChaosPolicy())
        assert flaky.chaos.cold_load_failures == 0
        clean_seconds = sum(
            logical_nbytes(flaky._blobs[uid]) * 8 / (STORAGE_MBPS * 1e6)
            for uid in (1, 2, 1, 2, 1)
        )
        np.testing.assert_allclose(flaky.stats.simulated_load_seconds, clean_seconds)

    def test_failures_recharge_fetch_but_not_answers(self):
        policy = ChaosPolicy(seed=4, cold_load_failure_probability=0.6)
        flaky, originals = self._thrash(policy)
        assert flaky.chaos.cold_load_failures > 0
        assert flaky.chaos.cold_load_retry_seconds > 0
        clean, _ = self._thrash(ChaosPolicy())
        np.testing.assert_allclose(
            flaky.stats.simulated_load_seconds,
            clean.stats.simulated_load_seconds + flaky.chaos.cold_load_retry_seconds,
        )
        # Same eviction behaviour, and reloads stay bit-identical.
        assert flaky.stats.eviction_log == clean.stats.eviction_log
        batch = np.random.default_rng(0).normal(size=(2, 2, 10))
        np.testing.assert_array_equal(
            flaky.get(1).infer_logits(batch), originals[1].infer_logits(batch)
        )

    def test_deterministic(self):
        policy = ChaosPolicy(seed=4, cold_load_failure_probability=0.6)
        a, _ = self._thrash(policy)
        b, _ = self._thrash(policy)
        assert a.chaos.cold_load_failures == b.chaos.cold_load_failures
        assert a.stats.simulated_load_seconds == b.stats.simulated_load_seconds


# ----------------------------------------------------------------------
# The chaos fleet
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_pelican(tiny_corpus):
    """A trained, userless Pelican; tests deepcopy before mutating."""
    pelican = Pelican(
        tiny_corpus.spec(LEVEL),
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=16, epochs=2, patience=None),
            personalization=PersonalizationConfig(epochs=2, patience=None),
            privacy_temperature=1e-3,
            seed=3,
        ),
    )
    train, _ = tiny_corpus.contributor_dataset(LEVEL).split_by_user(0.8)
    pelican.initial_training(train)
    splits = {
        uid: tiny_corpus.user_dataset(uid, LEVEL).split(0.8)
        for uid in tiny_corpus.personal_ids
    }
    return pelican, splits


def _schedule(corpus, splits, ticks=3):
    schedule = FleetSchedule()
    for i, uid in enumerate(corpus.personal_ids):
        schedule.onboard(float(i), uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
    tick = 10.0
    for j in range(ticks):
        for uid in corpus.personal_ids:
            schedule.query(tick, uid, splits[uid][1].windows[j].history, k=3)
        tick += 10.0
    schedule.update(25.0, corpus.personal_ids[0], splits[corpus.personal_ids[0]][1])
    return schedule


class TestChaosFleet:
    def test_null_policy_identical_to_plain_fleet(self, trained_pelican, tiny_corpus):
        """chaos-on with zero-probability faults == chaos-off, bit for bit."""
        pelican, splits = trained_pelican
        plain = Fleet(copy.deepcopy(pelican), registry_capacity=1)
        chaotic = Fleet(copy.deepcopy(pelican), registry_capacity=1, policy=ChaosPolicy())
        schedule = _schedule(tiny_corpus, splits)
        assert plain.run(schedule) == chaotic.run(schedule)
        assert plain.report.signature() == chaotic.report.signature()
        assert chaotic.chaos.signature() == ChaosStats().signature()

    def test_signature_key_set_per_overlay(self, trained_pelican):
        """``Fleet.signature()`` joins ``chaos_*`` only under a policy
        (even the null one) and ``resilience_*`` only when resilience is
        active — the key sets the goldens pin."""
        pelican, _ = trained_pelican
        base = set(Fleet(copy.deepcopy(pelican)).report.signature())
        chaos_keys = {f"chaos_{key}" for key in ChaosStats().signature()}
        resilience_keys = {
            f"resilience_{key}" for key in ResilienceStats().signature()
        }

        bare = Fleet(copy.deepcopy(pelican))
        assert set(bare.signature()) == base

        null = Fleet(copy.deepcopy(pelican), policy=ChaosPolicy())
        assert set(null.signature()) == base | chaos_keys

        resilient = Fleet(
            copy.deepcopy(pelican),
            policy=chaos_policy("hostile", seed=1),
            resilience=resilience_policy("default", seed=1),
        )
        assert set(resilient.signature()) == base | chaos_keys | resilience_keys

    def test_faulty_run_deterministic(self, trained_pelican, tiny_corpus):
        pelican, splits = trained_pelican
        schedule = _schedule(tiny_corpus, splits)

        def run():
            fleet = Fleet(
                copy.deepcopy(pelican),
                registry_capacity=1,
                policy=chaos_policy("hostile", seed=2),
            )
            return fleet, fleet.run(schedule)

        fleet_a, responses_a = run()
        fleet_b, responses_b = run()
        assert responses_a == responses_b  # bit-exact confidences
        assert fleet_a.signature() == fleet_b.signature()

    def test_faults_change_cost_not_rankings(self, trained_pelican, tiny_corpus):
        pelican, splits = trained_pelican
        schedule = _schedule(tiny_corpus, splits)
        clean = Fleet(copy.deepcopy(pelican), registry_capacity=1)
        clean_responses = {r.seq: r for r in clean.run(schedule)}
        lossy = Fleet(
            copy.deepcopy(pelican),
            registry_capacity=1,
            policy=chaos_policy("lossy_network", seed=1),
        )
        lossy_responses = {r.seq: r for r in lossy.run(schedule)}
        assert lossy.chaos.transfer_retries > 0
        assert set(lossy_responses) == set(clean_responses)
        for seq, response in clean_responses.items():
            assert lossy_responses[seq].top_k == response.top_k
        assert (
            lossy.report.signature()["network_seconds"]
            > clean.report.signature()["network_seconds"]
        )
        # Compute books are untouched by a transport-only policy.
        assert (
            lossy.report.signature()["cloud_macs"]
            == clean.report.signature()["cloud_macs"]
        )

    def test_churn_defers_but_serves_everything(self, trained_pelican, tiny_corpus):
        pelican, splits = trained_pelican
        schedule = _schedule(tiny_corpus, splits)
        num_queries = sum(
            1 for e in schedule.ordered() if e.kind.value == "query"
        )
        # Pick a seed that actually produces offline windows for these users.
        for seed in range(10):
            fleet = Fleet(
                copy.deepcopy(pelican), registry_capacity=1,
                policy=chaos_policy("churn", seed=seed),
            )
            responses = fleet.run(schedule)
            assert len(responses) == num_queries  # nothing dropped
            assert fleet.report.queries == num_queries
            if fleet.chaos.deferred_events:
                break
        else:
            pytest.fail("no churn seed in range(10) deferred any event")

    def test_perturb_preserves_per_user_order(self, trained_pelican, tiny_corpus):
        pelican, splits = trained_pelican
        schedule = _schedule(tiny_corpus, splits)
        for seed in range(10):
            fleet = Fleet(
                copy.deepcopy(pelican),
                registry_capacity=1,
                policy=chaos_policy("hostile", seed=seed),
            )
            perturbed = perturb_schedule(schedule, fleet.policy, fleet.chaos)
            original_order = {}
            for position, event in enumerate(schedule.ordered()):
                original_order.setdefault(event.user_id, []).append(event.seq)
            perturbed_order = {}
            for event in perturbed.ordered():
                perturbed_order.setdefault(event.user_id, []).append(event.seq)
            assert perturbed_order == original_order

    def test_serve_looped_neutral_under_chaos(self, trained_pelican, tiny_corpus):
        """The parity reference must not perturb the chaos books either."""
        pelican, splits = trained_pelican
        fleet = Fleet(
            copy.deepcopy(pelican),
            registry_capacity=1,
            policy=chaos_policy("lossy_network", seed=1),
        )
        for i, uid in enumerate(tiny_corpus.personal_ids):
            fleet.onboard(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        requests = [
            QueryRequest(uid, tuple(splits[uid][1].windows[0].history), 3)
            for uid in tiny_corpus.personal_ids
        ]
        batched = fleet.serve(requests)
        before = (fleet.signature(), fleet.pelican.channel.checkpoint())
        looped = fleet.serve_looped(requests)
        assert (fleet.signature(), fleet.pelican.channel.checkpoint()) == before
        # And parity still holds under packet loss: retries cost, answers don't.
        assert [r.top_k for r in batched] == [
            tuple((loc, pytest.approx(conf, rel=1e-9)) for loc, conf in r.top_k)
            for r in looped
        ]
