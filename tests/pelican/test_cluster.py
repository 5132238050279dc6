"""Cluster serving-layer tests (DESIGN.md §9).

Pins the three guarantees the sharded layer advertises:

* **K-vs-1 parity** — a K-shard run under the null chaos policy returns
  bit-identical responses to the legacy single-``Fleet`` run on the same
  schedule and seed, and a 1-shard cluster's totals signature equals the
  legacy fleet signature field-by-field;
* **deterministic placement and routing** — the same seed, user set, and
  shard count reproduce the identical placement map and per-shard
  schedules, with per-user serial order preserved;
* **failover semantics** — shard-outage replay is bit-deterministic and
  ``signature()``-comparable, re-routed queries are answered from a
  durable-store cold load on the failover shard (cost-accounted there),
  and post-failover responses match a clean single-shard run.

It also pins two cluster bookkeeping contracts: every shard must return
one slot per request at the merge, and a redeploy evicts foreign live
copies only where they are resident, with books identical to a
broadcast eviction.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.data import CorpusConfig, SpatialLevel, generate_corpus
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    CLOUD_SERVER,
    ChaosPolicy,
    Cluster,
    DeploymentMode,
    Fleet,
    FleetReport,
    FleetSchedule,
    HashPlacement,
    Pelican,
    PelicanConfig,
    QueryRequest,
    RegistryStats,
    ResourceReport,
    chaos_policy,
    totals_signature,
)

LEVEL = SpatialLevel.BUILDING


@pytest.fixture(scope="module")
def trained():
    """(corpus, trained userless pelican, per-user splits) — cluster tests
    deepcopy this instead of retraining."""
    corpus = generate_corpus(
        CorpusConfig(
            num_buildings=12,
            num_contributors=3,
            num_personal_users=4,
            num_days=14,
            seed=5,
        )
    )
    pelican = Pelican(
        corpus.spec(LEVEL),
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=12, epochs=2, patience=None),
            personalization=PersonalizationConfig(
                epochs=2, patience=None, scratch_hidden_size=8
            ),
            privacy_temperature=1e-3,
            seed=5,
        ),
    )
    train, _ = corpus.contributor_dataset(LEVEL).split_by_user(0.8)
    pelican.initial_training(train)
    splits = {
        uid: corpus.user_dataset(uid, LEVEL).split(0.8) for uid in corpus.personal_ids
    }
    return corpus, pelican, splits


def _schedule(corpus, splits, ticks=3, with_update=True):
    """Onboards (mixed deployment), coalesced query ticks, one update."""
    schedule = FleetSchedule()
    for i, uid in enumerate(corpus.personal_ids):
        mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
        schedule.onboard(float(i), uid, splits[uid][0], deployment=mode)
    tick = 10.0
    for j in range(ticks):
        for uid in corpus.personal_ids:
            holdout = splits[uid][1]
            window = holdout.windows[j % len(holdout.windows)]
            schedule.query(tick, uid, window.history, k=3)
        tick += 10.0
    if with_update:
        first = corpus.personal_ids[0]
        schedule.update(tick, first, splits[first][1])
        for uid in corpus.personal_ids:
            schedule.query(tick + 10.0, uid, splits[uid][1].windows[0].history, k=2)
    return schedule


def _fleet_run(pelican, corpus, splits, **schedule_kw):
    fleet = Fleet(copy.deepcopy(pelican), registry_capacity=2)
    responses = fleet.run(_schedule(corpus, splits, **schedule_kw))
    return fleet, responses


class TestSingleShardParity:
    """A 1-shard cluster IS the legacy fleet, bit for bit."""

    def test_responses_and_totals_match_legacy_fleet(self, trained):
        corpus, pelican, splits = trained
        fleet, expected = _fleet_run(pelican, corpus, splits)
        cluster = Cluster.from_trained(
            copy.deepcopy(pelican), num_shards=1, registry_capacity=2
        )
        assert cluster.run(_schedule(corpus, splits)) == expected
        assert totals_signature(cluster.report.signature()) == fleet.report.signature()

    def test_train_cloud_totals_match_legacy_fleet(self, trained):
        """Cluster-level training lands in the totals exactly like
        ``Fleet.train_cloud`` (same MACs, same float conversion)."""
        corpus, pelican, splits = trained
        train, _ = corpus.contributor_dataset(LEVEL).split_by_user(0.8)

        fleet = Fleet(
            Pelican(corpus.spec(LEVEL), pelican.config), registry_capacity=2
        )
        fleet.train_cloud(train)
        cluster = Cluster(
            corpus.spec(LEVEL), pelican.config, num_shards=1, registry_capacity=2
        )
        cluster.train_cloud(train)
        assert totals_signature(cluster.report.signature()) == fleet.report.signature()
        # The shard's own book excludes training; the cluster book holds it.
        assert cluster.report.shard(0).cloud_compute.macs == 0
        assert cluster.report.training.macs > 0


def _fill_book(report, shard):
    """Give every summed field of ``report`` a distinct non-zero value.

    Raises on a field type it does not know, so a new ``FleetReport``
    field cannot slip past :class:`TestClusterReportTotals` unfilled.
    """
    for i, f in enumerate(dataclasses.fields(FleetReport)):
        if f.name.endswith("_profile"):
            continue
        current = getattr(report, f.name)
        if isinstance(current, ResourceReport):
            value = ResourceReport(
                macs=1000 * shard + i,
                estimated_billion_cycles=0.3 * shard + 0.07 * i,
                wall_seconds=0.11 * shard,
            )
        elif isinstance(current, RegistryStats):
            value = RegistryStats(
                hits=10 * shard + 1,
                cold_loads=10 * shard + 2,
                evictions=10 * shard + 3,
                simulated_load_seconds=0.1 * shard + 1 / 7,
                eviction_log=[shard, shard + 10],
            )
        elif isinstance(current, bool) or not isinstance(current, (int, float)):
            raise TypeError(f"no test value for FleetReport.{f.name}")
        elif isinstance(current, int):
            value = 100 * shard + i
        else:
            value = 0.1 * shard + 0.01 * i + 1 / 3
        setattr(report, f.name, value)


class TestClusterReportTotals:
    """``ClusterReport`` is a field-by-field, shard-order sum."""

    def test_signature_is_shard_order_sum_of_every_field(self, trained):
        _, pelican, _ = trained
        cluster = Cluster(pelican.spec, pelican.config, num_shards=2)
        a, b = cluster.report.shard_reports
        _fill_book(a, 1)
        _fill_book(b, 2)
        training = ResourceReport(
            macs=77, estimated_billion_cycles=0.9, wall_seconds=0.2
        )
        cluster.report.training = training

        cloud = training + a.cloud_compute + b.cloud_compute
        load_seconds = (
            0.0 + a.registry.simulated_load_seconds + b.registry.simulated_load_seconds
        )

        def summed(name):
            return getattr(a, name) + getattr(b, name)

        expected = {
            "cloud_macs": cloud.macs,
            "device_macs": a.device_compute.macs + b.device_compute.macs,
            "cloud_simulated_seconds": (
                CLOUD_SERVER.simulated_seconds(cloud.macs) + load_seconds
            ),
            "device_simulated_seconds": summed("device_simulated_seconds"),
            "network_seconds": summed("network_seconds"),
            "network_bytes_up": summed("network_bytes_up"),
            "network_bytes_down": summed("network_bytes_down"),
            "onboards": summed("onboards"),
            "updates": summed("updates"),
            "queries": summed("queries"),
            "batches": summed("batches"),
            "registry_hits": a.registry.hits + b.registry.hits,
            "registry_cold_loads": a.registry.cold_loads + b.registry.cold_loads,
            "registry_evictions": a.registry.evictions + b.registry.evictions,
            "registry_load_seconds": load_seconds,
            "eviction_log": tuple(a.registry.eviction_log + b.registry.eviction_log),
            "adversary_queries": summed("adversary_queries"),
            "adversary_batches": summed("adversary_batches"),
            "adversary_cloud_macs": (
                a.adversary_cloud_compute.macs + b.adversary_cloud_compute.macs
            ),
            "adversary_device_macs": (
                a.adversary_device_compute.macs + b.adversary_device_compute.macs
            ),
            "adversary_device_simulated_seconds": summed(
                "adversary_device_simulated_seconds"
            ),
            "adversary_network_seconds": summed("adversary_network_seconds"),
        }
        assert set(expected) == set(a.signature())
        signature = cluster.report.signature()
        assert totals_signature(signature) == expected
        assert signature["shards"] == (a.signature(), b.signature())
        assert cluster.report.queries == expected["queries"]
        assert cluster.report.mean_batch_size == expected["queries"] / expected["batches"]

        # Every summed field reaches the totals (nothing left at its default).
        totals = cluster.report.totals()
        blank = FleetReport()
        for f in dataclasses.fields(FleetReport):
            assert getattr(totals, f.name) != getattr(blank, f.name), f.name


class TestMultiShardParity:
    def test_null_chaos_responses_bit_identical_to_single_fleet(self, trained):
        """The acceptance bar: K shards, null chaos, same answers."""
        corpus, pelican, splits = trained
        _, expected = _fleet_run(pelican, corpus, splits)
        for num_shards in (2, 3):
            cluster = Cluster.from_trained(
                copy.deepcopy(pelican),
                num_shards=num_shards,
                registry_capacity=2,
                policy=ChaosPolicy(),
            )
            assert cluster.run(_schedule(corpus, splits)) == expected

    def test_null_policy_identical_to_no_policy(self, trained):
        corpus, pelican, splits = trained
        plain = Cluster.from_trained(
            copy.deepcopy(pelican), num_shards=3, registry_capacity=2
        )
        null = Cluster.from_trained(
            copy.deepcopy(pelican),
            num_shards=3,
            registry_capacity=2,
            policy=ChaosPolicy(),
        )
        assert plain.run(_schedule(corpus, splits)) == null.run(
            _schedule(corpus, splits)
        )
        assert totals_signature(plain.report.signature()) == totals_signature(
            null.report.signature()
        )
        assert not any(null.merged_chaos().values())

    def test_signature_reproduces_and_shards_sum_to_totals(self, trained):
        corpus, pelican, splits = trained
        runs = []
        for _ in range(2):
            cluster = Cluster.from_trained(
                copy.deepcopy(pelican), num_shards=3, registry_capacity=2
            )
            cluster.run(_schedule(corpus, splits))
            runs.append(cluster)
        assert runs[0].report.signature() == runs[1].report.signature()
        cluster = runs[0]
        signature = cluster.report.signature()
        shards = signature["shards"]
        assert len(shards) == 3
        for field in ("queries", "batches", "onboards", "updates"):
            assert signature[field] == sum(s[field] for s in shards)
        assert signature["cloud_macs"] == sum(s["cloud_macs"] for s in shards)
        assert signature["eviction_log"] == tuple(
            uid for s in shards for uid in s["eviction_log"]
        )
        # Work genuinely spread: more than one shard served queries.
        assert sum(1 for s in shards if s["queries"]) > 1

    def test_serve_matches_serve_looped_across_shards(self, trained):
        from repro.eval import responses_match

        corpus, pelican, splits = trained
        cluster = Cluster.from_trained(
            copy.deepcopy(pelican), num_shards=3, registry_capacity=2
        )
        for uid in corpus.personal_ids:
            cluster.onboard(
                uid,
                splits[uid][0],
                deployment=DeploymentMode.CLOUD
                if uid % 2
                else DeploymentMode.LOCAL,
            )
        requests = [
            QueryRequest(user_id=uid, history=tuple(w.history), k=3)
            for uid in corpus.personal_ids
            for w in splits[uid][1].windows[:3]
        ]
        before = cluster.report.signature()
        looped = cluster.serve_looped(requests)
        assert cluster.report.signature() == before  # accounting-neutral
        batched = cluster.serve(requests)
        assert responses_match(batched, looped)


class TestRouting:
    def test_lifecycle_events_route_to_home_shard(self, trained):
        corpus, pelican, splits = trained
        cluster = Cluster.from_trained(
            copy.deepcopy(pelican), num_shards=3, registry_capacity=2
        )
        uid = corpus.personal_ids[0]
        cluster.onboard(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        home = cluster.shard_of(uid)
        assert uid in cluster.shards[home].pelican.users
        assert cluster.shards[home].report.onboards == 1
        before = cluster.shards[home].report.updates
        cluster.update(uid, splits[uid][1])
        assert cluster.shards[home].report.updates == before + 1
        assert cluster.placement_map() == {uid: home}


class TestAdoption:
    def test_from_trained_adopts_onboarded_users(self, trained):
        corpus, pelican, splits = trained
        source = copy.deepcopy(pelican)
        for i, uid in enumerate(corpus.personal_ids):
            mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
            source.onboard_user(uid, splits[uid][0], deployment=mode)
        cluster = Cluster.from_trained(source, num_shards=2, registry_capacity=2)
        assert cluster.num_users == len(corpus.personal_ids)
        for uid, user in cluster.users.items():
            shard = cluster.shards[cluster.shard_of(uid)]
            assert shard.pelican.users[uid] is user
            if user.endpoint.mode == DeploymentMode.CLOUD:
                # Rewired to the home shard's channel and registered there.
                assert user.endpoint.channel is shard.pelican.channel
                assert uid in shard.registry

    def test_from_trained_requires_training(self, trained):
        corpus, _, _ = trained
        with pytest.raises(RuntimeError, match="initial_training"):
            Cluster.from_trained(Pelican(corpus.spec(LEVEL)), num_shards=2)

    def test_shard_count_validation(self, trained):
        corpus, pelican, _ = trained
        with pytest.raises(ValueError, match="at least one shard"):
            Cluster(corpus.spec(LEVEL), pelican.config, num_shards=0)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_users_live_on_their_hash_ring_home(self, trained, num_shards):
        """The cluster's placement is the seeded hash ring over exactly its
        shards, and every adopted user lives on its ring home."""
        corpus, pelican, splits = trained
        source = copy.deepcopy(pelican)
        for uid in corpus.personal_ids:
            source.onboard_user(uid, splits[uid][0])
        cluster = Cluster.from_trained(source, num_shards=num_shards)
        assert cluster.placement.num_shards == num_shards
        ring = HashPlacement(pelican.config.seed, num_shards)
        assert cluster.placement_map() == ring.placement_map(corpus.personal_ids)
        for uid in corpus.personal_ids:
            assert sorted(cluster.placement.successors(uid)) == list(range(num_shards))


class TestFailover:
    POLICY_SEED = 1  # chosen so outages overlap query ticks (asserted below)

    def _outage_cluster(self, pelican):
        return Cluster.from_trained(
            copy.deepcopy(pelican),
            num_shards=3,
            registry_capacity=2,
            policy=chaos_policy("shard_outage", seed=self.POLICY_SEED),
        )

    def test_outage_replay_is_bit_deterministic(self, trained):
        corpus, pelican, splits = trained
        runs = []
        for _ in range(2):
            cluster = self._outage_cluster(pelican)
            responses = cluster.run(_schedule(corpus, splits))
            runs.append((responses, cluster.signature()))
        assert runs[0] == runs[1]
        assert runs[0][1]["chaos_failover_queries"] > 0

    def test_failover_answers_match_clean_single_shard_run(self, trained):
        """Faults move cost and timing, never answers: every re-routed
        query returns the clean run's ranking, with confidences equal to
        float round-off (a deferred reconnect burst re-batches, which
        moves the last ulp — DESIGN.md §7); responses served at their
        original tick are bit-identical."""
        corpus, pelican, splits = trained
        _, clean_responses = _fleet_run(pelican, corpus, splits, with_update=False)
        clean = {r.seq: r for r in clean_responses}
        cluster = self._outage_cluster(pelican)
        responses = cluster.run(_schedule(corpus, splits, with_update=False))
        assert cluster.chaos.failover_queries > 0
        assert len(responses) == len(clean)
        for response in responses:
            reference = clean[response.seq]
            assert [loc for loc, _ in response.top_k] == [
                loc for loc, _ in reference.top_k
            ]
            np.testing.assert_allclose(
                [conf for _, conf in response.top_k],
                [conf for _, conf in reference.top_k],
                rtol=1e-9,
                atol=0.0,
            )
            if response.time == reference.time:
                assert response == reference

    def test_failover_cold_load_charged_to_fallback_shard(self, trained):
        corpus, pelican, splits = trained
        cluster = self._outage_cluster(pelican)
        cluster.run(_schedule(corpus, splits, with_update=False))
        assert cluster.chaos.shard_outage_windows > 0
        assert cluster.chaos.failover_queries > 0
        # Someone other than the home shard paid a durable-store fetch:
        # failover cold loads appear in a fallback shard's registry book,
        # and the fallback channel carried the re-routed exchanges.
        labels = {
            record.label
            for shard in cluster.shards
            for record in shard.pelican.channel.records
        }
        assert "failover-query-context" in labels
        assert "failover-query-result" in labels
        assert cluster.report.registry.cold_loads > 0
        assert cluster.report.registry.simulated_load_seconds > 0

    def test_failover_preserves_per_endpoint_query_ledger(self, trained):
        """Every query is charged on its user's QueryStats exactly once,
        whether served at home or failed over — the §7 accounting
        boundary survives sharding and outages."""
        corpus, pelican, splits = trained
        cluster = self._outage_cluster(pelican)
        schedule = _schedule(corpus, splits, with_update=False)
        issued = {}
        for event in schedule.ordered():
            if event.kind.value == "query":
                issued[event.user_id] = issued.get(event.user_id, 0) + 1
        cluster.run(schedule)
        assert cluster.chaos.failover_queries > 0
        for uid, user in cluster.users.items():
            assert user.endpoint.stats.queries == issued[uid]

    def test_hash_failover_follows_ring_successors(self, trained):
        corpus, pelican, _ = trained
        cluster = self._outage_cluster(pelican)
        cluster._outages = {}  # all shards alive: no failover possible
        for uid in corpus.personal_ids:
            home = cluster.shard_of(uid)
            assert cluster._failover_target(uid, home, 0.0) != home or (
                cluster.num_shards == 1
            )
            # With every shard down there is no target: the caller
            # decides between the degradation ladder and the legacy
            # serve-on-downed-home path (DESIGN.md §11).
            cluster._outages = {
                s: [(0.0, 1.0)] for s in range(cluster.num_shards)
            }
            assert cluster._failover_target(uid, home, 0.5) is None
            cluster._outages = {}
            # The chosen target is the first non-home ring successor.
            expected = [
                s for s in cluster.placement.successors(uid) if s != home
            ][0]
            assert cluster._failover_target(uid, home, 0.0) == expected

    def test_update_invalidates_foreign_live_caches(self, trained):
        """A past failover caches the user's model on the fallback shard;
        a later update must evict that copy or the next failover would
        serve the stale pre-update model (found in review)."""
        corpus, pelican, splits = trained
        cluster = Cluster.from_trained(
            copy.deepcopy(pelican), num_shards=2, registry_capacity=2
        )
        uid = corpus.personal_ids[0]
        cluster.onboard(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        home = cluster.shard_of(uid)
        fallback = cluster.shards[1 - home]
        # Outage 1: the fallback shard cold-loads and caches the model.
        fallback.registry.get(uid)
        assert uid in fallback.registry.resident_ids
        # The user updates; the fallback's live copy must be invalidated.
        cluster.update(uid, splits[uid][1])
        assert uid not in fallback.registry.resident_ids
        # Outage 2: the fallback cold-loads again and must answer exactly
        # like the home shard's post-update model.
        request = QueryRequest(
            user_id=uid, history=tuple(splits[uid][1].windows[0].history), k=3
        )
        [fresh] = cluster._serve_failover(cluster.shards[home], fallback, [request])
        [expected] = cluster.shards[home].serve([request])
        assert fresh.top_k == expected.top_k

    def test_lifecycle_events_defer_past_outages(self, trained):
        """Onboards/updates on a downed home shard wait out the window;
        their user's later events never overtake them."""
        corpus, pelican, splits = trained
        cluster = self._outage_cluster(pelican)
        schedule = _schedule(corpus, splits)
        perturbed = cluster._prepare(schedule)
        outages = cluster._outages
        assert outages  # the seed must actually produce windows
        for event in perturbed.ordered():
            if event.kind.value in ("onboard", "update"):
                home = cluster.shard_of(event.user_id)
                assert not cluster._down(home, event.time)
        # Per-user serial order survives the composition of deferrals.
        original, shuffled = {}, {}
        for event in schedule.ordered():
            original.setdefault(event.user_id, []).append(event.seq)
        for event in perturbed.ordered():
            shuffled.setdefault(event.user_id, []).append(event.seq)
        assert shuffled == original


def _registry_cluster(pelican, num_shards):
    return Cluster.from_trained(
        copy.deepcopy(pelican), num_shards=num_shards, registry_capacity=2
    )


def _onboarded(trained):
    """A 2-shard cluster with every personal user cloud-onboarded, and
    one valid query per user."""
    corpus, pelican, splits = trained
    cluster = _registry_cluster(pelican, num_shards=2)
    for uid in corpus.personal_ids:
        cluster.onboard(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
    requests = [
        QueryRequest(
            user_id=uid, history=tuple(splits[uid][1].windows[0].history), k=3
        )
        for uid in corpus.personal_ids
    ]
    return cluster, requests


class TestScatterGuard:
    """A shard returning the wrong number of slots is a hard error at the
    merge — misalignment can never be silent."""

    def test_short_shard_response_raises(self, trained):
        corpus, _, _ = trained
        cluster, requests = _onboarded(trained)
        victim = cluster.shards[cluster.shard_of(corpus.personal_ids[0])]
        original = victim.serve
        victim.serve = lambda subset: original(subset)[:-1]
        with pytest.raises(RuntimeError, match="one slot per request"):
            cluster.serve(requests)

    def test_long_shard_response_raises(self, trained):
        corpus, _, _ = trained
        cluster, requests = _onboarded(trained)
        victim = cluster.shards[cluster.shard_of(corpus.personal_ids[0])]
        original = victim.serve
        victim.serve = lambda subset: original(subset) * 2
        with pytest.raises(RuntimeError, match="one slot per request"):
            cluster.serve(requests)

    def test_intact_shards_pass_the_guard(self, trained):
        cluster, requests = _onboarded(trained)
        assert len(cluster.serve(requests)) == len(requests)


class TestMalformedRequests:
    """A bad request routed to a shard fails with an error naming the
    problem, not a bare lookup or index error from deep in serving."""

    def test_unknown_user_raises_with_context(self, trained):
        cluster, requests = _onboarded(trained)
        bad = QueryRequest(user_id=999, history=requests[0].history, k=3)
        with pytest.raises(KeyError, match="user 999 is not onboarded"):
            cluster.serve(requests + [bad])

    def test_empty_history_raises(self, trained):
        cluster, requests = _onboarded(trained)
        bad = QueryRequest(user_id=requests[0].user_id, history=(), k=3)
        with pytest.raises(ValueError, match="at least one session"):
            cluster.serve(requests + [bad])

    @pytest.mark.parametrize("k", [-1, 0])
    def test_k_below_one_raises(self, trained, k):
        cluster, requests = _onboarded(trained)
        bad = dataclasses.replace(requests[0], k=k)
        with pytest.raises(ValueError, match=f"k={k}"):
            cluster.serve(requests + [bad])


class TestTargetedInvalidation:
    """Evict only shards whose live cache holds the model, with books
    identical to the broadcast reference."""

    def test_eviction_log_equals_broadcast_reference(self, trained):
        corpus, pelican, splits = trained
        uid = corpus.personal_ids[0]
        cluster = _registry_cluster(pelican, num_shards=3)
        cluster.onboard(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        home = cluster.shard_of(uid)
        foreign = (home + 1) % 3
        untouched = (home + 2) % 3
        # A past failover cached the model on exactly one foreign shard.
        cluster.shards[foreign].registry.get(uid)
        assert uid in cluster.shards[foreign].registry.resident_ids

        # Reference: the same state, invalidated by brute-force broadcast.
        reference = copy.deepcopy(cluster)

        cluster.update(uid, splits[uid][1])

        ref_home = reference.shard_of(uid)
        reference.shards[ref_home].update(uid, splits[uid][1])
        for shard_id, shard in enumerate(reference.shards):
            if shard_id != ref_home:
                shard.registry.evict(uid)

        for ours, ref in zip(cluster.shards, reference.shards):
            assert ours.registry.stats.eviction_log == ref.registry.stats.eviction_log
            assert ours.registry.stats.evictions == ref.registry.stats.evictions
        assert cluster.signature() == reference.signature()
        # And the never-resident shard was genuinely left alone.
        assert cluster.shards[untouched].registry.stats.eviction_log == []
        assert uid not in cluster.shards[foreign].registry.resident_ids
