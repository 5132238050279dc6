"""Fleet serving layer tests (DESIGN.md §7).

Covers the two guarantees the layer advertises:

* **parity** — batched multi-user serving returns exactly what the
  per-query loop returns, including after registry cold loads;
* **determinism** — the same seed and the same event schedule reproduce
  identical responses, identical per-side accounting signatures, and the
  identical registry eviction sequence.
"""

import numpy as np
import pytest

from repro.data import SpatialLevel
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    DeploymentMode,
    Fleet,
    FleetSchedule,
    Pelican,
    PelicanConfig,
    QueryRequest,
)

LEVEL = SpatialLevel.BUILDING


def _build_fleet(corpus, capacity=2, seed=3):
    """A freshly trained fleet over the shared tiny corpus."""
    pelican = Pelican(
        corpus.spec(LEVEL),
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=16, epochs=2, patience=None),
            personalization=PersonalizationConfig(epochs=2, patience=None),
            privacy_temperature=1e-3,
            seed=seed,
        ),
    )
    fleet = Fleet(pelican, registry_capacity=capacity)
    train, _ = corpus.contributor_dataset(LEVEL).split_by_user(0.8)
    fleet.train_cloud(train)
    return fleet


def _user_splits(corpus):
    return {
        uid: corpus.user_dataset(uid, LEVEL).split(0.8) for uid in corpus.personal_ids
    }


def _schedule(corpus, splits):
    """Interleaved onboard/query/update workload; all users cloud-deployed
    so the capacity-1 registry in the determinism test must thrash."""
    schedule = FleetSchedule()
    for i, uid in enumerate(corpus.personal_ids):
        train, _ = splits[uid]
        schedule.onboard(float(i), uid, train, deployment=DeploymentMode.CLOUD)
    tick = 10.0
    for uid in corpus.personal_ids:
        _, holdout = splits[uid]
        for window in holdout.windows[:3]:
            schedule.query(tick, uid, window.history, k=3)
    first = corpus.personal_ids[0]
    schedule.update(20.0, first, splits[first][1])
    for uid in corpus.personal_ids:
        _, holdout = splits[uid]
        schedule.query(30.0, uid, holdout.windows[0].history, k=2)
    return schedule


@pytest.fixture(scope="module")
def served_fleet(tiny_corpus):
    """One fleet with onboarded users, shared by the read-only tests."""
    fleet = _build_fleet(tiny_corpus, capacity=2)
    splits = _user_splits(tiny_corpus)
    for i, uid in enumerate(tiny_corpus.personal_ids):
        train, _ = splits[uid]
        mode = DeploymentMode.CLOUD if i % 2 == 0 else DeploymentMode.LOCAL
        fleet.onboard(uid, train, deployment=mode)
    return fleet, splits


def _requests(corpus, splits, per_user=4, k=3):
    requests = []
    for j in range(per_user):
        for uid in corpus.personal_ids:
            _, holdout = splits[uid]
            window = holdout.windows[j % len(holdout.windows)]
            requests.append(QueryRequest(user_id=uid, history=tuple(window.history), k=k))
    return requests


def _assert_same_responses(batched, looped, exact=False):
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert a.user_id == b.user_id
        assert [loc for loc, _ in a.top_k] == [loc for loc, _ in b.top_k]
        if exact:
            assert [c for _, c in a.top_k] == [c for _, c in b.top_k]
        else:
            np.testing.assert_allclose(
                [c for _, c in a.top_k], [c for _, c in b.top_k], rtol=1e-9
            )


class TestBatchedParity:
    def test_serve_matches_serve_looped(self, served_fleet, tiny_corpus):
        fleet, splits = served_fleet
        requests = _requests(tiny_corpus, splits)
        _assert_same_responses(fleet.serve(requests), fleet.serve_looped(requests))

    def test_serve_matches_after_cold_load(self, tiny_corpus):
        """A registry cold load rebuilds the model bit-identically."""
        fleet = _build_fleet(tiny_corpus, capacity=1)
        splits = _user_splits(tiny_corpus)
        for uid in tiny_corpus.personal_ids:
            fleet.onboard(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        # Capacity 1 with 2 cloud users: serving both thrashes the cache.
        requests = _requests(tiny_corpus, splits, per_user=2)
        batched = fleet.serve(requests)
        assert fleet.report.registry.cold_loads > 0
        assert fleet.report.registry.evictions > 0
        _assert_same_responses(batched, fleet.serve_looped(requests))

    def test_serve_groups_per_model(self, served_fleet, tiny_corpus):
        fleet, splits = served_fleet
        before_batches = fleet.report.batches
        before_queries = fleet.report.queries
        requests = _requests(tiny_corpus, splits, per_user=5)
        fleet.serve(requests)
        # One dispatch per (user, window length, k) group, not per query.
        assert fleet.report.batches == before_batches + len(tiny_corpus.personal_ids)
        assert fleet.report.queries == before_queries + len(requests)

    def test_query_batch_matches_single_queries(self, served_fleet, tiny_corpus):
        fleet, splits = served_fleet
        uid = tiny_corpus.personal_ids[0]
        _, holdout = splits[uid]
        histories = [w.history for w in holdout.windows[:4]]
        batched = fleet.pelican.query_batch(uid, histories, k=3)
        for row, history in zip(batched, histories):
            single = fleet.pelican.query(uid, history, k=3)
            assert [loc for loc, _ in row] == [loc for loc, _ in single]
            np.testing.assert_allclose(
                [c for _, c in row], [c for _, c in single], rtol=1e-9
            )

    def test_bulk_network_accounting_matches_seed_path(self, served_fleet, tiny_corpus):
        """Batched cloud serving pays the same per-device traffic as
        querying the endpoint one request at a time."""
        fleet, splits = served_fleet
        channel = fleet.pelican.channel
        cloud_uid = next(
            uid for uid, u in fleet.pelican.users.items()
            if u.endpoint.mode == DeploymentMode.CLOUD
        )
        _, holdout = splits[cloud_uid]
        n = 3
        requests = [
            QueryRequest(cloud_uid, tuple(holdout.windows[i % len(holdout.windows)].history), 3)
            for i in range(n)
        ]
        up0, down0, count0 = channel.bytes_up, channel.bytes_down, channel.transfer_count
        fleet.serve(requests)
        up_batched = channel.bytes_up - up0
        down_batched = channel.bytes_down - down0
        assert channel.transfer_count - count0 == 2 * n  # n uploads + n downloads
        up1, down1, count1 = channel.bytes_up, channel.bytes_down, channel.transfer_count
        for request in requests:  # the seed path, one exchange per query
            fleet.pelican.query(request.user_id, request.history, request.k)
        assert channel.bytes_up - up1 == up_batched
        assert channel.bytes_down - down1 == down_batched
        assert channel.transfer_count - count1 == 2 * n

    def test_serve_looped_is_accounting_neutral(self, served_fleet, tiny_corpus):
        """The parity reference must not perturb the books (DESIGN.md §7)."""
        fleet, splits = served_fleet
        channel = fleet.pelican.channel
        requests = _requests(tiny_corpus, splits, per_user=2)
        before = (
            channel.checkpoint(),
            fleet.report.signature(),
            {uid: (u.endpoint.stats.queries, u.endpoint.stats.simulated_network_seconds)
             for uid, u in fleet.pelican.users.items()},
        )
        fleet.serve_looped(requests)
        after = (
            channel.checkpoint(),
            fleet.report.signature(),
            {uid: (u.endpoint.stats.queries, u.endpoint.stats.simulated_network_seconds)
             for uid, u in fleet.pelican.users.items()},
        )
        assert before == after


class TestAdoption:
    def test_serves_cloud_users_onboarded_before_fleet_wrap(self, tiny_corpus):
        """Wrapping an already-populated Pelican seeds the registry."""
        pelican = Pelican(
            tiny_corpus.spec(LEVEL),
            PelicanConfig(
                general=GeneralModelConfig(hidden_size=16, epochs=2, patience=None),
                personalization=PersonalizationConfig(epochs=2, patience=None),
                seed=3,
            ),
        )
        train, _ = tiny_corpus.contributor_dataset(LEVEL).split_by_user(0.8)
        pelican.initial_training(train)
        splits = _user_splits(tiny_corpus)
        uid = tiny_corpus.personal_ids[0]
        pelican.onboard_user(uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        fleet = Fleet(pelican, registry_capacity=2)
        assert uid in fleet.registry
        requests = [QueryRequest(uid, tuple(splits[uid][1].windows[0].history), 3)]
        _assert_same_responses(fleet.serve(requests), fleet.serve_looped(requests))


class TestScheduleInvariants:
    def test_duplicate_seq_rejected(self, tiny_corpus):
        """Same-time ties resolve by seq alone, so a duplicate seq would
        make replay order silently implementation-defined."""
        from repro.pelican import EventKind, FleetEvent

        schedule = FleetSchedule()
        uid = tiny_corpus.personal_ids[0]
        schedule.query(1.0, uid, (), k=3)  # takes seq 0
        clone = FleetEvent(
            time=2.0, seq=0, kind=EventKind.QUERY, user_id=uid, payload=()
        )
        with pytest.raises(ValueError, match="duplicate event seq"):
            schedule.add(clone)
        schedule.add(
            FleetEvent(time=2.0, seq=7, kind=EventKind.QUERY, user_id=uid, payload=())
        )
        assert len(schedule) == 2

    def test_builder_calls_interleave_with_add(self, tiny_corpus):
        """The fluent builders skip past explicitly-inserted seqs instead
        of colliding with them."""
        from repro.pelican import EventKind, FleetEvent

        schedule = FleetSchedule()
        uid = tiny_corpus.personal_ids[0]
        schedule.add(
            FleetEvent(time=1.0, seq=3, kind=EventKind.QUERY, user_id=uid, payload=())
        )
        schedule.query(2.0, uid, (), k=3)
        schedule.query(3.0, uid, (), k=3)
        seqs = [e.seq for e in schedule.ordered()]
        assert seqs == [3, 4, 5]

    @pytest.mark.parametrize("k", [-1, 0])
    def test_query_rejects_k_below_one(self, k):
        """``k < 1`` is refused at build time and schedules nothing;
        probes keep their ``k = 0`` marker."""
        schedule = FleetSchedule()
        with pytest.raises(ValueError, match=f"user 3 needs k >= 1, got k={k}"):
            schedule.query(1.0, 3, (), k=k)
        assert len(schedule) == 0
        schedule.probe(1.0, 3, payload=None)
        assert [dict(e.options)["k"] for e in schedule.ordered()] == [0]

    def test_same_tick_onboard_then_query_ordering_enforced(self, tiny_corpus):
        """At one tick, insertion order is execution order: onboard added
        before query serves it; the reverse order fails fast."""
        splits = _user_splits(tiny_corpus)
        uid = tiny_corpus.personal_ids[0]
        window = splits[uid][1].windows[0]

        fleet = _build_fleet(tiny_corpus, capacity=2)
        good = FleetSchedule()
        good.onboard(3.0, uid, splits[uid][0], deployment=DeploymentMode.LOCAL)
        good.query(3.0, uid, window.history)
        responses = fleet.run(good)
        assert len(responses) == 1 and responses[0].user_id == uid

        fleet = _build_fleet(tiny_corpus, capacity=2)
        bad = FleetSchedule()
        bad.query(3.0, uid, window.history)  # same tick, but earlier seq
        bad.onboard(3.0, uid, splits[uid][0], deployment=DeploymentMode.LOCAL)
        with pytest.raises(KeyError):
            fleet.run(bad)


class TestEventClock:
    def test_same_tick_queries_form_one_batch_per_model(self, tiny_corpus):
        fleet = _build_fleet(tiny_corpus, capacity=2)
        splits = _user_splits(tiny_corpus)
        schedule = FleetSchedule()
        for i, uid in enumerate(tiny_corpus.personal_ids):
            schedule.onboard(float(i), uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
        # 3 queries per user, all at one tick -> one batch per user.
        for uid in tiny_corpus.personal_ids:
            for window in splits[uid][1].windows[:3]:
                schedule.query(5.0, uid, window.history)
        # A later tick flushes separately -> one more batch.
        uid0 = tiny_corpus.personal_ids[0]
        schedule.query(6.0, uid0, splits[uid0][1].windows[0].history)
        responses = fleet.run(schedule)
        assert len(responses) == 3 * len(tiny_corpus.personal_ids) + 1
        assert fleet.report.batches == len(tiny_corpus.personal_ids) + 1

    def test_non_query_event_splits_same_tick_batch(self, tiny_corpus):
        fleet = _build_fleet(tiny_corpus, capacity=2)
        splits = _user_splits(tiny_corpus)
        uid = tiny_corpus.personal_ids[0]
        schedule = FleetSchedule()
        schedule.onboard(0.0, uid, splits[uid][0], deployment=DeploymentMode.LOCAL)
        window = splits[uid][1].windows[0]
        schedule.query(1.0, uid, window.history)
        schedule.update(1.0, uid, splits[uid][1])  # same tick, later seq
        schedule.query(1.0, uid, window.history)
        responses = fleet.run(schedule)
        assert len(responses) == 2
        assert fleet.report.batches == 2  # the update split the tick
        assert fleet.report.updates == 1

    def test_responses_tagged_with_event_time_and_seq(self, tiny_corpus):
        fleet = _build_fleet(tiny_corpus, capacity=2)
        splits = _user_splits(tiny_corpus)
        uid = tiny_corpus.personal_ids[0]
        schedule = FleetSchedule()
        schedule.onboard(0.0, uid, splits[uid][0], deployment=DeploymentMode.LOCAL)
        window = splits[uid][1].windows[0]
        schedule.query(2.5, uid, window.history)
        responses = fleet.run(schedule)
        assert responses[0].time == 2.5
        assert responses[0].seq == 1  # second event added to the schedule

    def test_query_before_onboard_fails(self, tiny_corpus):
        fleet = _build_fleet(tiny_corpus)
        splits = _user_splits(tiny_corpus)
        uid = tiny_corpus.personal_ids[0]
        schedule = FleetSchedule()
        schedule.query(0.0, uid, splits[uid][1].windows[0].history)
        with pytest.raises(KeyError):
            fleet.run(schedule)


class TestDeterminism:
    def test_same_seed_same_schedule_identical_run(self, tiny_corpus):
        """Same seed + same events ⇒ identical responses, accounting
        signature, and registry eviction sequence (DESIGN.md §7)."""
        splits = _user_splits(tiny_corpus)

        def one_run():
            fleet = _build_fleet(tiny_corpus, capacity=1, seed=3)
            responses = fleet.run(_schedule(tiny_corpus, splits))
            return fleet, responses

        fleet_a, responses_a = one_run()
        fleet_b, responses_b = one_run()
        assert len(responses_a) == len(responses_b)
        for a, b in zip(responses_a, responses_b):
            assert (a.user_id, a.time, a.seq) == (b.user_id, b.time, b.seq)
            assert a.top_k == b.top_k  # bit-exact confidences
        assert fleet_a.report.signature() == fleet_b.report.signature()
        # The thrashing capacity-1 registry evicted, identically.
        assert fleet_a.report.registry.eviction_log
        assert (
            fleet_a.report.registry.eviction_log
            == fleet_b.report.registry.eviction_log
        )

    def test_different_seed_changes_models_not_structure(self, tiny_corpus):
        splits = _user_splits(tiny_corpus)
        fleet_a = _build_fleet(tiny_corpus, capacity=1, seed=3)
        fleet_b = _build_fleet(tiny_corpus, capacity=1, seed=4)
        responses_a = fleet_a.run(_schedule(tiny_corpus, splits))
        responses_b = fleet_b.run(_schedule(tiny_corpus, splits))
        sig_a, sig_b = fleet_a.report.signature(), fleet_b.report.signature()
        # Workload structure is seed independent...
        for key in ("queries", "batches", "onboards", "updates"):
            assert sig_a[key] == sig_b[key]
        # ...but the trained models are not.
        assert any(a.top_k != b.top_k for a, b in zip(responses_a, responses_b))
