"""Service front door: admission control, latency book, endpoints
(DESIGN.md §15).

The admission queue is a deterministic single-server simulation, so its
unit tests need no fleet at all — they drive :meth:`ServiceFrontDoor.admit`
directly and check flush times against hand-computed values.  The
integration half runs generated traffic through real serving stacks:
conservation (generated == answered + shed + rejected), the typed
``submit`` surface, health/stats endpoints, bit-identical same-seed
reruns under chaos and on a sharded cluster, and a 10k-device
workload reporting p50/p95/p99 + SLO attainment.

A committed golden (``golden_service_signature.json``) pins the full
front-door signature — fleet books plus the ``service_*`` latency-book
projection — for one canonical generated run::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src pytest tests/pelican/test_service.py
"""

import copy
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.data import CorpusConfig, SpatialLevel, generate_corpus
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    Cluster,
    DeploymentMode,
    EventKind,
    Fleet,
    FleetSchedule,
    LatencyBook,
    Pelican,
    PelicanConfig,
    ServiceConfig,
    ServiceFrontDoor,
    ServiceRequest,
    chaos_policy,
    resilience_policy,
    totals_signature,
)
from repro.traffic import RegimeTraffic, TrafficConfig, TrafficGenerator

GOLDEN_PATH = Path(__file__).parent / "golden_service_signature.json"
LEVEL = SpatialLevel.BUILDING


def make_door(**config):
    """A front door over a bare fleet stand-in (no resilience policy):
    admission itself never touches the fleet."""
    return ServiceFrontDoor(SimpleNamespace(resilience=None), ServiceConfig(**config))


def burst(times, uid=1):
    schedule = FleetSchedule()
    for t in times:
        schedule.query(t, uid, [("h", t)], k=2)
    return schedule


def admitted_times(schedule):
    return [e.time for e in schedule.ordered()]


# ----------------------------------------------------------------------
# Admission queue unit tests (no fleet, no model)
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_batch_flushes_when_it_fills(self):
        door = make_door(
            window=10.0, max_batch=3, service_overhead=0.0, per_query_seconds=0.0
        )
        admitted = door.admit(burst([0.0, 1.0, 2.0, 5.0]))
        # The first three fill the batch at t=2; the straggler waits out
        # the full window.
        assert admitted_times(admitted) == [2.0, 2.0, 2.0, 15.0]
        assert door.stats.flushes == 2

    def test_window_expiry_flushes_partial_batch(self):
        door = make_door(
            window=0.5, max_batch=100, service_overhead=0.0, per_query_seconds=0.0
        )
        admitted = door.admit(burst([0.0, 0.2, 1.0]))
        assert admitted_times(admitted) == [0.5, 0.5, 1.5]
        assert door.stats.flushes == 2

    def test_busy_dispatcher_queues_later_flushes(self):
        # Per-request admission with a 2s service time: each flush waits
        # for the dispatcher, so queueing delay compounds.
        door = make_door(
            window=0.0, max_batch=1, service_overhead=2.0, per_query_seconds=0.0
        )
        admitted = door.admit(burst([0.0, 0.5, 1.0]))
        assert admitted_times(admitted) == [0.0, 2.0, 4.0]

    def test_capacity_overflow_rejected_at_the_door(self):
        door = make_door(window=100.0, max_batch=100, queue_capacity=2)
        door.admit(burst([0.0, 0.0, 0.0, 0.0, 0.0]))
        assert door.stats.admitted == 2
        assert door.stats.rejected == 3
        assert door.stats.generated == 5
        assert door.stats.max_queue_depth == 2

    def test_per_request_zero_cost_admission_is_identity(self):
        """window=0, max_batch=1, zero cost: the admitted schedule is the
        original — seqs, times, payloads, options."""
        door = make_door(
            window=0.0, max_batch=1, service_overhead=0.0, per_query_seconds=0.0
        )
        schedule = burst([0.0, 0.5, 0.5, 3.25])
        assert door.admit(schedule).ordered() == schedule.ordered()

    def test_flushing_only_moves_queries_later(self):
        door = make_door(window=0.3, max_batch=4)
        schedule = burst([0.0, 0.1, 0.1, 0.2, 1.0, 1.05, 4.0])
        admitted = door.admit(schedule)
        by_seq = {e.seq: e for e in admitted.ordered()}
        for event in schedule.ordered():
            assert by_seq[event.seq].time >= event.time
            assert by_seq[event.seq].payload == event.payload
            assert by_seq[event.seq].options == event.options

    def test_lifecycle_events_pass_through_untouched(self, tiny_corpus):
        uid = tiny_corpus.personal_ids[0]
        data, _ = tiny_corpus.user_dataset(uid, LEVEL).split(0.8)
        schedule = FleetSchedule()
        schedule.onboard(0.0, uid, data, deployment=DeploymentMode.CLOUD)
        schedule.query(1.0, uid, [("h", 1)], k=2)
        schedule.update(2.0, uid, data)
        door = make_door(window=0.25, max_batch=8)
        admitted = {e.seq: e for e in door.admit(schedule).ordered()}
        for event in schedule.ordered():
            if event.kind is not EventKind.QUERY:
                assert admitted[event.seq] == event
        assert door.stats.generated == 1

    def test_admission_is_deterministic(self):
        times = [0.0, 0.01, 0.02, 0.5, 0.51, 2.0, 2.0, 2.0, 9.0]
        first = make_door(window=0.1, max_batch=3).admit(burst(times))
        second = make_door(window=0.1, max_batch=3).admit(burst(times))
        assert first.ordered() == second.ordered()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(window=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(service_overhead=-0.1)

    @pytest.mark.parametrize("k", [-1, 0])
    def test_request_rejects_k_below_one(self, k):
        """A ``k < 1`` request is refused where it is built, before it can
        reach a flush."""
        with pytest.raises(ValueError, match=f"user 4 needs k >= 1, got k={k}"):
            ServiceRequest(time=0.0, user_id=4, history=(), k=k)
        assert ServiceRequest(time=0.0, user_id=4, history=(), k=1).k == 1


class TestLatencyBook:
    def test_nearest_rank_percentiles(self):
        book = LatencyBook(deadline=10.0)
        for latency in [5.0, 1.0, 3.0, 2.0, 4.0]:
            book.observe(queue=latency, defer=0.0, service=0.0)
        assert book.percentile(50) == 3.0
        assert book.percentile(95) == 5.0
        assert book.percentile(99) == 5.0
        assert book.percentile(20) == 1.0

    def test_slo_counts_generated_not_just_answered(self):
        book = LatencyBook(deadline=2.0)
        book.generated = 4
        book.observe(queue=1.0, defer=0.5, service=0.1)  # 1.6s: on time
        book.observe(queue=2.0, defer=1.0, service=0.1)  # 3.1s: late
        # Two generated queries never answered (rejected/shed) also
        # count against attainment.
        assert book.answered == 2
        assert book.on_time == 1
        assert book.slo_attainment == 0.25

    def test_signature_of_empty_book(self):
        sig = LatencyBook(deadline=1.5).signature()
        assert sig["answered"] == 0
        assert sig["p50_latency"] == 0.0
        assert sig["slo_attainment"] == 1.0
        assert sig["slo_deadline"] == 1.5


# ----------------------------------------------------------------------
# Integration: generated traffic through real serving stacks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_base(tiny_corpus):
    """(pristine trained pelican, splits, compiled workload schedule)."""
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
    traffic = TrafficConfig(
        seed=3,
        horizon=120.0,
        regimes=(RegimeTraffic(rate=0.08),),
        devices_per_user=4,
        include_onboards=True,
        onboard_spacing=5.0,
        update_prob=0.5,
    )
    schedule = TrafficGenerator(traffic).compile(
        {uid: [w.history for w in holdout.windows] for uid, (_, holdout) in splits.items()},
        onboard_data={uid: train for uid, (train, _) in splits.items()},
        update_data={uid: train for uid, (train, _) in splits.items()},
    )
    return pelican, splits, schedule


def count_queries(schedule):
    return sum(
        1
        for e in schedule.ordered()
        if e.kind is EventKind.QUERY and isinstance(e.payload, tuple)
    )


class TestFrontDoorServing:
    def test_conservation_and_endpoints(self, service_base):
        pristine, _, schedule = service_base
        front = ServiceFrontDoor(
            Fleet(copy.deepcopy(pristine), registry_capacity=1),
            ServiceConfig(window=0.1, max_batch=8),
        )
        responses = front.run(schedule)
        generated = count_queries(schedule)
        assert generated > 0
        assert front.stats.generated == generated
        # Conservation: every generated query is answered, shed, or
        # rejected — nothing vanishes.
        assert front.book.answered + front.shed + front.stats.rejected == generated
        assert len(responses) == front.book.answered
        assert front.stats.admitted == generated  # default capacity holds

        health = front.health()
        assert health["status"] == "ok"
        assert health["answered"] == generated
        stats = front.endpoint_stats()
        assert stats["flushes"] == front.stats.flushes
        assert 0.0 < stats["p50_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
        assert stats["slo_attainment"] == 1.0

    def test_signature_overlay_only_when_front_door_active(self, service_base):
        pristine, _, schedule = service_base
        fleet = Fleet(copy.deepcopy(pristine), registry_capacity=1)
        front = ServiceFrontDoor(fleet, ServiceConfig(window=0.1, max_batch=8))
        front.run(schedule)
        with_door = front.signature()
        service_keys = {k for k in with_door if k.startswith("service_")}
        assert service_keys  # overlay joined
        # The fleet's own books never learn about the front door: a
        # plain replay keeps the exact legacy key set.
        plain = Fleet(copy.deepcopy(pristine), registry_capacity=1)
        plain.run(schedule)
        assert not any(k.startswith("service_") for k in plain.report.signature())
        assert set(with_door) == set(plain.report.signature()) | service_keys

    def test_micro_batching_coalesces_flushes(self, service_base):
        pristine, _, schedule = service_base
        batched = ServiceFrontDoor(
            Fleet(copy.deepcopy(pristine), registry_capacity=1),
            ServiceConfig(window=5.0, max_batch=16),
        )
        per_request = ServiceFrontDoor(
            Fleet(copy.deepcopy(pristine), registry_capacity=1),
            ServiceConfig(window=0.0, max_batch=1),
        )
        batched.run(schedule)
        per_request.run(copy.deepcopy(schedule))
        assert per_request.stats.flushes == per_request.stats.admitted
        assert batched.stats.flushes < per_request.stats.flushes
        assert batched.book.answered == per_request.book.answered

    def test_submit_typed_surface(self, service_base):
        pristine, splits, _ = service_base
        fleet = Fleet(copy.deepcopy(pristine), registry_capacity=2)
        for i, (uid, (train, _)) in enumerate(sorted(splits.items())):
            fleet.onboard(
                uid,
                train,
                deployment=DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL,
            )
        front = ServiceFrontDoor(fleet, ServiceConfig(window=0.05, max_batch=4))
        requests = [
            ServiceRequest(
                time=0.01 * i,
                user_id=uid,
                history=holdout.windows[i % len(holdout.windows)].history,
                k=3,
            )
            for i, (uid, (_, holdout)) in enumerate(sorted(splits.items()))
        ]
        out = front.submit(requests)
        assert [o.request for o in out] == requests  # request order kept
        for o in out:
            assert o.status == "ok"
            assert o.response is not None and len(o.response.top_k) == 3
            assert o.latency is not None and o.latency > 0.0

    def test_submit_reports_rejections(self, service_base):
        pristine, splits, _ = service_base
        fleet = Fleet(copy.deepcopy(pristine), registry_capacity=2)
        for uid, (train, _) in sorted(splits.items()):
            fleet.onboard(uid, train, deployment=DeploymentMode.CLOUD)
        front = ServiceFrontDoor(
            fleet, ServiceConfig(window=10.0, max_batch=64, queue_capacity=1)
        )
        uid, (_, holdout) = sorted(splits.items())[0]
        history = holdout.windows[0].history
        out = front.submit(
            [ServiceRequest(time=0.0, user_id=uid, history=history) for _ in range(4)]
        )
        statuses = [o.status for o in out]
        assert statuses.count("ok") == 1
        assert statuses.count("rejected") == 3
        assert front.health()["status"] == "rejecting"

    def test_second_submit_does_not_see_first_admissions(self, service_base):
        """Every submit numbers its schedule from seq 0, so admissions
        booked by an earlier submit must not turn this submit's
        rejections into sheds; the stats and latency books keep
        accumulating across both."""
        pristine, splits, _ = service_base
        fleet = Fleet(copy.deepcopy(pristine), registry_capacity=2)
        for uid, (train, _) in sorted(splits.items()):
            fleet.onboard(uid, train, deployment=DeploymentMode.CLOUD)
        front = ServiceFrontDoor(
            fleet, ServiceConfig(window=10.0, max_batch=64, queue_capacity=1)
        )
        uid, (_, holdout) = sorted(splits.items())[0]
        history = holdout.windows[0].history
        first = front.submit(
            [ServiceRequest(time=t, user_id=uid, history=history) for t in (0.0, 20.0, 40.0, 60.0)]
        )
        assert [o.status for o in first] == ["ok"] * 4
        second = front.submit(
            [ServiceRequest(time=100.0, user_id=uid, history=history) for _ in range(4)]
        )
        assert [o.status for o in second] == ["ok", "rejected", "rejected", "rejected"]
        assert front.stats.rejected == 3
        assert front.stats.admitted == 5
        assert front.book.answered == 5
        assert front.shed == 0

    def test_queue_delay_sheds_through_resilience_path(self, service_base):
        """A 60s micro-batch window against a 1s resilience deadline:
        every admitted query's queueing delay blows the deadline, so the
        whole workload sheds through ``shed_late_queries`` — and lands
        in the resilience layer's own shed counter."""
        pristine, _, schedule = service_base
        fleet = Fleet(
            copy.deepcopy(pristine),
            registry_capacity=1,
            resilience=resilience_policy("default", seed=3, deadline=1.0),
            policy=chaos_policy("none", seed=3),
        )
        front = ServiceFrontDoor(
            fleet, ServiceConfig(window=60.0, max_batch=10_000)
        )
        responses = front.run(schedule)
        generated = count_queries(schedule)
        assert responses == []
        assert front.shed == generated
        assert fleet.resilience_stats.shed_queries == generated
        assert front.book.answered + front.shed + front.stats.rejected == generated
        assert front.health()["status"] == "shedding"
        sig = front.signature()
        assert sig["service_slo_attainment"] == 0.0
        assert sig["resilience_shed_queries"] == generated

    def test_same_seed_chaos_run_is_bit_identical(self, service_base):
        pristine, _, schedule = service_base

        def run():
            fleet = Fleet(
                copy.deepcopy(pristine),
                registry_capacity=1,
                resilience=resilience_policy("default", seed=7),
                policy=chaos_policy("lossy_network", seed=7),
            )
            front = ServiceFrontDoor(fleet, ServiceConfig(window=0.1, max_batch=8))
            return front.run(schedule), front.signature()

        first_responses, first_sig = run()
        rerun_responses, rerun_sig = run()
        assert rerun_responses == first_responses
        assert rerun_sig == first_sig
        assert any(k.startswith("service_") for k in first_sig)
        assert any(k.startswith("chaos_") for k in first_sig)

    def test_cluster_rerun_is_bit_identical(self, service_base):
        """The front door over a 2-shard cluster: same-seed reruns match
        bit for bit — responses and totals both."""
        pristine, _, schedule = service_base

        def run():
            cluster = Cluster.from_trained(
                copy.deepcopy(pristine), num_shards=2, registry_capacity=1
            )
            front = ServiceFrontDoor(cluster, ServiceConfig(window=0.1, max_batch=8))
            return front.run(schedule), totals_signature(front.signature())

        assert run() == run()

    def test_ten_thousand_devices_report_percentiles_and_slo(self, service_base):
        """ISSUE acceptance: a 10k-device generated workload through the
        front door, with p50/p95/p99 and SLO attainment reported."""
        pristine, splits, _ = service_base
        traffic = TrafficConfig(
            seed=41,
            horizon=40.0,
            regimes=(RegimeTraffic(rate=0.001),),
            devices_per_user=5_000,  # 2 users × 5000 = 10k devices
            include_onboards=True,
            onboard_spacing=5.0,
        )
        train_data = {uid: train for uid, (train, _) in splits.items()}
        schedule = TrafficGenerator(traffic).compile(
            {
                uid: [w.history for w in holdout.windows]
                for uid, (_, holdout) in splits.items()
            },
            onboard_data=train_data,
        )
        generated = count_queries(schedule)
        assert generated > 100  # the 10k devices actually produce load
        front = ServiceFrontDoor(
            Fleet(copy.deepcopy(pristine), registry_capacity=1),
            ServiceConfig(window=0.2, max_batch=64, queue_capacity=None),
        )
        front.run(schedule)
        stats = front.endpoint_stats()
        assert stats["answered"] == generated
        assert 0.0 < stats["p50_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
        assert 0.0 < stats["slo_attainment"] <= 1.0
        assert stats["flushes"] < generated  # micro-batching engaged


# ----------------------------------------------------------------------
# Golden: the latency-book projection of one canonical generated run
# ----------------------------------------------------------------------
def _canonical_pelican():
    corpus = generate_corpus(
        CorpusConfig(
            num_buildings=12,
            num_contributors=3,
            num_personal_users=2,
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


def compute_service_golden():
    _, pelican, splits = _canonical_pelican()
    traffic = TrafficConfig(
        seed=5,
        horizon=90.0,
        regimes=(
            RegimeTraffic(
                regime="campus",
                rate=0.4,
                diurnal_amplitude=0.5,
                diurnal_period=45.0,
            ),
        ),
        devices_per_user=3,
        include_onboards=True,
        onboard_spacing=5.0,
        update_prob=0.5,
    )
    train_data = {uid: train for uid, (train, _) in splits.items()}
    schedule = TrafficGenerator(traffic).compile(
        {
            uid: [w.history for w in holdout.windows]
            for uid, (_, holdout) in splits.items()
        },
        onboard_data=train_data,
        update_data=train_data,
    )
    front = ServiceFrontDoor(
        Fleet(pelican, registry_capacity=1),
        ServiceConfig(window=0.25, max_batch=8, queue_capacity=64),
    )
    front.run(schedule)
    return json.loads(json.dumps(front.signature()))  # exact floats


class TestGoldenServiceSignature:
    def test_signature_matches_committed_golden(self):
        current = compute_service_golden()
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert set(current) == set(golden), "service signature fields changed"
        for field in golden:
            assert current[field] == golden[field], (
                f"service accounting drift in {field!r}: "
                f"golden {golden[field]!r} != current {current[field]!r} "
                "(if intentional, regenerate with REPRO_UPDATE_GOLDEN=1)"
            )

    def test_golden_exercises_the_latency_book(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden["service_generated"] > 0
        assert golden["service_answered"] == golden["service_generated"]
        assert golden["service_flushes"] < golden["service_generated"]
        assert golden["service_queue_seconds"] > 0.0
        assert golden["service_p50_latency"] > 0.0
        assert golden["service_slo_attainment"] == 1.0
        assert golden["service_max_queue_depth"] >= 2  # coalescing engaged
        # The underlying fleet books ride along under their legacy keys.
        assert golden["queries"] == golden["service_generated"]
        assert golden["onboards"] == 2 and golden["updates"] == 1
