"""Property-based fuzz harness over the fleet event clock (DESIGN.md §8).

A seeded generator produces random :class:`FleetSchedule` workloads —
duplicate ticks, mixed ``k``, interleaved updates, out-of-order build
sequences — and every generated schedule must uphold the invariants the
fleet layer advertises:

* **batched/looped parity** — replaying the schedule on the event clock
  returns exactly what a one-query-at-a-time reference replay returns;
* **accounting conservation** — every query event is served and counted
  once, and the channel's O(1) running totals equal the sum of its
  transfer records (bytes charged == bytes recorded);
* **`serve_looped` neutrality** — the parity reference never perturbs
  the books;
* **same-seed determinism** — identical runs produce bit-identical
  responses and :meth:`FleetReport.signature`;
* **null-chaos identity** — the chaos layer with zero-probability faults
  is indistinguishable from no chaos layer;
* **audit-traffic conservation** (DESIGN.md §10) — schedules carrying
  interleaved adversary probe batches bill every probe exactly once:
  per-endpoint ledgers move by benign + probe counts, the fleet totals
  match, and the adversary attribution overlay equals exactly the probe
  rows;
* **resilience invariants** (DESIGN.md §11) — the null resilience policy
  is byte-identical to no policy at all; under an active policy every
  query is answered or counted shed (conservation); and same-seed runs
  are bit-deterministic end to end, breaker transition log included;
* **store-axis identity** (DESIGN.md §14) — replaying a lifecycle
  schedule over a memory-, disk-, or tiered-backed registry store
  returns bit-identical responses, per-endpoint ledgers, eviction logs,
  and ``FleetReport.signature()`` — stores are byte-transparent — and a
  2-shard outage run whose failover cold-loads come off the disk tier
  matches the in-memory run exactly;
* **generator/front-door invariants** (DESIGN.md §15) — random
  :class:`~repro.traffic.TrafficGenerator` configs compile to schedules
  whose front-door runs match a one-query-at-a-time replay of the
  admitted (rebatched) schedule exactly, conserve every query
  (answered + shed + rejected == generated), and rerun bit-identically
  on the same seed across the store axis.

The schedule count is env-tunable so CI can smoke a subset::

    FLEET_FUZZ_SCHEDULES=10 pytest tests/pelican/test_fleet_fuzz.py
"""

import copy
import os

import numpy as np
import pytest

from repro.attacks import (
    AdversaryClass,
    AuditAdversary,
    AuditTarget,
    TimeBasedAttack,
    true_prior,
)
from repro.data import SpatialLevel
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    ChaosFleet,
    ChaosPolicy,
    Cluster,
    DeploymentMode,
    EventKind,
    Fleet,
    FleetSchedule,
    Pelican,
    PelicanConfig,
    QueryRequest,
    ResiliencePolicy,
    chaos_policy,
    resilience_policy,
)

LEVEL = SpatialLevel.BUILDING
NUM_SCHEDULES = int(os.environ.get("FLEET_FUZZ_SCHEDULES", "50"))
#: Lifecycle (onboard-included) schedules are pricier — run a subset.
NUM_LIFECYCLE_SCHEDULES = max(3, NUM_SCHEDULES // 10)


# ----------------------------------------------------------------------
# Shared artifacts: train once, deepcopy per schedule.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def base(tiny_corpus):
    """(trained userless pelican, onboarded fleet, splits) — fuzz runs
    deepcopy these instead of retraining 50 times."""
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
    pristine = copy.deepcopy(pelican)
    fleet = Fleet(pelican, registry_capacity=1)  # capacity 1: thrash the cache
    for i, uid in enumerate(tiny_corpus.personal_ids):
        mode = DeploymentMode.CLOUD if i % 2 == 0 else DeploymentMode.LOCAL
        fleet.onboard(uid, splits[uid][0], deployment=mode)
    return pristine, fleet, splits


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def generate_schedule(corpus, splits, seed, include_onboards=False):
    """One random workload; everything derives from ``seed``."""
    rng = np.random.default_rng((7, seed))
    schedule = FleetSchedule()
    users = list(corpus.personal_ids)
    onboard_time = {}
    if include_onboards:
        for uid in users:
            onboard_time[uid] = float(rng.uniform(0.0, 3.0))
            mode = DeploymentMode.CLOUD if rng.random() < 0.5 else DeploymentMode.LOCAL
            schedule.onboard(onboard_time[uid], uid, splits[uid][0], deployment=mode)
    num_events = int(rng.integers(5, 25))
    include_update = rng.random() < 0.25
    update_position = int(rng.integers(0, num_events)) if include_update else -1
    tick = max(onboard_time.values(), default=0.0)
    for position in range(num_events):
        # Duplicate ticks are the common case: coalesced serving batches.
        tick += float(rng.choice([0.0, 0.0, 0.0, 1.0, float(rng.uniform(0.0, 3.0))]))
        uid = int(rng.choice(users))
        if position == update_position:
            schedule.update(tick, uid, splits[uid][1])
            continue
        holdout = splits[uid][1]
        window = holdout.windows[int(rng.integers(0, len(holdout.windows)))]
        schedule.query(tick, uid, window.history, k=int(rng.integers(1, 5)))
    return schedule


def looped_replay(fleet, schedule):
    """Executable specification: one accounting-neutral query at a time,
    at the exact event-clock position each query would run at."""
    responses = []
    for event in schedule.ordered():
        if event.kind is EventKind.QUERY:
            [response] = fleet.serve_looped(
                [
                    QueryRequest(
                        user_id=event.user_id,
                        history=event.payload,
                        k=dict(event.options).get("k", 3),
                    )
                ]
            )
            responses.append((event, response))
        elif event.kind is EventKind.UPDATE:
            fleet.update(event.user_id, event.payload)
        elif event.kind is EventKind.ONBOARD:
            fleet.onboard(event.user_id, event.payload, **dict(event.options))
    return responses


def assert_channel_conserved(channel):
    """The O(1) running totals must equal the sum over transfer records."""
    assert sum(r.num_bytes for r in channel.records if r.direction == "up") == channel.bytes_up
    assert sum(r.num_bytes for r in channel.records if r.direction == "down") == channel.bytes_down
    assert sum(r.count for r in channel.records) == channel.transfer_count
    np.testing.assert_allclose(
        sum(r.simulated_seconds for r in channel.records),
        channel.total_simulated_seconds,
    )


def assert_parity(responses, reference):
    assert len(responses) == len(reference)
    for response, (event, looped) in zip(responses, reference):
        assert response.user_id == event.user_id
        assert (response.time, response.seq) == (event.time, event.seq)
        assert [loc for loc, _ in response.top_k] == [loc for loc, _ in looped.top_k]
        np.testing.assert_allclose(
            [conf for _, conf in response.top_k],
            [conf for _, conf in looped.top_k],
            rtol=1e-9,
            atol=0.0,
        )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(NUM_SCHEDULES))
def test_generated_schedule_invariants(base, tiny_corpus, seed):
    _, fleet0, splits = base
    schedule = generate_schedule(tiny_corpus, splits, seed)
    events = schedule.ordered()
    num_queries = sum(1 for e in events if e.kind is EventKind.QUERY)
    has_update = any(e.kind is EventKind.UPDATE for e in events)

    # --- the batched event-clock run ----------------------------------
    fleet = copy.deepcopy(fleet0)
    responses = fleet.run(schedule)
    assert len(responses) == num_queries
    assert fleet.report.queries - fleet0.report.queries == num_queries
    assert_channel_conserved(fleet.pelican.channel)
    # Every query exchange was charged exactly once: per-endpoint query
    # counters moved by exactly the events each user issued.  An UPDATE
    # redeploys a fresh endpoint but the user's QueryStats ledger carries
    # across the redeploy (``Pelican.update_user``), so this holds for
    # updated users too.
    for uid, user in fleet.pelican.users.items():
        issued = sum(
            1 for e in events if e.kind is EventKind.QUERY and e.user_id == uid
        )
        baseline = fleet0.pelican.users[uid].endpoint.stats.queries
        assert user.endpoint.stats.queries - baseline == issued

    # --- parity against the one-query-at-a-time specification ---------
    reference_fleet = copy.deepcopy(fleet0)
    reference = looped_replay(reference_fleet, schedule)
    assert_parity(responses, reference)

    # --- serve_looped neutrality ---------------------------------------
    if not has_update:
        # A pure-query reference replay must leave the books untouched.
        assert (
            reference_fleet.report.signature() == fleet0.report.signature()
        )
        assert reference_fleet.pelican.channel.checkpoint() == (
            fleet0.pelican.channel.checkpoint()
        )

    # --- same seed, same schedule => bit-identical run -----------------
    rerun_fleet = copy.deepcopy(fleet0)
    rerun = rerun_fleet.run(schedule)
    assert rerun == responses  # frozen dataclasses: bit-exact confidences
    assert rerun_fleet.report.signature() == fleet.report.signature()


@pytest.fixture(scope="module")
def probe_pool(base, tiny_corpus):
    """Pre-planned probe batches per user, reused across fuzz schedules."""
    _, fleet, splits = base
    adversary = AuditAdversary(
        TimeBasedAttack(), AdversaryClass.A1, max_instances=2
    )
    spec = fleet.pelican.spec
    return {
        uid: adversary.probes_for(
            spec,
            AuditTarget(
                user_id=uid,
                attack_windows=splits[uid][1],
                prior=true_prior(splits[uid][0]),
            ),
        )
        for uid in tiny_corpus.personal_ids
    }


@pytest.mark.parametrize("seed", range(0, NUM_SCHEDULES, 5))
def test_generated_audit_schedule_invariants(base, tiny_corpus, probe_pool, seed):
    """Audit probe traffic interleaved with benign events conserves every
    per-endpoint and fleet-level query ledger (DESIGN.md §10)."""
    _, fleet0, splits = base
    schedule = generate_schedule(tiny_corpus, splits, 5000 + seed)
    rng = np.random.default_rng((13, seed))
    ticks = sorted({e.time for e in schedule.ordered()}) or [0.0]
    probe_rows = {uid: 0 for uid in tiny_corpus.personal_ids}
    num_probe_events = 0
    for uid, batches in probe_pool.items():
        for batch in batches:
            if rng.random() < 0.75:
                schedule.probe(float(rng.choice(ticks)), uid, batch)
                probe_rows[uid] += batch.num_probes
                num_probe_events += 1
    events = schedule.ordered()
    num_queries = sum(
        1
        for e in events
        if e.kind is EventKind.QUERY and isinstance(e.payload, tuple)
    )
    total_probe_rows = sum(probe_rows.values())

    fleet = copy.deepcopy(fleet0)
    responses = fleet.run(schedule)
    assert len(responses) == num_queries + num_probe_events
    # Probe responses carry confidences (one per probe row), benign ones
    # carry rankings — never both.
    served_rows = sum(
        len(r.confidences) for r in responses if r.confidences is not None
    )
    assert served_rows == total_probe_rows
    assert all(r.top_k for r in responses if r.confidences is None)

    # Fleet totals: every benign query and every probe row exactly once;
    # the adversary overlay holds exactly the probe rows.
    assert (
        fleet.report.queries - fleet0.report.queries
        == num_queries + total_probe_rows
    )
    assert (
        fleet.report.adversary_queries - fleet0.report.adversary_queries
        == total_probe_rows
    )
    assert_channel_conserved(fleet.pelican.channel)

    # Per-endpoint conservation, probes included.
    for uid, user in fleet.pelican.users.items():
        issued = sum(
            1
            for e in events
            if e.kind is EventKind.QUERY
            and e.user_id == uid
            and isinstance(e.payload, tuple)
        )
        baseline = fleet0.pelican.users[uid].endpoint.stats.queries
        assert user.endpoint.stats.queries - baseline == issued + probe_rows[uid]

    # Same seed, same schedule => bit-identical run (confidences included).
    rerun_fleet = copy.deepcopy(fleet0)
    assert rerun_fleet.run(schedule) == responses
    assert rerun_fleet.report.signature() == fleet.report.signature()


@pytest.mark.parametrize("seed", range(0, NUM_SCHEDULES, 5))
def test_null_chaos_identical_to_chaos_off(base, tiny_corpus, seed):
    """chaos-on with zero-probability faults == chaos-off, per schedule."""
    pristine, _, splits = base
    schedule = generate_schedule(tiny_corpus, splits, seed, include_onboards=True)
    plain = Fleet(copy.deepcopy(pristine), registry_capacity=1)
    chaotic = ChaosFleet(
        copy.deepcopy(pristine), ChaosPolicy(), registry_capacity=1
    )
    assert plain.run(schedule) == chaotic.run(schedule)
    assert plain.report.signature() == chaotic.report.signature()
    assert not any(chaotic.chaos.signature().values())


@pytest.mark.parametrize("seed", range(0, NUM_SCHEDULES, 5))
def test_null_resilience_identical_to_resilience_off(base, tiny_corpus, seed):
    """The null resilience policy over real chaos == no policy at all:
    same responses, same signature, same signature *key set*."""
    pristine, _, splits = base
    schedule = generate_schedule(tiny_corpus, splits, seed, include_onboards=True)
    policy = chaos_policy("hostile", seed=seed)
    bare = ChaosFleet(copy.deepcopy(pristine), policy, registry_capacity=1)
    nulled = ChaosFleet(
        copy.deepcopy(pristine),
        policy,
        registry_capacity=1,
        resilience=ResiliencePolicy(),
    )
    assert bare.run(schedule) == nulled.run(schedule)
    assert bare.signature() == nulled.signature()
    assert not any(k.startswith("resilience_") for k in nulled.signature())


@pytest.mark.parametrize("seed", range(0, NUM_SCHEDULES, 5))
def test_resilience_conservation_and_determinism(base, tiny_corpus, seed):
    """Under an active policy every query is answered or counted shed,
    and same-seed reruns are bit-identical — backoff jitter included."""
    pristine, _, splits = base
    schedule = generate_schedule(tiny_corpus, splits, 2000 + seed, include_onboards=True)
    num_queries = sum(
        1 for e in schedule.ordered() if e.kind is EventKind.QUERY
    )

    def run():
        fleet = ChaosFleet(
            copy.deepcopy(pristine),
            chaos_policy("hostile", seed=seed),
            registry_capacity=1,
            resilience=resilience_policy("default", seed=seed),
        )
        return fleet.run(schedule), fleet

    responses, fleet = run()
    stats = fleet.resilience_stats
    assert len(responses) + stats.shed_queries == num_queries

    rerun, rerun_fleet = run()
    assert rerun == responses
    assert rerun_fleet.resilience_stats.signature() == stats.signature()
    assert rerun_fleet.signature() == fleet.signature()


@pytest.mark.parametrize("seed", range(0, NUM_SCHEDULES, 10))
def test_cluster_breaker_log_determinism(base, tiny_corpus, seed):
    """A sharded cluster under blackout chaos replays its breaker
    transition log bit-identically across same-seed runs."""
    pristine, _, splits = base
    schedule = generate_schedule(tiny_corpus, splits, 3000 + seed, include_onboards=True)

    def run():
        cluster = Cluster.from_trained(
            copy.deepcopy(pristine),
            num_shards=2,
            registry_capacity=1,
            policy=chaos_policy("blackout", seed=seed),
            resilience=resilience_policy("default", seed=seed),
        )
        return cluster.run(schedule), cluster

    responses, cluster = run()
    rerun, rerun_cluster = run()
    assert rerun == responses
    assert rerun_cluster.resilience_stats.breaker_log == (
        cluster.resilience_stats.breaker_log
    )
    assert rerun_cluster.resilience_stats.signature() == (
        cluster.resilience_stats.signature()
    )
    assert rerun_cluster.signature() == cluster.signature()


@pytest.mark.parametrize("seed", range(NUM_LIFECYCLE_SCHEDULES))
def test_store_axis_differential_sweep(base, tiny_corpus, seed, tmp_path):
    """Memory vs disk vs tiered registry stores over generated lifecycle
    schedules (DESIGN.md §14): stores are byte-transparent, so responses,
    per-endpoint ledgers, eviction logs, and ``FleetReport.signature()``
    must all be bit-identical across the store axis."""
    from repro.pelican import make_blob_store

    pristine, _, splits = base
    schedule = generate_schedule(
        tiny_corpus, splits, 6000 + seed, include_onboards=True
    )

    def run(kind):
        store = make_blob_store(kind, directory=tmp_path / f"{kind}-{seed}")
        fleet = Fleet(
            copy.deepcopy(pristine), registry_capacity=1, registry_store=store
        )
        try:
            responses = fleet.run(schedule)
            ledgers = {
                uid: (
                    user.endpoint.stats.queries,
                    user.endpoint.stats.simulated_network_seconds,
                )
                for uid, user in fleet.pelican.users.items()
            }
            evictions = tuple(fleet.registry.stats.eviction_log)
            return responses, ledgers, evictions, fleet.report.signature()
        finally:
            store.close()

    reference = run("memory")
    for kind in ("disk", "tiered"):
        assert run(kind) == reference


@pytest.mark.parametrize("seed", range(min(NUM_LIFECYCLE_SCHEDULES, 7)))
def test_store_disk_failover_cold_loads(base, tiny_corpus, seed, tmp_path):
    """A 2-shard cluster under shard-outage chaos fails queries over to
    the surviving shard, whose registry cold-loads the checkpoint off the
    cluster-wide durable store (DESIGN.md §14).  With that store on the
    disk tier the run must stay bit-identical to the in-memory run —
    responses and ``totals_signature()`` — while actually exercising
    failover cold loads."""
    from repro.pelican import DiskBlobStore, totals_signature

    pristine, _, splits = base
    # All-cloud onboards + round-robin queries over a wide tick span:
    # every user's checkpoint lives in the durable store, and the span
    # (≈20 time units vs. outage rate 1.5 / duration 25) makes failover
    # reads off the durable tier a certainty — verified for the seed
    # window [0, 7) this test parametrizes over.
    rng = np.random.default_rng((29, seed))
    schedule = FleetSchedule()
    users = list(tiny_corpus.personal_ids)
    for uid in users:
        schedule.onboard(
            float(rng.uniform(0.0, 2.0)),
            uid,
            splits[uid][0],
            deployment=DeploymentMode.CLOUD,
        )
    tick = 2.0
    for position in range(10 * len(users)):
        tick += float(rng.choice([0.0, 1.0, 2.0]))
        uid = users[position % len(users)]
        holdout = splits[uid][1]
        window = holdout.windows[int(rng.integers(0, len(holdout.windows)))]
        schedule.query(tick, uid, window.history, k=int(rng.integers(1, 5)))

    def run(store):
        cluster = Cluster.from_trained(
            copy.deepcopy(pristine),
            num_shards=2,
            registry_capacity=1,
            policy=chaos_policy("shard_outage", seed=seed),
            store=store,
        )
        try:
            responses = cluster.run(schedule)
            signature = totals_signature(cluster.signature())
            return responses, signature
        finally:
            cluster.close()

    memory = run(None)
    disk = run(DiskBlobStore(tmp_path / f"cluster-{seed}"))
    assert disk == memory
    # The failover shard's registry starts cold, so failed-over queries
    # must have cold-loaded their checkpoints off the durable tier.
    assert memory[1]["registry_cold_loads"] > 0


@pytest.mark.parametrize("seed", range(NUM_LIFECYCLE_SCHEDULES))
def test_generated_lifecycle_schedule_invariants(base, tiny_corpus, seed):
    """Full-lifecycle fuzz: onboards land mid-schedule too."""
    pristine, _, splits = base
    schedule = generate_schedule(tiny_corpus, splits, 1000 + seed, include_onboards=True)
    events = schedule.ordered()
    num_queries = sum(1 for e in events if e.kind is EventKind.QUERY)

    fleet = Fleet(copy.deepcopy(pristine), registry_capacity=1)
    responses = fleet.run(schedule)
    assert len(responses) == num_queries
    assert fleet.report.onboards == len(tiny_corpus.personal_ids)
    assert_channel_conserved(fleet.pelican.channel)

    reference_fleet = Fleet(copy.deepcopy(pristine), registry_capacity=1)
    assert_parity(responses, looped_replay(reference_fleet, schedule))

    rerun_fleet = Fleet(copy.deepcopy(pristine), registry_capacity=1)
    assert rerun_fleet.run(schedule) == responses
    assert rerun_fleet.report.signature() == fleet.report.signature()


# ----------------------------------------------------------------------
# Generator axis: random traffic configs through the front door
# ----------------------------------------------------------------------
def generate_traffic_run(splits, seed):
    """One random (compiled schedule, admission config); everything —
    regime knobs, flash crowds, churn, micro-batch window — derives from
    ``seed``."""
    from repro.pelican import ServiceConfig
    from repro.traffic import (
        FlashCrowd,
        RegimeTraffic,
        TrafficConfig,
        TrafficGenerator,
    )

    rng = np.random.default_rng((37, seed))
    regimes = tuple(
        RegimeTraffic(
            regime=name,
            rate=float(rng.uniform(0.02, 0.2)),
            diurnal_amplitude=float(rng.choice([0.0, rng.uniform(0.0, 0.9)])),
            diurnal_period=float(rng.uniform(10.0, 40.0)),
        )
        for name in ["campus", "downtown"][: int(rng.integers(1, 3))]
    )
    flash_crowds = ()
    if rng.random() < 0.5:
        flash_crowds = (
            FlashCrowd(
                start=float(rng.uniform(0.0, 20.0)),
                duration=float(rng.uniform(3.0, 10.0)),
                rate=float(rng.uniform(0.2, 0.8)),
            ),
        )
    config = TrafficConfig(
        seed=int(rng.integers(0, 2**16)),
        horizon=float(rng.uniform(20.0, 40.0)),
        regimes=regimes,
        flash_crowds=flash_crowds,
        devices_per_user=int(rng.integers(1, 4)),
        include_onboards=True,
        onboard_spacing=float(rng.uniform(2.0, 6.0)),
        update_prob=float(rng.uniform(0.0, 0.6)),
        k=int(rng.integers(1, 5)),
    )
    train_data = {uid: train for uid, (train, _) in splits.items()}
    schedule = TrafficGenerator(config).compile(
        {
            uid: [w.history for w in holdout.windows]
            for uid, (_, holdout) in splits.items()
        },
        onboard_data=train_data,
        update_data=train_data,
    )
    service = ServiceConfig(
        window=float(rng.uniform(0.0, 0.4)),
        max_batch=int(rng.integers(1, 9)),
        queue_capacity=None if rng.random() < 0.5 else int(rng.integers(8, 64)),
    )
    return schedule, service


@pytest.mark.parametrize("seed", range(NUM_LIFECYCLE_SCHEDULES))
def test_generator_front_door_parity_and_conservation(base, seed):
    """A generated workload through the front door equals a looped
    replay of the admitted (rebatched) schedule, and every generated
    query is answered, shed, or rejected — nothing vanishes."""
    from repro.pelican import ServiceFrontDoor

    pristine, _, splits = base
    schedule, service = generate_traffic_run(splits, seed)
    num_queries = sum(1 for e in schedule.ordered() if e.kind is EventKind.QUERY)

    front = ServiceFrontDoor(
        Fleet(copy.deepcopy(pristine), registry_capacity=1), service
    )
    responses = front.run(schedule)
    # Conservation: the front door on a resilience-free fleet never
    # sheds, so answered + rejected must cover the workload.
    assert front.stats.generated == num_queries
    assert front.book.answered + front.shed + front.stats.rejected == num_queries
    assert front.shed == 0
    assert len(responses) == front.book.answered

    # Parity: admission is deterministic, so an identically-configured
    # door rebatches to the same schedule — whose one-query-at-a-time
    # replay must match the batched front-door run exactly.
    reference_front = ServiceFrontDoor(
        Fleet(copy.deepcopy(pristine), registry_capacity=1), service
    )
    admitted = reference_front.admit(schedule)
    reference = looped_replay(reference_front.fleet, admitted)
    assert_parity(responses, reference)


@pytest.mark.parametrize("store_kind", ["memory", "disk", "tiered"])
@pytest.mark.parametrize("seed", range(NUM_LIFECYCLE_SCHEDULES))
def test_generator_store_axis_determinism(base, seed, store_kind, tmp_path):
    """Front-door runs of a generated workload are bit-identical on
    rerun, and byte-transparent across the registry-store axis."""
    from repro.pelican import ServiceFrontDoor, make_blob_store

    pristine, _, splits = base
    schedule, service = generate_traffic_run(splits, seed)

    def run(kind, tag):
        store = make_blob_store(kind, directory=tmp_path / f"{kind}-{tag}")
        fleet = Fleet(
            copy.deepcopy(pristine), registry_capacity=1, registry_store=store
        )
        front = ServiceFrontDoor(fleet, service)
        try:
            return front.run(schedule), front.signature()
        finally:
            store.close()

    reference = run("memory", "a")
    assert reference[1]["service_answered"] > 0
    assert run(store_kind, "b") == reference


@pytest.mark.parametrize("seed", range(NUM_LIFECYCLE_SCHEDULES))
def test_generator_front_door_determinism(base, seed):
    """Same-seed front-door reruns are bit-identical."""
    from repro.pelican import ServiceFrontDoor

    pristine, _, splits = base
    schedule, service = generate_traffic_run(splits, seed)

    def run():
        fleet = Fleet(copy.deepcopy(pristine), registry_capacity=1)
        front = ServiceFrontDoor(fleet, service)
        return front.run(schedule), front.signature()

    responses, signature = run()
    rerun_responses, rerun_signature = run()
    assert rerun_responses == responses
    assert rerun_signature == signature


@pytest.mark.parametrize("seed", range(min(NUM_LIFECYCLE_SCHEDULES, 3)))
def test_generator_chaos_resilience_conservation(base, seed):
    """Generated traffic under hostile chaos + an active resilience
    policy: front-door sheds and chaos sheds land in one counter, the
    conservation identity holds, and reruns are bit-identical."""
    from repro.pelican import ServiceFrontDoor

    pristine, _, splits = base
    schedule, service = generate_traffic_run(splits, seed)
    num_queries = sum(1 for e in schedule.ordered() if e.kind is EventKind.QUERY)

    def run():
        fleet = ChaosFleet(
            copy.deepcopy(pristine),
            chaos_policy("hostile", seed=seed),
            registry_capacity=1,
            resilience=resilience_policy("default", seed=seed),
        )
        front = ServiceFrontDoor(fleet, service)
        return front.run(schedule), front

    responses, front = run()
    assert front.stats.generated == num_queries
    assert (
        front.book.answered + front.shed + front.stats.rejected == num_queries
    )
    assert front.shed == front.fleet.resilience_stats.shed_queries

    rerun_responses, rerun_front = run()
    assert rerun_responses == responses
    assert rerun_front.signature() == front.signature()
