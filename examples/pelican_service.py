#!/usr/bin/env python3
"""A location-aware mobile service running on the full Pelican framework,
served at fleet scale.

Simulates the scenario from the paper's introduction: a restaurant/route
recommendation service that pre-fetches content for the user's *predicted
next location*.  The service provider is honest-but-curious: it serves
recommendations but would love to reconstruct where users have been.

This example exercises every Pelican phase (paper Fig 4) through the
fleet serving layer (DESIGN.md §7):

1. cloud-based initial training over contributor trajectories;
2. device-based personalization for a cohort of users (with the privacy
   tuner set per user), driven by a deterministic event schedule;
3. deployment behind a uniform endpoint — local users keep their model,
   cloud users' models land in the provider's LRU model registry;
4. a burst of concurrent queries served *batched* (one fused dispatch
   per model) and cross-checked against the per-query loop;
5. periodic model updates as new weeks of data arrive;

plus the fleet-level overhead accounting: MACs and simulated seconds
attributed per side, network traffic, and registry cache behaviour —
then, as a finale, the same deployment sharded and hit with a total
blackout under a resilience policy (DESIGN.md §11), printing the
degraded-vs-fresh answer breakdown; and finally the deployment re-run
with the model registry on the disk blob store (DESIGN.md §14),
gating answer parity against the in-memory run and printing the
resident-memory and cold-load-latency deltas.

Run:  python examples/pelican_service.py
"""

import copy
import time

from repro.data import CorpusConfig, SpatialLevel, generate_corpus
from repro.eval import responses_match
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    Cluster,
    DeploymentMode,
    Fleet,
    FleetSchedule,
    Pelican,
    PelicanConfig,
    QueryRequest,
    chaos_policy,
    make_blob_store,
    measure_availability,
    resilience_policy,
)


def main() -> None:
    corpus = generate_corpus(
        CorpusConfig(
            num_buildings=30, num_contributors=10, num_personal_users=3, num_days=56, seed=13
        )
    )
    level = SpatialLevel.BUILDING
    spec = corpus.spec(level)

    pelican = Pelican(
        spec,
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=40, epochs=12, patience=5),
            personalization=PersonalizationConfig(epochs=15, patience=5),
            privacy_temperature=1e-3,
            deployment=DeploymentMode.LOCAL,
            seed=3,
        ),
    )
    # Capacity 1 keeps at most one personal model hot in the provider's
    # cloud, so serving the cohort exercises cold loads and evictions.
    fleet = Fleet(pelican, registry_capacity=1)

    print("=== Phase 1: cloud-based initial training ===")
    contributor_train, _ = corpus.contributor_dataset(level).split_by_user(0.8)
    report = fleet.train_cloud(contributor_train)
    print(
        f"general model trained: {report.estimated_billion_cycles:.1f}B cycle-equivalents, "
        f"{report.wall_seconds:.1f}s wall"
    )
    # Trained-but-userless snapshot: phases 5 and 6 re-run the same
    # deployment under different serving substrates.
    pristine = copy.deepcopy(pelican)

    print("\n=== Phase 2+3: onboard the fleet (device personalization + deployment) ===")
    schedule = FleetSchedule()
    holdouts = {}
    for i, uid in enumerate(corpus.personal_ids):
        full = corpus.user_dataset(uid, level)
        train, holdout = full.split(0.8)
        # First six weeks now; the rest arrives later as an update.
        initial = train.limit_weeks(6)
        holdouts[uid] = (train, holdout)
        mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
        # Users choose their own privacy tuner.
        temperature = [1e-2, 1e-3, 1e-4][i % 3]
        schedule.onboard(
            float(i), uid, initial, privacy_temperature=temperature, deployment=mode
        )
    fleet.run(schedule)
    for uid, user in pelican.users.items():
        print(
            f"user {uid}: deployed {user.endpoint.mode.value}, "
            f"personalization {user.personalization_report.estimated_billion_cycles:.2f}B cycles "
            f"(~{user.simulated_device_seconds:.1f}s on a low-end phone)"
        )

    print("\n=== Serve a concurrent burst, batched per model ===")
    requests = []
    for uid in corpus.personal_ids:
        _, holdout = holdouts[uid]
        for window in holdout.windows[:8]:
            requests.append(QueryRequest(user_id=uid, history=tuple(window.history), k=3))
    start = time.perf_counter()
    looped = fleet.serve_looped(requests)
    looped_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    batched = fleet.serve(requests)
    batched_ms = (time.perf_counter() - start) * 1e3
    identical = responses_match(batched, looped)
    print(
        f"{len(requests)} concurrent queries in {fleet.report.batches} batches: "
        f"looped {looped_ms:.1f}ms -> batched {batched_ms:.1f}ms "
        f"({looped_ms / batched_ms:.1f}x), outputs identical: {identical}"
    )
    for uid in corpus.personal_ids:
        _, holdout = holdouts[uid]
        window = holdout.windows[0]
        top3 = next(r.top_k for r in batched if r.user_id == uid)
        pretty = ", ".join(f"bldg {loc} ({conf:.0%})" for loc, conf in top3)
        print(f"user {uid} predicted next locations: {pretty} | truth: bldg {window.target}")

    print("\n=== Phase 4: weekly model update ===")
    uid = corpus.personal_ids[0]
    train, holdout = holdouts[uid]
    X, y = holdout.encode()
    before = pelican.users[uid].endpoint.predictor.top_k_accuracy(X, y, 3)
    fleet.update(uid, train)  # re-invoke TL with the full history
    after = pelican.users[uid].endpoint.predictor.top_k_accuracy(X, y, 3)
    print(f"user {uid} holdout top-3 accuracy: {before:.2%} -> {after:.2%} after update")

    print("\n=== Fleet overhead summary (paper §V-C2, per side) ===")
    fr = fleet.report
    ratio = fr.cloud_compute.macs / max(fr.device_compute.macs, 1)
    print(
        f"cloud : {fr.cloud_compute.macs / 1e9:.2f}B MACs "
        f"({fr.cloud_simulated_seconds:.2f}s simulated on a {fr.cloud_profile.name})"
    )
    print(
        f"device: {fr.device_compute.macs / 1e9:.2f}B MACs "
        f"({fr.device_simulated_seconds:.1f}s simulated on a {fr.device_profile.name})"
    )
    print(f"cloud/device MAC ratio: {ratio:.1f}x")
    print(
        f"network: {fr.network_seconds:.1f}s simulated, "
        f"{fr.network_bytes_down / 1e6:.2f} MB down, {fr.network_bytes_up / 1e6:.2f} MB up"
    )
    print(
        f"registry: {fr.registry.hits} hits, {fr.registry.cold_loads} cold loads, "
        f"{fr.registry.evictions} evictions (capacity {fleet.registry.capacity})"
    )

    print("\n=== Phase 5: blackout with graceful degradation (DESIGN.md §11) ===")
    # The same deployment, sharded in two, under a total-outage chaos
    # preset — with the default resilience policy the cluster answers
    # through the degradation ladder instead of waiting out the outage.
    cluster = Cluster.from_trained(
        copy.deepcopy(pelican),
        num_shards=2,
        registry_capacity=1,
        policy=chaos_policy("blackout", seed=0),
        resilience=resilience_policy("default", seed=0),
    )
    chaos_schedule = FleetSchedule()
    targets = {}
    tick = 10.0
    for j in range(6):
        for uid in corpus.personal_ids:
            _, holdout = holdouts[uid]
            window = holdout.windows[j % len(holdout.windows)]
            targets[chaos_schedule.next_seq] = window.target
            chaos_schedule.query(tick, uid, window.history, k=3)
        tick += 10.0
    responses = cluster.run(chaos_schedule)
    stats = cluster.resilience_stats

    def hit_rate(group):
        if not group:
            return 0.0
        hits = sum(1 for r in group if targets[r.seq] in [loc for loc, _ in r.top_k])
        return hits / len(group)

    fresh = [r for r in responses if r.degraded is None]
    degraded = [r for r in responses if r.degraded is not None]
    availability = measure_availability(
        chaos_schedule, responses, deadline=15.0,
        penalized=stats.unprotected_outage_queries,
    )
    print(
        f"fresh    : {len(fresh):3d} answers, top-3 hit rate {hit_rate(fresh):.2%}"
    )
    print(
        f"degraded : {len(degraded):3d} answers, top-3 hit rate {hit_rate(degraded):.2%} "
        f"(stale {stats.degraded_stale}, general {stats.degraded_general}, "
        f"prior {stats.degraded_prior})"
    )
    print(
        f"shed     : {stats.shed_queries} past-deadline, "
        f"availability {availability.availability:.2%}, "
        f"SLO attainment {availability.slo_attainment:.2%}"
    )
    print(
        f"breakers : {stats.breaker_opens} opens, "
        f"{stats.breaker_redirects} redirects, "
        f"{len(stats.breaker_log)} logged transitions; "
        f"retries {stats.retries_spent} spent / {stats.retries_denied} denied, "
        f"{stats.backoff_seconds:.2f}s backoff"
    )

    print("\n=== Phase 6: the registry on the disk blob store (DESIGN.md §14) ===")
    # The same onboarding schedule and query burst, replayed from the
    # trained snapshot over the in-memory store and over the disk store,
    # whose checkpoints live in mmap-backed segment files.  Stores are
    # byte-transparent, so the answers must be identical; what changes
    # is what stays resident.

    def replay(kind):
        store = make_blob_store(kind)
        replayed = Fleet(
            copy.deepcopy(pristine), registry_capacity=1, registry_store=store
        )
        replayed.run(schedule)
        return replayed, store, replayed.serve(requests)

    memory_fleet, memory_store, memory_answers = replay("memory")
    disk_fleet, disk_store, disk_answers = replay("disk")
    print(f"answers identical across stores: {responses_match(disk_answers, memory_answers)}")

    def cold_load_ms(replayed, uid):
        best = float("inf")
        for _ in range(10):
            replayed.registry.evict(uid)
            start = time.perf_counter()
            replayed.registry.get(uid)
            best = min(best, time.perf_counter() - start)
        return best * 1e3

    cloud_uid = next(
        uid
        for uid, user in memory_fleet.pelican.users.items()
        if user.endpoint.mode is DeploymentMode.CLOUD
    )
    memory_ms = cold_load_ms(memory_fleet, cloud_uid)
    disk_ms = cold_load_ms(disk_fleet, cloud_uid)
    print(
        f"resident blob bytes: {memory_store.resident_bytes() / 1e3:.0f} KB in-memory "
        f"-> {disk_store.resident_bytes()} B disk "
        f"({memory_store.resident_bytes() / disk_store.resident_bytes():.1f}x less resident, "
        f"{disk_store.total_bytes / 1e3:.0f} KB durable on disk)"
    )
    print(
        f"registry cold load (evict + reload user {cloud_uid}): "
        f"{memory_ms:.2f}ms in-memory -> {disk_ms:.2f}ms disk"
    )
    disk_store.close()

if __name__ == "__main__":
    main()
