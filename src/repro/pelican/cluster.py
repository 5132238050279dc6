"""Sharded cluster serving: N single-cloud fleets behind one front door
(DESIGN.md §9).

A production deployment cannot serve millions of personal models from one
cloud; it spreads them over shards.  :class:`Cluster` composes N
:class:`~repro.pelican.fleet.Fleet` shards — each with its own
:class:`~repro.pelican.system.Pelican`, channel, live-model registry, and
capacity — behind a deterministic placement layer
(:mod:`repro.pelican.placement`) and the shared event clock
(:mod:`repro.pelican.clock`).  The legacy single-cloud ``Fleet`` is
exactly the 1-shard special case: a 1-shard cluster run returns
bit-identical responses and a bit-identical totals signature.

Guarantees, in the same spirit as §7/§8:

* **Response parity.**  Placement routes whole users, the dispatcher
  groups per model, and cold loads rebuild bit-identically — so a
  K-shard run under the null chaos policy answers every query exactly
  like the single-``Fleet`` run on the same schedule and seed.  Only the
  books differ in shape (per-shard), never the totals' meaning.
* **Deterministic placement.**  Consistent hashing derives from
  ``default_rng((seed, stream, key))``-style stable hashes: the same
  ``(seed, user set, shard count)`` always yields the identical
  placement map.
* **Failover under chaos.**  With a :class:`~repro.pelican.chaos.ChaosPolicy`
  carrying shard-outage windows, queries homed on a downed shard re-route
  to the next alive shard, which cold-loads the user's checkpoint from the
  cluster-wide durable store (per-shard live caches over one blob store) —
  all cost-accounted on the shard that did the work.  Onboards and updates
  defer to the outage's end; per-user serial order is preserved.  The
  whole faulty run stays bit-deterministic and signature-comparable.
* **Graceful degradation under resilience.**  With a
  :class:`~repro.pelican.resilience.ResiliencePolicy` (DESIGN.md §11),
  failover routing consults per-shard circuit breakers, chaos-deferred
  queries that blew their deadline are shed up front, and a query with
  *no* alive shard degrades through stale copy → general model → Markov
  prior instead of being served on the downed home shard.  The null
  policy is byte-identical to no policy at all.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.dataset import SequenceDataset
from repro.data.features import FeatureSpec
from repro.models.personalize import PersonalizationMethod
from repro.pelican.accounting import ClusterReport, overlay_signature
from repro.pelican.chaos import (
    ChaosPolicy,
    ChaosStats,
    perturb_schedule,
    sample_shard_outages,
)
from repro.pelican.resilience import (
    DegradationLadder,
    ResiliencePolicy,
    ResilienceStats,
    ShardBreaker,
    shed_late_queries,
)
from repro.pelican.clock import (
    EventKind,
    FleetEvent,
    FleetSchedule,
    QueryRequest,
    QueryResponse,
    replay_schedule,
)
from repro.pelican.deployment import DeploymentMode
# ``dispatch_model_batch`` and ``group_requests`` are not called here (the
# group loop is ``Fleet._serve_groups``) but stay names of this module:
# the benchmark's tracer (``perfbench/tracing.py``) wraps them here.
from repro.pelican.dispatch import (  # noqa: F401
    ProbePayload,
    dispatch_model_batch,
    group_requests,
)
from repro.pelican.fleet import Fleet
from repro.pelican.placement import HashPlacement
from repro.pelican.storage import BlobStore, MemoryBlobStore
from repro.pelican.system import OnboardedUser, Pelican, PelicanConfig


class Cluster:
    """A sharded Pelican cloud: N fleets, one placement layer, one clock.

    Parameters
    ----------
    spec / config:
        The feature spec and system config every shard's
        :class:`~repro.pelican.system.Pelican` is built from.  All shards
        share ``config.seed``, so a user personalizes bit-identically
        regardless of which shard owns them — the root of the K-vs-1
        response parity guarantee.
    num_shards:
        Cloud shard count; ``1`` reproduces the legacy single-``Fleet``
        behaviour exactly.
    registry_capacity:
        *Per-shard* live-model budget (``None`` = unbounded).  The durable
        blob store is cluster-wide and unbounded, like real object
        storage.
    policy:
        Optional :class:`~repro.pelican.chaos.ChaosPolicy`.  Per-shard
        faults (lossy transfers, flaky cold loads) run with a seed stably
        derived per shard; shard-outage windows and per-user deferrals are
        applied at cluster level.  ``None`` and the null policy are
        byte-for-byte identical.
    resilience:
        Optional :class:`~repro.pelican.resilience.ResiliencePolicy`
        (DESIGN.md §11) governing how the cluster *reacts* to injected
        faults: per-shard retry budgets with backoff (reseeded per shard
        like chaos), circuit breakers steering failover, query deadlines
        with load shedding, and the full-outage degradation ladder.  One
        :class:`~repro.pelican.resilience.ResilienceStats` book is
        shared across all shards.  A null policy is stored as ``None``;
        either is byte-for-byte identical to the pre-resilience
        behaviour.
    store:
        The cluster-wide durable checkpoint store (DESIGN.md §14): a
        ready-made :class:`~repro.pelican.storage.BlobStore`, used as-is
        and left open, or ``None`` for an in-memory store the cluster
        owns.  Responses and ``totals_signature()`` are bit-identical
        across store kinds — stores are byte-transparent and fetches are
        billed at logical blob sizes.
    """

    def __init__(
        self,
        spec: FeatureSpec,
        config: Optional[PelicanConfig] = None,
        num_shards: int = 1,
        registry_capacity: Optional[int] = 64,
        policy: Optional[ChaosPolicy] = None,
        resilience: Optional[ResiliencePolicy] = None,
        store: Optional[BlobStore] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        config = config or PelicanConfig()
        self.spec = spec
        self.config = config
        self.num_shards = num_shards
        self.placement = HashPlacement(config.seed, num_shards)
        self.policy = policy
        self.chaos = ChaosStats()
        if resilience is not None and resilience.is_null:
            resilience = None
        self.resilience = resilience
        #: One stats book for the whole cluster (shared with every
        #: shard), so the signature overlay needs no merging.
        self.resilience_stats = ResilienceStats()
        self._breakers: Dict[int, ShardBreaker] = (
            {
                shard_id: ShardBreaker(shard_id, resilience, self.resilience_stats)
                for shard_id in range(num_shards)
            }
            if resilience is not None and resilience.breaker_threshold is not None
            else {}
        )
        self._ladder: Optional[DegradationLadder] = (
            DegradationLadder(resilience, spec, config.seed)
            if resilience is not None and resilience.degrade_tiers
            else None
        )
        #: Cluster-wide durable checkpoint store, shared by every shard's
        #: registry — what makes cross-shard failover cold loads possible
        #: (DESIGN.md §14).
        self._owns_store = store is None
        self.store: BlobStore = MemoryBlobStore() if store is None else store
        self.shards: List[Fleet] = [
            Fleet(
                Pelican(spec, config),
                registry_capacity=registry_capacity,
                registry_store=self.store,
                resilience=(
                    None if resilience is None else resilience.for_shard(shard_id)
                ),
                resilience_stats=self.resilience_stats,
                policy=None if policy is None else policy.for_shard(shard_id),
            )
            for shard_id in range(num_shards)
        ]
        self.report = ClusterReport(
            shard_reports=[shard.report for shard in self.shards]
        )
        #: Current run's shard-outage windows (empty outside chaos runs).
        self._outages: Dict[int, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_trained(cls, pelican: Pelican, **kwargs: Any) -> "Cluster":
        """Build a cluster from an already-trained orchestrator.

        Publishes ``pelican``'s general model to every shard and adopts
        any users it already onboarded (placing each and rewiring cloud
        endpoints to their shard's channel).  Training cost is *not*
        adopted — mirror of wrapping a pre-trained Pelican in a bare
        ``Fleet``; use :meth:`train_cloud` (or add to
        ``report.training``) when the cost should appear in the books.
        Takes ownership of ``pelican`` exactly like ``Fleet(pelican)``.
        """
        if pelican._general_blob is None:
            raise RuntimeError("run initial_training before sharding a Pelican")
        cluster = cls(pelican.spec, pelican.config, **kwargs)
        for shard in cluster.shards:
            shard.pelican._general_blob = pelican._general_blob
            shard.pelican.cloud = pelican.cloud
        for user_id, user in pelican.users.items():
            shard = cluster.shards[cluster.placement.shard_for(user_id)]
            if user.endpoint.channel is not None:
                user.endpoint.channel = shard.pelican.channel
            shard.pelican.users[user_id] = user
            if user.endpoint.mode == DeploymentMode.CLOUD:
                shard.registry.register(user_id, user.endpoint.predictor.model)
        return cluster

    def train_cloud(self, contributor_dataset: SequenceDataset):
        """Phase-1 general-model training — once, cluster-wide.

        The general model is trained on one trainer and its published
        blob is shared by every shard (a real cluster trains centrally
        and replicates the artifact); the cost lands in the cluster-level
        ``report.training`` book, not on any shard.
        """
        lead = self.shards[0].pelican
        report = lead.initial_training(contributor_dataset)
        for shard in self.shards[1:]:
            shard.pelican._general_blob = lead._general_blob
            shard.pelican.cloud = lead.cloud
        self.report.training = self.report.training + report
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return sum(shard.num_users for shard in self.shards)

    @property
    def users(self) -> Dict[int, OnboardedUser]:
        """All onboarded users across shards (read-only merged view)."""
        merged: Dict[int, OnboardedUser] = {}
        for shard in self.shards:
            merged.update(shard.pelican.users)
        return merged

    def shard_of(self, user_id: int) -> int:
        """The shard owning ``user_id`` under this cluster's placement."""
        return self.placement.shard_for(user_id)

    def placement_map(self) -> Dict[int, int]:
        """``user -> shard`` for every currently onboarded user."""
        return {
            uid: shard_id
            for shard_id, shard in enumerate(self.shards)
            for uid in shard.pelican.users
        }

    def merged_chaos(self) -> Dict[str, Any]:
        """Cluster-level chaos counters plus every shard's, summed."""
        return self.chaos.merged(*[shard.chaos for shard in self.shards])

    def signature(self) -> Dict[str, Any]:
        """Aggregated report signature plus the merged chaos counters.

        A non-null resilience policy additionally joins the shared
        ``resilience_*`` overlay; otherwise the key set is exactly the
        legacy one (golden-signature contract).
        """
        signature = overlay_signature(
            self.report.signature(), "chaos_", self.merged_chaos()
        )
        if self.resilience is not None:
            signature = overlay_signature(
                signature, "resilience_", self.resilience_stats.signature()
            )
        return signature

    # ------------------------------------------------------------------
    # Lifecycle events (routed by placement)
    # ------------------------------------------------------------------
    def onboard(
        self,
        user_id: int,
        dataset: SequenceDataset,
        privacy_temperature: Optional[float] = None,
        method: Optional[PersonalizationMethod] = None,
        deployment: Optional[DeploymentMode] = None,
    ) -> OnboardedUser:
        """Onboard one device on its placed shard."""
        home_id = self.placement.shard_for(user_id)
        user = self.shards[home_id].onboard(
            user_id,
            dataset,
            privacy_temperature=privacy_temperature,
            method=method,
            deployment=deployment,
        )
        self._invalidate_elsewhere(user_id, home_id)
        return user

    def update(self, user_id: int, dataset: SequenceDataset) -> OnboardedUser:
        """Phase-4 incremental update on the user's home shard."""
        home_id = self.placement.shard_for(user_id)
        refreshed = self.shards[home_id].update(user_id, dataset)
        self._invalidate_elsewhere(user_id, home_id)
        return refreshed

    def _invalidate_elsewhere(self, user_id: int, home_id: int) -> None:
        """Drop foreign live copies after a (re)deploy to the shared store.

        A past failover may have cached the user's model on another
        shard's live registry; re-registering on the home shard replaces
        the durable blob but not those copies, so they must be evicted or
        a later failover would serve a stale model.  The eviction is
        booked like any other (counter + log), keeping the invalidation
        visible and deterministic.

        Only shards whose live cache actually holds a copy are touched
        (residency probed through the accounting-free
        :meth:`~repro.pelican.registry.ModelRegistry.peek`): the books
        are identical to evicting everywhere — ``evict`` was already a
        no-op on non-resident shards — but each onboard/update stops
        paying an O(K) fan-out for the common case of zero foreign
        copies.
        """
        for shard_id, shard in enumerate(self.shards):
            if shard_id != home_id and shard.registry.peek(user_id) is not None:
                shard.registry.evict(user_id)

    # ------------------------------------------------------------------
    # Query serving
    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[QueryRequest]) -> List[QueryResponse]:
        """Serve concurrent requests, split per home shard, batched per model.

        Responses come back in request order and are bit-identical to
        serving the same requests on one fleet — routing moves whole
        users, and each shard batches its sub-list with the shared
        dispatcher, so every per-model group is the same either way.
        """
        return self._scatter(requests, lambda shard, sub: shard.serve(sub))

    def serve_looped(self, requests: Sequence[QueryRequest]) -> List[QueryResponse]:
        """Reference path: per-shard accounting-neutral one-by-one serving."""
        return self._scatter(requests, lambda shard, sub: shard.serve_looped(sub))

    def close(self) -> None:
        """Close the memory store the cluster made (a caller-provided
        store stays open)."""
        if self._owns_store:
            self.store.close()

    def _scatter(self, requests, serve_one_shard) -> List[QueryResponse]:
        """Split requests by home shard, serve, and merge in request order.

        Responses are renumbered to global request order, so a cluster
        ``serve`` is indistinguishable — response objects included — from
        the same requests served by one fleet.
        """
        responses: List[Optional[QueryResponse]] = [None] * len(requests)
        for shard_id, indices in self._by_shard(requests).items():
            served = serve_one_shard(
                self.shards[shard_id], [requests[i] for i in indices]
            )
            self._merge_shard(shard_id, indices, served, responses, renumber=True)
        return [r for r in responses if r is not None]

    def _merge_shard(
        self,
        shard_id: int,
        indices: List[int],
        served: Sequence[Optional[QueryResponse]],
        responses: List[Optional[QueryResponse]],
        renumber: bool = False,
    ) -> None:
        """Merge one shard's sub-batch back into the global response slots.

        The single gather boundary of every scatter path (direct serving,
        tick routing, failover, and degradation): a shard must answer
        **one slot per request** — ``None`` marks a shed query — and
        anything else is misattribution waiting to happen, so a length
        mismatch raises instead of silently dropping or shifting answers
        onto the wrong requests (the old positional ``zip`` did exactly
        that).
        """
        if len(served) != len(indices):
            raise RuntimeError(
                f"shard {shard_id} returned {len(served)} responses for "
                f"{len(indices)} requests; every shard must return one "
                "slot per request (None for shed queries)"
            )
        for i, response in zip(indices, served):
            if response is None:
                continue
            if renumber:
                response = QueryResponse(
                    user_id=response.user_id,
                    time=response.time,
                    seq=i,
                    top_k=response.top_k,
                    confidences=response.confidences,
                    degraded=response.degraded,
                )
            responses[i] = response

    def _by_shard(
        self, requests: Sequence[QueryRequest]
    ) -> "OrderedDict[int, List[int]]":
        """Request indices per home shard, in first-arrival shard order."""
        by_shard: "OrderedDict[int, List[int]]" = OrderedDict()
        for idx, request in enumerate(requests):
            by_shard.setdefault(self.placement.shard_for(request.user_id), []).append(
                idx
            )
        return by_shard

    # ------------------------------------------------------------------
    # Event clock
    # ------------------------------------------------------------------
    def run(self, schedule: FleetSchedule) -> List[QueryResponse]:
        """Replay a schedule across the shards on the shared event clock.

        The clock runs at cluster level (the single
        :func:`~repro.pelican.clock.replay_schedule` definition), so
        same-tick coalescing, flush-on-lifecycle-event, and response
        ordering are identical to a single-fleet run — which is what the
        K-vs-1 bit-parity tests compare.  Under a chaos policy the
        schedule is first perturbed (offline windows, stragglers, and
        shard-outage deferrals for onboards/updates); queries homed on a
        downed shard are *not* deferred — they fail over.
        """
        return replay_schedule(
            self._prepare(schedule),
            serve=self._serve_tick,
            onboard=lambda e: self.onboard(e.user_id, e.payload, **dict(e.options)),
            update=lambda e: self.update(e.user_id, e.payload),
        )

    def _prepare(self, schedule: FleetSchedule) -> FleetSchedule:
        """Sample outages, apply the chaos perturbation, shed late work."""
        self._outages = {}
        if self.policy is None or self.policy.is_null:
            return schedule
        events = schedule.ordered()
        if not events:
            return schedule
        horizon = (events[0].time, events[-1].time)
        self._outages = sample_shard_outages(
            self.policy, self.num_shards, horizon, self.chaos
        )
        perturbed = perturb_schedule(
            schedule, self.policy, self.chaos, outage_defer=self._outage_defer
        )
        if self.resilience is not None:
            perturbed = shed_late_queries(
                schedule, perturbed, self.resilience, self.resilience_stats
            )
        return perturbed

    def _outage_defer(self, event: FleetEvent, time: float) -> float:
        """Defer lifecycle events on a downed home shard to the outage end.

        Queries pass through untouched — the serving path fails them over
        instead, because a read can be answered elsewhere but an
        onboard/update must reach the user's home shard.
        """
        if event.kind is EventKind.QUERY:
            return time
        for start, end in self._outages.get(
            self.placement.shard_for(event.user_id), ()
        ):
            if start <= time < end:
                time = end
        return time

    def _down(self, shard_id: int, time: float) -> bool:
        return any(start <= time < end for start, end in self._outages.get(shard_id, ()))

    def _serve_tick(
        self, time: float, requests: List[QueryRequest]
    ) -> List[Optional[QueryResponse]]:
        """One coalesced clock-tick batch, routed with outage awareness.

        With circuit breakers configured (DESIGN.md §11), every tick a
        shard receives traffic is a health observation: a downed shard
        takes a strike, enough strikes inside the sliding window open
        its breaker, and an open breaker routes around the shard even
        once its outage window has ended — until the cooldown half-opens
        it and a successful tick closes it again.  ``None`` slots mark
        shed queries; the replay loop skips them.
        """
        responses: List[Optional[QueryResponse]] = [None] * len(requests)
        for shard_id, indices in self._by_shard(requests).items():
            sub = [requests[i] for i in indices]
            down = self._down(shard_id, time)
            breaker = self._breakers.get(shard_id)
            if breaker is None:
                unavailable = down
            else:
                allowed = breaker.allow(time)
                if down:
                    breaker.record_failure(time)
                    unavailable = True
                elif not allowed:
                    self.resilience_stats.breaker_redirects += len(sub)
                    unavailable = True
                else:
                    breaker.record_success(time)
                    unavailable = False
            if unavailable:
                served = self._serve_despite_outage(time, shard_id, sub)
            else:
                served = self.shards[shard_id].serve(sub)
            self._merge_shard(shard_id, indices, served, responses)
        return responses

    def _serve_despite_outage(
        self, time: float, home_id: int, requests: List[QueryRequest]
    ) -> List[Optional[QueryResponse]]:
        """Serve an unavailable shard's tick batch.

        Locally-deployed users answer on their own devices — a cloud
        outage never touches them — while cloud-deployed users fail over,
        each to their first alive failover shard.  Answers are
        bit-identical to the clean run either way; only the cost
        attribution moves.

        When *no* failover shard is alive the behaviour splits on the
        resilience ladder (DESIGN.md §11): with a ladder configured the
        queries degrade through it (stale copy → general model → Markov
        prior, flagged on the response); without one they take the
        legacy path — served on the downed home shard as if it were up —
        and are counted as ``unprotected_outage_queries``, so baselines
        can be penalized for the fiction.  Audit probes always take the
        legacy path: probe answers are fault-invariant by contract
        (DESIGN.md §10), so they are exempt from degradation.
        """
        home = self.shards[home_id]
        responses: List[Optional[QueryResponse]] = [None] * len(requests)
        local: List[int] = []
        degraded: List[int] = []
        by_fallback: "OrderedDict[int, List[int]]" = OrderedDict()
        for i, request in enumerate(requests):
            if home.pelican.users[request.user_id].endpoint.mode != DeploymentMode.CLOUD:
                local.append(i)
                continue
            target = self._failover_target(request.user_id, home_id, time)
            if target is None:
                if self._ladder is not None and not isinstance(
                    request.history, ProbePayload
                ):
                    degraded.append(i)
                    continue
                target = home_id
                if not isinstance(request.history, ProbePayload):
                    self.resilience_stats.unprotected_outage_queries += 1
            by_fallback.setdefault(target, []).append(i)
        if local:
            served = home.serve([requests[i] for i in local])
            self._merge_shard(home_id, local, served, responses)
        for fallback_id, indices in by_fallback.items():
            served = self._serve_failover(
                home, self.shards[fallback_id], [requests[i] for i in indices]
            )
            self._merge_shard(fallback_id, indices, served, responses)
        if degraded:
            served = self._serve_degraded(
                home, [requests[i] for i in degraded]
            )
            self._merge_shard(home_id, degraded, served, responses)
        return responses

    def _failover_target(
        self, user_id: int, home_id: int, time: float
    ) -> Optional[int]:
        """The user's first available failover shard, or ``None``.

        Candidates are the user's own ring successor order
        (:meth:`~repro.pelican.placement.HashPlacement.successors`), so
        failed-over load spreads the way consistent hashing promises.
        With circuit breakers configured, a candidate whose breaker is open is
        skipped *before* its outage state is even probed — the redirect
        that saves a doomed cold load — and downed candidates take a
        breaker strike.  ``None`` means a full-cluster outage: nothing
        is available, and the caller decides between the degradation
        ladder and the legacy serve-on-downed-home path.
        """
        for candidate in self.placement.successors(user_id):
            if candidate == home_id:
                continue
            breaker = self._breakers.get(candidate)
            if breaker is not None and not breaker.allow(time):
                self.resilience_stats.breaker_redirects += 1
                continue
            if self._down(candidate, time):
                if breaker is not None:
                    breaker.record_failure(time)
                continue
            if breaker is not None:
                breaker.record_success(time)
            return candidate
        return None

    def _serve_failover(
        self, home: Fleet, fallback: Fleet, requests: List[QueryRequest]
    ) -> List[Optional[QueryResponse]]:
        """Batched failover serving on ``fallback``, fully cost-accounted.

        Each per-model group cold-loads (or cache-hits) the user's
        checkpoint from the cluster-wide durable store through the
        fallback shard's registry and runs ``fallback``'s group loop
        (:meth:`~repro.pelican.fleet.Fleet._serve_groups`), which books
        the compute and pays the query exchanges on the fallback shard's
        channel — so failed-over traffic is indistinguishable in *shape*
        from native traffic, it just lands in a different shard's book.
        The exchanges go through the home endpoints' single accounting
        boundary, so per-endpoint query conservation survives failover.
        """
        before = fallback.report.queries
        responses = fallback._serve_groups(
            requests,
            lambda user_id, _user: (fallback.registry.get(user_id), None),
            users=home.pelican.users,
            channel=fallback.pelican.channel,
            path="failover",
        )
        self.chaos.failover_queries += fallback.report.queries - before
        return responses

    def _serve_degraded(
        self, home: Fleet, requests: List[QueryRequest]
    ) -> List[Optional[QueryResponse]]:
        """Full-cluster-outage serving through the degradation ladder.

        Each per-model group resolves the best tier the ladder can offer
        (DESIGN.md §11): a still-hot cached copy of the personal model
        (``stale``), the published general model (``general``), or a
        per-user Markov prior fit on the user's own onboarding data
        (``prior``).  Answers are flagged with their tier so accuracy
        splits fresh-vs-degraded.  The home shard's group loop bills
        them like any other cloud group — the compute lands on the home
        shard's book (the front door that produced the degraded answer)
        and the query exchange flows through the endpoint's accounting
        boundary — so query conservation survives degradation.  A group
        no tier can answer is shed (``None`` slots), counted, never
        silently dropped.
        """
        return home._serve_groups(
            requests,
            lambda user_id, user: self._ladder.resolve(
                user_id,
                self._stale_copy,
                home.pelican._general_blob,
                user.local_dataset,
            ),
            channel=home.pelican.channel,
            path="degraded",
        )

    def _stale_copy(self, user_id: int):
        """A still-resident live copy of the user's model, home shard
        first — the ladder's ``stale`` tier (no accounting, no LRU
        effects, no durable-store access: the store is unreachable in a
        full outage)."""
        home_id = self.placement.shard_for(user_id)
        order = [home_id] + [i for i in range(self.num_shards) if i != home_id]
        for shard_id in order:
            model = self.shards[shard_id].registry.peek(user_id)
            if model is not None:
                return model
        return None
