"""Fleet-scale serving on top of :class:`~repro.pelican.system.Pelican`
(DESIGN.md §7).

The orchestrator in ``system.py`` onboards and answers one user at a
time; this module is the production-shaped layer above it that simulates
thousands of devices against one cloud:

* **Batched multi-user serving** — concurrent query requests are grouped
  per personal model; a flush resolves every group, computes every
  group (neural prediction groups in one tick kernel call,
  :func:`~repro.pelican.dispatch.dispatch_tick`, at each model's own
  GEMM shapes), then bills every group, prediction or audit probe, in
  one place (:meth:`Fleet._serve_group`).  Each group's answers are
  bit-identical to dispatching it alone.  Against the per-query loop,
  rankings are identical and confidences agree to BLAS round-off; only
  the cost changes.
* **Cloud model registry** — cloud-deployed personal models live in a
  capacity-bounded :class:`~repro.pelican.registry.ModelRegistry` with
  LRU eviction and serialization-backed cold loads, modeling a cloud that
  cannot keep every personal model hot.
* **Deterministic event clock** — interleaved onboard/update/query
  workloads are described by a
  :class:`~repro.pelican.clock.FleetSchedule` and replayed in
  ``(time, seq)`` order through the shared
  :func:`~repro.pelican.clock.replay_schedule` loop.
* **Per-side accounting** — every event's MACs are attributed to the side
  that executed it and converted to simulated seconds in a
  :class:`~repro.pelican.accounting.FleetReport`.

* **Fault injection** — an optional chaos policy (DESIGN.md §8).

The event clock, the dispatcher, and the accounting are shard-agnostic
components (``clock.py``, ``dispatch.py``, ``accounting.py``); a
``Fleet`` is the one-cloud composition of them, and
:class:`~repro.pelican.cluster.Cluster` composes N of these fleets into a
sharded cloud (DESIGN.md §9).  Their historical names are re-exported
here, so ``from repro.pelican.fleet import FleetSchedule`` keeps working.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.data.dataset import SequenceDataset
from repro.data.features import FeatureSpec
from repro.pelican.accounting import FleetReport, overlay_signature
from repro.pelican.chaos import (
    ChaosPolicy,
    ChaosStats,
    FaultyChannel,
    FlakyModelRegistry,
    faulty_schedule,
)
from repro.pelican.clock import (
    EventKind,
    FleetEvent,
    FleetSchedule,
    QueryRequest,
    QueryResponse,
    replay_schedule,
)
from repro.pelican.cloud import ResourceReport
from repro.pelican.deployment import DeploymentMode
from repro.pelican.device import LOW_END_PHONE
from repro.pelican.dispatch import (
    ProbePayload,
    dispatch_model_batch,
    dispatch_prior_batch,
    dispatch_probe_batch,
    dispatch_tick,
    group_requests,
)
from repro.pelican.registry import ModelRegistry
from repro.pelican.resilience import ResiliencePolicy, ResilienceStats

# Kept resolvable for perfbench/tracing.py's span sites (see stacking.py).
from repro.pelican.stacking import stacked_path_removed as dispatch_stacked_tick  # noqa: F401
from repro.pelican.storage import BlobStore, MemoryBlobStore
from repro.pelican.system import OnboardedUser, Pelican
from repro.pelican.transport import Channel
from repro.models.personalize import PersonalizationMethod

__all__ = [
    "EventKind",
    "Fleet",
    "FleetEvent",
    "FleetReport",
    "FleetSchedule",
    "QueryRequest",
    "QueryResponse",
]

#: Resolves one request group's model: ``(user_id, user) -> (model,
#: degraded tier)``.  A ``None`` model sheds the group; a tier other than
#: ``None`` flags its answers as degraded (DESIGN.md §11).
Resolver = Callable[[int, OnboardedUser], Tuple[Any, Optional[str]]]

#: One group's answers after the compute phase: ``(results, compute)`` —
#: top-k lists or per-payload probe confidences, and the compute to book
#: (``None`` for the ``prior`` tier, which runs no GEMMs).
Computed = Tuple[List[Any], Optional[ResourceReport]]


class _Group(NamedTuple):
    """One request group after the resolve phase of :meth:`Fleet._serve_groups`."""

    user: OnboardedUser
    model: Any
    tier: Optional[str]
    k: int
    is_probe: bool
    indices: List[int]


class Fleet:
    """Many simulated devices served by one Pelican cloud.

    Wraps a :class:`~repro.pelican.system.Pelican` (which keeps per-user
    truth: endpoints, datasets, the shared channel) and adds the serving
    machinery: the model registry for cloud deployments, batched query
    dispatch, the event clock, and per-side accounting.

    Parameters
    ----------
    pelican:
        The underlying orchestrator.  Its general model must be trained
        (``initial_training``) before devices onboard — do it directly or
        via :meth:`train_cloud` to have the cost attributed to the fleet
        report.
    registry_capacity:
        Live-model budget of the cloud registry (``None`` = unbounded).
    registry_store:
        Optional shared durable :class:`~repro.pelican.storage.BlobStore`.
        A standalone fleet keeps its own in-memory store; cluster shards
        pass one shared store so every shard can cold-load any user's
        checkpoint during failover (DESIGN.md §9, §14).  Store choice
        never moves responses or signatures.
    resilience / resilience_stats:
        Optional fault-handling policy and its stats book (DESIGN.md
        §11); a cluster shares one stats book across its shards.  A null
        policy is stored as ``None``; either leaves behaviour
        byte-identical.
    policy:
        Optional :class:`~repro.pelican.chaos.ChaosPolicy` (DESIGN.md §8):
        the shared channel (and every deployed endpoint) is rewired to a
        :class:`~repro.pelican.chaos.FaultyChannel`, cold loads go
        through a :class:`~repro.pelican.chaos.FlakyModelRegistry`, and
        :meth:`run` perturbs its schedule.  The null policy is an exact
        identity apart from the ``chaos_*`` signature overlay.

    Construction **takes ownership** of ``pelican``: hand each fleet its
    own ``copy.deepcopy`` of a shared one.
    """

    def __init__(
        self,
        pelican: Pelican,
        registry_capacity: Optional[int] = 64,
        registry_store: Optional[BlobStore] = None,
        resilience: Optional[ResiliencePolicy] = None,
        resilience_stats: Optional[ResilienceStats] = None,
        policy: Optional[ChaosPolicy] = None,
    ) -> None:
        self.pelican = pelican
        self.policy = policy
        self.chaos = ChaosStats()
        if resilience is not None and resilience.is_null:
            resilience = None
        self.resilience = resilience
        self.resilience_stats = (
            resilience_stats if resilience_stats is not None else ResilienceStats()
        )
        #: The durable checkpoint store behind the registry.
        self.store = MemoryBlobStore() if registry_store is None else registry_store
        seed = pelican.config.seed
        if policy is None:
            self.registry = ModelRegistry(
                capacity=registry_capacity,
                seed=seed,
                store=self.store,
                orchestrator=pelican,
            )
        else:
            faulty = FaultyChannel.wrap(
                pelican.channel,
                policy,
                self.chaos,
                resilience=resilience,
                resilience_stats=self.resilience_stats,
            )
            pelican.channel = faulty
            for user in pelican.users.values():
                if user.endpoint.channel is not None:
                    user.endpoint.channel = faulty
            self.registry = FlakyModelRegistry(
                capacity=registry_capacity,
                seed=seed,
                policy=policy,
                chaos=self.chaos,
                store=self.store,
                resilience=resilience,
                resilience_stats=self.resilience_stats,
                orchestrator=pelican,
            )
        self.report = FleetReport(registry=self.registry.stats)
        # Adopt users already onboarded through the bare Pelican API:
        # cloud-deployed models must be in the registry before serving.
        for user_id, user in pelican.users.items():
            if user.endpoint.mode == DeploymentMode.CLOUD:
                self.registry.register(user_id, user.endpoint.predictor.model)

    @property
    def num_users(self) -> int:
        return len(self.pelican.users)

    @property
    def users(self) -> Dict[int, OnboardedUser]:
        return self.pelican.users

    @property
    def spec(self) -> FeatureSpec:
        return self.pelican.spec

    def merged_chaos(self) -> Dict[str, Any]:
        """The chaos counters, as :meth:`Cluster.merged_chaos
        <repro.pelican.cluster.Cluster.merged_chaos>` reports them."""
        return self.chaos.signature()

    def signature(self) -> Dict[str, Any]:
        """Report signature plus the ``chaos_*`` overlay (only under a
        policy) and the ``resilience_*`` one (only when resilience is
        active): a bare fleet's key set is the report's."""
        signature = self.report.signature()
        if self.policy is not None:
            signature = overlay_signature(signature, "chaos_", self.chaos.signature())
        if self.resilience is not None:
            signature = overlay_signature(
                signature, "resilience_", self.resilience_stats.signature()
            )
        return signature

    # ------------------------------------------------------------------
    # Lifecycle events
    # ------------------------------------------------------------------
    def train_cloud(self, contributor_dataset: SequenceDataset) -> ResourceReport:
        """Phase-1 general-model training, attributed to the cloud side."""
        report = self.pelican.initial_training(contributor_dataset)
        self.report.cloud_compute += report
        self._sync_network()
        return report

    def onboard(
        self,
        user_id: int,
        dataset: SequenceDataset,
        privacy_temperature: Optional[float] = None,
        method: Optional[PersonalizationMethod] = None,
        deployment: Optional[DeploymentMode] = None,
    ) -> OnboardedUser:
        """Onboard one device: personalize, deploy, register if cloud-mode."""
        user = self.pelican.onboard_user(
            user_id,
            dataset,
            privacy_temperature=privacy_temperature,
            method=method,
            deployment=deployment,
        )
        self.report.onboards += 1
        self.report.device_compute += user.personalization_report
        self.report.device_simulated_seconds += user.simulated_device_seconds
        if user.endpoint.mode == DeploymentMode.CLOUD:
            self.registry.register(user_id, user.endpoint.predictor.model)
        self._sync_network()
        return user

    def update(self, user_id: int, dataset: SequenceDataset) -> OnboardedUser:
        """Phase-4 incremental update, attributed to the user's device."""
        refreshed = self.pelican.update_user(user_id, dataset)
        self.report.updates += 1
        self.report.device_compute += refreshed.personalization_report
        self.report.device_simulated_seconds += LOW_END_PHONE.simulated_seconds(
            refreshed.personalization_report.macs
        )
        if refreshed.endpoint.mode == DeploymentMode.CLOUD:
            self.registry.register(user_id, refreshed.endpoint.predictor.model)
        self._sync_network()
        return refreshed

    # ------------------------------------------------------------------
    # Query serving
    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[QueryRequest]) -> List[QueryResponse]:
        """Serve concurrent requests batched per model.

        Requests are grouped by ``(user, window length, k)`` in arrival
        order (:func:`~repro.pelican.dispatch.group_requests`); each group
        runs as one fused inference dispatch.  Answers come back in
        request order and match :meth:`serve_looped` on the same requests
        (identical rankings; confidences to within BLAS round-off — see
        DESIGN.md §7).

        Audit probe batches (:class:`~repro.pelican.dispatch.ProbePayload`,
        DESIGN.md §10) ride the same path in their own groups: same
        registry resolution, same billing (:meth:`_serve_group`), but
        answered with per-probe confidences and additionally mirrored
        into the report's adversary attribution overlay.
        """
        responses = self._serve_groups(requests, self._resolve)
        return [r for r in responses if r is not None]

    def _resolve(self, user_id: int, user: OnboardedUser) -> Tuple[Any, None]:
        """The home model of one group: the registry's live copy for a
        cloud deployment (cold-loading if evicted), the device's own
        model otherwise."""
        if user.endpoint.mode == DeploymentMode.CLOUD:
            return self.registry.get(user_id), None
        return user.endpoint.predictor.model, None

    def _serve_groups(
        self,
        requests: Sequence[QueryRequest],
        resolve: Resolver,
        users: Optional[Dict[int, OnboardedUser]] = None,
        channel: Optional[Channel] = None,
        path: Optional[str] = None,
    ) -> List[Optional[QueryResponse]]:
        """The one serving loop: group, then resolve, compute and bill.

        Each phase keeps one leg of the per-group determinism contract:

        1. **Resolve** every group's model through ``resolve`` in arrival
           order — :meth:`_resolve` on the home fleet, a fallback shard's
           registry on cluster failover, or the degradation ladder
           (DESIGN.md §9, §11) — so registry ``get`` order, LRU order and
           a flaky registry's draws are those of a group-by-group loop.
        2. **Compute** every resolved group, of every kind, in
           :meth:`_compute_groups`.  Compute touches no book, channel or
           shared random stream, so it may run before any group is billed.
        3. **Bill** in arrival order through :meth:`_serve_group`, the one
           billing definition for prediction and probe groups alike.

        ``users`` holds the endpoints that pay the query exchanges (the
        home shard's, on failover).  A rerouted ``path`` (``"failover"``,
        ``"degraded"``) sends its exchanges over ``channel``, labelled
        ``{path}-query`` / ``{path}-probe``.  A group the resolver cannot
        answer (``None`` model) is shed and counted; its slots stay
        ``None``.
        """
        users = self.pelican.users if users is None else users
        groups = []
        for (user_id, _, k, is_probe), indices in group_requests(requests).items():
            user = users.get(user_id)
            if user is None:
                raise KeyError(f"user {user_id} is not onboarded on this fleet")
            model, tier = resolve(user_id, user)
            groups.append(_Group(user, model, tier, k, is_probe, indices))
        computed = self._compute_groups(requests, groups)
        responses: List[Optional[QueryResponse]] = [None] * len(requests)
        for group, served in zip(groups, computed):
            if group.model is None:
                self.resilience_stats.shed_queries += len(group.indices)
            else:
                self._serve_group(requests, group, served, responses, channel, path)
        self._sync_network()
        return responses

    def _compute_groups(
        self,
        requests: Sequence[QueryRequest],
        groups: Sequence[_Group],
    ) -> List[Optional[Computed]]:
        """Every group's :data:`Computed` answers, aligned with ``groups``;
        ``None`` for a shed group (``None`` model).

        Neural prediction groups go through one
        :func:`~repro.pelican.dispatch.dispatch_tick` call and the
        reference-backend models it leaves through
        :func:`~repro.pelican.dispatch.dispatch_model_batch`; probe groups
        through :func:`~repro.pelican.dispatch.dispatch_probe_batch`; the
        ladder's ``prior`` tier through
        :func:`~repro.pelican.dispatch.dispatch_prior_batch`, a table
        lookup with ``None`` compute.  Each helper builds fresh predictors
        and release defenses are seeded per probe, so no answer depends
        on what was billed before it.
        """
        spec = self.pelican.spec
        computed: List[Optional[Computed]] = [None] * len(groups)
        pending: List[int] = []
        tick_groups = []
        for pos, (_, model, tier, k, is_probe, indices) in enumerate(groups):
            if model is None:
                continue
            histories = [requests[i].history for i in indices]
            if is_probe:
                computed[pos] = dispatch_probe_batch(model, spec, histories)
            elif tier == "prior":
                computed[pos] = dispatch_prior_batch(model, histories, k), None
            else:
                pending.append(pos)
                tick_groups.append((model, histories, k))
        ticked = dispatch_tick(spec, tick_groups)
        for pos, (model, histories, k), result in zip(pending, tick_groups, ticked):
            if result is None:
                result = dispatch_model_batch(model, spec, histories, k)
            computed[pos] = result
        return computed

    def _serve_group(
        self,
        requests: Sequence[QueryRequest],
        group: _Group,
        served: Computed,
        responses: List[Optional[QueryResponse]],
        channel: Optional[Channel] = None,
        path: Optional[str] = None,
    ) -> None:
        """Bill one computed group and fill its response slots — the one
        billing definition for every group kind.

        Compute runs on the device for a local deployment and on this
        fleet's cloud otherwise; ``None`` compute (the ``prior`` tier)
        books nothing.  The query exchange always goes through the
        endpoint's single accounting boundary, one exchange per query or
        per probe.  A degraded ``tier`` flags a prediction group's answers
        and is counted in the resilience book.

        A probe group (DESIGN.md §10) lands in the normal books like any
        other and every cost is mirrored into the report's ``adversary_*``
        overlay, so ``benign = total − adversary`` holds on every serving
        path; its answers carry per-probe confidences and no top-k.
        """
        user, _, tier, _, is_probe, indices = group
        results, compute = served
        report = self.report
        endpoint = user.endpoint
        if is_probe:
            count = sum(requests[i].history.num_probes for i in indices)
        else:
            count = len(indices)
        if endpoint.mode != DeploymentMode.CLOUD:
            seconds = LOW_END_PHONE.simulated_seconds(compute.macs)
            report.device_compute += compute
            report.device_simulated_seconds += seconds
            if is_probe:
                report.adversary_device_compute += compute
                report.adversary_device_simulated_seconds += seconds
            else:
                endpoint.predictor.query_count += count
            endpoint.record_query_exchange(count)
        else:
            if compute is not None:
                report.cloud_compute += compute
            kind = "probe" if is_probe else "query"
            seconds = endpoint.record_query_exchange(
                count,
                channel=channel,
                label="query" if path is None else f"{path}-{kind}",
            )
            if is_probe:
                report.adversary_cloud_compute += compute
                report.adversary_network_seconds += seconds
        report.batches += 1
        report.queries += count
        if is_probe:
            report.adversary_batches += 1
            report.adversary_queries += count
            for i, confidences in zip(indices, results):
                responses[i] = QueryResponse(
                    user_id=user.user_id,
                    time=0.0,
                    seq=i,
                    top_k=(),
                    confidences=tuple(float(c) for c in confidences),
                )
            return
        if tier is not None:
            self.resilience_stats.count_degraded(tier, count)
            self.resilience_stats.full_outage_queries += count
        for i, top in zip(indices, results):
            responses[i] = QueryResponse(
                user_id=user.user_id, time=0.0, seq=i, top_k=tuple(top), degraded=tier
            )

    def serve_looped(self, requests: Sequence[QueryRequest]) -> List[QueryResponse]:
        """Reference implementation: one endpoint query per request.

        This is the seed serving path (``Pelican.query`` in a loop), kept
        as the executable specification for :meth:`serve` and as the slow
        side of the fleet benchmark.  It is accounting-neutral: the
        registry, the fleet report, endpoint stats, and channel traffic
        are all left exactly as they were, so running a parity check (or
        the benchmark) never perturbs the books of the batched path.

        It specifies *prediction* serving only: audit probe batches have
        their own per-probe reference path
        (:func:`repro.attacks.fleet_adversary.run_fleet_audit_looped`),
        so they are rejected here rather than failing opaquely inside
        feature encoding.
        """
        for request in requests:
            if isinstance(request.history, ProbePayload):
                raise TypeError(
                    "serve_looped serves prediction requests only; audit "
                    "probe batches replay through run_fleet_audit_looped "
                    "(DESIGN.md §10)"
                )
        channel_state = self.pelican.channel.checkpoint()
        stats_state = {
            uid: (
                u.endpoint.stats.queries,
                u.endpoint.stats.simulated_network_seconds,
                u.endpoint.predictor.query_count,
            )
            for uid, u in self.pelican.users.items()
        }
        try:
            return [
                QueryResponse(
                    user_id=r.user_id,
                    time=0.0,
                    seq=i,
                    top_k=tuple(self.pelican.query(r.user_id, r.history, r.k)),
                )
                for i, r in enumerate(requests)
            ]
        finally:
            self.pelican.channel.rollback(channel_state)
            for uid, (queries, seconds, query_count) in stats_state.items():
                endpoint = self.pelican.users[uid].endpoint
                endpoint.stats.queries = queries
                endpoint.stats.simulated_network_seconds = seconds
                endpoint.predictor.query_count = query_count

    # ------------------------------------------------------------------
    # Event clock
    # ------------------------------------------------------------------
    def run(self, schedule: FleetSchedule) -> List[QueryResponse]:
        """Replay a schedule on the simulated event clock.

        Delegates to the shared :func:`~repro.pelican.clock.replay_schedule`
        loop: events execute in ``(time, seq)`` order, maximal runs of
        consecutive same-tick QUERY events serve as one :meth:`serve`
        batch, and any other event flushes the pending batch first.
        Responses come back in event order, tagged with their event's
        ``(time, seq)``.  A chaos policy first perturbs the schedule
        (:func:`~repro.pelican.chaos.faulty_schedule`).
        """
        if self.policy is not None:
            schedule = faulty_schedule(
                schedule,
                self.policy,
                self.chaos,
                self.resilience,
                self.resilience_stats,
            )
        return replay_schedule(
            schedule,
            serve=lambda _time, requests: self.serve(requests),
            onboard=lambda e: self.onboard(e.user_id, e.payload, **dict(e.options)),
            update=lambda e: self.update(e.user_id, e.payload),
        )

    # ------------------------------------------------------------------
    def _sync_network(self) -> None:
        """Mirror the shared channel's totals into the fleet report."""
        channel = self.pelican.channel
        self.report.network_seconds = channel.total_simulated_seconds
        self.report.network_bytes_up = channel.bytes_up
        self.report.network_bytes_down = channel.bytes_down
