"""Fleet-scale serving on top of :class:`~repro.pelican.system.Pelican`
(DESIGN.md §7).

The orchestrator in ``system.py`` onboards and answers one user at a
time; this module is the production-shaped layer above it that simulates
thousands of devices against one cloud:

* **Batched multi-user serving** — concurrent query requests are grouped
  per personal model and each group is dispatched through the graph-free
  fused inference path in *one* GEMM stack
  (:mod:`repro.pelican.dispatch`).  Predictions are identical to the
  per-query loop (rankings exactly, confidences to float round-off);
  only the cost changes.
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

The event clock, the dispatcher, and the accounting are shard-agnostic
components (``clock.py``, ``dispatch.py``, ``accounting.py``); a
``Fleet`` is the one-cloud composition of them, and
:class:`~repro.pelican.cluster.Cluster` composes N of these fleets into a
sharded cloud (DESIGN.md §9).  Their historical names are re-exported
here, so ``from repro.pelican.fleet import FleetSchedule`` keeps working.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.data.dataset import SequenceDataset
from repro.pelican.accounting import FleetReport
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
from repro.pelican.device import CLOUD_SERVER, LOW_END_PHONE, DeviceProfile
from repro.pelican.dispatch import (
    ProbePayload,
    dispatch_model_batch,
    dispatch_prior_batch,
    dispatch_tick,
    group_requests,
    probe_response,
    serve_probe_group,
)
from repro.pelican.registry import ModelRegistry
from repro.pelican.resilience import ResiliencePolicy, ResilienceStats

# Kept resolvable for perfbench/tracing.py's span sites (see stacking.py).
from repro.pelican.stacking import stacked_path_removed as dispatch_stacked_tick  # noqa: F401
from repro.pelican.storage import BlobStore
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
    cloud_profile / device_profile:
        Hardware models used to convert per-side MACs into simulated
        seconds; ``device_profile`` is also the default onboarding device.
    registry_store:
        Optional shared durable blob store — any
        :class:`~repro.pelican.storage.BlobStore` or plain dict.  A
        standalone fleet keeps its own in-memory store; cluster shards
        pass one shared store so every shard can cold-load any user's
        checkpoint during failover (DESIGN.md §9, §14).  Store choice
        never moves responses or signatures.
    resilience / resilience_stats:
        Optional fault-handling policy and its stats book (DESIGN.md
        §11).  A bare fleet has no faults to handle, so these only bite
        through the chaos subclass — but they live here so every serving
        layer exposes the same ``resilience_stats`` surface, and so a
        cluster can share one stats book across its shards.  ``None``
        policy (or the null policy) leaves behaviour byte-identical.
    """

    def __init__(
        self,
        pelican: Pelican,
        registry_capacity: Optional[int] = 64,
        cloud_profile: DeviceProfile = CLOUD_SERVER,
        device_profile: DeviceProfile = LOW_END_PHONE,
        registry_store: Optional[Union[Dict[int, bytes], BlobStore]] = None,
        resilience: Optional[ResiliencePolicy] = None,
        resilience_stats: Optional[ResilienceStats] = None,
    ) -> None:
        self.pelican = pelican
        self._registry_store = registry_store
        self.resilience = resilience
        self.resilience_stats = (
            resilience_stats if resilience_stats is not None else ResilienceStats()
        )
        self.registry = self._make_registry(registry_capacity, pelican.config.seed)
        self.cloud_profile = cloud_profile
        self.device_profile = device_profile
        self._profiles: Dict[int, DeviceProfile] = {}
        self.report = FleetReport(
            cloud_profile=cloud_profile,
            device_profile=device_profile,
            registry=self.registry.stats,
        )
        # Adopt users already onboarded through the bare Pelican API:
        # cloud-deployed models must be in the registry before serving.
        for user_id, user in pelican.users.items():
            if user.endpoint.mode == DeploymentMode.CLOUD:
                self.registry.register(user_id, user.endpoint.predictor.model)

    def _make_registry(self, capacity: Optional[int], seed: int) -> ModelRegistry:
        """Registry factory hook; the chaos layer substitutes a flaky one."""
        return ModelRegistry(capacity=capacity, seed=seed, store=self._registry_store)

    @property
    def num_users(self) -> int:
        return len(self.pelican.users)

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
        profile: Optional[DeviceProfile] = None,
    ) -> OnboardedUser:
        """Onboard one device: personalize, deploy, register if cloud-mode."""
        profile = profile or self.device_profile
        user = self.pelican.onboard_user(
            user_id,
            dataset,
            privacy_temperature=privacy_temperature,
            method=method,
            deployment=deployment,
            profile=profile,
        )
        self._profiles[user_id] = profile
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
        profile = self._profiles.get(user_id, self.device_profile)
        self.report.updates += 1
        self.report.device_compute += refreshed.personalization_report
        self.report.device_simulated_seconds += profile.simulated_seconds(
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
        (identical rankings; confidences to within float round-off — see
        DESIGN.md §7).

        Audit probe batches (:class:`~repro.pelican.dispatch.ProbePayload`,
        DESIGN.md §10) ride the same path in their own groups: same
        registry resolution, same accounting boundaries, but answered
        with per-probe confidences and additionally mirrored into the
        report's adversary attribution overlay.
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
        2. **Compute** every neural prediction group, local and cloud, in
           :meth:`_compute_groups` (one grouped kernel per shape bucket,
           DESIGN.md §7).
        3. **Bill** in arrival order through :meth:`_serve_group` on this
           fleet's report, which also answers what phase 2 left (probes,
           the ``prior`` tier, reference-backend models).

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
            user = users[user_id]
            model, tier = resolve(user_id, user)
            groups.append(_Group(user, model, tier, k, is_probe, indices))
        served = self._compute_groups(requests, groups)
        responses: List[Optional[QueryResponse]] = [None] * len(requests)
        for (user, model, tier, k, is_probe, indices), result in zip(groups, served):
            if model is None:
                self.resilience_stats.shed_queries += len(indices)
                continue
            self._serve_group(
                requests,
                indices,
                responses,
                user,
                model,
                k,
                is_probe,
                tier=tier,
                served=result,
                channel=channel,
                path=path,
            )
        self._sync_network()
        return responses

    def _compute_groups(
        self,
        requests: Sequence[QueryRequest],
        groups: Sequence[_Group],
    ) -> List[Optional[Tuple[List, ResourceReport]]]:
        """Answers for every resolved prediction group a tick kernel can
        serve, aligned with ``groups``; ``None`` for the rest.

        Every neural prediction group goes through one
        :func:`~repro.pelican.dispatch.dispatch_tick` call.
        """
        served: List[Optional[Tuple[List, ResourceReport]]] = [None] * len(groups)
        pending = [
            pos
            for pos, group in enumerate(groups)
            if group.model is not None and not group.is_probe and group.tier != "prior"
        ]
        tick_groups = [
            (group.model, [requests[i].history for i in group.indices], group.k)
            for group in (groups[pos] for pos in pending)
        ]
        for pos, result in zip(pending, dispatch_tick(self.pelican.spec, tick_groups)):
            served[pos] = result
        return served

    def _serve_group(
        self,
        requests: Sequence[QueryRequest],
        indices: List[int],
        responses: List[Optional[QueryResponse]],
        user: OnboardedUser,
        model: Any,
        k: int,
        is_probe: bool,
        tier: Optional[str] = None,
        served: Optional[Tuple[List, ResourceReport]] = None,
        channel: Optional[Channel] = None,
        path: Optional[str] = None,
    ) -> None:
        """Answer one group with ``model`` and bill it, filling its
        response slots.

        Compute runs on the device for a local deployment (``model`` is
        the device's own, and its predictor's query count is bumped as
        its ``top_k_batch`` would) and on this fleet's cloud otherwise;
        ``served`` carries the results and booked compute
        :meth:`_compute_groups` already produced, a group without them is
        dispatched per model, and the ladder's ``prior`` tier answers
        from a Markov table with no compute to book.  The query exchange
        always goes through the endpoint's single accounting boundary.  A degraded ``tier`` flags the
        answers and is counted in the resilience book.  Probe groups
        bill through :func:`~repro.pelican.dispatch.serve_probe_group`.
        """
        histories = [requests[i].history for i in indices]
        user_id = user.user_id
        device = user.endpoint.mode != DeploymentMode.CLOUD
        profile = self._profiles.get(user_id, self.device_profile) if device else None
        if is_probe:
            results, _ = serve_probe_group(
                model,
                self.pelican.spec,
                histories,
                self.report,
                user.endpoint,
                channel=channel,
                label="query" if path is None else f"{path}-probe",
                profile=profile,
            )
            for i, confidences in zip(indices, results):
                responses[i] = probe_response(user_id, i, confidences)
            return
        compute: Optional[ResourceReport] = None
        if served is not None:
            results, compute = served
        elif tier == "prior":
            results = dispatch_prior_batch(model, histories, k)
        else:
            results, compute = dispatch_model_batch(
                model, self.pelican.spec, histories, k
            )
        if device:
            user.endpoint.predictor.query_count += len(indices)
            self.report.device_compute += compute
            self.report.device_simulated_seconds += profile.simulated_seconds(
                compute.macs
            )
            user.endpoint.record_query_exchange(len(indices))
        else:
            if compute is not None:
                self.report.cloud_compute += compute
            user.endpoint.record_query_exchange(
                len(indices),
                channel=channel,
                label="query" if path is None else f"{path}-query",
            )
        self.report.batches += 1
        self.report.queries += len(indices)
        if tier is not None:
            self.resilience_stats.count_degraded(tier, len(indices))
            self.resilience_stats.full_outage_queries += len(indices)
        for i, top in zip(indices, results):
            responses[i] = QueryResponse(
                user_id=user_id, time=0.0, seq=i, top_k=tuple(top), degraded=tier
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
        ``(time, seq)``.
        """
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
