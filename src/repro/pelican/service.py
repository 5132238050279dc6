"""The service front door: admission control + latency/SLO accounting
(DESIGN.md §15).

:class:`ServiceFrontDoor` turns a :class:`~repro.pelican.fleet.Fleet`
or :class:`~repro.pelican.cluster.Cluster` into a *service*: requests
arrive at their own times (typically compiled by
:class:`~repro.traffic.TrafficGenerator`), pass through a deterministic
admission-control queue with a **micro-batching window** (flush after
``window`` simulated seconds or ``max_batch`` pending requests,
whichever comes first), and only then hit the batch dispatcher.  The
queue is a single simulated dispatcher: each flush occupies it for
``service_overhead + per_query_seconds · n`` simulated seconds, so under
overload requests visibly queue — and over-capacity arrivals are
rejected at the door while requests whose queueing delay blows the
resilience deadline are shed through the resilience layer's *existing*
shed path (:func:`~repro.pelican.resilience.shed_late_queries`).

The implementation trick that keeps every lower layer honest: admission
produces a **rebatched schedule** — query event times are replaced by
their flush times (seqs preserved), lifecycle events and audit probes
pass through untouched — and the fleet replays it through the ordinary
``run``.  Micro-batches become same-tick coalesced batches on the event
clock, so chaos perturbation, resilience, shards and blob stores all
apply to front-door traffic completely unchanged.

The :class:`LatencyBook` sits alongside the MAC/seconds books: per
answered request it decomposes simulated latency into queueing (arrival
→ flush), chaos deferral (flush → effective serve time, via the
perturbed time responses already carry) and service time, then reports
nearest-rank p50/p95/p99 and SLO attainment.  Its projection joins the
report signature as a ``service_*`` overlay through
:func:`~repro.pelican.accounting.overlay_signature` — applied **only**
when a front door was actually used, so runs without one keep the exact
legacy signature key set (the committed goldens pin this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.pelican.accounting import overlay_signature
from repro.pelican.clock import (
    EventKind,
    FleetEvent,
    FleetSchedule,
    QueryResponse,
)
from repro.pelican.dispatch import ProbePayload
from repro.pelican.resilience import DEFAULT_QUERY_DEADLINE, shed_late_queries

__all__ = [
    "LatencyBook",
    "ServiceConfig",
    "ServiceFrontDoor",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Admission-control knobs, all in simulated seconds.

    ``window == 0`` together with ``max_batch == 1`` is per-request
    admission — every arrival flushes on its own (the benchmark
    baseline micro-batching is measured against).  ``queue_capacity``
    bounds the pending queue; arrivals past it are rejected at the door
    (``None`` = unbounded).  ``deadline`` is the SLO bar the latency
    book scores against; when unset it falls back to the fleet's
    resilience deadline, then to
    :data:`~repro.pelican.resilience.DEFAULT_QUERY_DEADLINE`.
    """

    window: float = 0.05
    max_batch: int = 16
    queue_capacity: Optional[int] = 256
    service_overhead: float = 0.002
    per_query_seconds: float = 0.0005
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("micro-batch window must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None)")
        if self.service_overhead < 0 or self.per_query_seconds < 0:
            raise ValueError("service costs must be >= 0")

    def service_seconds(self, batch_size: int) -> float:
        """Simulated dispatcher occupancy of one flush of ``batch_size``."""
        return self.service_overhead + self.per_query_seconds * batch_size


@dataclass(frozen=True)
class ServiceRequest:
    """One typed front-door request: a query with an arrival time."""

    time: float
    user_id: int
    history: Any
    k: int = 3


@dataclass(frozen=True)
class ServiceResponse:
    """One typed front-door answer.

    ``status`` is ``"ok"`` (answered, ``response``/``latency`` filled),
    ``"rejected"`` (bounced at the admission queue) or ``"shed"``
    (admitted but dropped by the resilience deadline / degradation
    paths).
    """

    status: str
    request: ServiceRequest
    response: Optional[QueryResponse] = None
    latency: Optional[float] = None


@dataclass
class ServiceStats:
    """What the admission queue did to one workload (all deterministic)."""

    generated: int = 0
    admitted: int = 0
    rejected: int = 0
    flushes: int = 0
    max_queue_depth: int = 0

    def signature(self) -> Dict[str, Any]:
        return {
            "generated": self.generated,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "flushes": self.flushes,
            "max_queue_depth": self.max_queue_depth,
        }


def _nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile — deterministic, no interpolation."""
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = math.ceil(q * n / 100.0)
    return sorted_values[max(1, min(n, rank)) - 1]


@dataclass
class LatencyBook:
    """Per-request simulated latency accounting (DESIGN.md §15).

    Latency decomposes as ``queue + defer + service``: arrival → flush
    (micro-batching + busy dispatcher), flush → effective serve tick
    (chaos deferral; response times already carry the perturbed tick),
    and the flush's dispatcher occupancy.  Everything is simulated-clock
    float arithmetic in a fixed order, so the book — percentiles
    included — is bit-deterministic for one seed.
    """

    deadline: float = DEFAULT_QUERY_DEADLINE
    latencies: List[float] = field(default_factory=list)
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    defer_seconds: float = 0.0
    on_time: int = 0
    #: Denominator for SLO attainment: every generated query counts, so
    #: rejected/shed traffic hurts attainment instead of vanishing.
    generated: int = 0

    def observe(
        self, queue: float, defer: float, service: float
    ) -> float:
        latency = queue + defer + service
        self.latencies.append(latency)
        self.queue_seconds += queue
        self.defer_seconds += defer
        self.service_seconds += service
        if latency <= self.deadline:
            self.on_time += 1
        return latency

    @property
    def answered(self) -> int:
        return len(self.latencies)

    def percentile(self, q: float) -> float:
        return _nearest_rank(sorted(self.latencies), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def slo_attainment(self) -> float:
        """Fraction of *generated* queries answered within the deadline."""
        if not self.generated:
            return 1.0
        return self.on_time / self.generated

    def signature(self) -> Dict[str, Any]:
        return {
            "answered": self.answered,
            "queue_seconds": self.queue_seconds,
            "defer_seconds": self.defer_seconds,
            "service_seconds": self.service_seconds,
            "p50_latency": self.p50,
            "p95_latency": self.p95,
            "p99_latency": self.p99,
            "max_latency": max(self.latencies) if self.latencies else 0.0,
            "on_time": self.on_time,
            "slo_deadline": self.deadline,
            "slo_attainment": self.slo_attainment,
        }


def _is_prediction_query(event: FleetEvent) -> bool:
    return event.kind is EventKind.QUERY and not isinstance(
        event.payload, ProbePayload
    )


class ServiceFrontDoor:
    """Admission control + latency accounting over a fleet or cluster.

    One front door serves one workload run (books accumulate across
    :meth:`run` calls on the same fleet).  ``fleet`` is anything with
    the shared serving interface — :class:`~repro.pelican.fleet.Fleet`,
    its chaos subclass, or :class:`~repro.pelican.cluster.Cluster`; the
    front door never reaches around it, so every lower-layer guarantee
    (bit-identical responses across shards and stores, null-chaos
    identity, signature determinism) carries over verbatim.
    """

    def __init__(
        self, fleet: Any, config: Optional[ServiceConfig] = None
    ) -> None:
        self.fleet = fleet
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.book = LatencyBook(deadline=self._resolve_deadline())
        #: seq → (arrival time, flush time, flush service seconds) for
        #: every admitted prediction query of the latest :meth:`admit`.
        #: Reset per admission: every schedule numbers its seqs afresh.
        self._admission: Dict[int, Tuple[float, float, float]] = {}

    def _resolve_deadline(self) -> float:
        if self.config.deadline is not None:
            return float(self.config.deadline)
        policy = getattr(self.fleet, "resilience", None)
        if policy is not None and not policy.is_null and policy.deadline is not None:
            return float(policy.deadline)
        return DEFAULT_QUERY_DEADLINE

    # ------------------------------------------------------------------
    # Admission: original schedule -> rebatched schedule
    # ------------------------------------------------------------------
    def admit(self, schedule: FleetSchedule) -> FleetSchedule:
        """Run the admission queue over a schedule's prediction queries.

        Returns the rebatched schedule: every admitted query moved to
        its flush time (seq preserved — flushing only ever moves a query
        *later*), rejected queries dropped and counted, lifecycle events
        and audit probes passed through untouched.  A maximal flush
        shares one tick, so the event clock serves it as one batch.

        The queue itself is a deterministic single-server simulation:
        a batch is *due* when it fills (``max_batch``) or when its
        oldest request has waited ``window`` seconds; it flushes at
        ``max(due, dispatcher free)`` and occupies the dispatcher for
        :meth:`ServiceConfig.service_seconds`.  Arrivals finding
        ``queue_capacity`` requests already waiting are rejected.
        """
        cfg = self.config
        self._admission = {}
        admitted = FleetSchedule()
        queries: List[FleetEvent] = []
        for event in schedule.ordered():
            if _is_prediction_query(event):
                queries.append(event)
            else:
                admitted.add(event)

        self.stats.generated += len(queries)
        self.book.generated += len(queries)
        pending: List[FleetEvent] = []
        free_at = 0.0

        def due_at() -> float:
            if len(pending) >= cfg.max_batch:
                return pending[cfg.max_batch - 1].time
            return pending[0].time + cfg.window

        def flush_until(now: Optional[float]) -> None:
            nonlocal free_at
            while pending:
                at = max(due_at(), free_at)
                if now is not None and at > now:
                    return
                n = min(len(pending), cfg.max_batch)
                batch = pending[:n]
                del pending[:n]
                cost = cfg.service_seconds(n)
                for ev in batch:
                    admitted.add(
                        FleetEvent(
                            time=at,
                            seq=ev.seq,
                            kind=ev.kind,
                            user_id=ev.user_id,
                            payload=ev.payload,
                            options=ev.options,
                        )
                    )
                    self._admission[ev.seq] = (ev.time, at, cost)
                free_at = at + cost
                self.stats.flushes += 1

        for event in queries:
            flush_until(event.time)
            if (
                cfg.queue_capacity is not None
                and len(pending) >= cfg.queue_capacity
            ):
                self.stats.rejected += 1
                continue
            pending.append(event)
            self.stats.admitted += 1
            self.stats.max_queue_depth = max(
                self.stats.max_queue_depth, len(pending)
            )
        flush_until(None)
        return admitted

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run(self, schedule: FleetSchedule) -> List[QueryResponse]:
        """Admit, shed, serve, and book one open-loop workload.

        Queries whose *queueing* delay already blew the resilience
        deadline are shed through the layer's existing shed path before
        the fleet ever sees them — the same
        :func:`~repro.pelican.resilience.shed_late_queries` call (and
        the same shared stats book) the chaos layers use for deferred
        work, so front-door sheds and chaos sheds land in one counter.
        Chaos perturbation of the rebatched schedule then happens inside
        the fleet's own ``run``, exactly as without a front door.
        """
        admitted = self.admit(schedule)
        policy = getattr(self.fleet, "resilience", None)
        if policy is not None and not policy.is_null:
            admitted = shed_late_queries(
                schedule, admitted, policy, self.fleet.resilience_stats
            )
        responses = self.fleet.run(admitted)
        for response in responses:
            booked = self._admission.get(response.seq)
            if booked is None:
                continue  # audit probes and pass-through traffic
            arrival, flushed, service = booked
            self.book.observe(
                queue=flushed - arrival,
                defer=response.time - flushed,
                service=service,
            )
        return responses

    def submit(self, requests: Sequence[ServiceRequest]) -> List[ServiceResponse]:
        """Typed request-in / response-out surface over :meth:`run`.

        Builds the open-loop schedule from the requests' own arrival
        times and maps every request to a typed outcome — answered,
        rejected at the door, or shed past the deadline.
        """
        schedule = FleetSchedule()
        seq_to_index: Dict[int, int] = {}
        for i, request in enumerate(requests):
            seq_to_index[schedule.next_seq] = i
            schedule.query(request.time, request.user_id, request.history, k=request.k)
        answered = {r.seq: r for r in self.run(schedule)}
        out: List[ServiceResponse] = []
        for seq, i in sorted(seq_to_index.items()):
            request = requests[i]
            response = answered.get(seq)
            if response is not None:
                arrival, flushed, service = self._admission[seq]
                latency = (flushed - arrival) + (response.time - flushed) + service
                out.append(ServiceResponse("ok", request, response, latency))
            elif seq in self._admission:
                out.append(ServiceResponse("shed", request))
            else:
                out.append(ServiceResponse("rejected", request))
        return out

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    @property
    def shed(self) -> int:
        """Admitted-but-unanswered queries (deadline sheds, degradation
        drops) — the conservation residual ``admitted - answered``."""
        return self.stats.admitted - self.book.answered

    def health(self) -> Dict[str, Any]:
        """Liveness/pressure summary — the health endpoint."""
        if self.stats.rejected:
            status = "rejecting"
        elif self.shed:
            status = "shedding"
        else:
            status = "ok"
        return {
            "status": status,
            "users": self.fleet.num_users,
            "generated": self.stats.generated,
            "answered": self.book.answered,
            "rejected": self.stats.rejected,
            "shed": self.shed,
            "max_queue_depth": self.stats.max_queue_depth,
        }

    def endpoint_stats(self) -> Dict[str, Any]:
        """Admission + latency projection — the stats endpoint."""
        return {**self.stats.signature(), **self.book.signature()}

    def signature(self) -> Dict[str, Any]:
        """The fleet's signature with the ``service_*`` overlay joined.

        Built through the same :func:`overlay_signature` contract as the
        chaos/resilience overlays, and only ever *here* — a fleet that
        never met a front door keeps its legacy key set, which is what
        lets the committed goldens pass unchanged.
        """
        if hasattr(self.fleet, "signature"):
            base = self.fleet.signature()
        else:
            base = self.fleet.report.signature()
            policy = getattr(self.fleet, "resilience", None)
            # A bare Fleet has no signature() of its own; mirror the
            # chaos subclass and join the resilience overlay when the
            # policy is active (front-door sheds land in its book).
            if policy is not None and not policy.is_null:
                base = overlay_signature(
                    base, "resilience_", self.fleet.resilience_stats.signature()
                )
        return overlay_signature(base, "service_", self.endpoint_stats())
