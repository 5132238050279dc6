"""The deterministic event clock (DESIGN.md §7), shard-agnostic.

This module owns the workload description (:class:`FleetSchedule` and its
event/request/response types) and the replay loop
(:func:`replay_schedule`) that both serving layers share:
:class:`~repro.pelican.fleet.Fleet` runs it against one cloud,
:class:`~repro.pelican.cluster.Cluster` against N shards.  The semantics
are identical in both: events execute in ``(time, seq)`` order, a maximal
run of consecutive QUERY events sharing one clock tick is *concurrent*
(one serving batch), and any other event flushes the pending batch at its
sequence position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.data.dataset import SequenceDataset
from repro.data.features import SessionFeatures


class EventKind(str, enum.Enum):
    """What a fleet event asks the system to do."""

    ONBOARD = "onboard"
    UPDATE = "update"
    QUERY = "query"


@dataclass(frozen=True)
class QueryRequest:
    """One device asking for its user's next-location prediction.

    ``history`` is normally a window of session features; the privacy
    audit layer (DESIGN.md §10) instead passes a
    :class:`~repro.pelican.dispatch.ProbePayload` carrying a whole batch
    of adversarial black-box probes — same event, same clock, same
    dispatcher, different kernel.
    """

    user_id: int
    history: Any  # Tuple[SessionFeatures, ...] or a ProbePayload
    k: int = 3


@dataclass(frozen=True)
class QueryResponse:
    """The served answer, tagged with the originating event.

    Prediction queries fill ``top_k``; probe queries (DESIGN.md §10)
    leave it empty and fill ``confidences`` — the observed-output
    confidence per probe, which is what the honest-but-curious provider
    gets to see.  ``degraded`` names the resilience tier that answered
    (``"stale"`` / ``"general"`` / ``"prior"``, DESIGN.md §11) when the
    personal model was unreachable; ``None`` marks a fresh answer.
    """

    user_id: int
    time: float
    seq: int
    top_k: Tuple[Tuple[int, float], ...]
    confidences: Optional[Tuple[float, ...]] = None
    degraded: Optional[str] = None


@dataclass(frozen=True)
class FleetEvent:
    """One scheduled action.  ``seq`` breaks same-time ties (DESIGN.md §7)."""

    time: float
    seq: int
    kind: EventKind
    user_id: int
    payload: Any = None
    options: Tuple[Tuple[str, Any], ...] = ()


class FleetSchedule:
    """A deterministic workload: events replayed in ``(time, seq)`` order.

    ``seq`` is assigned at build time, so two schedules constructed by the
    same code are identical — including how same-time ties resolve.
    Consecutive QUERY events sharing a clock tick are served as one batch;
    an ONBOARD/UPDATE at the same tick splits the batch at its position.
    """

    def __init__(self) -> None:
        self._events: List[FleetEvent] = []
        self._seqs: set = set()
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def add(self, event: FleetEvent) -> "FleetSchedule":
        """Insert a pre-built event, enforcing ``seq`` uniqueness.

        Same-time ties are broken *only* by ``seq``, so two events sharing
        one would replay in dict/list-iteration order — silently, and
        differently after an innocent refactor.  The chaos layer
        (:func:`~repro.pelican.chaos.perturb_schedule`) rebuilds schedules
        through this entry point with the original sequence numbers
        preserved.
        """
        if event.seq in self._seqs:
            raise ValueError(
                f"duplicate event seq {event.seq}: same-time ordering is defined "
                "by seq alone, so every event in a schedule needs a unique one"
            )
        self._seqs.add(event.seq)
        self._next_seq = max(self._next_seq, event.seq + 1)
        self._events.append(event)
        return self

    def onboard(
        self, time: float, user_id: int, dataset: SequenceDataset, **options: Any
    ) -> "FleetSchedule":
        """Schedule a device onboarding (options mirror ``Fleet.onboard``)."""
        self._append(EventKind.ONBOARD, time, user_id, dataset, options)
        return self

    def update(
        self, time: float, user_id: int, dataset: SequenceDataset
    ) -> "FleetSchedule":
        """Schedule an incremental personal-model update."""
        self._append(EventKind.UPDATE, time, user_id, dataset, {})
        return self

    def query(
        self,
        time: float,
        user_id: int,
        history: Sequence[SessionFeatures],
        k: int = 3,
    ) -> "FleetSchedule":
        """Schedule one service query (``k >= 1`` locations ranked)."""
        if k < 1:
            raise ValueError(f"query for user {user_id} needs k >= 1, got k={k}")
        self._append(EventKind.QUERY, time, user_id, tuple(history), {"k": k})
        return self

    def probe(self, time: float, user_id: int, payload: Any) -> "FleetSchedule":
        """Schedule one audit probe batch (DESIGN.md §10).

        ``payload`` is a :class:`~repro.pelican.dispatch.ProbePayload`
        carrying many black-box probes against ``user_id``'s model.  The
        event is an ordinary QUERY on the clock — it coalesces, defers
        under chaos, and routes across shards exactly like prediction
        traffic — with ``k = 0`` marking full-confidence release (the
        provider observes every confidence vector it serves, so no top-k
        truncation applies to its own probes).
        """
        self._append(EventKind.QUERY, time, user_id, payload, {"k": 0})
        return self

    @property
    def next_seq(self) -> int:
        """The sequence number the next builder call will assign."""
        return self._next_seq

    def _append(
        self,
        kind: EventKind,
        time: float,
        user_id: int,
        payload: Any,
        options: Dict[str, Any],
    ) -> None:
        self.add(
            FleetEvent(
                time=float(time),
                # Monotone counter, not len(): builder calls interleave
                # safely with pre-built events inserted through add().
                seq=self._next_seq,
                kind=kind,
                user_id=user_id,
                payload=payload,
                options=tuple(sorted(options.items())),
            )
        )

    def ordered(self) -> List[FleetEvent]:
        """Events in replay order."""
        return sorted(self._events, key=lambda e: (e.time, e.seq))


def replay_schedule(
    schedule: FleetSchedule,
    serve: Callable[[float, List[QueryRequest]], List[QueryResponse]],
    onboard: Callable[[FleetEvent], Any],
    update: Callable[[FleetEvent], Any],
) -> List[QueryResponse]:
    """Replay a schedule on the simulated event clock.

    ``serve`` receives ``(tick_time, requests)`` for each coalesced batch
    (all requests share the tick by construction) and must return one
    response per request in order; ``onboard``/``update`` receive their
    raw events.  Responses come back in event order, re-tagged with each
    originating event's ``(time, seq)``.

    This is the single definition of the clock semantics —
    :meth:`Fleet.run <repro.pelican.fleet.Fleet.run>` and
    :meth:`Cluster.run <repro.pelican.cluster.Cluster.run>` both replay
    through it, which is what makes a K-shard run comparable tick-for-tick
    with the single-cloud run on the same schedule.
    """
    responses: List[QueryResponse] = []
    pending: List[FleetEvent] = []

    def flush() -> None:
        if not pending:
            return
        batch = [
            QueryRequest(
                user_id=e.user_id,
                history=e.payload,
                k=dict(e.options).get("k", 3),
            )
            for e in pending
        ]
        for event, response in zip(pending, serve(pending[0].time, batch)):
            if response is None:
                # A shed slot (resilience load shedding, DESIGN.md §11):
                # the query was counted, not answered.
                continue
            responses.append(
                QueryResponse(
                    user_id=response.user_id,
                    time=event.time,
                    seq=event.seq,
                    top_k=response.top_k,
                    confidences=response.confidences,
                    degraded=response.degraded,
                )
            )
        pending.clear()

    for event in schedule.ordered():
        if event.kind is EventKind.QUERY:
            if pending and pending[-1].time != event.time:
                flush()
            pending.append(event)
            continue
        flush()
        if event.kind is EventKind.ONBOARD:
            onboard(event)
        elif event.kind is EventKind.UPDATE:
            update(event)
    flush()
    return responses
