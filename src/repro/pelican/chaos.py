"""Fault injection over the fleet serving layer (DESIGN.md §8).

Real fleets see device churn, lossy links, straggler updates, and a cloud
whose checkpoint store occasionally times out.  This module replays those
conditions on top of the deterministic event clock, without giving up the
properties PR 2 established:

* **Bit determinism.**  Every fault decision is drawn from an RNG keyed by
  ``(policy seed, stream, stable event identifiers)`` — never by wall
  clock or call order across components — so the same policy, seed, and
  schedule reproduce the identical faulty run: same responses, same
  :meth:`~repro.pelican.fleet.FleetReport.signature`, same chaos counters.
* **Cost-only faults.**  Faults change *when* events execute and *what*
  they cost (retried packets, re-fetched checkpoints), never the answers:
  a deferred query is served by the same model state it would have seen at
  its effective time, and every retry flows through the existing
  accounting boundaries (the channel totals, the registry's load seconds),
  so clean and faulty runs are signature-comparable field by field.
* **Null identity.**  A :class:`ChaosPolicy` with all probabilities at
  zero is byte-for-byte indistinguishable from running without the chaos
  layer — the fuzz harness (``tests/pelican/test_fleet_fuzz.py``) holds
  this invariant over generated schedules.

What is simulated vs real: packet loss is modeled as per-transfer retry
*cost* (extra round trips and resent bytes), not as data corruption;
offline windows defer a device's events to the window's end (its event
queue is serial, so ordering within a user is preserved); cold-load
failures re-charge the storage fetch.  Nothing is ever dropped — a
production system would eventually serve these requests, and keeping them
makes accuracy comparable across chaos policies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, ClassVar, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.pelican.clock import EventKind, FleetEvent, FleetSchedule
from repro.pelican.registry import ModelRegistry
from repro.pelican.storage import BlobStore
from repro.pelican.resilience import (
    _STREAM_COLD_LOAD_BACKOFF,
    _STREAM_TRANSFER_BACKOFF,
    ResiliencePolicy,
    ResilienceStats,
    SeededPolicy,
    shed_late_queries,
)
from repro.pelican.transport import Channel

# Stable stream ids for per-decision RNG derivation.  Never renumber:
# committed golden runs depend on them.
_STREAM_TRANSFER = 1
_STREAM_COLD_LOAD = 2
_STREAM_OFFLINE = 3
_STREAM_STRAGGLER = 4
_STREAM_SHARD_OUTAGE = 5
_STREAM_SHARD_SEED = 6


@dataclass(frozen=True)
class ChaosPolicy(SeededPolicy):
    """Seeded fault-injection knobs for one hostile condition.

    All probabilities default to zero — the null policy injects nothing
    and is exactly equivalent to running without the chaos layer.
    """

    SHARD_SEED_STREAM: ClassVar[int] = _STREAM_SHARD_SEED

    #: Per-attempt chance a transfer fails and must be resent (costing one
    #: extra round trip plus the payload bytes), up to ``max_retries``.
    drop_probability: float = 0.0
    max_retries: int = 3
    #: Expected offline windows per device over the schedule horizon; any
    #: event falling inside a window is deferred to the window's end.
    offline_window_rate: float = 0.0
    offline_window_duration: float = 10.0
    #: Chance an UPDATE event arrives late (a straggler device).
    straggler_probability: float = 0.0
    straggler_delay: float = 20.0
    #: Per-attempt chance a registry cold load fails and re-fetches, up to
    #: ``max_cold_load_attempts`` total attempts.
    cold_load_failure_probability: float = 0.0
    max_cold_load_attempts: int = 3
    #: Expected outage windows per cloud *shard* over the schedule horizon
    #: (cluster-level, DESIGN.md §9): queries homed on a downed shard
    #: re-route to a failover shard after a durable-store cold load, while
    #: onboard/update events defer to the window's end.  Ignored by a
    #: standalone :class:`~repro.pelican.fleet.Fleet`, which has nowhere
    #: to fail over.
    shard_outage_rate: float = 0.0
    shard_outage_duration: float = 25.0

    @property
    def is_null(self) -> bool:
        """True when no fault can ever fire under this policy."""
        return (
            self.drop_probability <= 0.0
            and self.offline_window_rate <= 0.0
            and self.straggler_probability <= 0.0
            and self.cold_load_failure_probability <= 0.0
            and self.shard_outage_rate <= 0.0
        )


#: Named hostile conditions the scenario matrix crosses with regimes.
CHAOS_POLICIES: Dict[str, ChaosPolicy] = {
    policy.name: policy
    for policy in (
        ChaosPolicy(name="none"),
        ChaosPolicy(name="lossy_network", drop_probability=0.25, max_retries=4),
        ChaosPolicy(
            name="flaky_cloud",
            cold_load_failure_probability=0.35,
            max_cold_load_attempts=3,
            straggler_probability=0.5,
            straggler_delay=15.0,
        ),
        ChaosPolicy(
            name="churn",
            offline_window_rate=2.0,
            offline_window_duration=12.0,
            straggler_probability=0.3,
            straggler_delay=20.0,
        ),
        ChaosPolicy(
            name="shard_outage",
            shard_outage_rate=1.5,
            shard_outage_duration=25.0,
        ),
        ChaosPolicy(
            name="hostile",
            drop_probability=0.25,
            max_retries=4,
            offline_window_rate=2.0,
            offline_window_duration=12.0,
            straggler_probability=0.5,
            straggler_delay=20.0,
            cold_load_failure_probability=0.35,
            max_cold_load_attempts=3,
            shard_outage_rate=1.0,
            shard_outage_duration=20.0,
        ),
        # A long total outage over a lossy network: outage windows are
        # longer than typical schedule horizons, so with a couple of
        # shards the whole cluster is regularly dark at once — the
        # condition the resilience layer's degradation ladder exists for
        # (DESIGN.md §11).
        ChaosPolicy(
            name="blackout",
            drop_probability=0.3,
            max_retries=4,
            shard_outage_rate=2.0,
            shard_outage_duration=120.0,
        ),
    )
}


def chaos_policy(name: str, seed: int = 0) -> ChaosPolicy:
    """A preset policy by name, reseeded for this run."""
    try:
        preset = CHAOS_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos policy {name!r}; presets: {sorted(CHAOS_POLICIES)}"
        ) from None
    return replace(preset, seed=seed)


@dataclass
class ChaosStats:
    """Everything the chaos layer did to one run (all deterministic)."""

    transfer_retries: int = 0
    retry_bytes: int = 0
    retry_seconds: float = 0.0
    cold_load_failures: int = 0
    cold_load_retry_seconds: float = 0.0
    offline_windows: int = 0
    deferred_events: int = 0
    straggler_updates: int = 0
    shard_outage_windows: int = 0
    failover_queries: int = 0

    def signature(self) -> Dict[str, Any]:
        """Deterministic projection, merged into the fleet signature."""
        return asdict(self)

    def merged(self, *others: "ChaosStats") -> Dict[str, Any]:
        """Field-wise sum of this and ``others``' signatures.

        The cluster layer aggregates its own counters with every shard's
        through this — all ints/floats, so plain addition.
        """
        total = dict(self.signature())
        for other in others:
            for key, value in other.signature().items():
                total[key] += value
        return total


def draw_retries(
    rng: np.random.Generator,
    probability: float,
    cap: int,
    kind: str,
    keys: Tuple[int, ...],
    backoff_stream: int,
    resilience: Optional[ResiliencePolicy],
    stats: Optional[ResilienceStats],
) -> int:
    """Retries one faulty transfer or cold load needs: each attempt fails
    with ``probability``, up to ``cap``.

    A resilience retry budget (DESIGN.md §11) lowers the cap.  When the
    budget binds, one more draw probes whether the fault would still
    have retried; if so the denial is counted as ``(kind, *keys)``.
    Every granted retry is counted too and pays seeded backoff drawn
    from ``backoff_stream`` under the same ``keys``.  With a budget of
    at least ``cap`` the draws are exactly the unbudgeted loop's.
    """
    budget = None if resilience is None else resilience.retry_budget
    limit = cap if budget is None else min(cap, budget)
    attempts = 0
    while attempts < limit and rng.random() < probability:
        attempts += 1
    if budget is None:
        return attempts
    if attempts == limit < cap and rng.random() < probability:
        stats.retries_denied += 1
        stats.denial_log.append((kind, *keys))
    if attempts:
        stats.retries_spent += attempts
        jitter = resilience.rng(backoff_stream, *keys)
        stats.backoff_seconds += resilience.backoff_cost(jitter, attempts)
    return attempts


@dataclass
class FaultyChannel(Channel):
    """A :class:`Channel` whose transfers may need packet-level retries.

    Each of a record's ``count`` logical transfers independently draws its
    retry count (keyed by a monotone per-channel transfer index), and every
    retry resends the payload and pays one extra round trip — so lossy
    links inflate both byte and second totals through the *existing*
    accounting, keeping faulty runs signature-comparable with clean ones.
    With ``drop_probability`` zero the behaviour (and the books) are
    identical to the base channel.
    """

    policy: ChaosPolicy = field(default_factory=ChaosPolicy)
    chaos: ChaosStats = field(default_factory=ChaosStats)
    #: Optional fault-handling policy (DESIGN.md §11): caps each
    #: transfer's retries at the budget and charges seeded-jitter
    #: exponential backoff into the resilience book.  ``None`` reproduces
    #: the unbudgeted chaos loop draw-for-draw.
    resilience: Optional[ResiliencePolicy] = None
    resilience_stats: Optional[ResilienceStats] = None
    _draws: int = 0

    @classmethod
    def wrap(
        cls,
        channel: Channel,
        policy: ChaosPolicy,
        chaos: ChaosStats,
        resilience: Optional[ResiliencePolicy] = None,
        resilience_stats: Optional[ResilienceStats] = None,
    ) -> "FaultyChannel":
        """Take over an existing channel, preserving its recorded traffic."""
        faulty = cls(
            bandwidth_mbps=channel.bandwidth_mbps,
            rtt_ms=channel.rtt_ms,
            policy=policy,
            chaos=chaos,
            resilience=resilience,
            resilience_stats=resilience_stats,
        )
        faulty.records = channel.records
        faulty._bytes = dict(channel._bytes)
        faulty._seconds = channel.total_simulated_seconds
        faulty._count = channel.transfer_count
        return faulty

    def _transfer(
        self, direction: str, num_bytes: int, label: str, count: int = 1
    ) -> float:
        probability = self.policy.drop_probability
        if probability <= 0.0:
            return super()._transfer(direction, num_bytes, label, count)
        bytes_each = num_bytes // count
        retries = 0
        for i in range(count):
            key = self._draws + i
            retries += draw_retries(
                self.policy.rng(_STREAM_TRANSFER, key),
                probability,
                self.policy.max_retries,
                "transfer",
                (key,),
                _STREAM_TRANSFER_BACKOFF,
                self.resilience,
                self.resilience_stats,
            )
        self._draws += count
        if not retries:
            return super()._transfer(direction, num_bytes, label, count)
        extra_bytes = retries * bytes_each
        seconds = super()._transfer(
            direction, num_bytes + extra_bytes, label, count + retries
        )
        self.chaos.transfer_retries += retries
        self.chaos.retry_bytes += extra_bytes
        self.chaos.retry_seconds += self._cost_seconds(extra_bytes, retries)
        return seconds

    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple:
        """Also snapshot the draw index and retry counters — chaos *and*
        resilience — so parity re-runs (``serve_looped``) replay the same
        fault sequence and leave every book untouched."""
        stats = self.resilience_stats
        return (
            *super().checkpoint(),
            self._draws,
            self.chaos.transfer_retries,
            self.chaos.retry_bytes,
            self.chaos.retry_seconds,
            0 if stats is None else stats.retries_spent,
            0 if stats is None else stats.retries_denied,
            0.0 if stats is None else stats.backoff_seconds,
            0 if stats is None else len(stats.denial_log),
        )

    def rollback(self, state: tuple) -> None:
        super().rollback(state[:4])
        (
            self._draws,
            self.chaos.transfer_retries,
            self.chaos.retry_bytes,
            self.chaos.retry_seconds,
        ) = state[4:8]
        stats = self.resilience_stats
        if stats is not None:
            (
                stats.retries_spent,
                stats.retries_denied,
                stats.backoff_seconds,
                denials,
            ) = state[8:]
            del stats.denial_log[denials:]


class FlakyModelRegistry(ModelRegistry):
    """A :class:`ModelRegistry` whose checkpoint store sometimes fails.

    A cold load may need up to ``max_cold_load_attempts`` fetches; every
    failed attempt re-charges the storage fetch seconds (the rebuild
    itself still happens once, bit-identically — failures cost time,
    never answers).  Draws are keyed by ``(user, fetch index)``.
    """

    def __init__(
        self,
        capacity: Optional[int],
        seed: int,
        policy: ChaosPolicy,
        chaos: ChaosStats,
        store: Optional[BlobStore] = None,
        resilience: Optional[ResiliencePolicy] = None,
        resilience_stats: Optional[ResilienceStats] = None,
    ) -> None:
        super().__init__(capacity=capacity, seed=seed, store=store)
        self.policy = policy
        self.chaos = chaos
        self.resilience = resilience
        self.resilience_stats = resilience_stats
        self._fetches = 0

    def _fetch_seconds(self, user_id: int, blob: bytes) -> float:
        base = super()._fetch_seconds(user_id, blob)
        self._fetches += 1
        probability = self.policy.cold_load_failure_probability
        if probability <= 0.0:
            return base
        key = (user_id, self._fetches)
        failures = draw_retries(
            self.policy.rng(_STREAM_COLD_LOAD, *key),
            probability,
            self.policy.max_cold_load_attempts - 1,
            "cold_load",
            key,
            _STREAM_COLD_LOAD_BACKOFF,
            self.resilience,
            self.resilience_stats,
        )
        if failures:
            self.chaos.cold_load_failures += failures
            self.chaos.cold_load_retry_seconds += failures * base
        return (1 + failures) * base


def perturb_schedule(
    schedule: FleetSchedule,
    policy: ChaosPolicy,
    chaos: ChaosStats,
    outage_defer: Optional[Callable[[FleetEvent, float], float]] = None,
) -> FleetSchedule:
    """Apply offline windows and straggler delays to a schedule.

    Produces a new schedule with the original sequence numbers, so
    same-tick ties still resolve identically.  Each device's events
    stay serially ordered (an offline device's queue drains in order
    when it reconnects); deferred events landing on one tick coalesce
    into the same serving batch, exactly like a reconnect burst.

    ``outage_defer`` is the cluster hook: called after the per-user
    faults with ``(event, effective_time)``, it may push the event later
    still (shard-outage deferral of onboards/updates, DESIGN.md §9).
    The per-user monotone pass below then drags that user's subsequent
    events along, so serial order survives every composition of faults.
    """
    events = schedule.ordered()
    if not events or (policy.is_null and outage_defer is None):
        return schedule
    horizon = (events[0].time, events[-1].time)
    windows = sample_offline_windows(events, horizon, policy, chaos)
    perturbed = FleetSchedule()
    # Per-user last effective (time, seq): a device's event queue is
    # serial, so nothing may overtake an earlier deferred event.
    last: Dict[int, Tuple[float, int]] = {}
    for event in events:
        time = event.time
        if (
            event.kind is EventKind.UPDATE
            and policy.straggler_probability > 0.0
            and policy.rng(_STREAM_STRAGGLER, event.seq).random()
            < policy.straggler_probability
        ):
            time += policy.straggler_delay
            chaos.straggler_updates += 1
        for start, end in windows.get(event.user_id, ()):
            if start <= time < end:
                time = end
        if outage_defer is not None:
            time = outage_defer(event, time)
        previous = last.get(event.user_id)
        if previous is not None:
            prev_time, prev_seq = previous
            if time < prev_time:
                time = prev_time
            if time == prev_time and event.seq < prev_seq:
                # Replay order is (time, seq); an equal-time event with
                # a smaller seq would overtake — nudge it just after.
                time = float(np.nextafter(prev_time, np.inf))
        last[event.user_id] = (time, event.seq)
        if time != event.time:
            chaos.deferred_events += 1
        perturbed.add(
            FleetEvent(
                time=time,
                seq=event.seq,
                kind=event.kind,
                user_id=event.user_id,
                payload=event.payload,
                options=event.options,
            )
        )
    return perturbed


def faulty_schedule(
    schedule: FleetSchedule,
    policy: ChaosPolicy,
    chaos: ChaosStats,
    resilience: Optional[ResiliencePolicy],
    resilience_stats: ResilienceStats,
) -> FleetSchedule:
    """The schedule a one-cloud fleet replays under ``policy``: perturbed,
    then (with active resilience) cleared of queries pushed past their
    deadline."""
    perturbed = perturb_schedule(schedule, policy, chaos)
    if resilience is not None:
        perturbed = shed_late_queries(schedule, perturbed, resilience, resilience_stats)
    return perturbed


def _sample_windows(
    policy: ChaosPolicy,
    stream: int,
    keys: Iterable[int],
    rate: float,
    duration: float,
    horizon: Tuple[float, float],
) -> Dict[int, List[Tuple[float, float]]]:
    """Poisson(``rate``) windows of ``duration`` per key over ``horizon``.

    Each key draws from its own ``policy.rng(stream, key)``: a Poisson
    count, then that many sorted uniform starts.  Keys with no window are
    absent from the map.
    """
    if rate <= 0.0:
        return {}
    windows: Dict[int, List[Tuple[float, float]]] = {}
    for key in keys:
        rng = policy.rng(stream, key)
        n = int(rng.poisson(rate))
        if n:
            starts = np.sort(rng.uniform(horizon[0], horizon[1], size=n))
            windows[key] = [(float(s), float(s) + duration) for s in starts]
    return windows


def sample_offline_windows(
    events: List[FleetEvent],
    horizon: Tuple[float, float],
    policy: ChaosPolicy,
    chaos: ChaosStats,
) -> Dict[int, List[Tuple[float, float]]]:
    """Sample each device's offline windows over the schedule horizon."""
    users = sorted({event.user_id for event in events})
    rate, duration = policy.offline_window_rate, policy.offline_window_duration
    windows = _sample_windows(policy, _STREAM_OFFLINE, users, rate, duration, horizon)
    chaos.offline_windows += sum(len(w) for w in windows.values())
    return windows


def sample_shard_outages(
    policy: ChaosPolicy,
    num_shards: int,
    horizon: Tuple[float, float],
    chaos: ChaosStats,
) -> Dict[int, List[Tuple[float, float]]]:
    """Sample each cloud shard's outage windows over the schedule horizon.

    Keyed by ``(policy seed, outage stream, shard id)`` — independent of
    every other fault stream and of the user population, so adding chaos
    knobs never re-rolls the outages (DESIGN.md §9).
    """
    rate, duration = policy.shard_outage_rate, policy.shard_outage_duration
    outages = _sample_windows(
        policy, _STREAM_SHARD_OUTAGE, range(num_shards), rate, duration, horizon
    )
    chaos.shard_outage_windows += sum(len(w) for w in outages.values())
    return outages

