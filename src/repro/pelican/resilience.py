"""Deterministic fault *handling* over the serving stack (DESIGN.md §11).

The chaos layer (DESIGN.md §8) injects faults; this module governs how
the system reacts to them.  A :class:`ResiliencePolicy` bundles four
mechanisms, all running on the simulated event clock and all drawing
from ``default_rng((seed, stream, key))`` exactly like chaos draws:

* **Retry budgets + exponential backoff** — lossy transfers and flaky
  cold loads may spend at most ``retry_budget`` retries each; every
  retry also pays seeded-jitter exponential backoff seconds, and a
  retry the budget cannot cover is counted as a denial in
  :class:`ResilienceStats` (never silently absorbed as more retry
  seconds).  One function draws all of it:
  :func:`~repro.pelican.chaos.draw_retries`.
* **Per-shard circuit breakers** — a closed/open/half-open
  :class:`ShardBreaker` per cloud shard, keyed off a sliding failure
  window on the event clock.  Open breakers redirect failover *before*
  a doomed cold load is paid; every transition lands in a
  deterministic log.
* **Deadlines + load shedding** — each query carries a
  simulated-seconds deadline; chaos-deferred work that cannot meet it
  is shed up front (:func:`shed_late_queries`) and counted, never
  silently slow.
* **A graceful-degradation ladder** — personal model → stale cached
  copy → general model → per-user Markov prior
  (:class:`~repro.models.markov.MarkovChainModel`), used when a query
  has *no* alive shard to fail over to.  Degraded answers are flagged
  on :class:`~repro.pelican.clock.QueryResponse` so accuracy splits
  fresh-vs-degraded.

The guarantees mirror §8's: the null policy is byte-identical to
running without the resilience layer, same-seed runs are
bit-deterministic, and everything the layer did is a deterministic
:class:`ResilienceStats` overlay on the fleet/cluster signature.
Audit probes are exempt from shedding and the ladder — probe answers
must stay fault-timing invariant (DESIGN.md §10), so a full outage
serves them through the legacy home-shard path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.data.features import FeatureSpec
from repro.models.architecture import NextLocationModel
from repro.models.markov import MarkovChainModel
from repro.pelican.clock import EventKind, FleetSchedule, QueryResponse
from repro.pelican.device import rebuild_general_model
from repro.pelican.dispatch import ProbePayload

# Stable stream ids for per-decision RNG derivation, disjoint from the
# chaos layer's 1–6 (chaos.py).  Never renumber: committed golden runs
# depend on them.
_STREAM_TRANSFER_BACKOFF = 7
_STREAM_COLD_LOAD_BACKOFF = 8
_STREAM_SHARD_SEED = 9

#: Measurement deadline (simulated seconds) used for availability/SLO
#: columns when neither the CLI nor the policy specifies one — so the
#: no-resilience baseline cells are scored against the same bar.
DEFAULT_QUERY_DEADLINE = 15.0

#: Degradation-ladder tier names, in the order the ladder walks them.
DEGRADE_TIERS = ("stale", "general", "prior")


@dataclass(frozen=True)
class SeededPolicy:
    """The seeded head both fault policies share: the chaos
    :class:`~repro.pelican.chaos.ChaosPolicy` and :class:`ResiliencePolicy`.

    Every decision draws from :meth:`rng`, keyed by ``(seed, stream,
    keys)`` — order-independent determinism: the same decision point
    always sees the same draws, no matter what other components drew
    before it.  Subclasses fix :attr:`SHARD_SEED_STREAM`.
    """

    name: str = "none"
    seed: int = 0

    #: Stream id of the per-shard reseed draw (never renumber).
    SHARD_SEED_STREAM: ClassVar[int]

    def rng(self, stream: int, *keys: int) -> np.random.Generator:
        """A generator keyed by (seed, stream, keys)."""
        return np.random.default_rng((self.seed, stream, *(int(k) for k in keys)))

    def for_shard(self, shard_id: int) -> "SeededPolicy":
        """This policy reseeded for one cluster shard.

        The shard's seed is stably derived from ``(seed,
        SHARD_SEED_STREAM, shard id)``, so shards draw independently
        instead of in lock-step while the cluster stays reproducible
        from the one policy seed.
        """
        derived = self.rng(self.SHARD_SEED_STREAM, shard_id).integers(0, 2**31 - 1)
        return replace(self, seed=int(derived))


@dataclass(frozen=True)
class ResiliencePolicy(SeededPolicy):
    """Seeded knobs for one fault-handling discipline.

    Every knob defaults to *off* — the null policy changes nothing and
    is byte-identical to running without the resilience layer (the
    same null-identity contract :class:`~repro.pelican.chaos.ChaosPolicy`
    holds).
    """

    SHARD_SEED_STREAM: ClassVar[int] = _STREAM_SHARD_SEED

    #: Max retries any single transfer / cold load may consume.  ``None``
    #: leaves the chaos layer's own caps untouched (unbounded budget).
    retry_budget: Optional[int] = None
    #: Exponential backoff paid per retry: attempt ``a`` costs
    #: ``backoff_base * backoff_multiplier**a`` seconds, scaled by
    #: ``1 + backoff_jitter * u`` with ``u`` a seeded uniform draw.
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    #: Circuit breaker: ``breaker_threshold`` failures inside a sliding
    #: ``breaker_window`` (simulated seconds) open a shard's breaker for
    #: ``breaker_cooldown`` seconds, after which it half-opens.  ``None``
    #: threshold disables breakers.
    breaker_threshold: Optional[int] = None
    breaker_window: float = 40.0
    breaker_cooldown: float = 30.0
    #: Per-query deadline in simulated seconds; chaos-deferred queries
    #: that would exceed it are shed.  ``None`` disables shedding.
    deadline: Optional[float] = None
    #: Degradation-ladder tiers to walk (subset of :data:`DEGRADE_TIERS`,
    #: in order) when a query has no alive shard.  Empty = ladder off;
    #: full-outage queries then shed (or, with the whole policy null,
    #: fall back to the legacy serve-on-downed-home behaviour).
    degrade_tiers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for tier in self.degrade_tiers:
            if tier not in DEGRADE_TIERS:
                raise ValueError(
                    f"unknown degradation tier {tier!r}; tiers: {DEGRADE_TIERS}"
                )

    @property
    def is_null(self) -> bool:
        """True when this policy can never change a run.  ``Fleet`` and
        ``Cluster`` normalize such a policy to ``None`` on construction,
        so everything below them only tests ``is not None``."""
        return (
            self.retry_budget is None
            and self.breaker_threshold is None
            and self.deadline is None
            and not self.degrade_tiers
        )

    def backoff_cost(self, rng: np.random.Generator, attempts: int) -> float:
        """Total backoff seconds for ``attempts`` consecutive retries."""
        total = 0.0
        for a in range(attempts):
            total += (
                self.backoff_base
                * self.backoff_multiplier**a
                * (1.0 + self.backoff_jitter * float(rng.random()))
            )
        return total


#: Named disciplines the CLI/scenario matrix selects by name.
RESILIENCE_POLICIES: Dict[str, ResiliencePolicy] = {
    policy.name: policy
    for policy in (
        ResiliencePolicy(name="none"),
        ResiliencePolicy(
            name="default",
            retry_budget=2,
            backoff_base=0.05,
            breaker_threshold=3,
            breaker_window=40.0,
            breaker_cooldown=30.0,
            deadline=15.0,
            degrade_tiers=DEGRADE_TIERS,
        ),
        ResiliencePolicy(
            name="strict",
            retry_budget=1,
            backoff_base=0.02,
            breaker_threshold=2,
            breaker_window=40.0,
            breaker_cooldown=60.0,
            deadline=5.0,
            degrade_tiers=DEGRADE_TIERS,
        ),
    )
}


def resilience_policy(
    name: str, seed: int = 0, deadline: Optional[float] = None
) -> ResiliencePolicy:
    """A preset policy by name, reseeded (and re-deadlined) for this run."""
    try:
        preset = RESILIENCE_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown resilience policy {name!r}; presets: "
            f"{sorted(RESILIENCE_POLICIES)}"
        ) from None
    policy = replace(preset, seed=seed)
    if deadline is not None:
        policy = replace(policy, deadline=float(deadline))
    return policy


def measurement_deadline(
    override: Optional[float], policy: Optional[ResiliencePolicy]
) -> float:
    """The deadline availability/SLO books score against: ``override``,
    else the policy's own deadline, else :data:`DEFAULT_QUERY_DEADLINE` —
    so a resilient run and an unprotected baseline read on one scale."""
    if override is not None:
        return float(override)
    if policy is not None and policy.deadline is not None:
        return float(policy.deadline)
    return DEFAULT_QUERY_DEADLINE


@dataclass
class ResilienceStats:
    """Everything the resilience layer did to one run (all deterministic).

    One instance is shared across a cluster's shards, so the overlay in
    the cluster signature needs no merging.  ``breaker_log`` records
    every breaker transition as ``(time, shard, from, to)`` in event
    order — the determinism tests compare it exactly.
    """

    retries_spent: int = 0
    retries_denied: int = 0
    backoff_seconds: float = 0.0
    shed_queries: int = 0
    degraded_stale: int = 0
    degraded_general: int = 0
    degraded_prior: int = 0
    #: Queries answered by the ladder because no shard was alive.
    full_outage_queries: int = 0
    #: Full-outage queries served on the downed home shard because no
    #: resilience ladder was configured (the legacy PR-4 hole).  Tracked
    #: even under the null policy so baselines can be penalized.
    unprotected_outage_queries: int = 0
    breaker_opens: int = 0
    #: Failover routing decisions redirected by an open breaker.
    breaker_redirects: int = 0
    breaker_log: List[Tuple[float, int, str, str]] = field(default_factory=list)
    #: Denials, ``(kind, *key)`` per exhausted budget, in order.
    denial_log: List[Tuple[Any, ...]] = field(default_factory=list)

    def count_degraded(self, tier: str, num: int) -> None:
        if tier == "stale":
            self.degraded_stale += num
        elif tier == "general":
            self.degraded_general += num
        elif tier == "prior":
            self.degraded_prior += num
        else:
            raise ValueError(f"unknown degradation tier {tier!r}")

    @property
    def degraded_queries(self) -> int:
        return self.degraded_stale + self.degraded_general + self.degraded_prior

    def signature(self) -> Dict[str, Any]:
        """Deterministic projection, merged into fleet/cluster signatures."""
        return {
            "retries_spent": self.retries_spent,
            "retries_denied": self.retries_denied,
            "backoff_seconds": self.backoff_seconds,
            "shed_queries": self.shed_queries,
            "degraded_stale": self.degraded_stale,
            "degraded_general": self.degraded_general,
            "degraded_prior": self.degraded_prior,
            "full_outage_queries": self.full_outage_queries,
            "unprotected_outage_queries": self.unprotected_outage_queries,
            "breaker_opens": self.breaker_opens,
            "breaker_redirects": self.breaker_redirects,
            "breaker_log": tuple(self.breaker_log),
            "denial_log": tuple(self.denial_log),
        }


@dataclass
class ShardBreaker:
    """One shard's closed/open/half-open circuit breaker.

    State moves on the simulated event clock only: ``breaker_threshold``
    distinct-tick failures inside the sliding ``breaker_window`` open
    the breaker; after ``breaker_cooldown`` it half-opens, and the next
    outcome (success/failure) closes or reopens it.  All transitions are
    appended to the shared :class:`ResilienceStats` log.
    """

    shard_id: int
    policy: ResiliencePolicy
    stats: ResilienceStats
    state: str = "closed"
    _failures: List[float] = field(default_factory=list)
    _opened_at: float = 0.0

    def allow(self, time: float) -> bool:
        """May this shard be tried at ``time``?  (Open → half-open on
        cooldown expiry; the half-open probe is allowed through.)"""
        if self.state == "open":
            if time >= self._opened_at + self.policy.breaker_cooldown:
                self._move(time, "half_open")
                return True
            return False
        return True

    def record_failure(self, time: float) -> None:
        if self.state == "open":
            return
        if self.state == "half_open":
            self._open(time)
            return
        if self._failures and self._failures[-1] == time:
            return  # one strike per clock tick
        self._failures.append(time)
        self._failures = [
            t for t in self._failures if t > time - self.policy.breaker_window
        ]
        threshold = self.policy.breaker_threshold
        if threshold is not None and len(self._failures) >= threshold:
            self._open(time)

    def record_success(self, time: float) -> None:
        if self.state == "half_open":
            self._failures.clear()
            self._move(time, "closed")

    def _open(self, time: float) -> None:
        self._failures.clear()
        self._opened_at = time
        self.stats.breaker_opens += 1
        self._move(time, "open")

    def _move(self, time: float, to: str) -> None:
        self.stats.breaker_log.append((float(time), self.shard_id, self.state, to))
        self.state = to


class DegradationLadder:
    """The full-outage fallback chain: stale copy → general model → prior.

    Used only when a cloud query has *no* alive shard (every failover
    candidate and the home shard down or breaker-open).  The tiers:

    * ``stale`` — a personal-model copy still resident in some shard's
      live cache (read without accounting or LRU effects via
      :meth:`~repro.pelican.registry.ModelRegistry.peek`), modeling a
      front-door cache of recently served models.  The durable store is
      unreachable in a full outage, so only already-hot copies qualify.
    * ``general`` — the published general model, rebuilt once per
      cluster from its blob and reused.
    * ``prior`` — a per-user order-2 Markov chain fit on the user's own
      onboarding data (``models/markov.py``), cached per user.

    Resolution is pure lookup + deterministic rebuilds, so degraded
    answers are bit-deterministic like everything else.
    """

    def __init__(self, policy: ResiliencePolicy, spec: FeatureSpec, seed: int) -> None:
        self.policy = policy
        self.spec = spec
        self.seed = seed
        self._general: Optional[NextLocationModel] = None
        self._priors: Dict[int, MarkovChainModel] = {}

    def resolve(
        self,
        user_id: int,
        stale_lookup: Callable[[int], Optional[NextLocationModel]],
        general_blob: Optional[bytes],
        dataset: Optional[SequenceDataset],
    ) -> Tuple[Optional[Any], Optional[str]]:
        """The first tier that can answer, as ``(model, tier_name)``.

        ``(None, None)`` means every configured tier came up empty — the
        caller sheds the query (counted, never silently dropped).
        """
        for tier in self.policy.degrade_tiers:
            if tier == "stale":
                model = stale_lookup(user_id)
                if model is not None:
                    return model, "stale"
            elif tier == "general":
                if general_blob is not None:
                    return self._general_model(general_blob), "general"
            elif tier == "prior":
                if dataset is not None and dataset.windows:
                    return self._prior(user_id, dataset), "prior"
        return None, None

    def _general_model(self, blob: bytes) -> NextLocationModel:
        if self._general is None:
            self._general = rebuild_general_model(
                blob, np.random.default_rng(self.seed)
            )
        return self._general

    def _prior(self, user_id: int, dataset: SequenceDataset) -> MarkovChainModel:
        model = self._priors.get(user_id)
        if model is None:
            model = MarkovChainModel(self.spec.num_locations, order=2).fit(dataset)
            self._priors[user_id] = model
        return model


# ----------------------------------------------------------------------
# Deadlines / availability
# ----------------------------------------------------------------------
def shed_late_queries(
    original: FleetSchedule,
    perturbed: FleetSchedule,
    policy: ResiliencePolicy,
    stats: ResilienceStats,
) -> FleetSchedule:
    """Shed perturbed queries that already blew their deadline.

    A query deferred (offline window, dragged behind a straggler) past
    ``policy.deadline`` simulated seconds after its scheduled time
    cannot be answered in time, so it is removed from the schedule up
    front and counted — never served silently late.  Probes (audit
    answers are timing-exempt, DESIGN.md §10) and lifecycle events pass
    through untouched.  Returns ``perturbed`` itself when nothing sheds.
    """
    if policy.deadline is None:
        return perturbed
    scheduled = {event.seq: event.time for event in original.ordered()}
    kept = FleetSchedule()
    shed = 0
    for event in perturbed.ordered():
        if (
            event.kind is EventKind.QUERY
            and not isinstance(event.payload, ProbePayload)
            and event.time - scheduled.get(event.seq, event.time) > policy.deadline
        ):
            shed += 1
            continue
        kept.add(event)
    if not shed:
        return perturbed
    stats.shed_queries += shed
    return kept


@dataclass(frozen=True)
class AvailabilityReport:
    """Availability/SLO accounting for one run against one deadline.

    ``penalized`` subtracts answers that only happened through the
    unprotected serve-on-downed-home hole — a no-resilience baseline
    should not get availability credit for them.
    """

    total: int
    answered: int
    on_time: int
    shed: int
    penalized: int
    deadline: float

    @property
    def availability(self) -> float:
        """Fraction of scheduled queries answered at all (degraded tiers
        included, unprotected answers penalized)."""
        if not self.total:
            return 1.0
        return max(0, self.answered - self.penalized) / self.total

    @property
    def slo_attainment(self) -> float:
        """Fraction answered within the deadline (same penalty)."""
        if not self.total:
            return 1.0
        return max(0, self.on_time - self.penalized) / self.total


def measure_availability(
    schedule: FleetSchedule,
    responses: Sequence[QueryResponse],
    deadline: float,
    penalized: int = 0,
) -> AvailabilityReport:
    """Score a run's responses against the *original* schedule.

    Response times carry the perturbed (effective) serve time, so
    latency is ``response.time - scheduled time``; a shed query simply
    has no response.  Probe events are excluded from the denominator.
    """
    scheduled = {
        event.seq: event.time
        for event in schedule.ordered()
        if event.kind is EventKind.QUERY
        and not isinstance(event.payload, ProbePayload)
    }
    answered = on_time = 0
    for response in responses:
        start = scheduled.get(response.seq)
        if start is None:
            continue
        answered += 1
        if response.time - start <= deadline:
            on_time += 1
    return AvailabilityReport(
        total=len(scheduled),
        answered=answered,
        on_time=on_time,
        shed=len(scheduled) - answered,
        penalized=min(penalized, answered),
        deadline=float(deadline),
    )
