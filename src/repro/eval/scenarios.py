"""Scenario matrix: mobility regimes × chaos policies × scale tiers.

The paper evaluates on one well-behaved campus population over a clean
network.  :func:`run_scenario_suite` is the stress-testing counterpart:
for every requested mobility regime (:data:`repro.data.regimes.REGIMES`)
it stands up a fleet on a regime-specific corpus, replays one fixed
interleaved workload under every requested chaos policy
(:data:`repro.pelican.chaos.CHAOS_POLICIES`), and reports serving
accuracy and per-side cost *deltas against the same regime's clean run* —
so the output separates what the population costs from what the faults
cost.

Everything is seeded: the same scale, regimes, policies, and chaos seed
reproduce identical signatures (the ``scenarios`` CLI subcommand and
``tests/eval/test_scenarios.py`` rely on this).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.corpus import MobilityCorpus
from repro.data.dataset import SequenceDataset
from repro.data.features import SpatialLevel
from repro.data.regimes import resolve_regime, generate_regime_corpus
from repro.eval.config import ExperimentScale
from repro.eval.fleet import build_cell_fleet, named_resilience, trained_pelican
from repro.pelican.chaos import chaos_policy
from repro.pelican.deployment import DeploymentMode
from repro.pelican.fleet import FleetSchedule
from repro.pelican.resilience import (
    DEFAULT_QUERY_DEADLINE,
    ResiliencePolicy,
    measure_availability,
    measurement_deadline,
)
from repro.pelican.system import Pelican

LEVEL = SpatialLevel.BUILDING


@dataclass
class ScenarioResult:
    """One (regime, policy) cell of the matrix."""

    regime: str
    policy: str
    scale: str
    num_users: int
    num_queries: int
    k: int
    #: Fraction of queries whose true next location was in the served top-k.
    hit_rate: float
    signature: Dict[str, Any]
    chaos: Dict[str, Any]
    num_shards: int = 1
    # Deltas vs the same regime's clean ("none"-policy) run; zero there.
    hit_rate_delta: float = 0.0
    network_seconds_delta: float = 0.0
    cloud_seconds_delta: float = 0.0
    device_seconds_delta: float = 0.0
    registry_load_seconds_delta: float = 0.0
    # Resilience overlay (DESIGN.md §11).  Every cell — including the
    # clean baseline — is scored against the same deadline, so
    # availability and SLO attainment are comparable across the row.
    resilience: str = "none"
    deadline: float = DEFAULT_QUERY_DEADLINE
    availability: float = 1.0
    slo_attainment: float = 1.0
    shed_queries: int = 0
    degraded_queries: int = 0


@dataclass
class ScenarioSuiteResult:
    """The full regimes × policies matrix at one scale tier."""

    scale: str
    chaos_seed: int
    results: List[ScenarioResult]
    num_shards: int = 1
    resilience: str = "none"
    deadline: float = DEFAULT_QUERY_DEADLINE

    def cell(self, regime: str, policy: str) -> ScenarioResult:
        for result in self.results:
            if result.regime == regime and result.policy == policy:
                return result
        raise KeyError(f"no scenario cell ({regime!r}, {policy!r})")


def build_scenario_schedule(
    corpus: MobilityCorpus,
    splits: Dict[int, Tuple[SequenceDataset, SequenceDataset]],
    queries_per_user: int = 4,
    k: int = 3,
    temperature: Optional[float] = None,
    include_update: bool = True,
) -> Tuple[FleetSchedule, Dict[int, int]]:
    """The canonical matrix-cell workload plus its ground truth.

    Devices onboard one per tick (alternating local/cloud deployment so
    both serving sides and the registry are exercised), then every device
    queries once per tick for ``queries_per_user`` ticks spaced 10 clock
    units apart — wide enough that offline windows (duration ~12) defer
    events across ticks.  One incremental update lands mid-run (unless
    ``include_update`` is off — the audit suite must keep model state
    fixed so probe observations are fault-timing invariant, DESIGN.md
    §10), and ``temperature`` optionally fixes every user's privacy
    tuner (the audit suite's defense axis).  Returns
    ``(schedule, targets)`` where ``targets[seq]`` is the query event's
    true next location, for scoring served responses.  This is the one
    definition of the cell workload shape — the scenario and audit
    matrices both build through it.
    """
    schedule = FleetSchedule()
    targets: Dict[int, int] = {}
    onboard_options = {} if temperature is None else {"privacy_temperature": temperature}
    for i, uid in enumerate(corpus.personal_ids):
        mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
        schedule.onboard(
            float(i), uid, splits[uid][0], deployment=mode, **onboard_options
        )
    # Query ticks start strictly after the last onboard, whatever the
    # population size — a query must never precede its user's onboard.
    tick = float(len(corpus.personal_ids)) + 10.0
    for j in range(queries_per_user):
        for uid in corpus.personal_ids:
            holdout = splits[uid][1]
            window = holdout.windows[j % len(holdout.windows)]
            targets[schedule.next_seq] = window.target
            schedule.query(tick, uid, window.history, k=k)
        if include_update and queries_per_user > 1 and j == queries_per_user // 2 - 1:
            first = corpus.personal_ids[0]
            schedule.update(tick + 5.0, first, splits[first][1])
        tick += 10.0
    return schedule, targets


def _run_cell(
    pelican: Pelican,
    training_report,
    schedule: FleetSchedule,
    targets: Dict[int, int],
    policy_name: str,
    chaos_seed: int,
    registry_capacity: Optional[int],
    num_shards: int = 1,
    resilience: Optional[ResiliencePolicy] = None,
):
    fleet = build_cell_fleet(
        copy.deepcopy(pelican),
        training_report,
        num_shards=num_shards,
        registry_capacity=registry_capacity,
        policy=chaos_policy(policy_name, seed=chaos_seed),
        resilience=resilience,
    )
    responses = fleet.run(schedule)
    hits = sum(
        1
        for response in responses
        if targets[response.seq] in [loc for loc, _ in response.top_k]
    )
    hit_rate = hits / len(responses) if responses else 0.0
    return fleet, responses, hit_rate, len(responses)


def run_scenario_suite(
    scale: ExperimentScale,
    regimes: Sequence[str] = ("campus", "commuter", "tourist"),
    policies: Sequence[str] = ("none", "lossy_network", "churn"),
    queries_per_user: int = 4,
    registry_capacity: Optional[int] = 2,
    k: int = 3,
    fast_setup: bool = True,
    chaos_seed: int = 0,
    num_shards: int = 1,
    resilience: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ScenarioSuiteResult:
    """Cross regimes × chaos policies at one scale tier.

    Each regime gets its own corpus and one fixed schedule; every policy
    replays that exact workload (the chaos layer only perturbs timing and
    cost), so within a regime the cells are directly comparable.  The
    clean baseline (policy ``none``) is always computed — even when not
    requested — because every faulty cell reports deltas against it.

    ``num_shards > 1`` runs every cell on a
    :class:`~repro.pelican.cluster.Cluster` instead of a single-cloud
    fleet — the scale axis the matrix sweeps for sharded serving,
    including shard-outage policies with cross-shard failover.

    ``resilience`` names a :data:`~repro.pelican.resilience.RESILIENCE_POLICIES`
    preset applied to *every* cell (DESIGN.md §11); ``deadline``
    overrides the policy's per-query deadline.  Availability and SLO
    attainment are measured for every cell — with or without a policy —
    against one common deadline
    (:func:`~repro.pelican.resilience.measurement_deadline`), so a
    resilient run and an unprotected baseline read on the same scale.
    """
    res_policy = named_resilience(resilience, chaos_seed, deadline)
    measure_deadline = measurement_deadline(deadline, res_policy)
    results: List[ScenarioResult] = []
    pelican = training_report = None
    for regime_name in regimes:
        regime = resolve_regime(regime_name)
        corpus = generate_regime_corpus(scale.corpus, regime)
        splits = {
            uid: corpus.user_dataset(uid, LEVEL).split(0.8)
            for uid in corpus.personal_ids
        }
        schedule, targets = build_scenario_schedule(
            corpus, splits, queries_per_user=queries_per_user, k=k
        )
        if pelican is None:
            pelican, training_report = trained_pelican(scale, corpus, fast_setup)

        def run_one(policy_name: str) -> ScenarioResult:
            fleet, responses, hit_rate, num_queries = _run_cell(
                pelican, training_report, schedule, targets, policy_name,
                chaos_seed, registry_capacity,
                num_shards=num_shards, resilience=res_policy,
            )
            stats = fleet.resilience_stats
            availability = measure_availability(
                schedule,
                responses,
                measure_deadline,
                penalized=stats.unprotected_outage_queries,
            )
            return ScenarioResult(
                regime=regime.name,
                policy=policy_name,
                scale=scale.name,
                num_users=len(corpus.personal_ids),
                num_queries=num_queries,
                k=k,
                hit_rate=hit_rate,
                signature=fleet.report.signature(),
                chaos=fleet.merged_chaos(),
                num_shards=num_shards,
                resilience=res_policy.name if res_policy is not None else "none",
                deadline=measure_deadline,
                availability=availability.availability,
                slo_attainment=availability.slo_attainment,
                shed_queries=availability.shed,
                degraded_queries=sum(1 for r in responses if r.degraded),
            )

        baseline = run_one("none")
        for policy_name in policies:
            if policy_name == "none":
                results.append(baseline)
                continue
            cell = run_one(policy_name)
            cell.hit_rate_delta = cell.hit_rate - baseline.hit_rate
            cell.network_seconds_delta = (
                cell.signature["network_seconds"]
                - baseline.signature["network_seconds"]
            )
            cell.cloud_seconds_delta = (
                cell.signature["cloud_simulated_seconds"]
                - baseline.signature["cloud_simulated_seconds"]
            )
            cell.device_seconds_delta = (
                cell.signature["device_simulated_seconds"]
                - baseline.signature["device_simulated_seconds"]
            )
            cell.registry_load_seconds_delta = (
                cell.signature["registry_load_seconds"]
                - baseline.signature["registry_load_seconds"]
            )
            results.append(cell)
    return ScenarioSuiteResult(
        scale=scale.name,
        chaos_seed=chaos_seed,
        results=results,
        num_shards=num_shards,
        resilience=res_policy.name if res_policy is not None else "none",
        deadline=measure_deadline,
    )
