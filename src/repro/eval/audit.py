"""Fleet-scale privacy audit matrix: adversaries × defenses × regimes
(DESIGN.md §10).

The paper's headline result — inversion attacks against personalized
models and the defenses that blunt them (Table II, Figs 2–3, Fig 5) — is
replayed here as a *serving workload*: for every requested mobility
regime a fleet (or sharded cluster) is stood up on a regime-specific
corpus, devices onboard under the cell's defense, a benign query workload
runs, and then an :class:`~repro.attacks.fleet_adversary.AuditAdversary`
attacks the live deployment through the serving stack — probe traffic
batched by the dispatcher, billed in the fleet books (with the
adversary-vs-benign attribution overlay), routed by placement, and
subject to whatever chaos policy the cell runs under.

Everything is seeded: the same scale, regimes, defenses, adversary
classes, and seeds reproduce an identical :meth:`AuditReport.signature`
(the ``audit`` CLI subcommand and ``tests/eval/test_audit.py`` rely on
this, and ``tests/eval/test_audit_golden.py`` pins one canonical run).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.adversary import AdversaryClass
from repro.attacks.base import EnumerationAttack
from repro.attacks.brute_force import BruteForceAttack
from repro.attacks.fleet_adversary import AuditAdversary, AuditTarget, ProbeBatch
from repro.attacks.priors import true_prior
from repro.attacks.time_based import TimeBasedAttack
from repro.data.corpus import MobilityCorpus
from repro.data.dataset import SequenceDataset
from repro.data.features import SpatialLevel
from repro.data.regimes import generate_regime_corpus, resolve_regime
from repro.eval.config import ExperimentScale
from repro.eval.fleet import build_cell_fleet, named_resilience, trained_pelican
from repro.pelican.chaos import chaos_policy
from repro.pelican.defenses import (
    GaussianNoiseDefense,
    RoundingDefense,
    TopKOnlyDefense,
)
from repro.pelican.fleet import FleetSchedule
from repro.pelican.privacy import DEFAULT_PRIVACY_TEMPERATURE

LEVEL = SpatialLevel.BUILDING


# ----------------------------------------------------------------------
# The defense axis (paper §V-B temperature layer + Table V taxonomy)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AuditDefense:
    """One defense configuration an audit cell deploys under.

    ``temperature`` is the on-device privacy tuner users onboard with
    (paper §V-B; ``1.0`` disables the layer); ``release_factory``
    optionally wraps the served model in a provider-side output
    perturbation (``pelican/defenses.py``, Table V) before confidences
    are released — keyed per (audit seed, user, instance) so seeded
    defenses stay deterministic on every execution path.
    """

    name: str
    temperature: float = 1.0
    release_factory: Optional[Callable[[Any, Tuple[int, ...]], Any]] = None


AUDIT_DEFENSES: Dict[str, AuditDefense] = {
    defense.name: defense
    for defense in (
        AuditDefense(name="none"),
        AuditDefense(name="temperature", temperature=DEFAULT_PRIVACY_TEMPERATURE),
        AuditDefense(
            name="gaussian",
            release_factory=lambda predictor, key: GaussianNoiseDefense(
                predictor, sigma=0.05, seed=key
            ),
        ),
        AuditDefense(
            name="rounding",
            release_factory=lambda predictor, key: RoundingDefense(
                predictor, decimals=2
            ),
        ),
        AuditDefense(
            name="topk",
            release_factory=lambda predictor, key: TopKOnlyDefense(predictor, k=3),
        ),
    )
}

#: Enumeration attacks the audit can replay at fleet scale.  The
#: gradient attack is excluded by construction: it needs white-box
#: gradients the serving stack never exposes (DESIGN.md §10).
AUDIT_ATTACKS: Dict[str, Callable[[], EnumerationAttack]] = {
    "time_based": TimeBasedAttack,
    "brute_force": BruteForceAttack,
}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class AuditCell:
    """One (regime, defense, adversary-class) cell of the audit matrix."""

    regime: str
    defense: str
    adversary: str
    attack: str
    scale: str
    num_users: int
    #: Users that contributed at least one reconstruction (the NaN fix:
    #: empty users are excluded from leakage, reported here instead).
    covered_users: int
    num_instances: int
    #: Pooled attack accuracy per k — the leakage the paper's Figs 2–3
    #: report, measured against the live deployment.
    leakage: Dict[int, float]
    #: Benign serving hit rate over the same cell's workload.
    benign_hit_rate: float
    benign_queries: int
    adversary_queries: int
    adversary_network_seconds: float
    #: Full fleet/cluster signature (report + chaos counters).
    signature: Dict[str, Any]
    num_shards: int = 1


@dataclass
class AuditReport:
    """The full adversaries × defenses × regimes matrix at one scale.

    :meth:`signature` is the deterministic projection: identical
    configuration and seeds reproduce it bit-for-bit (wall clock is
    excluded everywhere upstream), so audit runs are directly comparable
    — and regression-pinnable — across machines and commits.
    """

    scale: str
    attack: str
    chaos_policy: str
    chaos_seed: int
    audit_seed: int
    ks: Tuple[int, ...]
    cells: List[AuditCell]
    num_shards: int = 1
    resilience: str = "none"

    def cell(self, regime: str, defense: str, adversary: str) -> AuditCell:
        for cell in self.cells:
            if (cell.regime, cell.defense, cell.adversary) == (
                regime,
                defense,
                adversary,
            ):
                return cell
        raise KeyError(f"no audit cell ({regime!r}, {defense!r}, {adversary!r})")

    def signature(self) -> Dict[str, Any]:
        signature: Dict[str, Any] = {
            "scale": self.scale,
            "attack": self.attack,
            "chaos_policy": self.chaos_policy,
            "chaos_seed": self.chaos_seed,
            "audit_seed": self.audit_seed,
            "num_shards": self.num_shards,
        }
        # Joined only when a resilience policy is active, so the pinned
        # golden signature's key set never moves (DESIGN.md §11).
        if self.resilience != "none":
            signature["resilience"] = self.resilience
        signature["cells"] = {
                f"{cell.regime}/{cell.defense}/{cell.adversary}": {
                    "leakage": {str(k): v for k, v in cell.leakage.items()},
                    "benign_hit_rate": cell.benign_hit_rate,
                    "benign_queries": cell.benign_queries,
                    "adversary_queries": cell.adversary_queries,
                    "covered_users": cell.covered_users,
                    "num_instances": cell.num_instances,
                    "signature": cell.signature,
                }
                for cell in self.cells
        }
        return signature


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_audit_schedule(
    corpus: MobilityCorpus,
    splits: Dict[int, Tuple[SequenceDataset, SequenceDataset]],
    temperature: float,
    queries_per_user: int = 2,
    k: int = 3,
) -> Tuple[FleetSchedule, Dict[int, int]]:
    """The benign half of one audit cell's workload, plus ground truth.

    Exactly the scenario matrix's cell workload
    (:func:`repro.eval.scenarios.build_scenario_schedule` — one shared
    definition of the shape), with the cell's privacy temperature fixed
    on every onboard and *no* mid-run update: audit leakage must be
    fault-timing invariant, so model state stays fixed once deployed
    (DESIGN.md §10).  The adversary's probes are appended afterwards via
    :meth:`~repro.attacks.fleet_adversary.AuditAdversary.schedule_probes`.
    """
    from repro.eval.scenarios import build_scenario_schedule

    return build_scenario_schedule(
        corpus,
        splits,
        queries_per_user=queries_per_user,
        k=k,
        temperature=temperature,
        include_update=False,
    )


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_audit_suite(
    scale: ExperimentScale,
    regimes: Sequence[str] = ("campus",),
    defenses: Sequence[str] = ("none", "temperature"),
    adversaries: Sequence[str] = ("A1",),
    attack: str = "time_based",
    policy: str = "none",
    chaos_seed: int = 0,
    audit_seed: int = 0,
    queries_per_user: int = 2,
    registry_capacity: Optional[int] = 2,
    num_shards: int = 1,
    max_instances: Optional[int] = None,
    fast_setup: bool = True,
    ks: Tuple[int, ...] = (1, 2, 3),
    resilience: Optional[str] = None,
    deadline: Optional[float] = None,
) -> AuditReport:
    """Cross adversary classes × defenses × mobility regimes at one scale.

    Every cell runs the identical recipe on a fixed seeded schedule:
    onboard the regime's population under the cell's defense, serve the
    benign workload, then attack the live deployment through the batched
    probe path (DESIGN.md §10).  Leakage (attack hit@k), benign serving
    accuracy, and the adversary-vs-benign accounting split all come from
    one run per cell, so the matrix reads like the paper's Table II /
    Fig 5 but measured against the production-shaped stack —
    ``num_shards > 1`` audits a placement-routed cluster, and ``policy``
    replays every cell under a chaos condition (probe rankings are
    invariant to fault timing because audit schedules carry no updates;
    only the books move).  ``resilience``/``deadline`` layer a
    fault-handling policy over every cell (DESIGN.md §11) — probes are
    exempt from shedding and degradation by construction, so leakage
    stays invariant while the accounting overlay reflects the policy.
    """
    if attack not in AUDIT_ATTACKS:
        raise KeyError(f"unknown audit attack {attack!r}; options: {sorted(AUDIT_ATTACKS)}")
    unknown = [d for d in defenses if d not in AUDIT_DEFENSES]
    if unknown:
        raise KeyError(f"unknown defenses {unknown}; options: {sorted(AUDIT_DEFENSES)}")
    # Validate the whole matrix *before* any corpus/training work: an
    # incompatible pairing (brute force x A3) must fail in milliseconds,
    # not after minutes of setup.
    probe_attack = AUDIT_ATTACKS[attack]()
    for adversary_name in adversaries:
        if not probe_attack.supports(AdversaryClass(adversary_name)):
            raise ValueError(
                f"attack {attack!r} cannot plan for adversary class "
                f"{adversary_name} (missing steps "
                f"{AdversaryClass(adversary_name).missing_steps})"
            )
    if max_instances is None:
        max_instances = scale.attack_instances_per_user
    res_policy = named_resilience(resilience, chaos_seed, deadline)
    cells: List[AuditCell] = []
    pelican = training_report = None
    for regime_name in regimes:
        regime = resolve_regime(regime_name)
        corpus = generate_regime_corpus(scale.corpus, regime)
        spec = corpus.spec(LEVEL)
        splits = {
            uid: corpus.user_dataset(uid, LEVEL).split(0.8)
            for uid in corpus.personal_ids
        }
        if pelican is None:
            pelican, training_report = trained_pelican(scale, corpus, fast_setup)
        audit_targets = [
            AuditTarget(
                user_id=uid,
                attack_windows=splits[uid][1],
                prior=true_prior(splits[uid][0]),
            )
            for uid in corpus.personal_ids
        ]
        for adversary_name in adversaries:
            # Candidate plans depend only on (attack, adversary class,
            # windows) — derive them once per regime and share the grids
            # across the defense axis (ProbeBatch wrappers stay per cell,
            # they carry the defense's release hook).
            planner = AuditAdversary(
                attack=AUDIT_ATTACKS[attack](),
                adversary=AdversaryClass(adversary_name),
                max_instances=max_instances,
                seed=audit_seed,
            )
            planned = {
                target.user_id: planner.plan_for(spec, target)
                for target in audit_targets
            }
            for defense_name in defenses:
                defense = AUDIT_DEFENSES[defense_name]
                adversary = AuditAdversary(
                    attack=AUDIT_ATTACKS[attack](),
                    adversary=AdversaryClass(adversary_name),
                    max_instances=max_instances,
                    release_factory=defense.release_factory,
                    seed=audit_seed,
                )
                schedule, benign_truth = build_audit_schedule(
                    corpus,
                    splits,
                    temperature=defense.temperature,
                    queries_per_user=queries_per_user,
                )
                probe_tick = max(e.time for e in schedule.ordered()) + 10.0
                probes_by_seq = adversary.schedule_probes(
                    schedule, probe_tick, spec, audit_targets, planned=planned
                )
                fleet = build_cell_fleet(
                    copy.deepcopy(pelican),
                    training_report,
                    num_shards=num_shards,
                    registry_capacity=registry_capacity,
                    policy=chaos_policy(policy, seed=chaos_seed),
                    resilience=res_policy,
                )
                responses = fleet.run(schedule)
                benign_hits = benign_total = 0
                served_probes: List[Tuple[ProbeBatch, Sequence[float]]] = []
                for response in responses:
                    if response.seq in probes_by_seq:
                        served_probes.append(
                            (probes_by_seq[response.seq], response.confidences)
                        )
                    else:
                        benign_total += 1
                        if benign_truth[response.seq] in [
                            loc for loc, _ in response.top_k
                        ]:
                            benign_hits += 1
                priors = {t.user_id: t.prior for t in audit_targets}
                evaluation = adversary.evaluate(served_probes, priors)
                cells.append(
                    AuditCell(
                        regime=regime.name,
                        defense=defense_name,
                        adversary=adversary_name,
                        attack=attack,
                        scale=scale.name,
                        num_users=len(corpus.personal_ids),
                        covered_users=len(evaluation.covered_users),
                        num_instances=sum(
                            len(r.outputs) for r in evaluation.per_user.values()
                        ),
                        leakage=evaluation.accuracy_series(ks),
                        benign_hit_rate=(
                            benign_hits / benign_total if benign_total else 0.0
                        ),
                        benign_queries=benign_total,
                        adversary_queries=fleet.report.adversary_queries,
                        adversary_network_seconds=fleet.report.adversary_network_seconds,
                        signature=fleet.signature(),
                        num_shards=num_shards,
                    )
                )
    return AuditReport(
        scale=scale.name,
        attack=attack,
        chaos_policy=policy,
        chaos_seed=chaos_seed,
        audit_seed=audit_seed,
        ks=tuple(ks),
        cells=cells,
        num_shards=num_shards,
        resilience=res_policy.name if res_policy is not None else "none",
    )
