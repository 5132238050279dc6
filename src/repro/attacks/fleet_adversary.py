"""The inversion adversary as a fleet serving workload (DESIGN.md §10).

``repro.attacks`` historically ran one user at a time against a bare
:class:`~repro.models.predictor.NextLocationPredictor`.  This module
turns the same adversary into *traffic*: every enumeration attack's
candidate probes (its :class:`~repro.attacks.base.ProbePlan`) are packed
into :class:`ProbeBatch` payloads and issued as ordinary
:class:`~repro.pelican.clock.FleetSchedule` QUERY events against a live
:class:`~repro.pelican.fleet.Fleet` or
:class:`~repro.pelican.cluster.Cluster` — so attack traffic is batched by
the dispatcher, billed in the fleet/cluster books (with an
adversary-vs-benign attribution overlay), routed by placement, and
subject to chaos policies and shard outages, exactly like the benign
queries it hides among.

Two execution paths, mirroring the fleet serving layer's pair:

* **batched** (:func:`run_fleet_audit`) — probes grouped per
  ``(user, window length, k)`` and answered through
  :func:`~repro.pelican.dispatch.dispatch_probe_batch`, each payload in
  chunked fused-kernel batches.  Because the chunk shapes and the
  black-box kernel are identical to
  :meth:`EnumerationAttack.reconstruct`'s own querying, reconstruction
  rankings are **bit-identical** to looping ``InversionAttack.run``
  against the bare predictor.
* **looped** (:func:`run_fleet_audit_looped`) — the executable
  specification and the slow side of ``benchmarks/test_audit_matrix.py``:
  one black-box query per candidate probe, the only interaction pattern
  an adversary restricted to the per-query service API would have.
  Accounting-neutral, like :meth:`Fleet.serve_looped`.

Both paths score through the same
:meth:`~repro.attacks.base.EnumerationAttack.score`, so the paper's
Table II / Fig 2–3 leakage story replays at fleet scale
(``repro.eval.audit`` crosses it with defenses and mobility regimes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.adversary import AdversaryClass, AttackInstance, build_instances
from repro.attacks.base import (
    AttackOutput,
    EnumerationAttack,
    ProbePlan,
    encode_candidates,
    query_output_confidence,
    window_steps,
)
from repro.attacks.runner import AttackEvaluation, UserAttackResult
from repro.data.dataset import SequenceDataset
from repro.models.predictor import NextLocationPredictor
from repro.pelican.clock import FleetSchedule, QueryRequest, QueryResponse
from repro.pelican.dispatch import ProbePayload

#: ``release_factory(predictor, key) -> black-box``: wraps the served
#: model in an output defense before confidences are released.  ``key``
#: is a stable per-(audit seed, user, instance) tuple, so seeded defenses
#: (Gaussian noise) draw identical perturbation streams on the batched
#: and looped paths.
ReleaseFactory = Callable[[Any, Tuple[int, ...]], Any]


@dataclass(frozen=True, eq=False)
class ProbeBatch(ProbePayload):
    """All candidate probes of one attack instance, as one serving payload.

    The fleet-scale unit of attack traffic (DESIGN.md §10): one
    :class:`~repro.attacks.base.ProbePlan` against one user's model,
    carried by a single QUERY event.  The payload encodes itself at
    dispatch time (compact integer grids until then) and queries through
    the same chunked black-box kernel
    (:func:`~repro.attacks.base.query_output_confidence`) the direct
    attack path uses — bit-identical confidences, hence bit-identical
    reconstruction rankings.
    """

    user_id: int
    instance: AttackInstance
    plan: ProbePlan
    #: Optional output-defense wrapper applied at release time (the
    #: provider-side defense the audit cell is measuring).
    release: Optional[Callable[[NextLocationPredictor], Any]] = None

    def __len__(self) -> int:
        return len(window_steps(self.instance.known, self.plan.candidate_features))

    @property
    def num_probes(self) -> int:
        return self.plan.n

    def confidences(self, predictor: NextLocationPredictor) -> np.ndarray:
        black_box = predictor if self.release is None else self.release(predictor)
        batch = encode_candidates(
            predictor.spec,
            self.instance.known,
            self.plan.candidate_features,
            self.instance.day_of_week,
            self.plan.n,
        )
        return query_output_confidence(
            black_box, batch, self.instance.observed_output
        )


@dataclass
class AuditTarget:
    """One user under audit: the windows to attack and the prior.

    ``attack_windows`` are ground-truth windows the service actually
    served (their history is what the adversary reconstructs);
    ``prior`` is the adversary's marginal over locations
    (paper §IV-B3 — typically the TRUE prior from the user's training
    split, the upper-bound adversary).
    """

    user_id: int
    attack_windows: SequenceDataset
    prior: np.ndarray


class AuditAdversary:
    """An honest-but-curious provider attacking its own deployment.

    Wraps one enumeration attack (paper §III-B2) and one adversary class
    (Table I) and turns them into fleet traffic: :meth:`probes_for`
    derives the candidate plans, :meth:`schedule_probes` rides them onto
    an event schedule, and :meth:`evaluate` scores the served confidences
    into the same :class:`~repro.attacks.runner.AttackEvaluation` the
    direct runner produces.

    Parameters
    ----------
    attack:
        The enumeration attack supplying plans.  The gradient-descent
        attack is *not* expressible here: it needs white-box gradient
        access, which the serving stack never exposes (DESIGN.md §10).
    adversary:
        Adversary knowledge class A1/A2/A3 (paper Table I).
    max_instances:
        Attack at most this many windows per user (``None`` = all).
    release_factory:
        Optional output-defense wrapper (see :data:`ReleaseFactory`).
    seed:
        Base seed for per-instance defense derivations.
    """

    def __init__(
        self,
        attack: EnumerationAttack,
        adversary: AdversaryClass = AdversaryClass.A1,
        max_instances: Optional[int] = None,
        release_factory: Optional[ReleaseFactory] = None,
        seed: int = 0,
    ) -> None:
        if not isinstance(attack, EnumerationAttack):
            raise TypeError(
                "fleet audits require an enumeration attack (plan/score split); "
                f"got {type(attack).__name__} — the gradient attack needs "
                "white-box access the serving stack does not expose"
            )
        if not attack.supports(adversary):
            raise ValueError(
                f"{attack.name!r} cannot plan for adversary class "
                f"{adversary.value} (missing steps {adversary.missing_steps})"
            )
        self.attack = attack
        self.adversary = adversary
        self.max_instances = max_instances
        self.release_factory = release_factory
        self.seed = seed

    # ------------------------------------------------------------------
    # Probe construction
    # ------------------------------------------------------------------
    def instances_for(self, target: AuditTarget) -> List[AttackInstance]:
        """The attack instances derived from a target's served windows."""
        windows = target.attack_windows.windows
        if self.max_instances is not None:
            windows = windows[: self.max_instances]
        return build_instances(list(windows), self.adversary)

    def _release(self, user_id: int, index: int):
        if self.release_factory is None:
            return None
        factory, key = self.release_factory, (self.seed, user_id, index)
        return lambda predictor: factory(predictor, key)

    def plan_for(
        self, spec, target: AuditTarget
    ) -> List[Tuple[AttackInstance, ProbePlan]]:
        """The (instance, candidate plan) pairs for one target.

        Plans depend only on the attack, the adversary class, and the
        target's windows — not on any defense — so callers sweeping a
        defense axis (the audit suite) derive them once and rebuild only
        the cheap :class:`ProbeBatch` wrappers per cell.
        """
        return [
            (instance, self.attack.plan(instance, spec))
            for instance in self.instances_for(target)
        ]

    def probes_for(
        self,
        spec,
        target: AuditTarget,
        planned: Optional[List[Tuple[AttackInstance, ProbePlan]]] = None,
    ) -> List[ProbeBatch]:
        """One :class:`ProbeBatch` per attack instance of ``target``.

        ``planned`` short-circuits plan derivation with a precomputed
        :meth:`plan_for` result (grids are read-only, safe to share).
        """
        if planned is None:
            planned = self.plan_for(spec, target)
        return [
            ProbeBatch(
                user_id=target.user_id,
                instance=instance,
                plan=plan,
                release=self._release(target.user_id, index),
            )
            for index, (instance, plan) in enumerate(planned)
        ]

    def schedule_probes(
        self,
        schedule: FleetSchedule,
        time: float,
        spec,
        targets: Sequence[AuditTarget],
        planned: Optional[Dict[int, List[Tuple[AttackInstance, ProbePlan]]]] = None,
    ) -> Dict[int, ProbeBatch]:
        """Append every target's probes as QUERY events at ``time``.

        All probes share one clock tick, so they coalesce into one
        serving batch per user — attack traffic arrives exactly like a
        benign concurrent burst.  Returns ``{event seq: probe batch}``
        for matching served responses back to their instances.
        ``planned`` optionally maps user id to a precomputed
        :meth:`plan_for` result.
        """
        by_seq: Dict[int, ProbeBatch] = {}
        for target in targets:
            batches = self.probes_for(
                spec, target, None if planned is None else planned[target.user_id]
            )
            for batch in batches:
                by_seq[schedule.next_seq] = batch
                schedule.probe(time, target.user_id, batch)
        return by_seq

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def evaluate(
        self,
        served: Sequence[Tuple[ProbeBatch, Sequence[float]]],
        priors: Dict[int, np.ndarray],
    ) -> AttackEvaluation:
        """Score served probe confidences into an AttackEvaluation.

        ``served`` pairs each probe batch with the confidences the fleet
        returned for it (a :class:`~repro.pelican.clock.QueryResponse`'s
        ``confidences`` field); ``priors`` maps user id to the adversary
        prior.  Scoring is byte-for-byte
        :meth:`~repro.attacks.base.EnumerationAttack.score`, so identical
        confidences reproduce the direct attack path's rankings exactly.
        Simulated attacks have no meaningful wall-clock per instance, so
        ``elapsed_seconds`` stays zero (callers time whole serving runs).
        """
        evaluation = AttackEvaluation(
            attack_name=self.attack.name, adversary=self.adversary
        )
        for batch, confidences in served:
            reconstructions = self.attack.score(
                batch.instance,
                batch.plan,
                np.asarray(confidences, dtype=float),
                priors[batch.user_id],
            )
            result = evaluation.per_user.setdefault(
                batch.user_id, UserAttackResult(user_id=batch.user_id)
            )
            result.outputs.append(
                AttackOutput(
                    instance=batch.instance,
                    reconstructions=reconstructions,
                    num_queries=batch.plan.n,
                    elapsed_seconds=0.0,
                )
            )
        return evaluation


# ----------------------------------------------------------------------
# Direct serve-mode entry points (the benchmark pair)
# ----------------------------------------------------------------------
def _endpoints(fleet) -> Dict[int, Any]:
    """user -> endpoint for a Fleet or Cluster."""
    return {uid: user.endpoint for uid, user in fleet.users.items()}


def audit_requests(
    adversary: AuditAdversary, spec, targets: Sequence[AuditTarget]
) -> Tuple[List[QueryRequest], List[ProbeBatch]]:
    """The adversary's probe burst as concurrent serving requests."""
    batches = [
        batch for target in targets for batch in adversary.probes_for(spec, target)
    ]
    requests = [
        QueryRequest(user_id=batch.user_id, history=batch, k=0) for batch in batches
    ]
    return requests, batches


def run_fleet_audit(
    fleet, adversary: AuditAdversary, targets: Sequence[AuditTarget]
) -> Tuple[AttackEvaluation, List[QueryResponse]]:
    """Attack a live deployment through the batched serving path.

    Issues every probe as one concurrent burst through ``fleet.serve``
    (grouped per user, dispatched through the fused probe kernel, billed
    in the fleet books with adversary attribution) and scores the
    responses.  Rankings are bit-identical to looping
    ``InversionAttack.run`` over the same instances against the bare
    endpoints — asserted by ``tests/attacks/test_fleet_adversary.py`` and
    ``benchmarks/test_audit_matrix.py``.
    """
    requests, batches = audit_requests(adversary, fleet.spec, targets)
    responses = fleet.serve(requests)
    if len(responses) != len(batches):
        # Positional pairing below would silently shift every confidence
        # onto the wrong instance if a serve path ever dropped a request.
        raise RuntimeError(
            f"audit serve answered {len(responses)} of {len(batches)} probe "
            "batches; refusing to score a misaligned audit"
        )
    priors = {target.user_id: target.prior for target in targets}
    evaluation = adversary.evaluate(
        [(batch, response.confidences) for batch, response in zip(batches, responses)],
        priors,
    )
    return evaluation, responses


def run_fleet_audit_looped(
    fleet, adversary: AuditAdversary, targets: Sequence[AuditTarget]
) -> AttackEvaluation:
    """Reference audit path: one black-box query per candidate probe.

    This is what an adversary holding only the per-query service API
    must do — ``plan.n`` separate single-row confidence queries per
    instance — and it is the slow side of the audit benchmark, exactly
    as :meth:`Fleet.serve_looped` is for benign serving.  It is
    accounting-neutral: models are read through the (bit-identical)
    deployed endpoints and per-predictor query counters are restored, so
    running the reference never perturbs the books of the batched path.
    """
    spec = fleet.spec
    endpoints = _endpoints(fleet)
    priors = {target.user_id: target.prior for target in targets}
    served: List[Tuple[ProbeBatch, np.ndarray]] = []
    saved_counts = {
        uid: endpoint.predictor.query_count for uid, endpoint in endpoints.items()
    }
    try:
        for target in targets:
            predictor = endpoints[target.user_id].predictor
            for batch in adversary.probes_for(spec, target):
                black_box = (
                    predictor if batch.release is None else batch.release(predictor)
                )
                encoded = encode_candidates(
                    spec,
                    batch.instance.known,
                    batch.plan.candidate_features,
                    batch.instance.day_of_week,
                    batch.plan.n,
                )
                confidences = np.empty(batch.plan.n)
                target_class = batch.instance.observed_output
                for row in range(batch.plan.n):
                    confidences[row] = black_box.confidences_encoded(
                        encoded[row : row + 1]
                    )[0, target_class]
                served.append((batch, confidences))
    finally:
        for uid, endpoint in endpoints.items():
            endpoint.predictor.query_count = saved_counts[uid]
    return adversary.evaluate(served, priors)


def rankings(evaluation: AttackEvaluation) -> Dict[Tuple[int, int, int], Tuple[int, ...]]:
    """Every reconstruction's ranked-location tuple, keyed by
    ``(user, instance index, step)`` — the projection the audit parity
    gates compare bit-for-bit across execution paths."""
    out: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
    for uid, result in evaluation.per_user.items():
        for index, output in enumerate(result.outputs):
            for step, recon in sorted(output.reconstructions.items()):
                out[(uid, index, step)] = tuple(int(l) for l in recon.ranked_locations)
    return out
