"""The privacy-audit adversary as a serving workload (DESIGN.md §10).

Pins the tentpole guarantees:

* **ranking parity** — the batched audit path (probes grouped per user
  and dispatched through the fused probe kernel) produces reconstruction
  rankings bit-identical to looping ``InversionAttack.run`` against the
  bare endpoints *and* to the one-query-per-probe looped reference;
* **accounting** — probe traffic is billed in the fleet books (queries,
  batches, MACs, network) and mirrored into the adversary attribution
  overlay; per-endpoint query ledgers conserve; the looped reference is
  accounting-neutral;
* **event-clock integration** — probes ride QUERY events: they coalesce,
  defer under chaos (rankings invariant), and route/fail over across
  cluster shards (rankings still invariant);
* **defenses** — release-time output defenses are deterministic and the
  temperature defense never *increases* leakage.
"""

import copy

import numpy as np
import pytest

from repro.attacks import (
    AdversaryClass,
    AuditAdversary,
    AuditTarget,
    BruteForceAttack,
    GradientDescentAttack,
    TimeBasedAttack,
    evaluate_attack,
    run_fleet_audit,
    run_fleet_audit_looped,
    true_prior,
)
from repro.attacks.fleet_adversary import audit_requests, rankings
from repro.data import SpatialLevel
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    ChaosPolicy,
    Cluster,
    DeploymentMode,
    Fleet,
    FleetSchedule,
    Pelican,
    PelicanConfig,
)

LEVEL = SpatialLevel.BUILDING
MAX_INSTANCES = 3


@pytest.fixture(scope="module")
def audit_base(tiny_corpus):
    """(pristine trained pelican, onboarded fleet, splits, targets)."""
    pelican = Pelican(
        tiny_corpus.spec(LEVEL),
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=16, epochs=2, patience=None),
            personalization=PersonalizationConfig(epochs=2, patience=None),
            privacy_temperature=1e-3,
            seed=3,
        ),
    )
    train, _ = tiny_corpus.contributor_dataset(LEVEL).split_by_user(0.8)
    pelican.initial_training(train)
    splits = {
        uid: tiny_corpus.user_dataset(uid, LEVEL).split(0.8)
        for uid in tiny_corpus.personal_ids
    }
    pristine = copy.deepcopy(pelican)
    fleet = Fleet(pelican, registry_capacity=1)
    for i, uid in enumerate(tiny_corpus.personal_ids):
        mode = DeploymentMode.CLOUD if i % 2 == 0 else DeploymentMode.LOCAL
        fleet.onboard(uid, splits[uid][0], deployment=mode)
    targets = [
        AuditTarget(
            user_id=uid,
            attack_windows=splits[uid][1],
            prior=true_prior(splits[uid][0]),
        )
        for uid in tiny_corpus.personal_ids
    ]
    return pristine, fleet, splits, targets


def make_adversary(**kwargs):
    defaults = dict(
        attack=TimeBasedAttack(),
        adversary=AdversaryClass.A1,
        max_instances=MAX_INSTANCES,
    )
    defaults.update(kwargs)
    return AuditAdversary(**defaults)


class TestRankingParity:
    def test_batched_matches_bare_attack_run_bitwise(self, audit_base):
        """The tentpole gate: fleet-served probes reconstruct exactly what
        looping InversionAttack.run against the bare predictors does."""
        _, fleet, splits, targets = audit_base
        fleet = copy.deepcopy(fleet)
        evaluation, _ = run_fleet_audit(fleet, make_adversary(), targets)

        bare_targets = {
            t.user_id: (
                fleet.pelican.users[t.user_id].endpoint.predictor,
                t.attack_windows,
                t.prior,
            )
            for t in targets
        }
        bare = evaluate_attack(
            TimeBasedAttack(), bare_targets, AdversaryClass.A1,
            max_instances=MAX_INSTANCES,
        )
        assert rankings(evaluation) == rankings(bare)
        assert evaluation.total_queries == bare.total_queries
        for k in (1, 2, 3):
            assert evaluation.accuracy(k) == bare.accuracy(k)

    def test_batched_matches_looped_reference(self, audit_base):
        _, fleet, _, targets = audit_base
        fleet = copy.deepcopy(fleet)
        adversary = make_adversary()
        looped = run_fleet_audit_looped(fleet, adversary, targets)
        batched, _ = run_fleet_audit(fleet, adversary, targets)
        assert rankings(batched) == rankings(looped)

    def test_a2_and_brute_force_parity(self, audit_base):
        _, fleet, _, targets = audit_base
        fleet = copy.deepcopy(fleet)
        for attack, adv_class in (
            (TimeBasedAttack(), AdversaryClass.A2),
            (BruteForceAttack(), AdversaryClass.A1),
        ):
            adversary = make_adversary(attack=attack, adversary=adv_class)
            evaluation, _ = run_fleet_audit(fleet, adversary, targets)
            bare_targets = {
                t.user_id: (
                    fleet.pelican.users[t.user_id].endpoint.predictor,
                    t.attack_windows,
                    t.prior,
                )
                for t in targets
            }
            bare = evaluate_attack(
                type(attack)(), bare_targets, adv_class, max_instances=MAX_INSTANCES
            )
            assert rankings(evaluation) == rankings(bare)

    def test_gradient_attack_rejected(self):
        with pytest.raises(TypeError, match="white-box"):
            AuditAdversary(GradientDescentAttack())

    def test_incompatible_adversary_class_rejected_upfront(self):
        # Brute force cannot plan the doubly-missing A3 window; the
        # pairing must fail at construction, not mid-audit.
        with pytest.raises(ValueError, match="cannot plan"):
            AuditAdversary(BruteForceAttack(), AdversaryClass.A3)

    def test_serve_looped_rejects_probe_payloads(self, audit_base):
        _, fleet, _, targets = audit_base
        requests, _ = audit_requests(
            make_adversary(), fleet.pelican.spec, targets[:1]
        )
        with pytest.raises(TypeError, match="run_fleet_audit_looped"):
            fleet.serve_looped(requests[:1])

    def test_shared_plans_reproduce_per_cell_plans(self, audit_base):
        """The audit suite derives plans once per adversary and shares
        them across defenses — same probes either way."""
        _, fleet, _, targets = audit_base
        spec = fleet.pelican.spec
        adversary = make_adversary()
        planned = adversary.plan_for(spec, targets[0])
        fresh = adversary.probes_for(spec, targets[0])
        shared = adversary.probes_for(spec, targets[0], planned=planned)
        assert len(fresh) == len(shared)
        for a, b in zip(fresh, shared):
            assert a.plan.n == b.plan.n
            for step, grids in a.plan.candidate_features.items():
                for name, grid in grids.items():
                    assert (grid == b.plan.candidate_features[step][name]).all()


class TestAccounting:
    def test_probe_traffic_billed_and_attributed(self, audit_base):
        _, fleet0, _, targets = audit_base
        fleet = copy.deepcopy(fleet0)
        before = fleet.report.signature()
        adversary = make_adversary()
        evaluation, responses = run_fleet_audit(fleet, adversary, targets)
        after = fleet.report.signature()

        num_probes = evaluation.total_queries
        assert num_probes > 0
        # Billed in the totals AND mirrored into the adversary overlay.
        assert after["queries"] - before["queries"] == num_probes
        assert after["adversary_queries"] - before["adversary_queries"] == num_probes
        assert after["adversary_batches"] - before["adversary_batches"] == len(targets)
        assert after["batches"] - before["batches"] == len(targets)
        # Both serving sides did adversary work (mixed deployment) and
        # the overlay is a subset of the totals, never an extra book.
        assert 0 < after["adversary_cloud_macs"] <= after["cloud_macs"]
        assert 0 < after["adversary_device_macs"] <= after["device_macs"]
        assert after["adversary_network_seconds"] <= after["network_seconds"]

    def test_per_endpoint_query_conservation(self, audit_base):
        _, fleet0, _, targets = audit_base
        fleet = copy.deepcopy(fleet0)
        before = {
            uid: user.endpoint.stats.queries
            for uid, user in fleet.pelican.users.items()
        }
        evaluation, _ = run_fleet_audit(fleet, make_adversary(), targets)
        for uid, result in evaluation.per_user.items():
            moved = fleet.pelican.users[uid].endpoint.stats.queries - before[uid]
            assert moved == result.total_queries

    def test_looped_reference_is_accounting_neutral(self, audit_base):
        _, fleet0, _, targets = audit_base
        fleet = copy.deepcopy(fleet0)
        signature = fleet.report.signature()
        channel = fleet.pelican.channel.checkpoint()
        counts = {
            uid: user.endpoint.predictor.query_count
            for uid, user in fleet.pelican.users.items()
        }
        run_fleet_audit_looped(fleet, make_adversary(), targets)
        assert fleet.report.signature() == signature
        assert fleet.pelican.channel.checkpoint() == channel
        assert counts == {
            uid: user.endpoint.predictor.query_count
            for uid, user in fleet.pelican.users.items()
        }


class TestEventClock:
    def test_scheduled_probes_match_direct_serve(self, audit_base, tiny_corpus):
        """Probes issued as schedule events reconstruct identically to the
        same probes served as one direct burst."""
        _, fleet0, _, targets = audit_base
        adversary = make_adversary()

        direct_fleet = copy.deepcopy(fleet0)
        direct, _ = run_fleet_audit(direct_fleet, adversary, targets)

        fleet = copy.deepcopy(fleet0)
        schedule = FleetSchedule()
        by_seq = adversary.schedule_probes(
            schedule, 100.0, fleet.pelican.spec, targets
        )
        responses = fleet.run(schedule)
        assert len(responses) == len(by_seq)
        priors = {t.user_id: t.prior for t in targets}
        scheduled = adversary.evaluate(
            [(by_seq[r.seq], r.confidences) for r in responses], priors
        )
        assert rankings(scheduled) == rankings(direct)

    def test_probe_rankings_invariant_under_churn(self, audit_base):
        """Chaos defers probe events but never changes what they observe —
        an audit's leakage measurement is fault-timing invariant."""
        pristine, _, splits, targets = audit_base
        adversary = make_adversary()

        def leak(policy):
            fleet = Fleet(
                copy.deepcopy(pristine), registry_capacity=1, policy=policy
            )
            for i, uid in enumerate(splits):
                mode = DeploymentMode.CLOUD if i % 2 == 0 else DeploymentMode.LOCAL
                fleet.onboard(uid, splits[uid][0], deployment=mode)
            schedule = FleetSchedule()
            by_seq = adversary.schedule_probes(
                schedule, 50.0, fleet.pelican.spec, targets
            )
            responses = fleet.run(schedule)
            priors = {t.user_id: t.prior for t in targets}
            evaluation = adversary.evaluate(
                [(by_seq[r.seq], r.confidences) for r in responses], priors
            )
            return rankings(evaluation), fleet

        clean, _ = leak(ChaosPolicy())
        churned, fleet = leak(
            ChaosPolicy(name="churn", seed=5, offline_window_rate=2.0,
                        offline_window_duration=12.0)
        )
        assert churned == clean
        # Probe exchanges flow over the faulty channel, so retries bill
        # the adversary book too (lossy policies inflate it).
        assert fleet.report.adversary_queries > 0

    def test_cluster_probes_and_failover(self, audit_base, tiny_corpus):
        """Probes route per placement on a cluster; during an outage they
        fail over to the next alive shard — rankings invariant."""
        pristine, _, splits, targets = audit_base
        adversary = make_adversary()

        def cluster_leak(policy):
            cluster = Cluster.from_trained(
                copy.deepcopy(pristine), num_shards=2, registry_capacity=1,
                policy=policy,
            )
            for i, uid in enumerate(splits):
                mode = DeploymentMode.CLOUD if i % 2 == 0 else DeploymentMode.LOCAL
                cluster.onboard(uid, splits[uid][0], deployment=mode)
            schedule = FleetSchedule()
            by_seq = adversary.schedule_probes(schedule, 50.0, cluster.spec, targets)
            responses = cluster.run(schedule)
            priors = {t.user_id: t.prior for t in targets}
            evaluation = adversary.evaluate(
                [(by_seq[r.seq], r.confidences) for r in responses], priors
            )
            return rankings(evaluation), cluster

        single_fleet = copy.deepcopy(audit_base[1])
        single, _ = run_fleet_audit(single_fleet, adversary, targets)

        clean, cluster = cluster_leak(None)
        assert clean == rankings(single)
        assert cluster.report.adversary_queries == single_fleet.report.adversary_queries

        outage, chaotic = cluster_leak(
            ChaosPolicy(name="shard_outage", seed=1, shard_outage_rate=3.0,
                        shard_outage_duration=60.0)
        )
        assert outage == clean


class TestDefenses:
    def test_release_defense_deterministic(self, audit_base):
        from repro.pelican import GaussianNoiseDefense

        _, fleet0, _, targets = audit_base
        factory = lambda predictor, key: GaussianNoiseDefense(
            predictor, sigma=0.05, seed=key
        )
        runs = []
        for _ in range(2):
            fleet = copy.deepcopy(fleet0)
            evaluation, _ = run_fleet_audit(
                fleet, make_adversary(release_factory=factory), targets
            )
            runs.append(rankings(evaluation))
        assert runs[0] == runs[1]

    def test_gaussian_release_parity_batched_vs_looped(self, audit_base):
        """Seeded per-instance generators draw the same perturbation stream
        whether probes run chunked or one row at a time."""
        from repro.pelican import GaussianNoiseDefense

        _, fleet0, _, targets = audit_base
        fleet = copy.deepcopy(fleet0)
        factory = lambda predictor, key: GaussianNoiseDefense(
            predictor, sigma=0.05, seed=key
        )
        adversary = make_adversary(release_factory=factory)
        looped = run_fleet_audit_looped(fleet, adversary, targets)
        batched, _ = run_fleet_audit(fleet, adversary, targets)
        assert rankings(batched) == rankings(looped)

    def test_temperature_defense_never_increases_top1_leakage(self, tiny_corpus, audit_base):
        """The paper's headline: the privacy layer blunts the inversion
        attack (top-1, id tie-break) while the audit measures through the
        full serving stack."""
        pristine, _, splits, targets = audit_base

        def leakage(temperature):
            fleet = Fleet(copy.deepcopy(pristine), registry_capacity=1)
            for i, uid in enumerate(splits):
                mode = DeploymentMode.CLOUD if i % 2 == 0 else DeploymentMode.LOCAL
                fleet.onboard(
                    uid, splits[uid][0], deployment=mode,
                    privacy_temperature=temperature,
                )
            evaluation, _ = run_fleet_audit(fleet, make_adversary(), targets)
            return evaluation.accuracy(1)

        assert leakage(1e-3) <= leakage(1.0)
