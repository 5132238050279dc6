"""Resilience-layer tests (DESIGN.md §11).

The layer's contract, mirrored from the chaos layer's (§8) and covered
here mechanism by mechanism:

* retry budgets cap chaos retries and count exhaustion as denials —
  with an ample budget the RNG draw sequence is untouched;
* circuit breakers walk closed → open → half-open deterministically on
  the event clock, and their transition log is bit-identical across
  same-seed runs;
* deadlines shed late queries up front (probes exempt), and
  availability/SLO scoring penalizes unprotected full-outage answers;
* the degradation ladder answers full outages (the PR-4
  serve-on-downed-home hole) with flagged, billed, deterministic
  degraded responses;
* the null policy is byte-identical to running without the layer —
  responses, signatures, and signature *key sets* (the golden contract).
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.data import SpatialLevel
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    CHAOS_POLICIES,
    Cluster,
    DeploymentMode,
    Fleet,
    FleetSchedule,
    Pelican,
    PelicanConfig,
    QueryRequest,
    RESILIENCE_POLICIES,
    ResiliencePolicy,
    ResilienceStats,
    ShardBreaker,
    chaos_policy,
    measure_availability,
    resilience_policy,
    shed_late_queries,
)
from repro.pelican.chaos import draw_retries
from repro.pelican.dispatch import ProbePayload

LEVEL = SpatialLevel.BUILDING


# ----------------------------------------------------------------------
# Policy plumbing
# ----------------------------------------------------------------------
class TestPolicy:
    def test_null_detection(self):
        assert ResiliencePolicy().is_null
        assert RESILIENCE_POLICIES["none"].is_null
        for name in ("default", "strict"):
            assert not RESILIENCE_POLICIES[name].is_null

    def test_presets_reseeded_and_redeadlined(self):
        policy = resilience_policy("default", seed=42, deadline=3.0)
        assert policy.seed == 42
        assert policy.deadline == 3.0
        assert policy.retry_budget == RESILIENCE_POLICIES["default"].retry_budget
        with pytest.raises(KeyError, match="unknown resilience policy"):
            resilience_policy("wishful_thinking")

    def test_unknown_degrade_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown degradation tier"):
            ResiliencePolicy(degrade_tiers=("psychic",))

    def test_backoff_cost_deterministic_and_growing(self):
        policy = ResiliencePolicy(retry_budget=2, backoff_base=0.05)
        one = policy.backoff_cost(policy.rng(7, 1), 1)
        two = policy.backoff_cost(policy.rng(7, 1), 2)
        assert one > 0.0
        assert two > one * 2  # exponential: second retry costs double+
        assert policy.backoff_cost(policy.rng(7, 1), 2) == two


#: The retry draw's generator seed and the fault's draw keys.  At
#: probability 0.4 this generator's first two draws retry and the third
#: does not, so budgets 0 and 1 bind with a denial, budget 2 binds
#: without one, and budget ``DRAW_CAP`` never binds.
DRAW_SEED = (2,)
DRAW_KEYS = (7, 3)
DRAW_CAP = 4
BACKOFF_STREAM = 7


class TestDrawRetries:
    """``chaos.draw_retries`` is the one retry draw of every lossy
    transfer and flaky cold load: budget cap, denial probe, counters and
    backoff, checked against a by-hand replay of its draw stream."""

    @pytest.mark.parametrize("probability", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("budget", [None, 0, 1, 2, DRAW_CAP])
    def test_draw_retries_under_budget(self, budget, probability):
        policy = ResiliencePolicy(retry_budget=budget)
        stats = ResilienceStats()
        rng = np.random.default_rng(DRAW_SEED)
        attempts = draw_retries(
            rng, probability, DRAW_CAP, "transfer", DRAW_KEYS,
            BACKOFF_STREAM, policy, stats,
        )

        draws = np.random.default_rng(DRAW_SEED).random(DRAW_CAP + 1)
        wanted = next(
            (i for i, u in enumerate(draws) if u >= probability), len(draws)
        )
        limit = DRAW_CAP if budget is None else min(DRAW_CAP, budget)
        expected = min(wanted, limit)
        # The loop reads one failing draw unless the cap stopped it; a
        # binding budget then reads one probe draw.
        probed = budget is not None and expected == limit < DRAW_CAP
        used = expected + (expected < limit) + probed
        denied = probed and wanted > limit

        assert attempts == expected
        replay = np.random.default_rng(DRAW_SEED)
        replay.random(used)
        assert rng.bit_generator.state == replay.bit_generator.state
        budgeted = budget is not None
        assert stats.retries_spent == (expected if budgeted else 0)
        assert stats.retries_denied == int(denied)
        assert stats.denial_log == ([("transfer", *DRAW_KEYS)] if denied else [])
        backoff = (
            policy.backoff_cost(policy.rng(BACKOFF_STREAM, *DRAW_KEYS), expected)
            if budgeted
            else 0.0
        )
        assert stats.backoff_seconds == backoff

    def test_ample_budget_draws_like_no_budget(self):
        """The draw-parity half of null identity: a budget of at least
        the cap consumes the generator exactly like no budget."""
        states = []
        for budget in (None, DRAW_CAP, DRAW_CAP + 5):
            rng = np.random.default_rng(DRAW_SEED)
            attempts = draw_retries(
                rng, 0.4, DRAW_CAP, "cold_load", DRAW_KEYS, BACKOFF_STREAM,
                ResiliencePolicy(retry_budget=budget), ResilienceStats(),
            )
            states.append((attempts, rng.random()))
        assert states[0] == states[1] == states[2]


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestShardBreaker:
    def _breaker(self, **overrides):
        policy = replace(
            RESILIENCE_POLICIES["default"],
            breaker_threshold=overrides.pop("threshold", 2),
            breaker_window=overrides.pop("window", 40.0),
            breaker_cooldown=overrides.pop("cooldown", 30.0),
        )
        stats = ResilienceStats()
        return ShardBreaker(shard_id=0, policy=policy, stats=stats), stats

    def test_opens_after_threshold_distinct_ticks(self):
        breaker, stats = self._breaker()
        breaker.record_failure(1.0)
        breaker.record_failure(1.0)  # same tick: deduped
        assert breaker.state == "closed"
        breaker.record_failure(2.0)
        assert breaker.state == "open"
        assert stats.breaker_opens == 1
        assert not breaker.allow(2.0)

    def test_window_prunes_stale_strikes(self):
        breaker, _ = self._breaker(window=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(20.0)  # first strike fell out of the window
        assert breaker.state == "closed"

    def test_half_open_then_close_or_reopen(self):
        breaker, stats = self._breaker(cooldown=30.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == "open"
        assert not breaker.allow(10.0)  # cooldown not elapsed
        assert breaker.allow(32.0)  # half-open probe admitted
        assert breaker.state == "half_open"
        breaker.record_success(32.0)
        assert breaker.state == "closed"
        # Reopen path: fail the half-open probe instead.
        breaker.record_failure(40.0)
        breaker.record_failure(41.0)
        assert breaker.allow(71.1)
        breaker.record_failure(71.1)
        assert breaker.state == "open"
        assert stats.breaker_log == [
            (2.0, 0, "closed", "open"),
            (32.0, 0, "open", "half_open"),
            (32.0, 0, "half_open", "closed"),
            (41.0, 0, "closed", "open"),
            (71.1, 0, "open", "half_open"),
            (71.1, 0, "half_open", "open"),
        ]


# ----------------------------------------------------------------------
# Deadlines, shedding, availability
# ----------------------------------------------------------------------
class _FakeProbe(ProbePayload):
    @property
    def num_probes(self):
        return 1

    def __len__(self):
        return 3


class TestSheddingAndAvailability:
    def _schedules(self):
        original = FleetSchedule()
        original.query(0.0, 1, (0, 1, 2), k=3)
        original.query(0.0, 2, (0, 1, 2), k=3)
        original.probe(0.0, 1, _FakeProbe())
        perturbed = FleetSchedule()
        for event, late in zip(original.ordered(), (100.0, 0.5, 100.0)):
            perturbed.add(replace(event, time=event.time + late))
        return original, perturbed

    def test_no_deadline_is_identity(self):
        original, perturbed = self._schedules()
        policy = ResiliencePolicy()
        assert shed_late_queries(original, perturbed, policy, ResilienceStats()) is perturbed

    def test_late_queries_shed_probes_exempt(self):
        original, perturbed = self._schedules()
        stats = ResilienceStats()
        policy = ResiliencePolicy(deadline=15.0)
        kept = shed_late_queries(original, perturbed, policy, stats)
        assert stats.shed_queries == 1  # the 100s-late benign query
        kinds = [
            isinstance(e.payload, ProbePayload) for e in kept.ordered()
        ]
        assert kinds.count(True) == 1  # the 100s-late probe survived
        assert len(kept.ordered()) == 2

    def test_measure_availability_scores_and_penalizes(self):
        original, perturbed = self._schedules()
        events = perturbed.ordered()
        # Answer both benign queries at their perturbed times: one late.
        responses = [
            type("R", (), {"seq": e.seq, "time": e.time})()
            for e in events
            if not isinstance(e.payload, ProbePayload)
        ]
        report = measure_availability(original, responses, deadline=15.0)
        assert (report.total, report.answered, report.on_time) == (2, 2, 1)
        assert report.availability == 1.0
        assert report.slo_attainment == 0.5
        penalized = measure_availability(
            original, responses, deadline=15.0, penalized=5
        )
        assert penalized.penalized == 2  # clamped to answered
        assert penalized.availability == 0.0

    def test_empty_schedule_is_fully_available(self):
        report = measure_availability(FleetSchedule(), [], deadline=1.0)
        assert report.availability == 1.0
        assert report.slo_attainment == 1.0


# ----------------------------------------------------------------------
# Serving-stack integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained(tiny_corpus):
    """A trained, userless Pelican plus per-user splits; tests deepcopy."""
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
    return pelican, splits


def _schedule(corpus, splits, ticks=3):
    schedule = FleetSchedule()
    for i, uid in enumerate(corpus.personal_ids):
        schedule.onboard(float(i), uid, splits[uid][0], deployment=DeploymentMode.CLOUD)
    tick = 10.0
    for j in range(ticks):
        for uid in corpus.personal_ids:
            schedule.query(tick, uid, splits[uid][1].windows[j].history, k=3)
        tick += 10.0
    return schedule


def _cluster(trained_pelican, **kwargs):
    return Cluster.from_trained(
        copy.deepcopy(trained_pelican),
        num_shards=kwargs.pop("num_shards", 2),
        registry_capacity=kwargs.pop("registry_capacity", 2),
        **kwargs,
    )


class TestNullIdentity:
    def test_chaos_fleet_null_resilience_is_byte_identical(self, trained, tiny_corpus):
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits)
        policy = chaos_policy("hostile", seed=5)
        bare = Fleet(copy.deepcopy(pelican), registry_capacity=1, policy=policy)
        nulled = Fleet(
            copy.deepcopy(pelican),
            registry_capacity=1,
            resilience=ResiliencePolicy(),
            policy=policy,
        )
        assert nulled.resilience is None
        assert bare.run(schedule) == nulled.run(schedule)
        assert bare.signature() == nulled.signature()
        # The golden contract: the key set must not gain resilience_* keys.
        assert not any(k.startswith("resilience_") for k in nulled.signature())

    def test_cluster_null_resilience_is_byte_identical(self, trained, tiny_corpus):
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits)
        policy = chaos_policy("shard_outage", seed=2)
        bare = _cluster(pelican, policy=policy)
        nulled = _cluster(pelican, policy=policy, resilience=ResiliencePolicy())
        assert nulled.resilience is None
        assert all(shard.resilience is None for shard in nulled.shards)
        assert bare.run(schedule) == nulled.run(schedule)
        assert bare.signature() == nulled.signature()
        assert not any(k.startswith("resilience_") for k in nulled.signature())

    def test_overlay_keys_join_only_when_active(self, trained, tiny_corpus):
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits)
        cluster = _cluster(
            pelican,
            policy=chaos_policy("shard_outage", seed=2),
            resilience=resilience_policy("default", seed=2),
        )
        cluster.run(schedule)
        signature = cluster.signature()
        assert any(k.startswith("resilience_") for k in signature)
        assert signature["resilience_shed_queries"] == cluster.resilience_stats.shed_queries


class TestFullOutageRegression:
    """The PR-4 hole: ``_failover_target`` used to return the downed home
    shard when *every* candidate was down; now it returns ``None`` and the
    caller chooses ladder vs counted-unprotected-legacy behaviour."""

    def _all_down_cluster(self, trained_pelican, tiny_corpus, splits, resilience):
        cluster = _cluster(trained_pelican, resilience=resilience)
        onboards = FleetSchedule()
        for i, uid in enumerate(tiny_corpus.personal_ids):
            onboards.onboard(
                float(i), uid, splits[uid][0], deployment=DeploymentMode.CLOUD
            )
        cluster.run(onboards)
        cluster._outages = {
            shard_id: [(0.0, 1e9)] for shard_id in range(cluster.num_shards)
        }
        return cluster

    def _requests(self, tiny_corpus, splits):
        return [
            QueryRequest(
                user_id=uid, history=tuple(splits[uid][1].windows[0].history), k=3
            )
            for uid in tiny_corpus.personal_ids
        ]

    def test_failover_target_now_returns_none(self, trained, tiny_corpus):
        pelican, splits = trained
        cluster = self._all_down_cluster(pelican, tiny_corpus, splits, None)
        uid = tiny_corpus.personal_ids[0]
        home = cluster.placement.shard_for(uid)
        assert cluster._failover_target(uid, home, 100.0) is None

    def test_unprotected_legacy_path_is_counted(self, trained, tiny_corpus):
        pelican, splits = trained
        cluster = self._all_down_cluster(pelican, tiny_corpus, splits, None)
        requests = self._requests(tiny_corpus, splits)
        served = cluster._serve_tick(100.0, requests)
        # Old behaviour preserved: every query still answered at home...
        assert all(r is not None for r in served)
        assert all(r.degraded is None for r in served)
        # ...but the fiction is now counted, so baselines can be penalized.
        assert cluster.resilience_stats.unprotected_outage_queries == len(requests)

    def test_ladder_answers_full_outage_degraded(self, trained, tiny_corpus):
        pelican, splits = trained
        cluster = self._all_down_cluster(
            pelican, tiny_corpus, splits, resilience_policy("default", seed=0)
        )
        requests = self._requests(tiny_corpus, splits)
        served = cluster._serve_tick(100.0, requests)
        assert all(r is not None for r in served)
        # Home registries still hold hot copies, so the stale tier answers.
        assert all(r.degraded == "stale" for r in served)
        stats = cluster.resilience_stats
        assert stats.full_outage_queries == len(requests)
        assert stats.degraded_stale == len(requests)
        assert stats.unprotected_outage_queries == 0

    def test_ladder_walks_general_and_prior_tiers(self, trained, tiny_corpus):
        pelican, splits = trained
        for tier in ("general", "prior"):
            policy = replace(
                resilience_policy("default", seed=0), degrade_tiers=(tier,)
            )
            cluster = self._all_down_cluster(pelican, tiny_corpus, splits, policy)
            requests = self._requests(tiny_corpus, splits)
            served = cluster._serve_tick(100.0, requests)
            assert all(r is not None and r.degraded == tier for r in served)
            assert all(len(r.top_k) == 3 for r in served)


class TestResilientRuns:
    def test_shard_outage_availability_meets_slo(self, trained, tiny_corpus):
        """The acceptance bar: >= 99% availability under shard_outage with
        the default policy, and never worse than the unprotected baseline."""
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits, ticks=4)
        deadline = RESILIENCE_POLICIES["default"].deadline

        def availability(resilience):
            cluster = _cluster(
                pelican,
                policy=chaos_policy("shard_outage", seed=3),
                resilience=resilience,
            )
            responses = cluster.run(schedule)
            return measure_availability(
                schedule,
                responses,
                deadline,
                penalized=cluster.resilience_stats.unprotected_outage_queries,
            ).availability

        resilient = availability(resilience_policy("default", seed=3))
        baseline = availability(None)
        assert resilient >= 0.99
        assert resilient >= baseline

    def test_blackout_degrades_instead_of_unprotected(self, trained, tiny_corpus):
        """Under a total blackout the ladder converts unprotected answers
        into flagged degraded ones and lifts penalized availability."""
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits, ticks=4)

        def run(resilience):
            cluster = _cluster(
                pelican, policy=chaos_policy("blackout", seed=0), resilience=resilience
            )
            responses = cluster.run(schedule)
            return cluster, responses

        baseline, base_responses = run(None)
        assert baseline.resilience_stats.unprotected_outage_queries > 0

        resilient, responses = run(resilience_policy("default", seed=0))
        stats = resilient.resilience_stats
        assert stats.unprotected_outage_queries == 0
        assert stats.degraded_queries > 0
        assert any(r.degraded for r in responses)
        deadline = RESILIENCE_POLICIES["default"].deadline
        resilient_avail = measure_availability(
            schedule, responses, deadline, penalized=0
        ).availability
        baseline_avail = measure_availability(
            schedule,
            base_responses,
            deadline,
            penalized=baseline.resilience_stats.unprotected_outage_queries,
        ).availability
        assert resilient_avail > baseline_avail

    def test_blackout_run_is_bit_deterministic(self, trained, tiny_corpus):
        """Same seed + schedule + policies => identical responses, stats,
        and breaker transition log (backoff jitter included)."""
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits, ticks=4)

        def run():
            cluster = _cluster(
                pelican,
                policy=chaos_policy("blackout", seed=1),
                resilience=resilience_policy("default", seed=1),
            )
            responses = cluster.run(schedule)
            return responses, cluster.resilience_stats, cluster.signature()

        first_responses, first_stats, first_sig = run()
        second_responses, second_stats, second_sig = run()
        assert first_responses == second_responses
        assert first_stats.breaker_log == second_stats.breaker_log
        assert first_stats.signature() == second_stats.signature()
        assert first_sig == second_sig

    def test_budget_denials_surface_in_stats(self, trained, tiny_corpus):
        """A strict budget under heavy loss records typed denials instead
        of paying unbounded retries."""
        pelican, splits = trained
        schedule = _schedule(tiny_corpus, splits)
        lossy = chaos_policy("blackout", seed=4)  # drop_probability 0.3
        fleet = Fleet(
            copy.deepcopy(pelican),
            registry_capacity=1,
            resilience=replace(resilience_policy("strict", seed=4), deadline=None),
            policy=lossy,
        )
        fleet.run(schedule)
        stats = fleet.resilience_stats
        unbudgeted = Fleet(copy.deepcopy(pelican), registry_capacity=1, policy=lossy)
        unbudgeted.run(schedule)
        assert stats.retries_denied == len(stats.denial_log)
        assert stats.retries_denied > 0
        assert stats.backoff_seconds > 0.0
        # The budget strictly reduces retries actually paid.
        assert fleet.chaos.transfer_retries < unbudgeted.chaos.transfer_retries

    def test_blackout_preset_registered(self):
        policy = CHAOS_POLICIES["blackout"]
        assert not policy.is_null
        assert policy.shard_outage_duration > policy.shard_outage_rate
