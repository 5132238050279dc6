"""Unit tests for the three inversion attack methods.

Uses a *planted* black-box predictor whose confidence in the observed
output is high exactly when the candidate's missing-step location matches a
planted secret, so attack correctness can be asserted deterministically
without training models.
"""

import numpy as np
import pytest

from repro.attacks import (
    AdversaryClass,
    BruteForceAttack,
    GradientDescentAttack,
    T_MINUS_1,
    T_MINUS_2,
    TimeBasedAttack,
    build_instance,
    uniform_prior,
)
from repro.data import FeatureSpec, SessionFeatures
from repro.data.features import discretize_entry, duration_bin_to_minute, entry_bin_to_minute
from repro.data.dataset import Window

NUM_LOCATIONS = 8
SPEC = FeatureSpec(num_locations=NUM_LOCATIONS)


class PlantedPredictor:
    """Black-box stub: confidence peaks when the missing-step location
    matches the planted location (and, optionally, the entry bin)."""

    def __init__(self, planted_location, step, observed=5, check_entry=None):
        self.spec = SPEC
        self.planted = planted_location
        self.step = step
        self.observed = observed
        self.check_entry = check_entry
        self.query_count = 0

    def confidences_encoded(self, batch):
        self.query_count += len(batch)
        probs = np.full((len(batch), NUM_LOCATIONS), 0.01 / (NUM_LOCATIONS - 1))
        loc_block = batch[
            :, self.step, self.spec.location_offset : self.spec.location_offset + NUM_LOCATIONS
        ]
        match = loc_block[:, self.planted] == 1.0
        if self.check_entry is not None:
            entry_block = batch[
                :, self.step, self.spec.entry_offset : self.spec.entry_offset + SPEC.entry_bins
            ]
            match = match & (entry_block[:, self.check_entry] == 1.0)
        probs[match, :] = (1 - 0.99) / (NUM_LOCATIONS - 1)
        probs[match, self.observed] = 0.99
        return probs


def make_window():
    return Window(
        user_id=0,
        history=(
            SessionFeatures(entry_bin=16, duration_bin=6, location=1, day_of_week=2),
            SessionFeatures(entry_bin=18, duration_bin=3, location=3, day_of_week=2),
        ),
        target=5,
        day_index=0,
        contiguous=True,
    )


class TestBruteForce:
    def test_recovers_planted_location_a1(self):
        instance = build_instance(make_window(), AdversaryClass.A1)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        output = BruteForceAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        recon = output.reconstructions[T_MINUS_1]
        assert recon.ranked_locations[0] == 3
        assert output.hits(1) == [True]

    def test_query_count_is_full_product_space(self):
        instance = build_instance(make_window(), AdversaryClass.A1)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        output = BruteForceAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        assert output.num_queries == SPEC.entry_bins * SPEC.duration_bins * NUM_LOCATIONS

    def test_a3_rejected(self):
        instance = build_instance(make_window(), AdversaryClass.A3)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        with pytest.raises(ValueError, match="single missing"):
            BruteForceAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))


class TestTimeBased:
    def test_recovers_planted_location_a1(self):
        instance = build_instance(make_window(), AdversaryClass.A1)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        output = TimeBasedAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        assert output.reconstructions[T_MINUS_1].ranked_locations[0] == 3

    def test_entry_derived_from_continuity_a1(self):
        """A1's derived e_{t-1} = e_{t-2} + d_{t-2}: bin 16 (8:00) + bin 6
        (~65 min) -> minute 545 -> bin 18."""
        instance = build_instance(make_window(), AdversaryClass.A1)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1, check_entry=18)
        output = TimeBasedAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        # The planted predictor only fires on (location=3 AND entry=18); a
        # top hit proves the attack derived the right entry bin.
        assert output.reconstructions[T_MINUS_1].ranked_locations[0] == 3

    def test_recovers_planted_location_a2(self):
        instance = build_instance(make_window(), AdversaryClass.A2)
        predictor = PlantedPredictor(planted_location=1, step=T_MINUS_2)
        output = TimeBasedAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        assert output.reconstructions[T_MINUS_2].ranked_locations[0] == 1

    def test_a3_reconstructs_both_steps(self):
        instance = build_instance(make_window(), AdversaryClass.A3)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        output = TimeBasedAttack(a3_entry_stride=8, a3_duration_stride=8).run(
            instance, predictor, uniform_prior(NUM_LOCATIONS)
        )
        assert set(output.reconstructions) == {T_MINUS_2, T_MINUS_1}
        assert output.reconstructions[T_MINUS_1].ranked_locations[0] == 3

    def test_far_fewer_queries_than_brute_force(self):
        instance = build_instance(make_window(), AdversaryClass.A1)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        tb = TimeBasedAttack().run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        bf_queries = SPEC.entry_bins * SPEC.duration_bins * NUM_LOCATIONS
        assert tb.num_queries * 10 <= bf_queries

    def test_pruned_locations_restrict_search(self):
        instance = build_instance(make_window(), AdversaryClass.A1)
        predictor = PlantedPredictor(planted_location=3, step=T_MINUS_1)
        attack = TimeBasedAttack(candidate_locations=np.array([2, 3, 5]))
        output = attack.run(instance, predictor, uniform_prior(NUM_LOCATIONS))
        assert set(output.reconstructions[T_MINUS_1].ranked_locations) <= {2, 3, 5}

    def test_prior_weights_break_saturated_ties(self):
        """Under a defended (saturating) model many candidates score
        identically; the prior must then dominate the ranking."""
        instance = build_instance(make_window(), AdversaryClass.A1)

        class SaturatedPredictor(PlantedPredictor):
            def confidences_encoded(self, batch):
                self.query_count += len(batch)
                probs = np.zeros((len(batch), NUM_LOCATIONS))
                probs[:, self.observed] = 1.0  # all candidates look alike
                return probs

        predictor = SaturatedPredictor(planted_location=3, step=T_MINUS_1)
        prior = np.full(NUM_LOCATIONS, 0.05)
        prior[6] = 1.0 - 0.05 * (NUM_LOCATIONS - 1)
        output = TimeBasedAttack().run(instance, predictor, prior)
        assert output.reconstructions[T_MINUS_1].ranked_locations[0] == 6


def _scalar_entry_bin(anchor_minute):
    """One candidate's derived entry bin, computed the scalar way."""
    return discretize_entry(int(np.clip(anchor_minute, 0, 24 * 60 - 1)))


def _loop_plan(attack, instance, spec):
    """The time-based plan built one candidate at a time, as
    ``{step: [(entry, duration, location), ...]}`` in plan order."""
    locations = attack._locations(spec).tolist()
    slack = range(-attack.entry_slack, attack.entry_slack + 1)
    last_bin = spec.entry_bins - 1
    if instance.missing == (T_MINUS_1,):
        known = instance.known[T_MINUS_2]
        center = _scalar_entry_bin(
            entry_bin_to_minute(known.entry_bin) + duration_bin_to_minute(known.duration_bin)
        )
        entries = range(max(0, center - attack.entry_slack), min(last_bin, center + attack.entry_slack) + 1)
        return {T_MINUS_1: [
            (e, d, l) for e in entries for d in range(spec.duration_bins) for l in locations
        ]}
    if instance.missing == (T_MINUS_2,):
        anchor = entry_bin_to_minute(instance.known[T_MINUS_1].entry_bin)
        return {T_MINUS_2: [
            (min(max(_scalar_entry_bin(anchor - duration_bin_to_minute(d)) + k, 0), last_bin), d, l)
            for d in range(spec.duration_bins) for l in locations for k in slack
        ]}
    durations = range(0, spec.duration_bins, attack.a3_duration_stride)
    rows = [
        (e2, d2, l2, _scalar_entry_bin(entry_bin_to_minute(e2) + duration_bin_to_minute(d2)), d1, l1)
        for e2 in range(0, spec.entry_bins, attack.a3_entry_stride)
        for d2 in durations for l2 in locations for d1 in durations for l1 in locations
    ]
    return {T_MINUS_2: [r[:3] for r in rows], T_MINUS_1: [r[3:] for r in rows]}


class TestTimeBasedPlanVectorized:
    @pytest.mark.parametrize("adversary", list(AdversaryClass))
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strides, slack", [((1, 3), 0), ((4, 4), 1), ((6, 2), 2)])
    def test_plan_equals_scalar_loop(self, adversary, seed, strides, slack):
        rng = np.random.default_rng(seed)
        window = Window(
            user_id=0,
            history=tuple(
                SessionFeatures(
                    entry_bin=int(rng.integers(SPEC.entry_bins)),
                    duration_bin=int(rng.integers(SPEC.duration_bins)),
                    location=int(rng.integers(NUM_LOCATIONS)),
                    day_of_week=2,
                )
                for _ in range(2)
            ),
            target=5,
            day_index=0,
            contiguous=True,
        )
        attack = TimeBasedAttack(
            candidate_locations=np.sort(rng.choice(NUM_LOCATIONS, size=3, replace=False)),
            entry_slack=slack,
            a3_entry_stride=strides[0],
            a3_duration_stride=strides[1],
        )
        instance = build_instance(window, adversary)
        plan = attack.plan(instance, SPEC)
        expected = _loop_plan(attack, instance, SPEC)
        assert sorted(plan.candidate_features) == sorted(expected)
        for step, candidates in expected.items():
            grids = plan.candidate_features[step]
            assert plan.n == len(candidates)
            for name, column in zip(("entry", "duration", "location"), zip(*candidates)):
                assert grids[name].dtype.kind == "i"
                assert np.array_equal(grids[name], np.array(column))


class TestGradientDescent:
    def test_returns_full_ranking(self, tiny_corpus, tiny_general):
        from repro.data import SpatialLevel
        from repro.models import NextLocationPredictor

        general, _, _ = tiny_general
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        predictor = NextLocationPredictor(general, spec)
        uid = tiny_corpus.personal_ids[0]
        window = tiny_corpus.user_dataset(uid, SpatialLevel.BUILDING).windows[0]
        instance = build_instance(window, AdversaryClass.A1)
        attack = GradientDescentAttack()
        attack.config.iterations = 10
        output = attack.run(instance, predictor, uniform_prior(spec.num_locations))
        recon = output.reconstructions[T_MINUS_1]
        assert len(recon.ranked_locations) == spec.num_locations
        assert sorted(recon.ranked_locations.tolist()) == list(range(spec.num_locations))

    def test_handles_a3(self, tiny_corpus, tiny_general):
        from repro.data import SpatialLevel
        from repro.models import NextLocationPredictor

        general, _, _ = tiny_general
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        predictor = NextLocationPredictor(general, spec)
        uid = tiny_corpus.personal_ids[0]
        window = tiny_corpus.user_dataset(uid, SpatialLevel.BUILDING).windows[0]
        instance = build_instance(window, AdversaryClass.A3)
        attack = GradientDescentAttack()
        attack.config.iterations = 5
        output = attack.run(instance, predictor, uniform_prior(spec.num_locations))
        assert set(output.reconstructions) == {T_MINUS_2, T_MINUS_1}

    def test_deterministic_given_seed(self, tiny_corpus, tiny_general):
        from repro.data import SpatialLevel
        from repro.models import NextLocationPredictor

        general, _, _ = tiny_general
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        uid = tiny_corpus.personal_ids[0]
        window = tiny_corpus.user_dataset(uid, SpatialLevel.BUILDING).windows[0]
        instance = build_instance(window, AdversaryClass.A1)
        prior = uniform_prior(spec.num_locations)

        def run_once():
            attack = GradientDescentAttack(seed=42)
            attack.config.iterations = 8
            predictor = NextLocationPredictor(general, spec)
            return attack.run(instance, predictor, prior).reconstructions[T_MINUS_1]

        a, b = run_once(), run_once()
        np.testing.assert_array_equal(a.ranked_locations, b.ranked_locations)
