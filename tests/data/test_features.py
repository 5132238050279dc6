"""Unit and property tests for discretization and one-hot encoding."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DURATION_CAP_MINUTES,
    FeatureSpec,
    LocationSession,
    SessionFeatures,
    discretize_duration,
    discretize_entry,
    duration_bin_to_minute,
    entry_bin_to_minute,
    location_marginals,
)


def make_session(entry=480, duration=50, location=3, dow=2):
    return LocationSession(
        user_id=0,
        day_index=0,
        day_of_week=dow,
        entry_minute=entry,
        duration_minute=duration,
        location_id=location,
    )


class TestDiscretization:
    def test_entry_bins(self):
        assert discretize_entry(0) == 0
        assert discretize_entry(29) == 0
        assert discretize_entry(30) == 1
        assert discretize_entry(23 * 60 + 59) == 47

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            discretize_entry(-1)
        with pytest.raises(ValueError):
            discretize_entry(24 * 60)

    def test_duration_bins_capped_at_4_hours(self):
        assert discretize_duration(0) == 0
        assert discretize_duration(9) == 0
        assert discretize_duration(10) == 1
        assert discretize_duration(DURATION_CAP_MINUTES) == 23
        assert discretize_duration(10_000) == 23

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            discretize_duration(-5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 24 * 60 - 1))
    def test_entry_bin_representative_round_trips(self, minute):
        bin_idx = discretize_entry(minute)
        assert discretize_entry(entry_bin_to_minute(bin_idx)) == bin_idx

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 500))
    def test_duration_bin_representative_round_trips(self, minutes):
        bin_idx = discretize_duration(minutes)
        assert discretize_duration(duration_bin_to_minute(bin_idx)) == bin_idx


class TestFeatureSpec:
    def test_layout_offsets(self):
        spec = FeatureSpec(num_locations=10)
        assert spec.entry_offset == 0
        assert spec.duration_offset == 48
        assert spec.location_offset == 48 + 24
        assert spec.day_offset == 48 + 24 + 10
        assert spec.width == 48 + 24 + 10 + 7

    def test_blocks_cover_width_exactly(self):
        spec = FeatureSpec(num_locations=33)
        blocks = spec.blocks()
        covered = sorted(
            (offset, offset + size) for offset, size in blocks.values()
        )
        assert covered[0][0] == 0
        for (a, b), (c, d) in zip(covered, covered[1:]):
            assert b == c
        assert covered[-1][1] == spec.width

    def test_encode_is_one_hot_per_block(self):
        spec = FeatureSpec(num_locations=5)
        features = SessionFeatures(entry_bin=2, duration_bin=4, location=1, day_of_week=6)
        vec = spec.encode(features)
        assert vec.sum() == 4.0
        for offset, size in spec.blocks().values():
            assert vec[offset : offset + size].sum() == 1.0

    def test_featurize_encode_decode_roundtrip(self):
        spec = FeatureSpec(num_locations=8)
        session = make_session(entry=615, duration=95, location=7, dow=4)
        features = spec.featurize(session)
        decoded = spec.decode(spec.encode(features))
        assert decoded == features

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 47), st.integers(0, 23), st.integers(0, 11), st.integers(0, 6)
    )
    def test_roundtrip_property(self, entry_bin, duration_bin, location, dow):
        spec = FeatureSpec(num_locations=12)
        features = SessionFeatures(entry_bin, duration_bin, location, dow)
        assert spec.decode(spec.encode(features)) == features

    def test_location_outside_domain_rejected(self):
        spec = FeatureSpec(num_locations=5)
        with pytest.raises(ValueError):
            spec.featurize(make_session(location=5))

    def test_decode_wrong_width_rejected(self):
        spec = FeatureSpec(num_locations=5)
        with pytest.raises(ValueError):
            spec.decode(np.zeros(3))

    def test_encode_sequence_stacks(self):
        spec = FeatureSpec(num_locations=5)
        f = SessionFeatures(0, 0, 0, 0)
        g = SessionFeatures(1, 1, 1, 1)
        out = spec.encode_sequence([f, g])
        assert out.shape == (2, spec.width)


#: Block sizes of FeatureSpec(num_locations=5), by SessionFeatures field.
SIZES = {"entry_bin": 48, "duration_bin": 24, "location": 5, "day_of_week": 7}


class TestOutOfRangeRejected:
    """A field outside its block would set a bit of a neighbouring block;
    every encoder rejects it, naming the field and the value."""

    @pytest.mark.parametrize("field", sorted(SIZES))
    @pytest.mark.parametrize("at_size", [False, True])
    def test_every_encoder_rejects(self, field, at_size):
        spec = FeatureSpec(num_locations=5)
        value = SIZES[field] if at_size else -1
        good = SessionFeatures(1, 1, 1, 1)
        bad = dataclasses.replace(good, **{field: value})
        calls = [
            lambda: spec.encode(bad),
            lambda: spec.encode_sequence([good, bad]),
            lambda: spec.encode_windows([[good, good], [good, bad]]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{field} {value} outside"):
                call()

    def test_last_bin_of_every_block_accepted(self):
        spec = FeatureSpec(num_locations=5)
        last = SessionFeatures(*(SIZES[f] - 1 for f in
                                 ("entry_bin", "duration_bin", "location", "day_of_week")))
        assert spec.decode(spec.encode(last)) == last

    def test_invalid_session_no_longer_aliases_a_valid_one(self):
        """Unchecked, this session encoded as ones at columns 48, 76 and
        77: duration bin 0, location 4 and day 0."""
        spec = FeatureSpec(num_locations=5)
        with pytest.raises(ValueError, match="entry_bin 48"):
            spec.encode(SessionFeatures(entry_bin=48, duration_bin=0, location=5, day_of_week=-1))

    def test_windows_must_share_one_length(self):
        spec = FeatureSpec(num_locations=5)
        f = SessionFeatures(0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"window length.*\[1, 2\]"):
            spec.encode_windows([[f, f], [f]])


class TestMarginals:
    def test_sums_to_one(self):
        features = [SessionFeatures(0, 0, i % 3, 0) for i in range(30)]
        p = location_marginals(features, num_locations=5)
        np.testing.assert_allclose(p.sum(), 1.0)

    def test_reflects_frequencies(self):
        features = [SessionFeatures(0, 0, 0, 0)] * 9 + [SessionFeatures(0, 0, 1, 0)]
        p = location_marginals(features, num_locations=2)
        np.testing.assert_allclose(p, [0.9, 0.1])

    def test_smoothing_gives_unseen_mass(self):
        features = [SessionFeatures(0, 0, 0, 0)] * 10
        p = location_marginals(features, num_locations=3, smoothing=1.0)
        assert p[1] > 0
        assert p[2] > 0
        np.testing.assert_allclose(p.sum(), 1.0)

    def test_empty_is_uniform(self):
        p = location_marginals([], num_locations=4)
        np.testing.assert_allclose(p, [0.25] * 4)
