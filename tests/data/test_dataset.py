"""Unit tests for window datasets."""

import numpy as np
import pytest

from repro.data import FeatureSpec, LocationSession, SequenceDataset, SpatialLevel


def session(day, entry, duration, location, uid=0):
    return LocationSession(
        user_id=uid,
        day_index=day,
        day_of_week=day % 7,
        entry_minute=entry,
        duration_minute=duration,
        location_id=location,
    )


@pytest.fixture
def spec():
    return FeatureSpec(num_locations=6)


@pytest.fixture
def chain(spec):
    """Five contiguous sessions in one day."""
    sessions = [
        session(0, 0, 60, 0),
        session(0, 60, 30, 1),
        session(0, 90, 45, 2),
        session(0, 135, 15, 3),
        session(0, 150, 60, 4),
    ]
    return SequenceDataset.from_trajectory(sessions, spec)


class TestConstruction:
    def test_window_count(self, chain):
        assert len(chain) == 3  # 5 sessions -> 3 windows

    def test_targets_are_next_locations(self, chain):
        assert [w.target for w in chain.windows] == [2, 3, 4]

    def test_history_order(self, chain):
        first = chain.windows[0]
        assert first.history[0].location == 0
        assert first.history[1].location == 1

    def test_contiguity_flag_true_within_day(self, chain):
        assert all(w.contiguous for w in chain.windows)

    def test_contiguity_flag_false_across_days(self, spec):
        sessions = [
            session(0, 1380, 60, 0),  # ends at midnight
            session(1, 0, 60, 1),  # next day
            session(1, 60, 60, 2),
        ]
        ds = SequenceDataset.from_trajectory(sessions, spec)
        assert not ds.windows[0].contiguous

    def test_unsorted_input_is_sorted(self, spec):
        sessions = [
            session(0, 90, 45, 2),
            session(0, 0, 60, 0),
            session(0, 60, 30, 1),
        ]
        ds = SequenceDataset.from_trajectory(sessions, spec)
        assert ds.windows[0].history[0].location == 0

    def test_too_few_sessions_gives_empty(self, spec):
        ds = SequenceDataset.from_trajectory([session(0, 0, 60, 0)], spec)
        assert len(ds) == 0


class TestEncoding:
    def test_encode_shapes(self, chain, spec):
        X, y = chain.encode()
        assert X.shape == (3, 2, spec.width)
        assert y.shape == (3,)
        assert y.dtype == np.int64

    def test_empty_encode(self, spec):
        ds = SequenceDataset(spec=spec)
        X, y = ds.encode()
        assert X.shape == (0, 2, spec.width)
        assert len(y) == 0

    def test_empty_encode_keeps_int64_targets(self, spec):
        _, y = SequenceDataset(spec=spec).encode()
        assert y.dtype == np.int64

    def test_encode_matches_per_window_stack(self, chain, spec):
        X, _ = chain.encode()
        stacked = np.stack([spec.encode_sequence(w.history) for w in chain.windows])
        assert X.dtype == stacked.dtype
        assert np.array_equal(X, stacked)

    def test_one_hot_rows(self, chain, spec):
        X, _ = chain.encode()
        np.testing.assert_allclose(X.sum(axis=-1), np.full((3, 2), 4.0))


class TestSplitsAndViews:
    def test_chronological_split(self, chain):
        train, test = chain.split(2 / 3)
        assert len(train) == 2
        assert len(test) == 1
        assert test.windows[0].target == 4

    def test_split_fraction_validated(self, chain):
        with pytest.raises(ValueError):
            chain.split(0.0)
        with pytest.raises(ValueError):
            chain.split(1.0)

    def test_limit_days_filters_targets(self, spec):
        sessions = [session(d, 60 * i, 60, (d + i) % 6) for d in range(4) for i in range(3)]
        ds = SequenceDataset.from_trajectory(sessions, spec)
        limited = ds.limit_days(2)
        assert all(w.day_index < 2 for w in limited.windows)
        assert len(limited) < len(ds)

    def test_limit_weeks_delegates(self, spec):
        sessions = [session(d, 60 * i, 60, (d + i) % 6) for d in range(10) for i in range(3)]
        ds = SequenceDataset.from_trajectory(sessions, spec)
        assert len(ds.limit_weeks(1)) == len(ds.limit_days(7))

    def test_per_user_partitions(self, spec):
        a = SequenceDataset.from_trajectory(
            [session(0, 60 * i, 60, i % 6, uid=1) for i in range(5)], spec
        )
        b = SequenceDataset.from_trajectory(
            [session(0, 60 * i, 60, i % 6, uid=2) for i in range(4)], spec
        )
        pooled = SequenceDataset.concatenate([a, b])
        parts = pooled.per_user()
        assert set(parts) == {1, 2}
        assert len(parts[1]) == len(a)
        assert len(parts[2]) == len(b)

    def test_split_by_user_no_user_leakage(self, spec):
        a = SequenceDataset.from_trajectory(
            [session(0, 60 * i, 60, i % 6, uid=1) for i in range(10)], spec
        )
        b = SequenceDataset.from_trajectory(
            [session(0, 60 * i, 60, i % 6, uid=2) for i in range(10)], spec
        )
        pooled = SequenceDataset.concatenate([a, b])
        train, test = pooled.split_by_user(0.75)
        assert {w.user_id for w in train.windows} == {1, 2}
        assert {w.user_id for w in test.windows} == {1, 2}

    def test_concatenate_requires_same_spec(self, spec):
        other_spec = FeatureSpec(num_locations=9)
        a = SequenceDataset(spec=spec)
        b = SequenceDataset(spec=other_spec)
        with pytest.raises(ValueError):
            SequenceDataset.concatenate([a, b])

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValueError):
            SequenceDataset.concatenate([])


class TestStatistics:
    def test_distinct_locations(self, chain):
        assert chain.distinct_locations() == 5

    def test_location_visit_count(self, chain):
        assert chain.location_visit_count() == 5
