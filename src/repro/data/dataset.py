"""Sequence datasets for next-location prediction.

The paper's task (§IV-A): given two consecutive sessions
``x_{t-2}, x_{t-1}``, predict the next location ``l_t``.  This module turns
a user's trajectory into sliding windows of that shape, encodes them with a
:class:`~repro.data.features.FeatureSpec`, and provides the chronological
80/20 split and the training-data-size subsets used in Tables III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.features import FeatureSpec, SessionFeatures
from repro.data.sessions import LocationSession

HISTORY_LENGTH = 2


@dataclass(frozen=True)
class Window:
    """One supervised sample: two history sessions and the next location.

    ``contiguous`` records whether the raw sessions satisfy the continuity
    assumption ``e_{t-1} = e_{t-2} + d_{t-2}`` the time-based attack
    exploits (true for within-day chains, false across midnight).
    """

    user_id: int
    history: Tuple[SessionFeatures, SessionFeatures]
    target: int
    day_index: int
    contiguous: bool


@dataclass
class SequenceDataset:
    """An ordered collection of windows plus its encoding spec."""

    spec: FeatureSpec
    windows: List[Window] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trajectory(
        cls, sessions: Sequence[LocationSession], spec: FeatureSpec
    ) -> "SequenceDataset":
        """Build windows from one user's chronologically ordered trajectory."""
        ordered = sorted(sessions, key=lambda s: (s.day_index, s.entry_minute))
        windows: List[Window] = []
        for i in range(len(ordered) - HISTORY_LENGTH):
            first, second, nxt = ordered[i], ordered[i + 1], ordered[i + 2]
            contiguous = (
                first.day_index == second.day_index
                and first.exit_minute == second.entry_minute
            )
            windows.append(
                Window(
                    user_id=first.user_id,
                    history=(spec.featurize(first), spec.featurize(second)),
                    target=nxt.location_id,
                    day_index=nxt.day_index,
                    contiguous=contiguous,
                )
            )
        return cls(spec=spec, windows=windows)

    @classmethod
    def concatenate(cls, datasets: Sequence["SequenceDataset"]) -> "SequenceDataset":
        """Pool several users' datasets (for general-model training)."""
        if not datasets:
            raise ValueError("cannot concatenate zero datasets")
        spec = datasets[0].spec
        for ds in datasets[1:]:
            if ds.spec != spec:
                raise ValueError("all datasets must share one FeatureSpec")
        windows = [w for ds in datasets for w in ds.windows]
        return cls(spec=spec, windows=windows)

    # ------------------------------------------------------------------
    # Encoding / views
    # ------------------------------------------------------------------
    def encode(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)``: X is (n, 2, width), y is (n,) int targets."""
        if not self.windows:
            width = self.spec.width
            return np.zeros((0, HISTORY_LENGTH, width)), np.zeros((0,), dtype=np.int64)
        X = self.spec.encode_windows([w.history for w in self.windows])
        y = np.array([w.target for w in self.windows], dtype=np.int64)
        return X, y

    def split(self, train_fraction: float = 0.8) -> Tuple["SequenceDataset", "SequenceDataset"]:
        """Chronological split: the first fraction trains, the rest tests."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        cut = int(len(self.windows) * train_fraction)
        return (
            SequenceDataset(spec=self.spec, windows=self.windows[:cut]),
            SequenceDataset(spec=self.spec, windows=self.windows[cut:]),
        )

    def limit_days(self, num_days: int) -> "SequenceDataset":
        """Keep only windows whose target day index is below ``num_days``.

        Used for the Table IV training-data-size sweep (2/4/6/8 weeks).
        """
        kept = [w for w in self.windows if w.day_index < num_days]
        return SequenceDataset(spec=self.spec, windows=kept)

    def limit_weeks(self, num_weeks: int) -> "SequenceDataset":
        return self.limit_days(num_weeks * 7)

    def split_by_user(
        self, train_fraction: float = 0.8
    ) -> Tuple["SequenceDataset", "SequenceDataset"]:
        """Chronological split *within each user*, then pooled.

        A plain :meth:`split` of a pooled multi-user dataset would place
        whole users in the test set; this variant keeps every user's early
        windows in train and late windows in test, matching the paper's
        80/20 protocol for the general model.
        """
        train_parts: List[Window] = []
        test_parts: List[Window] = []
        for user_ds in self.per_user().values():
            train_ds, test_ds = user_ds.split(train_fraction)
            train_parts.extend(train_ds.windows)
            test_parts.extend(test_ds.windows)
        return (
            SequenceDataset(spec=self.spec, windows=train_parts),
            SequenceDataset(spec=self.spec, windows=test_parts),
        )

    def per_user(self) -> Dict[int, "SequenceDataset"]:
        """Split a pooled dataset back into per-user datasets."""
        by_user: Dict[int, List[Window]] = {}
        for window in self.windows:
            by_user.setdefault(window.user_id, []).append(window)
        return {
            uid: SequenceDataset(spec=self.spec, windows=windows)
            for uid, windows in by_user.items()
        }

    # ------------------------------------------------------------------
    # Statistics used by the per-user analyses (Fig 3b)
    # ------------------------------------------------------------------
    def location_visit_count(self) -> int:
        """Number of location visits covered by this dataset's windows."""
        return len(self.windows) + HISTORY_LENGTH if self.windows else 0

    def distinct_locations(self) -> int:
        """Number of distinct locations appearing as targets or history."""
        locations = {w.target for w in self.windows}
        for window in self.windows:
            locations.update(f.location for f in window.history)
        return len(locations)
