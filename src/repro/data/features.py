"""Feature discretization and one-hot encoding (paper §IV-A).

The processed dataset consists of sequences of four features per session:

* **session-entry** ``e`` — discretized into 30-minute bins (48 bins/day);
* **session-duration** ``d`` — discretized into 10-minute bins, capped at
  4 hours (24 bins), because "less than 10% of users spend more time in a
  single building";
* **location** ``l`` — building id or AP id depending on spatial level;
* **day-of-week** ``w`` — 7 values.

:class:`FeatureSpec` fixes the one-hot layout ``[entry | duration |
location | day]`` and exposes the block offsets, which the gradient-descent
inversion attack needs in order to softmax-soften each block independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.sessions import LocationSession

ENTRY_BIN_MINUTES = 30
DURATION_BIN_MINUTES = 10
DURATION_CAP_MINUTES = 240


class SpatialLevel(str, Enum):
    """Spatial resolution of the location variable (paper Fig 3a)."""

    BUILDING = "building"
    AP = "ap"


@dataclass(frozen=True)
class SessionFeatures:
    """Discretized features of one session: the tuple x_t of the paper."""

    entry_bin: int
    duration_bin: int
    location: int
    day_of_week: int

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.entry_bin, self.duration_bin, self.location, self.day_of_week)


def discretize_entry(entry_minute: int) -> int:
    """Map minutes-from-midnight to a 30-minute bin in [0, 48)."""
    if not 0 <= entry_minute < 24 * 60:
        raise ValueError(f"entry minute out of range: {entry_minute}")
    return entry_minute // ENTRY_BIN_MINUTES


def discretize_duration(duration_minute: int) -> int:
    """Map a duration to a 10-minute bin, capping at 4 hours."""
    if duration_minute < 0:
        raise ValueError(f"negative duration: {duration_minute}")
    capped = min(duration_minute, DURATION_CAP_MINUTES - 1)
    return capped // DURATION_BIN_MINUTES


def entry_bin_to_minute(entry_bin: int) -> int:
    """Representative minute (bin start) of an entry bin."""
    return entry_bin * ENTRY_BIN_MINUTES


def duration_bin_to_minute(duration_bin: int) -> int:
    """Representative minute (bin midpoint) of a duration bin."""
    return duration_bin * DURATION_BIN_MINUTES + DURATION_BIN_MINUTES // 2


@dataclass(frozen=True)
class FeatureSpec:
    """One-hot layout for a session feature tuple.

    The encoded vector is the concatenation
    ``[entry(48) | duration(24) | location(L) | day(7)]`` and has dimension
    :attr:`width`.
    """

    num_locations: int
    entry_bins: int = (24 * 60) // ENTRY_BIN_MINUTES
    duration_bins: int = DURATION_CAP_MINUTES // DURATION_BIN_MINUTES
    days: int = 7

    @property
    def entry_offset(self) -> int:
        return 0

    @property
    def duration_offset(self) -> int:
        return self.entry_bins

    @property
    def location_offset(self) -> int:
        return self.entry_bins + self.duration_bins

    @property
    def day_offset(self) -> int:
        return self.entry_bins + self.duration_bins + self.num_locations

    @property
    def width(self) -> int:
        return self.entry_bins + self.duration_bins + self.num_locations + self.days

    def blocks(self) -> Dict[str, Tuple[int, int]]:
        """Return {feature: (offset, size)} for every block."""
        return {
            "entry": (self.entry_offset, self.entry_bins),
            "duration": (self.duration_offset, self.duration_bins),
            "location": (self.location_offset, self.num_locations),
            "day": (self.day_offset, self.days),
        }

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def featurize(self, session: LocationSession) -> SessionFeatures:
        """Discretize one session into its feature tuple."""
        if not 0 <= session.location_id < self.num_locations:
            raise ValueError(
                f"location {session.location_id} outside domain [0, {self.num_locations})"
            )
        return SessionFeatures(
            entry_bin=discretize_entry(session.entry_minute),
            duration_bin=discretize_duration(session.duration_minute),
            location=session.location_id,
            day_of_week=session.day_of_week,
        )

    def encode(self, features: SessionFeatures) -> np.ndarray:
        """One-hot encode a feature tuple into a vector of :attr:`width`."""
        vec = np.zeros(self.width)
        vec[self.entry_offset + features.entry_bin] = 1.0
        vec[self.duration_offset + features.duration_bin] = 1.0
        vec[self.location_offset + features.location] = 1.0
        vec[self.day_offset + features.day_of_week] = 1.0
        return vec

    def decode(self, vector: np.ndarray) -> SessionFeatures:
        """Invert :meth:`encode` (argmax per block, tolerating soft inputs)."""
        vector = np.asarray(vector)
        if vector.shape != (self.width,):
            raise ValueError(f"expected vector of width {self.width}, got {vector.shape}")
        return SessionFeatures(
            entry_bin=int(np.argmax(vector[self.entry_offset : self.entry_offset + self.entry_bins])),
            duration_bin=int(
                np.argmax(vector[self.duration_offset : self.duration_offset + self.duration_bins])
            ),
            location=int(
                np.argmax(
                    vector[self.location_offset : self.location_offset + self.num_locations]
                )
            ),
            day_of_week=int(np.argmax(vector[self.day_offset : self.day_offset + self.days])),
        )

    def encode_sequence(self, sessions: Sequence[SessionFeatures]) -> np.ndarray:
        """Encode an ordered window of sessions into ``(len, width)``."""
        return np.stack([self.encode(s) for s in sessions])

    def encode_windows(
        self, windows: Sequence[Sequence[SessionFeatures]]
    ) -> np.ndarray:
        """Encode many same-length windows into ``(n, len, width)`` at once.

        Vectorized equivalent of stacking :meth:`encode_sequence` per
        window: the one-hot scatter runs as four fancy-indexed writes
        over all sessions instead of one numpy allocation per session.
        The values are bit-identical (0.0/1.0 one-hots either way) — this
        is the encoding stage of the tick kernel (DESIGN.md §7), where
        per-session Python would otherwise dominate the tick.
        """
        n = len(windows)
        if n == 0:
            return np.zeros((0, 0, self.width))
        steps = len(windows[0])
        if any(len(w) != steps for w in windows):
            raise ValueError("windows must share one length to batch-encode")
        flat = np.zeros((n * steps, self.width))
        rows = np.arange(n * steps)
        sessions = [s for window in windows for s in window]
        entry = np.fromiter((s.entry_bin for s in sessions), dtype=np.intp, count=n * steps)
        duration = np.fromiter((s.duration_bin for s in sessions), dtype=np.intp, count=n * steps)
        location = np.fromiter((s.location for s in sessions), dtype=np.intp, count=n * steps)
        day = np.fromiter((s.day_of_week for s in sessions), dtype=np.intp, count=n * steps)
        flat[rows, self.entry_offset + entry] = 1.0
        flat[rows, self.duration_offset + duration] = 1.0
        flat[rows, self.location_offset + location] = 1.0
        flat[rows, self.day_offset + day] = 1.0
        return flat.reshape(n, steps, self.width)


def location_marginals(
    featurized: Sequence[SessionFeatures], num_locations: int, smoothing: float = 0.0
) -> np.ndarray:
    """Empirical marginal distribution of the location variable.

    This is the prior ``p`` of the inversion attack (paper §III-B2):
    ``p_i`` reflects how often location ``i`` is visited.  ``smoothing`` adds
    Laplace mass so unseen locations keep non-zero probability.
    """
    counts = np.full(num_locations, smoothing, dtype=np.float64)
    for features in featurized:
        counts[features.location] += 1.0
    total = counts.sum()
    if total == 0:
        return np.full(num_locations, 1.0 / num_locations)
    return counts / total
