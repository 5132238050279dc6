"""Candidate search-space construction for enumeration attacks.

Implements the paper's two search-space reductions (§III-B2):

* **Location-of-interest pruning**: the adversary observes the model's
  output confidences on a few production queries and keeps only locations
  whose confidence ever reaches a threshold (default 1%).  Because of
  domain equalization the personal model nominally covers the whole campus,
  but its confidence mass concentrates on the user's actual locations, so
  pruning shrinks the space dramatically.
* **Grid coarsening** for the A3 adversary, which must enumerate entry
  times for both missing timesteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.models.predictor import NextLocationPredictor

DEFAULT_CONFIDENCE_THRESHOLD = 0.01


def prune_locations(
    predictor: NextLocationPredictor,
    probe_windows: SequenceDataset,
    threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
    max_probes: int = 25,
) -> np.ndarray:
    """Locations of interest: confidence >= threshold on any probe query.

    ``probe_windows`` stand in for production queries the provider already
    served (the threat model gives it every output confidence vector).
    Falls back to the full domain if probing yields nothing.
    """
    num_locations = predictor.spec.num_locations
    windows = probe_windows.windows[:max_probes]
    if not windows:
        return np.arange(num_locations)
    X = predictor.spec.encode_windows([w.history for w in windows])
    probs = predictor.confidences_encoded(X)
    keep = np.where(probs.max(axis=0) >= threshold)[0]
    if keep.size == 0:
        return np.arange(num_locations)
    return keep


@dataclass(frozen=True)
class SearchSpace:
    """Feature grids an enumeration attack iterates over (paper §III-B2;
    its size drives the Table II runtime/query columns)."""

    locations: np.ndarray
    duration_bins: np.ndarray
    entry_bins: np.ndarray

    @property
    def size_single_step(self) -> int:
        """Candidates for one missing timestep with known entry anchor."""
        return len(self.locations) * len(self.duration_bins)

    @classmethod
    def full(cls, num_locations: int, duration_bins: int, entry_bins: int) -> "SearchSpace":
        """The brute-force space: every bin of every feature."""
        return cls(
            locations=np.arange(num_locations),
            duration_bins=np.arange(duration_bins),
            entry_bins=np.arange(entry_bins),
        )

    @classmethod
    def pruned(
        cls,
        locations: np.ndarray,
        duration_bins: int,
        entry_bins: int,
        duration_stride: int = 1,
        entry_stride: int = 1,
    ) -> "SearchSpace":
        """A reduced space: pruned locations, optionally strided grids."""
        return cls(
            locations=np.asarray(locations),
            duration_bins=np.arange(0, duration_bins, duration_stride),
            entry_bins=np.arange(0, entry_bins, entry_stride),
        )
