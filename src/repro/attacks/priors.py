"""Prior knowledge of the sensitive variable (paper §IV-B3, Fig 2c).

The inversion attack weighs model confidence by the marginal probability
``p`` of the sensitive location variable.  Four generation methods are
compared in the paper:

* **true** — the exact marginals of the user's training locations (an
  upper-bound adversary);
* **none** — no prior (uniform);
* **predict** — the adversary observes the black-box model's outputs for a
  period of time and uses the average confidence distribution as ``p``;
* **estimate** — the adversary only knows the most probable location; it
  assigns that a high probability (75%) and spreads the rest equally.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.data.features import location_marginals
from repro.models.predictor import NextLocationPredictor

ESTIMATE_TOP_MASS = 0.75


class PriorMethod(str, Enum):
    """How the adversary obtains the marginal prior ``p``
    (paper §IV-B3; the Fig 2c comparison axis)."""

    TRUE = "true"
    NONE = "none"
    PREDICT = "predict"
    ESTIMATE = "estimate"


def true_prior(train_dataset: SequenceDataset, smoothing: float = 0.5) -> np.ndarray:
    """Exact marginals of the user's training locations (with smoothing)."""
    features = [f for window in train_dataset.windows for f in window.history]
    return location_marginals(features, train_dataset.spec.num_locations, smoothing=smoothing)


def uniform_prior(num_locations: int) -> np.ndarray:
    """The "none" prior: no information, uniform over the domain."""
    return np.full(num_locations, 1.0 / num_locations)


def predicted_prior(
    predictor: NextLocationPredictor,
    probe_windows: SequenceDataset,
    max_probes: int = 50,
) -> np.ndarray:
    """Observe the model's outputs for a while and average the confidences.

    This only uses capabilities the threat model grants the provider:
    black-box queries and confidence scores.
    """
    windows = probe_windows.windows[:max_probes]
    if not windows:
        return uniform_prior(predictor.spec.num_locations)
    X = predictor.spec.encode_windows([w.history for w in windows])
    probs = predictor.confidences_encoded(X)
    mean = probs.mean(axis=0)
    return mean / mean.sum()


def estimated_prior(most_probable: int, num_locations: int) -> np.ndarray:
    """75% mass on the most probable location, the rest spread equally."""
    if num_locations < 2:
        return np.ones(max(num_locations, 1))
    prior = np.full(num_locations, (1.0 - ESTIMATE_TOP_MASS) / (num_locations - 1))
    prior[most_probable] = ESTIMATE_TOP_MASS
    return prior


def build_prior(
    method: PriorMethod,
    num_locations: int,
    *,
    train_dataset: Optional[SequenceDataset] = None,
    predictor: Optional[NextLocationPredictor] = None,
    probe_windows: Optional[SequenceDataset] = None,
) -> np.ndarray:
    """Construct the prior for the requested method.

    ``train_dataset`` is required for ``TRUE``; ``predictor`` and
    ``probe_windows`` are required for ``PREDICT`` and ``ESTIMATE`` (the
    estimate method derives the most-probable location from observation).
    """
    if method == PriorMethod.NONE:
        return uniform_prior(num_locations)
    if method == PriorMethod.TRUE:
        if train_dataset is None:
            raise ValueError("TRUE prior requires the user's training dataset")
        return true_prior(train_dataset)
    if predictor is None or probe_windows is None:
        raise ValueError(f"{method.value} prior requires predictor and probe windows")
    predicted = predicted_prior(predictor, probe_windows)
    if method == PriorMethod.PREDICT:
        return predicted
    if method == PriorMethod.ESTIMATE:
        return estimated_prior(int(np.argmax(predicted)), num_locations)
    raise ValueError(f"unknown prior method: {method}")
