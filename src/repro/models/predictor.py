"""Black-box prediction interface over a next-location model.

This is the surface the *service provider* (the honest-but-curious
adversary of §III-B1) sees: it can query the model with feature sequences
and observe the output confidence scores for all classes — nothing else.
Both the mobile service (top-k recommendations) and the inversion attacks
consume this interface, which is what makes the attack realistic.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.data.features import FeatureSpec, SessionFeatures
from repro.models.architecture import NextLocationModel
from repro.nn import top_k_indices


def check_location_domain(model: NextLocationModel, spec: FeatureSpec) -> None:
    """Reject a model whose output domain is not the spec's locations."""
    if model.num_locations != spec.num_locations:
        raise ValueError(
            f"model location domain {model.num_locations} != "
            f"spec domain {spec.num_locations}"
        )


class NextLocationPredictor:
    """Query wrapper: encoded or raw feature windows in, confidences out."""

    def __init__(self, model: NextLocationModel, spec: FeatureSpec) -> None:
        check_location_domain(model, spec)
        self.model = model
        self.spec = spec
        self.query_count = 0

    # ------------------------------------------------------------------
    # Black-box queries
    # ------------------------------------------------------------------
    def confidences(self, history: Sequence[SessionFeatures]) -> np.ndarray:
        """Confidence scores (probabilities over all locations) for one window."""
        encoded = self.spec.encode_sequence(history)[None, :, :]
        return self.confidences_encoded(encoded)[0]

    def confidences_encoded(self, batch: np.ndarray) -> np.ndarray:
        """Confidences for a pre-encoded batch of shape ``(n, steps, width)``.

        The model runs in eval mode, so the privacy layer's temperature
        scaling (if configured) is applied to the logits before softmax —
        the adversary only ever sees post-privacy confidences.  Queries go
        through the model's graph-free inference kernel (DESIGN.md §3),
        which fuses the softmax into the final projection — no autograd
        graph is ever built for black-box queries.
        """
        probs = self.model.infer_confidences(batch)
        self.query_count += len(batch)
        return probs

    def log_confidences_encoded(self, batch: np.ndarray) -> np.ndarray:
        """Log-space confidences: full precision under the privacy layer.

        The paper notes the privacy enhancement preserves model accuracy
        "as long as appropriate precision is used in storing the confidence
        values"; log space is that precision.  The *service* ranks with
        these, so its top-k accuracy is exactly temperature invariant,
        while attack code observes the linear-space (saturating)
        :meth:`confidences_encoded`.
        """
        out = self.model.infer_log_confidences(batch)
        self.query_count += len(batch)
        return out

    def top_k(self, history: Sequence[SessionFeatures], k: int) -> List[Tuple[int, float]]:
        """The service's API: top-k next locations with confidences.

        Ranking happens in log space (precision-safe under the privacy
        layer); the returned confidences are linear-space probabilities,
        which is what the provider observes.
        """
        encoded = self.spec.encode_sequence(history)[None, :, :]
        log_probs = self.log_confidences_encoded(encoded)[0]
        order = top_k_indices(log_probs, k)
        return [(int(loc), float(np.exp(log_probs[loc]))) for loc in order]

    def predict(self, history: Sequence[SessionFeatures]) -> int:
        """Single most-likely next location."""
        return self.top_k(history, 1)[0][0]

    # ------------------------------------------------------------------
    # Batched multi-instance queries (the fleet serving surface)
    # ------------------------------------------------------------------
    def encode_histories(
        self, histories: Sequence[Sequence[SessionFeatures]]
    ) -> np.ndarray:
        """Encode many query windows into one ``(n, steps, width)`` batch.

        All windows must share one length — that is the batching boundary
        the fleet layer groups on (DESIGN.md §7).
        """
        return self.spec.encode_windows(histories)

    def top_k_batch(
        self, histories: Sequence[Sequence[SessionFeatures]], k: int
    ) -> List[List[Tuple[int, float]]]:
        """Top-k predictions for many windows in one fused dispatch.

        The whole batch runs through the graph-free inference kernel — one
        GEMM stack for the group instead of one per query — and is ranked
        row-wise in log space.  Predictions match calling :meth:`top_k`
        once per window: identical rankings, confidences equal to within
        BLAS shape-dependent round-off (DESIGN.md §7).
        """
        if not histories:
            return []
        log_probs = self.log_confidences_encoded(self.encode_histories(histories))
        order = top_k_indices(log_probs, k, axis=-1)
        return [
            [(int(loc), float(np.exp(row_logp[loc]))) for loc in row_order]
            for row_logp, row_order in zip(log_probs, order)
        ]

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def top_k_accuracy(self, X: np.ndarray, y: np.ndarray, k: int) -> float:
        """Top-k accuracy over an encoded dataset (log-space ranking)."""
        if len(X) == 0:
            return float("nan")
        log_probs = self.log_confidences_encoded(X)
        top = top_k_indices(log_probs, k, axis=-1)
        hits = (top == np.asarray(y)[:, None]).any(axis=1)
        return float(hits.mean())
