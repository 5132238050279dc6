"""Phase 3 — model deployment (paper §V-A3).

Two deployment modes:

* **local** — the personal model stays on the device; the service invokes
  it through an on-device API.  Minimizes what the provider learns.
* **cloud** — the personal model (with its privacy layer already attached)
  is uploaded to the provider's servers.  The provider gains unlimited
  black-box query access, which is exactly the threat the privacy layer is
  designed to survive.

Both modes expose the same :class:`ServiceEndpoint` interface so the mobile
service code is deployment agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.features import FeatureSpec, SessionFeatures
from repro.models.architecture import NextLocationModel
from repro.models.predictor import NextLocationPredictor
from repro.nn import init as nn_init
from repro.nn.serialization import deserialize_state, serialize_state
from repro.pelican.transport import Channel


class DeploymentMode(str, Enum):
    """Where the personal model executes."""

    LOCAL = "local"
    CLOUD = "cloud"


#: Simulated payload size of one service query exchange (context upload or
#: prediction download).  Shared by single-query and fleet batched serving
#: so both paths account identical network traffic.
QUERY_PAYLOAD_BYTES = 256


def serialize_personal_model(model: NextLocationModel) -> bytes:
    """Serialize a personal model with everything needed to rebuild it.

    The privacy temperature travels with the model *configuration* but its
    value is chosen by the user and applied before upload — the provider
    only ever holds the already-defended model.
    """
    return serialize_state(
        model.state_dict(),
        metadata={
            "input_width": model.input_width,
            "num_locations": model.num_locations,
            "hidden_size": model.hidden_size,
            "num_layers": model.lstm.num_layers,
            "dropout": model.lstm.dropout_p,
            "has_surplus": model.extra is not None,
            "temperature": model.privacy_temperature,
        },
    )


def rebuild_personal_model(blob: bytes, rng: np.random.Generator) -> NextLocationModel:
    """Inverse of :func:`serialize_personal_model`.

    The rebuilt model is bit-identical to the serialized one: the state
    dict round-trips exactly, so a registry cold load (DESIGN.md §7)
    answers queries identically to the still-resident original.

    Construction runs under :func:`repro.nn.init.skip_init` — every tensor
    is about to be overwritten by ``load_state_dict``, so paying the
    seeded random init would be pure waste (DESIGN.md §14).  Accepts
    format-1 (npz) and format-2 (compact) blobs alike.
    """
    state, metadata = deserialize_state(blob)
    with nn_init.skip_init():
        model = NextLocationModel(
            input_width=int(metadata["input_width"]),
            num_locations=int(metadata["num_locations"]),
            hidden_size=int(metadata["hidden_size"]),
            num_layers=int(metadata["num_layers"]),
            dropout=float(metadata["dropout"]),
            rng=rng,
        )
        if metadata["has_surplus"]:
            model.add_surplus_lstm(rng)
    model.load_state_dict(state)
    model.set_privacy_temperature(float(metadata["temperature"]))
    model.eval()
    return model


@dataclass
class QueryStats:
    """Accounting of service queries against one endpoint."""

    queries: int = 0
    simulated_network_seconds: float = 0.0


class ServiceEndpoint:
    """The query interface a mobile service sees for one user's model."""

    def __init__(
        self,
        predictor: NextLocationPredictor,
        mode: DeploymentMode,
        channel: Optional[Channel] = None,
    ) -> None:
        if mode == DeploymentMode.CLOUD and channel is None:
            raise ValueError("cloud deployment requires a channel")
        self.predictor = predictor
        self.mode = mode
        self.channel = channel
        self.stats = QueryStats()

    def top_k(self, history: Sequence[SessionFeatures], k: int) -> List[Tuple[int, float]]:
        """Top-k next-location prediction with confidences.

        Local deployments pay a round trip only when the *service backend*
        needs the answer (modeled as one small up/down exchange); cloud
        deployments run server side, so the device pays the round trip.
        Either way one RTT-sized exchange is recorded.
        """
        self.record_query_exchange(1)
        return self.predictor.top_k(history, k)

    def record_query_exchange(
        self, count: int, channel: Optional[Channel] = None, label: str = "query"
    ) -> float:
        """Account ``count`` concurrent query exchanges on this endpoint.

        Bumps the query counter and — when a channel is available —
        records one coalesced context-upload and result-download per
        direction (each device pays its own round trip).  This is the
        single accounting boundary for every serving path: the per-query
        loop, batched serving (including the fleet's registry-served
        cloud dispatches), and cluster failover — which passes the
        failover shard's ``channel`` (the link that actually carried the
        traffic) and its own ``label``.  Returns the simulated network
        seconds added.
        """
        self.stats.queries += count
        channel = channel if channel is not None else self.channel
        if channel is None or count == 0:
            return 0.0
        seconds = channel.bulk_upload(
            QUERY_PAYLOAD_BYTES, count, label=f"{label}-context"
        ) + channel.bulk_download(QUERY_PAYLOAD_BYTES, count, label=f"{label}-result")
        self.stats.simulated_network_seconds += seconds
        return seconds

    def top_k_batch(
        self, histories: Sequence[Sequence[SessionFeatures]], k: int
    ) -> List[List[Tuple[int, float]]]:
        """Batched top-k for many concurrent queries against one model.

        All histories are encoded into one batch and answered through the
        graph-free fused inference path in a single dispatch (one GEMM
        stack for the whole group, DESIGN.md §7) — the serving fast path
        the fleet layer uses.  Predictions match calling :meth:`top_k`
        once per history (identical rankings, confidences equal to within
        float round-off).  Network accounting matches too:
        each query still pays its own round-trip-sized exchange, recorded
        as one coalesced bulk transfer per direction.
        """
        if not histories:
            return []
        self.record_query_exchange(len(histories))
        return self.predictor.top_k_batch(histories, k)

    def confidences(self, history: Sequence[SessionFeatures]) -> np.ndarray:
        """Full confidence vector (what the provider can always observe)."""
        self.stats.queries += 1
        return self.predictor.confidences(history)


def deploy_local(
    model: NextLocationModel, spec: FeatureSpec, channel: Optional[Channel] = None
) -> ServiceEndpoint:
    """Keep the model on the device."""
    return ServiceEndpoint(NextLocationPredictor(model, spec), DeploymentMode.LOCAL, channel)


def deploy_cloud(
    model: NextLocationModel,
    spec: FeatureSpec,
    channel: Channel,
    rng: np.random.Generator,
) -> Tuple[ServiceEndpoint, float]:
    """Upload the personal model to the cloud and serve from there.

    The model is serialized (:func:`serialize_personal_model`), shipped
    over the channel, and reconstructed server side; returns the endpoint
    and the simulated upload seconds.
    """
    blob = serialize_personal_model(model)
    upload_seconds = channel.upload(blob, label="personal-model")
    server_model = rebuild_personal_model(blob, rng)
    endpoint = ServiceEndpoint(
        NextLocationPredictor(server_model, spec), DeploymentMode.CLOUD, channel
    )
    return endpoint, upload_seconds
