"""``repro.pelican`` — the Pelican framework (paper §V).

Cloud-based initial training, device-based personalization, privacy
enhancement via inference-time temperature scaling, deployment (local or
cloud), incremental model updates, simulated device/cloud transport, and
— above the per-user orchestrator — the fleet-scale serving layer
(:mod:`repro.pelican.fleet`, DESIGN.md §7): batched multi-user query
dispatch, a cloud-side model registry with LRU eviction, and a
deterministic event clock for interleaved workloads — plus seeded fault
injection over all of it (:mod:`repro.pelican.chaos`, DESIGN.md §8) and
the sharded cluster layer (:mod:`repro.pelican.cluster`, DESIGN.md §9):
N shards behind deterministic placement, with outage failover and
aggregated accounting — and the resilience layer
(:mod:`repro.pelican.resilience`, DESIGN.md §11): retry budgets with
seeded backoff, per-shard circuit breakers, query deadlines with load
shedding, and a graceful-degradation ladder — fronted by the service
layer (:mod:`repro.pelican.service`, DESIGN.md §15): an admission-control
queue with a micro-batching window, typed request/response schemas,
health/stats endpoints, and a per-request latency/SLO book joined into
the signature only when the front door is active.
"""

from repro.pelican.accounting import ClusterReport, totals_signature
from repro.pelican.chaos import (
    CHAOS_POLICIES,
    ChaosPolicy,
    ChaosStats,
    FaultyChannel,
    FlakyModelRegistry,
    chaos_policy,
    perturb_schedule,
    sample_shard_outages,
)
from repro.pelican.clock import replay_schedule
from repro.pelican.cloud import CloudTrainer, ResourceReport
from repro.pelican.cluster import Cluster
from repro.pelican.defenses import (
    GaussianNoiseDefense,
    OutputDefense,
    RoundingDefense,
    TopKOnlyDefense,
)
from repro.pelican.deployment import (
    QUERY_PAYLOAD_BYTES,
    DeploymentMode,
    QueryStats,
    ServiceEndpoint,
    deploy_cloud,
    deploy_cloud_delta,
    deploy_local,
    rebuild_personal_model,
    serialize_personal_model,
    serialize_personal_model_delta,
)
from repro.pelican.device import (
    CLOUD_SERVER,
    FLAGSHIP_PHONE,
    LOW_END_PHONE,
    DevicePersonalizer,
    DeviceProfile,
    rebuild_general_model,
)
from repro.pelican.fleet import (
    EventKind,
    Fleet,
    FleetEvent,
    FleetReport,
    FleetSchedule,
    QueryRequest,
    QueryResponse,
)
from repro.pelican.placement import (
    PLACEMENT_POLICIES,
    HashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    make_placement,
)
from repro.pelican.privacy import (
    DEFAULT_PRIVACY_TEMPERATURE,
    PrivacyReport,
    apply_privacy,
    confidence_sharpness,
    leakage_reduction,
    leakage_reduction_series,
    remove_privacy,
)
from repro.pelican.registry import ModelRegistry, RegistryStats
from repro.pelican.storage import (
    STORE_KINDS,
    BlobStore,
    DiskBlobStore,
    MemoryBlobStore,
    make_blob_store,
)
from repro.pelican.stacking import stack_key
from repro.pelican.resilience import (
    DEFAULT_QUERY_DEADLINE,
    RESILIENCE_POLICIES,
    AvailabilityReport,
    DegradationLadder,
    ResiliencePolicy,
    ResilienceStats,
    ShardBreaker,
    measure_availability,
    resilience_policy,
    shed_late_queries,
)
from repro.pelican.service import (
    LatencyBook,
    ServiceConfig,
    ServiceFrontDoor,
    ServiceRequest,
    ServiceResponse,
    ServiceStats,
)
from repro.pelican.system import OnboardedUser, Pelican, PelicanConfig
from repro.pelican.transport import Channel, TransferRecord
from repro.pelican.updates import UpdateResult, update_personal_model

__all__ = [
    "AvailabilityReport",
    "CHAOS_POLICIES",
    "CLOUD_SERVER",
    "DEFAULT_QUERY_DEADLINE",
    "DegradationLadder",
    "RESILIENCE_POLICIES",
    "ResiliencePolicy",
    "ResilienceStats",
    "ShardBreaker",
    "Channel",
    "ChaosPolicy",
    "ChaosStats",
    "CloudTrainer",
    "Cluster",
    "ClusterReport",
    "FaultyChannel",
    "FlakyModelRegistry",
    "BlobStore",
    "DiskBlobStore",
    "MemoryBlobStore",
    "STORE_KINDS",
    "make_blob_store",
    "DEFAULT_PRIVACY_TEMPERATURE",
    "DeploymentMode",
    "EventKind",
    "FLAGSHIP_PHONE",
    "Fleet",
    "FleetEvent",
    "FleetReport",
    "FleetSchedule",
    "GaussianNoiseDefense",
    "HashPlacement",
    "LeastLoadedPlacement",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "LOW_END_PHONE",
    "ModelRegistry",
    "OutputDefense",
    "QUERY_PAYLOAD_BYTES",
    "QueryRequest",
    "QueryResponse",
    "RegistryStats",
    "RoundingDefense",
    "TopKOnlyDefense",
    "DevicePersonalizer",
    "DeviceProfile",
    "OnboardedUser",
    "Pelican",
    "PelicanConfig",
    "PrivacyReport",
    "QueryStats",
    "ResourceReport",
    "LatencyBook",
    "ServiceConfig",
    "ServiceEndpoint",
    "ServiceFrontDoor",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "TransferRecord",
    "UpdateResult",
    "stack_key",
    "apply_privacy",
    "chaos_policy",
    "confidence_sharpness",
    "measure_availability",
    "resilience_policy",
    "shed_late_queries",
    "deploy_cloud",
    "deploy_cloud_delta",
    "serialize_personal_model_delta",
    "deploy_local",
    "leakage_reduction",
    "leakage_reduction_series",
    "make_placement",
    "perturb_schedule",
    "rebuild_general_model",
    "rebuild_personal_model",
    "remove_privacy",
    "replay_schedule",
    "sample_shard_outages",
    "serialize_personal_model",
    "totals_signature",
    "update_personal_model",
]
