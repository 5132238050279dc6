"""Per-side cost accounting, shard-agnostic (DESIGN.md §7/§9).

:class:`FleetReport` is the cumulative book of one cloud (one shard):
MACs per side, simulated seconds through each side's hardware profile,
network totals, and registry cache behaviour.  :class:`ClusterReport`
aggregates N of them — per-shard breakdown plus cluster totals — while
keeping the same deterministic :meth:`~ClusterReport.signature`
guarantee: identical runs produce identical signatures, only measured
wall-clock is excluded.

The cluster totals are computed *from aggregate MACs*, not by summing
per-shard seconds, so a 1-shard cluster's totals are bit-identical to the
legacy single-:class:`~repro.pelican.fleet.Fleet` report on the same run
(float addition order matters; the parity tests compare exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List

from repro.pelican.cloud import ResourceReport
from repro.pelican.device import CLOUD_SERVER
from repro.pelican.registry import RegistryStats


@dataclass
class FleetReport:
    """Cumulative per-side cost of everything one fleet/shard has done.

    ``cloud_compute`` / ``device_compute`` sum MACs on each side;
    ``*_simulated_seconds`` convert them through the side's hardware
    profile, :data:`~repro.pelican.device.CLOUD_SERVER` or
    :data:`~repro.pelican.device.LOW_END_PHONE` (plus registry cold-load
    fetch time on the cloud side and the per-user personalization
    estimates on the device side).
    ``wall_seconds`` inside the embedded reports is measured, so
    :meth:`signature` — the projection the determinism guarantee covers —
    excludes it.

    The ``adversary_*`` fields are an *attribution overlay* for privacy
    audits (DESIGN.md §10): probe traffic served through the dispatcher
    is billed in the normal totals (the cloud really did that work) *and*
    mirrored here, so benign cost is always ``total - adversary`` field
    by field.  They stay zero outside audit runs.
    """

    cloud_compute: ResourceReport = field(default_factory=ResourceReport.zero)
    device_compute: ResourceReport = field(default_factory=ResourceReport.zero)
    device_simulated_seconds: float = 0.0
    network_seconds: float = 0.0
    network_bytes_up: int = 0
    network_bytes_down: int = 0
    onboards: int = 0
    updates: int = 0
    queries: int = 0
    batches: int = 0
    registry: RegistryStats = field(default_factory=RegistryStats)
    # -- adversary attribution overlay (subset of the totals above) ------
    adversary_queries: int = 0
    adversary_batches: int = 0
    adversary_cloud_compute: ResourceReport = field(default_factory=ResourceReport.zero)
    adversary_device_compute: ResourceReport = field(default_factory=ResourceReport.zero)
    adversary_device_simulated_seconds: float = 0.0
    adversary_network_seconds: float = 0.0

    @property
    def cloud_simulated_seconds(self) -> float:
        """Cloud compute time plus checkpoint-store fetch time."""
        return (
            CLOUD_SERVER.simulated_seconds(self.cloud_compute.macs)
            + self.registry.simulated_load_seconds
        )

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0

    def signature(self) -> Dict[str, Any]:
        """The deterministic projection: identical for identical runs.

        Same seed + same schedule ⇒ identical signature (and identical
        responses); only wall-clock measurements are excluded.
        """
        return {
            "cloud_macs": self.cloud_compute.macs,
            "device_macs": self.device_compute.macs,
            "cloud_simulated_seconds": self.cloud_simulated_seconds,
            "device_simulated_seconds": self.device_simulated_seconds,
            "network_seconds": self.network_seconds,
            "network_bytes_up": self.network_bytes_up,
            "network_bytes_down": self.network_bytes_down,
            "onboards": self.onboards,
            "updates": self.updates,
            "queries": self.queries,
            "batches": self.batches,
            "registry_hits": self.registry.hits,
            "registry_cold_loads": self.registry.cold_loads,
            "registry_evictions": self.registry.evictions,
            "registry_load_seconds": self.registry.simulated_load_seconds,
            "eviction_log": tuple(self.registry.eviction_log),
            "adversary_queries": self.adversary_queries,
            "adversary_batches": self.adversary_batches,
            "adversary_cloud_macs": self.adversary_cloud_compute.macs,
            "adversary_device_macs": self.adversary_device_compute.macs,
            "adversary_device_simulated_seconds": self.adversary_device_simulated_seconds,
            "adversary_network_seconds": self.adversary_network_seconds,
        }


@dataclass
class ClusterReport:
    """Aggregating live view over N per-shard :class:`FleetReport` books.

    Shard reports stay owned (and mutated) by their shards; this report
    reads them on demand, so it is always in sync.  ``training`` holds
    the cluster-level general-model training cost, which is paid once —
    not per shard — exactly like the single-fleet ``train_cloud``.

    Every :class:`FleetReport` attribute (``queries``, ``registry``,
    ``mean_batch_size``, ...) reads through :meth:`totals`, so renderers
    work on either; :meth:`signature` adds a ``shards`` tuple.
    """

    shard_reports: List[FleetReport] = field(default_factory=list)
    training: ResourceReport = field(default_factory=ResourceReport.zero)

    @property
    def num_shards(self) -> int:
        return len(self.shard_reports)

    def shard(self, shard_id: int) -> FleetReport:
        return self.shard_reports[shard_id]

    def totals(self) -> FleetReport:
        """The shard books summed field by field, in shard order, with
        ``cloud_compute`` starting from ``training``."""
        total = FleetReport(cloud_compute=self.training)
        for report in self.shard_reports:
            for name in _SUMMED_FIELDS:
                setattr(total, name, _add(getattr(total, name), getattr(report, name)))
        return total

    def __getattr__(self, name: str) -> Any:
        if name in _SUMMED_FIELDS or isinstance(getattr(FleetReport, name, None), property):
            return getattr(self.totals(), name)
        raise AttributeError(name)

    def signature(self) -> Dict[str, Any]:
        """Cluster totals (FleetReport keys) + per-shard breakdown; drop
        ``"shards"`` (:func:`totals_signature`) to compare with a fleet."""
        return {
            **self.totals().signature(),
            "shards": tuple(r.signature() for r in self.shard_reports),
        }


_SUMMED_FIELDS = tuple(f.name for f in fields(FleetReport))


def _add(total: Any, value: Any) -> Any:
    """One field of a shard sum: registry stats add field by field
    (eviction logs concatenate), everything else with ``+``."""
    if isinstance(total, RegistryStats):
        return RegistryStats(
            **{
                f.name: _add(getattr(total, f.name), getattr(value, f.name))
                for f in fields(RegistryStats)
            }
        )
    return total + value


def overlay_signature(
    base: Dict[str, Any], prefix: str, overlay: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge a stats overlay into a signature under a key prefix.

    The single definition of how the chaos (``chaos_*``) and resilience
    (``resilience_*``) layers join a report signature: keys are
    namespaced, the base is never mutated, and — crucially for the
    golden-signature tests — callers only apply an overlay when its
    layer is active, so null runs keep the exact legacy key set.
    """
    merged = dict(base)
    for key, value in overlay.items():
        merged[f"{prefix}{key}"] = value
    return merged


def totals_signature(signature: Dict[str, Any]) -> Dict[str, Any]:
    """A signature with any per-shard breakdown stripped.

    Makes a :class:`ClusterReport` signature directly comparable
    (field-by-field) with a legacy :class:`FleetReport` one — the K=1
    parity tests compare exactly through this projection.
    """
    return {key: value for key, value in signature.items() if key != "shards"}
