"""Service-load experiment: generated open-loop traffic through the
front door (DESIGN.md §15).

Stands up a trained serving stack at any scale, compiles a
:class:`~repro.traffic.TrafficConfig` (Poisson arrivals per simulated
device, optional diurnal curve and flash crowd, onboard/update churn)
into a schedule, and runs it through a
:class:`~repro.pelican.service.ServiceFrontDoor` — admission control,
micro-batching, and the latency/SLO book — over any combination of the
serving axes (chaos policy, resilience, shards, stores).  The
``serve-load`` CLI subcommand prints the report;
``benchmarks/test_service_load.py`` pins the micro-batching speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.data.corpus import generate_corpus
from repro.data.features import SpatialLevel
from repro.eval.config import ExperimentScale
from repro.eval.fleet import build_cell_fleet, named_resilience, trained_pelican
from repro.pelican.chaos import chaos_policy
from repro.pelican.service import ServiceConfig, ServiceFrontDoor
from repro.traffic import FlashCrowd, RegimeTraffic, TrafficConfig, TrafficGenerator

LEVEL = SpatialLevel.BUILDING


@dataclass
class ServiceLoadResult:
    """Outcome of one generated service-load run."""

    scale: str
    regimes: Tuple[str, ...]
    num_users: int
    num_devices: int
    events: int
    policy: str
    resilience: str
    num_shards: int
    store: str
    wall_seconds: float
    #: The full front-door signature (fleet books + ``service_*`` overlay).
    signature: Dict[str, Any] = field(default_factory=dict)

    def _svc(self, key: str) -> Any:
        return self.signature[f"service_{key}"]

    @property
    def generated(self) -> int:
        return self._svc("generated")

    @property
    def answered(self) -> int:
        return self._svc("answered")

    @property
    def rejected(self) -> int:
        return self._svc("rejected")

    @property
    def shed(self) -> int:
        return self._svc("admitted") - self._svc("answered")

    @property
    def flushes(self) -> int:
        return self._svc("flushes")

    @property
    def mean_flush_size(self) -> float:
        return self._svc("admitted") / self.flushes if self.flushes else 0.0

    @property
    def p50(self) -> float:
        return self._svc("p50_latency")

    @property
    def p95(self) -> float:
        return self._svc("p95_latency")

    @property
    def p99(self) -> float:
        return self._svc("p99_latency")

    @property
    def slo_deadline(self) -> float:
        return self._svc("slo_deadline")

    @property
    def slo_attainment(self) -> float:
        return self._svc("slo_attainment")


def run_service_load(
    scale: ExperimentScale,
    regimes: Sequence[str] = ("campus",),
    rate: float = 0.05,
    horizon: float = 120.0,
    devices_per_user: int = 4,
    diurnal_amplitude: float = 0.0,
    diurnal_period: float = 0.0,
    flash_rate: float = 0.0,
    flash_start: float = 0.0,
    flash_duration: float = 20.0,
    update_prob: float = 0.0,
    traffic_seed: Optional[int] = None,
    window: float = 0.05,
    max_batch: int = 16,
    queue_capacity: Optional[int] = 256,
    policy: str = "none",
    resilience: Optional[str] = None,
    deadline: Optional[float] = None,
    registry_capacity: Optional[int] = 64,
    num_shards: int = 1,
    store: str = "memory",
    fast_setup: bool = False,
) -> ServiceLoadResult:
    """One generated workload through the front door, end to end.

    Trains a pristine Pelican at ``scale`` (the compiled schedule
    carries the onboards).  The serving stack comes from the one builder,
    :func:`repro.eval.fleet.build_cell_fleet`; traffic compiles once and
    replays deterministically, so the same arguments always produce the
    same ``signature`` (only ``wall_seconds`` varies).
    """
    corpus = generate_corpus(scale.corpus)
    pelican, training_report = trained_pelican(scale, corpus, fast_setup)
    splits = {
        uid: corpus.user_dataset(uid, LEVEL).split(0.8) for uid in corpus.personal_ids
    }
    windows = {
        uid: [w.history for w in holdout.windows] for uid, (_, holdout) in splits.items()
    }
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    if flash_rate > 0:
        flash_crowds = (
            FlashCrowd(start=flash_start, duration=flash_duration, rate=flash_rate),
        )
    traffic = TrafficConfig(
        seed=scale.corpus.seed if traffic_seed is None else traffic_seed,
        horizon=horizon,
        regimes=tuple(
            RegimeTraffic(
                regime=name,
                rate=rate,
                diurnal_amplitude=diurnal_amplitude,
                diurnal_period=diurnal_period,
            )
            for name in regimes
        ),
        flash_crowds=flash_crowds,
        devices_per_user=devices_per_user,
        include_onboards=True,
        update_prob=update_prob,
    )
    schedule = TrafficGenerator(traffic).compile(
        windows,
        onboard_data={uid: train for uid, (train, _) in splits.items()},
        update_data={uid: train for uid, (train, _) in splits.items()},
    )
    res_policy = named_resilience(resilience, scale.corpus.seed, deadline)
    fleet = build_cell_fleet(
        pelican,
        training_report,
        num_shards=num_shards,
        registry_capacity=registry_capacity,
        policy=chaos_policy(policy, seed=scale.corpus.seed),
        resilience=res_policy,
        store=store,
    )
    front = ServiceFrontDoor(
        fleet,
        ServiceConfig(
            window=window,
            max_batch=max_batch,
            queue_capacity=queue_capacity,
            deadline=deadline,
        ),
    )
    try:
        start = time.perf_counter()
        front.run(schedule)
        wall_seconds = time.perf_counter() - start
        signature = front.signature()
    finally:
        fleet.store.close()

    return ServiceLoadResult(
        scale=scale.name,
        regimes=tuple(regimes),
        num_users=fleet.num_users,
        num_devices=len(splits) * devices_per_user,
        events=len(schedule),
        policy=policy,
        resilience=resilience or "none",
        num_shards=num_shards,
        store=store,
        wall_seconds=wall_seconds,
        signature=signature,
    )
