"""The three front-door serving workloads and their deployments.

Every workload builds one trained Pelican deployment at the ``small``
experiment scale (fast setup, 80 personal users alternating cloud/local,
multiplexed over ~1000 simulated devices), compiles an open-loop
schedule from the workload seed, and serves that schedule through
``ServiceFrontDoor.run``.  Only public constructors are used and every
serving-strategy flag (``stacked``, ``workers``, ``store``) stays at its
default, so the benchmark measures whatever path the defaults select.

Importing this module imports the program (``repro``); the benchmark
times that import as part of set-up.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.data.corpus import generate_corpus
from repro.data.features import SpatialLevel
from repro.eval.config import ExperimentScale
from repro.eval.fleet import training_configs
from repro.pelican import Cluster, DeploymentMode, Fleet, Pelican, PelicanConfig
from repro.pelican.chaos import chaos_policy
from repro.pelican.clock import EventKind, FleetSchedule
from repro.pelican.resilience import resilience_policy
from repro.pelican.service import ServiceFrontDoor
from repro.traffic import FlashCrowd, RegimeTraffic, TrafficConfig, TrafficGenerator

LEVEL = SpatialLevel.BUILDING


@dataclass(frozen=True)
class Scale:
    """How big the deployment and the traffic are."""

    name: str
    experiment: Callable[[], ExperimentScale]
    personal_users: int
    devices_per_user: int
    #: Multiplies every workload's traffic horizon and flash window.
    horizon_factor: float = 1.0


SCALES: Dict[str, Scale] = {
    # ~1000 devices over 80 personal users (40 cloud, 40 local).
    "small": Scale("small", ExperimentScale.small, personal_users=80, devices_per_user=12),
    # The self-test's scale: the same code paths in a few seconds.
    "tiny": Scale(
        "tiny", ExperimentScale.tiny, personal_users=6, devices_per_user=4, horizon_factor=0.5
    ),
}


#: Mean arrivals per device per simulated second, on every workload.
RATE = 0.05
#: Simulated seconds between the churn workload's scheduled onboards.
ONBOARD_SPACING = 1.0
#: The churn cluster: shard count, per-shard live-model budget (far
#: below 40 cloud models), and the chaos and resilience presets.
CHURN_SHARDS = 4
CHURN_REGISTRY_CAPACITY = 4
CHURN_CHAOS = "shard_outage"
CHURN_RESILIENCE = "default"


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the serving stack it runs on."""

    name: str
    #: Arrival window, in simulated seconds.
    horizon: float
    #: ``(start, duration, rate)`` of a flash crowd over every device.
    flash: Optional[Tuple[float, float, float]] = None
    #: Onboard and update inside the timed run on a sharded, faulty
    #: cluster (``True``) or serve a warm single-cloud fleet (``False``).
    churn: bool = False
    update_prob: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Horizons give every schedule over 1000 ticks, so at least 10 lie
        # beyond the tick p99.
        Workload(name="steady", horizon=80.0),
        Workload(name="burst", horizon=45.0, flash=(2.5, 35.0, 0.4)),
        Workload(name="churn", horizon=100.0, churn=True, update_prob=0.5),
    )
}


@dataclass
class Base:
    """The trained (and, for warm workloads, onboarded) deployment."""

    workload: Workload
    scale: Scale
    #: Onboarded (warm workloads) or pristine (churn) orchestrator.
    pelican: Pelican
    #: ``user -> (train, holdout)`` datasets of every personal user.
    splits: Dict[int, Tuple[Any, Any]]
    timings: Dict[str, float]


@dataclass
class Deployment:
    """A deployment plus the schedule compiled for one seed."""

    base: Base
    seed: int
    schedule: FleetSchedule
    #: Seqs of the prediction queries in ``schedule``.
    query_seqs: frozenset

    @property
    def workload(self) -> Workload:
        return self.base.workload


def build_base(workload: Workload, scale: Scale) -> Base:
    """Generate the corpus, train the general model and, for warm
    workloads, onboard every personal user (odd positions to the cloud)."""
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    experiment = scale.experiment()
    general, personalization = training_configs(experiment, fast_setup=True)
    corpus_config = replace(experiment.corpus, num_personal_users=scale.personal_users)
    corpus = generate_corpus(corpus_config)
    splits = {
        uid: corpus.user_dataset(uid, LEVEL).split(0.8) for uid in corpus.personal_ids
    }
    timings["corpus"] = time.perf_counter() - start

    start = time.perf_counter()
    pelican = Pelican(
        corpus.spec(LEVEL),
        PelicanConfig(
            general=general, personalization=personalization, seed=corpus_config.seed
        ),
    )
    contributors, _ = corpus.contributor_dataset(LEVEL).split_by_user(0.8)
    pelican.initial_training(contributors)
    timings["train"] = time.perf_counter() - start

    start = time.perf_counter()
    if not workload.churn:
        for i, (uid, (user_train, _)) in enumerate(splits.items()):
            mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
            pelican.onboard_user(uid, user_train, deployment=mode)
    timings["onboard"] = time.perf_counter() - start
    return Base(workload, scale, pelican, splits, timings)


def compile_deployment(base: Base, seed: int) -> Deployment:
    """Compile the workload's schedule for ``seed``."""
    start = time.perf_counter()
    schedule = compile_traffic(base.workload, seed, base.scale, base.splits)
    base.timings["compile"] = time.perf_counter() - start
    query_seqs = frozenset(
        e.seq for e in schedule.ordered() if e.kind is EventKind.QUERY
    )
    return Deployment(base, seed, schedule, query_seqs)


def head(deployment: Deployment, share: float) -> Deployment:
    """The deployment with only the events in the first ``share`` of its
    schedule's simulated span."""
    events = deployment.schedule.ordered()
    cutoff = events[0].time + share * (events[-1].time - events[0].time)
    kept = [event for event in events if event.time <= cutoff]
    schedule = FleetSchedule()
    for event in kept:
        schedule.add(event)
    query_seqs = frozenset(e.seq for e in kept if e.seq in deployment.query_seqs)
    return Deployment(deployment.base, deployment.seed, schedule, query_seqs)


def compile_traffic(
    workload: Workload, seed: int, scale: Scale, splits: Dict[int, Tuple[Any, Any]]
) -> FleetSchedule:
    """The workload's open-loop schedule: a pure function of ``seed``."""
    factor = scale.horizon_factor
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    if workload.flash is not None:
        start, duration, rate = workload.flash
        flash_crowds = (
            FlashCrowd(start=start * factor, duration=duration * factor, rate=rate),
        )
    config = TrafficConfig(
        seed=seed,
        horizon=workload.horizon * factor,
        regimes=(RegimeTraffic(rate=RATE),),
        flash_crowds=flash_crowds,
        devices_per_user=scale.devices_per_user,
        include_onboards=workload.churn,
        onboard_spacing=ONBOARD_SPACING,
        update_prob=workload.update_prob,
    )
    windows = {uid: [w.history for w in holdout.windows] for uid, (_, holdout) in splits.items()}
    data = {uid: train for uid, (train, _) in splits.items()}
    return TrafficGenerator(config).compile(
        windows,
        onboard_data=data if workload.churn else None,
        update_data=data if workload.update_prob > 0 else None,
    )


def make_front_door(deployment: Deployment) -> ServiceFrontDoor:
    """A fresh serving stack behind a default front door.

    Warm workloads wrap the onboarded orchestrator in a new ``Fleet``
    (default registry capacity, so all 40 cloud models stay live); the
    churn workload gets a pristine copy under a 4-shard cluster.
    """
    if not deployment.workload.churn:
        return ServiceFrontDoor(Fleet(deployment.base.pelican))
    cluster = Cluster.from_trained(
        copy.deepcopy(deployment.base.pelican),
        num_shards=CHURN_SHARDS,
        registry_capacity=CHURN_REGISTRY_CAPACITY,
        policy=chaos_policy(CHURN_CHAOS, seed=deployment.seed),
        resilience=resilience_policy(CHURN_RESILIENCE, seed=deployment.seed),
    )
    return ServiceFrontDoor(cluster)

