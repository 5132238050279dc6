"""Fleet-throughput experiment: batched vs. looped multi-user serving.

Builds a full Pelican deployment at any :class:`ExperimentScale` tier
(general training, per-user personalization, mixed local/cloud
deployment), then serves an identical concurrent query workload two ways:

* **looped** — the seed path, one endpoint query per request
  (:meth:`~repro.pelican.fleet.Fleet.serve_looped`);
* **batched** — the fleet path, requests grouped per model and every
  group computed by one tick kernel call
  (:meth:`~repro.pelican.fleet.Fleet.serve`).

The two paths return identical predictions (checked every run); the
result reports the wall-clock speedup, the serving throughput, and the
fleet's per-side resource attribution.  ``benchmarks/test_fleet_serving.py``
pins the speedup; the ``fleet`` CLI subcommand prints the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.data.corpus import MobilityCorpus, generate_corpus
from repro.data.features import SpatialLevel
from repro.eval.config import ExperimentScale
from repro.pelican.accounting import ClusterReport
from repro.pelican.chaos import ChaosPolicy
from repro.pelican.cloud import ResourceReport
from repro.pelican.cluster import Cluster
from repro.pelican.deployment import DeploymentMode
from repro.pelican.fleet import Fleet, FleetReport, QueryRequest, QueryResponse
from repro.pelican.resilience import ResiliencePolicy, resilience_policy
from repro.pelican.storage import make_blob_store
from repro.pelican.system import Pelican, PelicanConfig

DEFAULT_LEVEL = SpatialLevel.BUILDING

#: Epoch budget used by ``fast_setup``: serving throughput is independent
#: of training convergence, so benchmark/CI setups train only this long.
FAST_SETUP_EPOCHS = 2


def training_configs(scale: ExperimentScale, fast_setup: bool):
    """The scale's ``(general, personalization)`` configs, trimmed to
    :data:`FAST_SETUP_EPOCHS` under ``fast_setup``.  The single definition
    of what "fast setup" means — shared by the fleet workload builder and
    the scenario matrix so the two never drift apart."""
    general, personalization = scale.general, scale.personalization
    if fast_setup:
        general = replace(general, epochs=FAST_SETUP_EPOCHS, patience=None)
        personalization = replace(
            personalization, epochs=FAST_SETUP_EPOCHS, patience=None
        )
    return general, personalization


def named_resilience(
    name: Optional[str], seed: int, deadline: Optional[float]
) -> Optional[ResiliencePolicy]:
    """The resilience preset ``name`` for one run; ``None`` (no policy)
    for ``None`` or ``"none"``."""
    if name is None or name == "none":
        return None
    return resilience_policy(name, seed=seed, deadline=deadline)


def trained_pelican(
    scale: ExperimentScale,
    corpus: MobilityCorpus,
    fast_setup: bool,
) -> Tuple[Pelican, ResourceReport]:
    """A userless Pelican with its general model trained on ``corpus``'s
    contributors, plus the training cost.  The scenario and audit suites
    train once and deepcopy it per cell: regimes only reshape the personal
    users (contributors are bit-identical across regime corpora, see
    :func:`repro.data.regimes.generate_regime_corpus`) and faults never
    touch training."""
    general, personalization = training_configs(scale, fast_setup)
    pelican = Pelican(
        corpus.spec(DEFAULT_LEVEL),
        PelicanConfig(
            general=general,
            personalization=personalization,
            seed=scale.corpus.seed,
        ),
    )
    train, _ = corpus.contributor_dataset(DEFAULT_LEVEL).split_by_user(0.8)
    return pelican, pelican.initial_training(train)


def build_cell_fleet(
    pelican: Pelican,
    training_report: ResourceReport,
    num_shards: int = 1,
    registry_capacity: Optional[int] = 64,
    policy: Optional[ChaosPolicy] = None,
    resilience: Optional[ResiliencePolicy] = None,
    store: str = "memory",
) -> Union[Fleet, Cluster]:
    """The one serving-stack builder: every eval stack comes from here.

    One shard gets a :class:`~repro.pelican.fleet.Fleet` with the
    training cost on its cloud book (as ``Fleet.train_cloud`` books it);
    more get a :class:`~repro.pelican.cluster.Cluster` with the cost on
    the cluster-level training book.  ``store`` names the blob-store
    kind (DESIGN.md §14); close it as ``stack.store.close()``.  Takes
    ownership of ``pelican`` (deepcopy one that other stacks share).
    """
    blob_store = make_blob_store(store)
    if num_shards == 1:
        fleet = Fleet(
            pelican,
            registry_capacity=registry_capacity,
            registry_store=blob_store,
            resilience=resilience,
            policy=policy,
        )
        fleet.report.cloud_compute += training_report
        return fleet
    cluster = Cluster.from_trained(
        pelican,
        num_shards=num_shards,
        registry_capacity=registry_capacity,
        policy=policy,
        resilience=resilience,
        store=blob_store,
    )
    cluster.report.training = cluster.report.training + training_report
    return cluster


@dataclass
class FleetWorkload:
    """A deployed serving stack plus the concurrent request mix to serve.

    ``fleet`` is a single-cloud :class:`~repro.pelican.fleet.Fleet` when
    ``num_shards == 1`` (the legacy path, byte-identical to before the
    cluster layer existed) and a :class:`~repro.pelican.cluster.Cluster`
    otherwise — both expose the same serving interface.
    """

    fleet: Union[Fleet, Cluster]
    requests: List[QueryRequest]
    scale_name: str
    num_shards: int = 1

    def close(self) -> None:
        """Release any disk-backed store."""
        self.fleet.store.close()

    @property
    def num_users(self) -> int:
        return self.fleet.num_users


@dataclass
class FleetThroughputResult:
    """Outcome of one batched-vs-looped serving comparison."""

    scale: str
    num_users: int
    num_queries: int
    batches: int
    looped_seconds: float
    batched_seconds: float
    parity: bool
    report: Union[FleetReport, ClusterReport]
    num_shards: int = 1
    store: str = "memory"

    @property
    def speedup(self) -> float:
        """Looped wall time over batched wall time (higher is better)."""
        return self.looped_seconds / self.batched_seconds if self.batched_seconds else 0.0

    @property
    def batched_queries_per_second(self) -> float:
        return self.num_queries / self.batched_seconds if self.batched_seconds else 0.0


def build_fleet_workload(
    scale: ExperimentScale,
    queries_per_user: int = 32,
    registry_capacity: Optional[int] = 64,
    k: int = 3,
    fast_setup: bool = False,
    num_shards: int = 1,
    resilience: Optional[ResiliencePolicy] = None,
    store: str = "memory",
) -> FleetWorkload:
    """Stand up a fleet (or sharded cluster) at ``scale`` and derive its
    query workload.  ``resilience`` optionally attaches a fault-handling
    policy (DESIGN.md §11) — a no-op on this clean workload beyond the
    stats overlay, which is exactly what the overhead benchmark measures.

    Personal users alternate local/cloud deployment (so both serving
    sides are exercised) and each contributes ``queries_per_user``
    requests drawn round-robin from their held-out windows — the
    interleaving a cloud actually sees from concurrent devices.

    ``num_shards > 1`` builds a hash-placed
    :class:`~repro.pelican.cluster.Cluster` instead of a single
    :class:`~repro.pelican.fleet.Fleet`; responses are bit-identical
    either way (DESIGN.md §9), only the books shard.

    ``store`` selects the durable blob store behind the registry
    (DESIGN.md §14: ``memory`` / ``disk``); responses and signatures are
    bit-identical across stores.

    ``fast_setup`` cuts training to :data:`FAST_SETUP_EPOCHS` epochs:
    model *dimensions* (and therefore serving cost) still match the
    scale, but setup takes seconds instead of minutes.  Only serving
    results are meaningful under it.
    """
    corpus = generate_corpus(scale.corpus)
    fleet = build_cell_fleet(
        *trained_pelican(scale, corpus, fast_setup),
        num_shards=num_shards,
        registry_capacity=registry_capacity,
        resilience=resilience,
        store=store,
    )

    holdouts = {}
    for i, uid in enumerate(corpus.personal_ids):
        user_train, holdout = corpus.user_dataset(uid, DEFAULT_LEVEL).split(0.8)
        mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
        fleet.onboard(uid, user_train, deployment=mode)
        holdouts[uid] = holdout

    requests: List[QueryRequest] = []
    for j in range(queries_per_user):
        for uid, holdout in holdouts.items():
            window = holdout.windows[j % len(holdout.windows)]
            requests.append(QueryRequest(user_id=uid, history=tuple(window.history), k=k))
    return FleetWorkload(
        fleet=fleet,
        requests=requests,
        scale_name=scale.name,
        num_shards=num_shards,
    )


def responses_match(
    batched: List[QueryResponse], looped: List[QueryResponse], rtol: float = 1e-9
) -> bool:
    """True when both serving paths produced the same predictions.

    Rankings must be identical; confidences must agree to ``rtol``
    *relative* tolerance with no absolute slack (``atol=0``) — under the
    privacy layer many confidences are tiny, and numpy's default
    ``atol=1e-8`` would wave through divergences larger than the values
    themselves.
    """
    if len(batched) != len(looped):
        return False
    for a, b in zip(batched, looped):
        if a.user_id != b.user_id:
            return False
        if [loc for loc, _ in a.top_k] != [loc for loc, _ in b.top_k]:
            return False
        if not np.allclose(
            [conf for _, conf in a.top_k],
            [conf for _, conf in b.top_k],
            rtol=rtol,
            atol=0.0,
        ):
            return False
    return True


def run_fleet_throughput(
    scale: ExperimentScale,
    queries_per_user: int = 32,
    registry_capacity: Optional[int] = 64,
    fast_setup: bool = False,
    num_shards: int = 1,
    resilience: Optional[str] = None,
    deadline: Optional[float] = None,
    store: str = "memory",
) -> FleetThroughputResult:
    """Build a fleet at ``scale`` and compare both serving paths once."""
    res_policy = named_resilience(resilience, scale.corpus.seed, deadline)
    workload = build_fleet_workload(
        scale,
        queries_per_user=queries_per_user,
        registry_capacity=registry_capacity,
        fast_setup=fast_setup,
        num_shards=num_shards,
        resilience=res_policy,
        store=store,
    )
    fleet, requests = workload.fleet, workload.requests

    try:
        start = time.perf_counter()
        looped = fleet.serve_looped(requests)
        looped_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched = fleet.serve(requests)
        batched_seconds = time.perf_counter() - start
    finally:
        workload.close()

    return FleetThroughputResult(
        scale=workload.scale_name,
        num_users=workload.num_users,
        num_queries=len(requests),
        batches=fleet.report.batches,
        looped_seconds=looped_seconds,
        batched_seconds=batched_seconds,
        parity=responses_match(batched, looped),
        report=fleet.report,
        num_shards=workload.num_shards,
        store=store,
    )
