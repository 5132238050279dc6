"""Front-door serving benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 12 --trace 0

Builds the program from ``src/``, sets up the workload's deployment
(several times; the median is ``setup_s``), then replays the seeded
open-loop schedule through ``ServiceFrontDoor.run`` as fast as it can
for ``--seconds`` seconds.  Every pass is checked: query conservation
and a digest of every answer's ranking against the digest stored for
that workload and seed.  Every timing is scaled to a reference
machine speed measured during or around it (:func:`probe_sample`).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics and table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the command
exits non-zero when any check fails.

``--record-digests 0-99`` computes and stores the answer digests for a
range of seeds instead of measuring.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 2
#: Timed passes a run makes however long they take, so that each tick's
#: median over the passes outvotes one pass a neighbour slowed.
MIN_TIMED_PASSES = 3
WORKLOAD_NAMES = ("steady", "burst", "churn")
#: Samples :func:`speed_probe` takes, LSTM steps per sample, and the wall
#: and CPU seconds one sample takes on an unloaded 2-vCPU VM; every timing
#: is reported scaled to that speed.
PROBE_SAMPLES = 16
PROBE_STEPS = 30
PROBE_REFERENCE_S = 0.0008
#: Wall seconds between the probe samples a timed pass takes between
#: ticks, and how many of the samples nearest a tick set its scale.
SAMPLE_INTERVAL_S = 0.05
TICK_SAMPLE_WINDOW = 15
#: Share of the schedule's simulated span the warm-up pass replays.
WARMUP_SHARE = 0.5


# ----------------------------------------------------------------------
# One pass: a fresh serving stack replays the whole schedule.
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    #: Wall and process CPU seconds of ``front.run`` less its probe
    #: samples, as measured.
    wall_s: float
    cpu_s: float
    #: ``PROBE_REFERENCE_S`` over the speed probe within (timed passes)
    #: or around this pass, in wall time (scales ``wall_s``) and in CPU
    #: time (scales ``cpu_s``).
    speed_factor: float
    cpu_factor: float
    ticks: List[float]
    #: ``(ticks served before it, wall_s, cpu_s)`` of each in-pass sample.
    samples: List[Tuple[int, float, float]]
    generated: int
    answered: int
    rejected: int
    shed: int
    digest: str
    problems: List[str]
    #: The front door's admission stats and the fleet's books (the
    #: serving stack itself is dropped so passes do not pile up).
    service: Any
    signature: Dict[str, Any]
    failover_queries: int
    degraded: int
    peak_bytes: int = 0

    @property
    def qps(self) -> float:
        """Answered queries per scaled wall second."""
        return self.answered / (self.wall_s * self.speed_factor)

    @property
    def cpu_ms_per_query(self) -> float:
        return self.cpu_s * self.cpu_factor * 1e3 / self.answered


def answer_digest(responses: Sequence[Any]) -> str:
    """Digest of (seq, user, top-k location ids, degraded tier) in seq order.

    Rankings only: confidences may move by float round-off between
    equivalent compute strategies, and accounting books may change shape.
    """
    h = hashlib.sha256()
    for r in sorted(responses, key=lambda r: r.seq):
        h.update(repr((r.seq, r.user_id, tuple(loc for loc, _ in r.top_k), r.degraded)).encode())
    return h.hexdigest()[:16]


def check_answers(deployment: Any, front: Any, responses: Sequence[Any]) -> List[str]:
    """Conservation and well-formedness of one pass's answers."""
    problems = []
    seqs = [r.seq for r in responses]
    if len(set(seqs)) != len(seqs):
        problems.append("a query was answered twice")
    if not set(seqs) <= deployment.query_seqs:
        problems.append("an answer carries a seq that is not a generated query")
    generated = len(deployment.query_seqs)
    shed = front.fleet.resilience_stats.shed_queries
    if generated != len(responses) + front.stats.rejected + shed:
        problems.append(
            f"conservation: generated {generated} != answered {len(responses)} "
            f"+ rejected {front.stats.rejected} + shed {shed}"
        )
    num_locations = deployment.base.pelican.spec.num_locations
    for r in responses:
        locations = [loc for loc, _ in r.top_k]
        confidences = [conf for _, conf in r.top_k]
        if (
            len(locations) != 3
            or len(set(locations)) != 3
            or not all(0 <= loc < num_locations for loc in locations)
            or not all(math.isfinite(c) and 0.0 <= c <= 1.0 for c in confidences)
            or confidences != sorted(confidences, reverse=True)
        ):
            problems.append(f"malformed answer for seq {r.seq}: {r.top_k}")
            break
    return problems


@functools.lru_cache(maxsize=None)
def _probe_inputs() -> Tuple[Any, Any, Any, Dict[int, str]]:
    """One 16-row batch of an LSTM layer with the serving models' shapes
    (48 inputs, 4 x 48 gates), and a lookup table."""
    import numpy

    rng = numpy.random.default_rng(0)
    x, w, u = (rng.standard_normal(shape) for shape in ((16, 48), (48, 192), (48, 192)))
    return x, w, u, {i: str(i) for i in range(5000)}


def _probe_sample() -> None:
    """:data:`PROBE_STEPS` LSTM steps plus the dict and list work of a
    serving tick, in the benchmark's own numpy code."""
    import numpy

    x, w, u, table = _probe_inputs()
    h = numpy.zeros((16, 48))
    keys: List[str] = []
    for i in range(PROBE_STEPS):
        z = x @ w + h @ u
        gates = 1.0 / (1.0 + numpy.exp(-z[:, :96]))
        h = gates[:, :48] * numpy.tanh(z[:, 96:144])
        keys.append(table[(i * 97) % 5000])
        keys.sort()


def probe_sample() -> Tuple[float, float]:
    """Wall and CPU seconds of one probe sample taken now.

    The probe runs no program code, so only the machine moves it.  Other
    tenants of a shared VM slow every pass by up to ~1.8x for seconds to
    minutes at a time.  They slow a workload by how much it leans on the
    caches and on both vCPUs, so the probe does what a serving tick does:
    small LSTM GEMMs and gate math on a 16-row batch, dict lookups and
    list sorts.  A time multiplied by :func:`speed_factors` then tracks
    the program rather than its neighbours.  Wall time also counts the
    time neighbours steal outright, which CPU time does not, so wall
    times are scaled by the wall probe and CPU times by the CPU probe.
    The CPU probe is this thread's CPU time: process CPU time would also
    count BLAS worker threads still spinning after a pass.

    An untimed run first brings the probe's data back into the caches:
    between ticks the program has evicted it, and a cold sample would
    read the program's own memory traffic as a slower machine.
    """
    _probe_sample()
    cpu_start = time.thread_time()
    start = time.perf_counter()
    _probe_sample()
    return time.perf_counter() - start, time.thread_time() - cpu_start


def speed_probe() -> List[Tuple[float, float]]:
    """:data:`PROBE_SAMPLES` probe samples taken now."""
    return [probe_sample() for _ in range(PROBE_SAMPLES)]


def speed_factors(samples: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """The wall and CPU scales from time measured among ``samples`` to
    reference time.  The median of many ~1 ms samples reads the machine's
    speed steadily; one long sample would not."""
    return (
        PROBE_REFERENCE_S / statistics.median(s[0] for s in samples),
        PROBE_REFERENCE_S / statistics.median(s[1] for s in samples),
    )


def serve_pass(
    workloads: Any, tracing: Any, deployment: Any, tracer: Any = None, peak: bool = False
) -> PassResult:
    """Replay the schedule once through a fresh front door.

    An untraced pass without ``peak`` is a timed pass: it takes a probe
    sample between ticks every :data:`SAMPLE_INTERVAL_S` and is scaled by
    those samples alone, so its scale reads the machine's speed over the
    whole pass, not at its ends (see the README for what that bought).
    The sample time is taken out of the pass's wall and CPU time.  Other
    passes are scaled by probes before and after them.
    """
    front = workloads.make_front_door(deployment)
    sampled = tracer is None and not peak
    if tracer is not None:
        timer, probe = tracer, tracer.probe
    else:
        timer = probe = tracing.TickProbe(
            sample=probe_sample if sampled else None, interval=SAMPLE_INTERVAL_S
        )
    ticks = probe.ticks
    first_tick = len(ticks)
    gc.collect()
    probe_before = [] if sampled else speed_probe()
    peak_bytes = 0
    try:
        with timer:
            if peak:
                tracemalloc.start()
            cpu_start = time.process_time()
            start = time.perf_counter()
            responses = front.run(deployment.schedule)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
    finally:
        close = getattr(front.fleet, "close", None)
        if close is not None:
            close()
    samples = probe.samples if sampled else []
    factor, cpu_factor = speed_factors([s[1:] for s in samples] or probe_before + speed_probe())
    chaos = getattr(front.fleet, "chaos", None)
    return PassResult(
        wall_s=wall - probe.sampling_s[0],
        cpu_s=cpu - probe.sampling_s[1],
        speed_factor=factor,
        cpu_factor=cpu_factor,
        ticks=ticks[first_tick:],
        samples=samples,
        generated=len(deployment.query_seqs),
        answered=len(responses),
        rejected=front.stats.rejected,
        shed=front.fleet.resilience_stats.shed_queries,
        digest=answer_digest(responses),
        problems=check_answers(deployment, front, responses),
        service=front.stats,
        signature=front.fleet.report.signature(),
        failover_queries=chaos.failover_queries if chaos is not None else 0,
        degraded=front.fleet.resilience_stats.degraded_queries,
        peak_bytes=peak_bytes,
    )


def looped_reference_digest(workloads: Any, deployment: Any) -> str:
    """Answers of a warm workload through the per-query reference path.

    ``Fleet.serve_looped`` answers one request at a time through the
    endpoint API and leaves every book untouched; warm workloads have no
    lifecycle events or faults, so every query's answer is the user's
    model's ranking for its history.
    """
    from repro.pelican import Fleet, QueryRequest, QueryResponse

    events = [e for e in deployment.schedule.ordered() if e.seq in deployment.query_seqs]
    requests = [
        QueryRequest(user_id=e.user_id, history=e.payload, k=dict(e.options).get("k", 3))
        for e in events
    ]
    served = Fleet(deployment.base.pelican).serve_looped(requests)
    return answer_digest(
        [QueryResponse(e.user_id, e.time, e.seq, r.top_k) for e, r in zip(events, served)]
    )


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import numpy

    lib_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(lib_dir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """Content hash of ``src/`` — identifies the program when no git
    metadata is present."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> Dict[str, Any]:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "src_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[max(1, min(len(ordered), rank)) - 1]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def fail_ratio(result: PassResult) -> float:
    """(rejected + shed) / generated: fixed by the seed in simulated time."""
    return (result.rejected + result.shed) / result.generated


def tick_factors(result: PassResult) -> List[float]:
    """Each tick's wall scale: from the :data:`TICK_SAMPLE_WINDOW` in-pass
    samples taken nearest to it, so a neighbour that slows part of a pass
    is scaled out of the ticks it slowed."""
    if len(result.samples) < TICK_SAMPLE_WINDOW:
        return [result.speed_factor] * len(result.ticks)
    positions = [s[0] for s in result.samples]
    walls = [s[1] for s in result.samples]
    last = len(walls) - TICK_SAMPLE_WINDOW
    factors = []
    for i in range(len(result.ticks)):
        lo = min(max(bisect.bisect_right(positions, i) - TICK_SAMPLE_WINDOW // 2, 0), last)
        factors.append(PROBE_REFERENCE_S / statistics.median(walls[lo : lo + TICK_SAMPLE_WINDOW]))
    return factors


def tick_medians(passes: List[PassResult]) -> List[float]:
    """Each tick's scaled wall time, median over the passes.

    Every pass replays the same schedule, so its i-th tick serves the same
    micro-batch (the tick counts are checked to agree).  A neighbour that
    slows a few ticks of one pass then moves no percentile, where pooling
    every pass's ticks would let those few ticks set the p99.
    """
    scaled = ([t * f for t, f in zip(p.ticks, tick_factors(p))] for p in passes)
    return [statistics.median(samples) for samples in zip(*scaled)]


def end_to_end_metrics(setup_s: float, passes: List[PassResult], peak: PassResult) -> Dict[str, Any]:
    ticks = tick_medians(passes)
    return {
        "setup_s": metric(setup_s, "s"),
        "qps": metric(statistics.median(p.qps for p in passes), "1/s"),
        "cpu_ms_per_query": metric(statistics.median(p.cpu_ms_per_query for p in passes), "ms"),
        "tick_p50_ms": metric(nearest_rank(ticks, 50) * 1e3, "ms"),
        "tick_p99_ms": metric(nearest_rank(ticks, 99) * 1e3, "ms"),
        "peak_mib": metric(peak.peak_bytes / 2**20, "MiB"),
    }


def per_layer_metrics(
    setup: Dict[str, float],
    deployment: Any,
    tracer: Any,
    rows: List[Any],
    results: List[PassResult],
    untraced: List[PassResult],
) -> Dict[str, Any]:
    """Per-traced-pass means of every span and counter."""
    n = len(results)

    def mean(values: Sequence[float]) -> float:
        return sum(values) / n

    def self_s(*spans: str) -> float:
        return tracer.self_s(*spans) / n

    def calls(*spans: str) -> float:
        return tracer.calls(*spans) / n

    def count(name: str) -> float:
        return tracer.counters.get(name, 0.0) / n

    def ratio(num: float, den: float, empty: float = 0.0) -> float:
        return num / den if den else empty

    stats = [p.service for p in results]
    signatures = [p.signature for p in results]
    hits = mean([s["registry_hits"] for s in signatures])
    cold = mean([s["registry_cold_loads"] for s in signatures])
    wall = mean([p.wall_s for p in results])
    unattributed = rows[-1].self_s / n
    groups = count("dispatch.groups")
    infer_calls = calls("lstm_infer_last", "stacked_infer_last")
    gather_calls = calls("WeightStack.gather")
    return {
        "setup.import_s": metric(setup["import"], "s"),
        "setup.corpus_s": metric(setup["corpus"], "s"),
        "setup.train_s": metric(setup["train"], "s"),
        "setup.onboard_s": metric(setup["onboard"], "s"),
        "traffic.compile_s": metric(setup["compile"], "s"),
        "traffic.events": metric(len(deployment.schedule), "count"),
        "service.admit_s": metric(self_s("admit"), "s"),
        "service.flushes": metric(mean([s.flushes for s in stats]), "count"),
        "service.flush_size_mean": metric(
            ratio(sum(s.admitted for s in stats), sum(s.flushes for s in stats)), "count"
        ),
        "service.max_queue_depth": metric(mean([s.max_queue_depth for s in stats]), "count"),
        "service.rejected": metric(mean([s.rejected for s in stats]), "count"),
        "clock.replay_self_s": metric(self_s("replay_schedule", "Fleet.run.serve"), "s"),
        "clock.ticks": metric(mean([len(p.ticks) for p in results]), "count"),
        "chaos.perturb_s": metric(self_s("perturb_schedule"), "s"),
        "chaos.failover_queries": metric(mean([p.failover_queries for p in results]), "count"),
        "resilience.shed_s": metric(self_s("shed_late_queries"), "s"),
        "resilience.shed": metric(mean([p.shed for p in results]), "count"),
        "resilience.degraded": metric(mean([p.degraded for p in results]), "count"),
        "fail_ratio": metric(mean([fail_ratio(p) for p in results]), "ratio"),
        "cluster.self_s": metric(self_s("Cluster.run", "Cluster._serve_tick"), "s"),
        "fleet.serve_calls": metric(calls("Fleet.serve"), "count"),
        "fleet.serve_self_s": metric(self_s("Fleet.serve"), "s"),
        "dispatch.groups": metric(groups, "count"),
        "dispatch.group_size_mean": metric(ratio(count("dispatch.group_queries"), groups), "count"),
        "dispatch.model_batch_s": metric(self_s("dispatch_model_batch"), "s"),
        "dispatch.stacked_tick_s": metric(self_s("dispatch_stacked_tick"), "s"),
        "dispatch.stacked_share": metric(ratio(count("dispatch.stacked_groups"), groups), "ratio"),
        "stacking.gather_calls": metric(gather_calls, "count"),
        "stacking.gather_copy_ratio": metric(
            ratio(count("stacking.gather_copies"), gather_calls), "ratio"
        ),
        "stacking.gather_copied_mib": metric(count("stacking.gather_copied_bytes") / 2**20, "MiB"),
        "stacking.gather_s": metric(self_s("WeightStack.gather"), "s"),
        "features.encode_s": metric(self_s("encode_sequence", "encode_windows"), "s"),
        "features.encode_rows": metric(count("features.encode_rows"), "count"),
        "nn.infer_calls": metric(infer_calls, "count"),
        "nn.infer_rows_mean": metric(ratio(count("nn.infer_rows"), infer_calls), "count"),
        "nn.infer_s": metric(self_s("lstm_infer_last", "stacked_infer_last"), "s"),
        "nn.fit_calls": metric(calls("fit"), "count"),
        "nn.fit_s": metric(self_s("fit"), "s"),
        "nn.macs": metric(mean([s["cloud_macs"] + s["device_macs"] for s in signatures]), "MAC"),
        "system.onboard_calls": metric(calls("onboard_user"), "count"),
        "system.onboard_s": metric(self_s("onboard_user"), "s"),
        "system.update_calls": metric(calls("update_user"), "count"),
        "system.update_s": metric(self_s("update_user"), "s"),
        "registry.get_calls": metric(calls("ModelRegistry.get"), "count"),
        "registry.hit_ratio": metric(ratio(hits, hits + cold, 1.0), "ratio"),
        "registry.cold_loads": metric(cold, "count"),
        "registry.evictions": metric(mean([s["registry_evictions"] for s in signatures]), "count"),
        "registry.get_s": metric(self_s("ModelRegistry.get"), "s"),
        "registry.register_s": metric(self_s("ModelRegistry.register"), "s"),
        "deployment.rebuild_s": metric(self_s("rebuild_personal_model"), "s"),
        "deployment.exchange_calls": metric(calls("record_query_exchange"), "count"),
        "deployment.exchange_s": metric(self_s("record_query_exchange"), "s"),
        "storage.view_calls": metric(calls("BlobStore.view"), "count"),
        "storage.view_s": metric(self_s("BlobStore.view"), "s"),
        "trace.overhead_ratio": metric(
            mean([p.wall_s for p in results]) / statistics.median(p.wall_s for p in untraced),
            "ratio",
        ),
        "trace.unattributed_share": metric(unattributed / wall, "ratio"),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)
    #: Answer digests the checked passes produced (one when they agree).
    answer_digests: List[str] = field(default_factory=list)


def load_digests() -> Dict[str, Dict[str, str]]:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale_name: str = "small",
    digests: Optional[Dict[str, Dict[str, str]]] = None,
    setup_repeats: int = SETUP_REPEATS,
    import_start: float = PROCESS_START,
) -> Outcome:
    """Set up, measure for ``seconds``, check every pass."""
    import tracing
    import workloads

    import_s = time.perf_counter() - import_start
    workload = workloads.WORKLOADS[workload_name]
    scale = workloads.SCALES[scale_name]
    #: (scaled seconds, speed factor, per-phase seconds as measured)
    builds: List[Tuple[float, float, Dict[str, float]]] = []

    def build() -> Any:
        gc.collect()
        probe_before = speed_probe()
        start = time.perf_counter()
        base = workloads.build_base(workload, scale)
        deployment = workloads.compile_deployment(base, seed)
        elapsed = time.perf_counter() - start
        factor = speed_factors(probe_before + speed_probe())[0]
        builds.append((elapsed * factor, factor, dict(base.timings)))
        return deployment

    deployment = build()
    # The first pass warms allocator arenas and lazy state; untraced runs
    # make it the tracemalloc pass, which is never timed.  Tracemalloc
    # slows a replay ~4x, so it replays only the schedule's first part.
    warmup = serve_pass(
        workloads, tracing, workloads.head(deployment, WARMUP_SHARE), peak=not trace
    )
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    tracer = tracing.Tracer() if trace else None
    measured = 0.0
    # The timed passes are split into one block per set-up, so the
    # repeated set-ups also spread the measurement over the whole run.
    for block in range(setup_repeats):
        if block:
            deployment = build()
        block_start = time.perf_counter()
        while True:
            untraced.append(serve_pass(workloads, tracing, deployment))
            if tracer is not None:
                traced.append(serve_pass(workloads, tracing, deployment, tracer=tracer))
            elapsed = measured + time.perf_counter() - block_start
            share = (block + 1) / setup_repeats
            if elapsed >= seconds * share and len(untraced) >= MIN_TIMED_PASSES * share:
                break
        measured += time.perf_counter() - block_start
    setup = {key: statistics.median(b[2][key] for b in builds) for key in builds[0][2]}
    setup["import"] = import_s
    # The first probe runs right after the import, so its factor scales it.
    setup_s = import_s * builds[0][1] + statistics.median(b[0] for b in builds)

    checked = untraced + traced
    report: List[str] = [
        "pass qps as measured: " + " ".join(f"{p.answered / p.wall_s:.0f}" for p in untraced),
        "speed factors:        " + " ".join(f"{p.speed_factor:.2f}" for p in untraced),
        "cpu speed factors:    " + " ".join(f"{p.cpu_factor:.2f}" for p in untraced),
        f"fail_ratio: {fail_ratio(untraced[0]):.5f} "
        f"({untraced[0].rejected} rejected + {untraced[0].shed} shed of {untraced[0].generated})",
    ]
    if tracer is not None:
        rows = tracer.layer_rows(sum(p.wall_s for p in traced))
        metrics = per_layer_metrics(setup, deployment, tracer, rows, traced, untraced)
        report.append(
            tracing.render_layer_table(
                rows, f"per-layer table: {workload_name}, seed {seed}, {len(traced)} traced pass(es)"
            )
        )
        report.append(f"trace.overhead_ratio: {metrics['trace.overhead_ratio']['value']:.3f}")
    else:
        metrics = end_to_end_metrics(setup_s, untraced, warmup)
        num_ticks = len(untraced[0].ticks)
        report.append(
            f"{workload_name}: {len(untraced)} timed pass(es) of {untraced[0].generated} queries "
            f"and {num_ticks} ticks; tick percentiles over the {num_ticks} per-tick medians "
            f"({num_ticks - math.ceil(0.99 * num_ticks)} beyond p99)"
        )

    problems = [f"warm-up pass: {p}" for p in warmup.problems]
    problems += [f"pass {i}: {p}" for i, r in enumerate(checked) for p in r.problems]
    outcomes = {(r.generated, r.answered, r.rejected, r.shed, len(r.ticks)) for r in checked}
    if len(outcomes) != 1:
        problems.append(
            f"passes disagree on (generated, answered, rejected, shed, ticks): {sorted(outcomes)}"
        )
    seen = {r.digest for r in checked}
    if len(seen) != 1:
        problems.append(f"passes disagree on the answer digest: {sorted(seen)}")
    expected = (digests if digests is not None else load_digests()).get(workload_name, {}).get(str(seed))
    if expected is None and not workload.churn:
        expected = looped_reference_digest(workloads, deployment)
        report.append("no stored digest for this seed: checked against the looped reference path")
    elif expected is None:
        report.append("no stored digest for this seed: checked pass-to-pass agreement only")
    if expected is not None and expected not in seen:
        problems.append(f"answer digest {sorted(seen)} != expected {expected}")

    # Every pass replays the same schedule and must settle every query the
    # same way (checked above), so the run attempts the schedule's queries
    # once however many passes fit in ``seconds``: both counts are fixed by
    # the seed, not by the machine's speed.
    return Outcome(
        correct=not problems,
        attempted=untraced[0].generated,
        failed=untraced[0].rejected + untraced[0].shed,
        metrics=metrics,
        problems=problems,
        report=report,
        answer_digests=sorted(seen),
    )


def parse_seeds(spec: str) -> List[int]:
    seeds: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(workload_names: Sequence[str], seeds: Sequence[int]) -> None:
    """Serve each seed's schedule once and store its answer digest."""
    import tracing
    import workloads

    digests = load_digests()
    for name in workload_names:
        base = workloads.build_base(workloads.WORKLOADS[name], workloads.SCALES["small"])
        stored = digests.setdefault(name, {})
        for seed in seeds:
            deployment = workloads.compile_deployment(base, seed)
            result = serve_pass(workloads, tracing, deployment)
            if result.problems:
                raise RuntimeError(f"{name} seed {seed}: {result.problems}")
            stored[str(seed)] = result.digest
            print(f"{name} seed {seed}: {result.digest}", file=sys.stderr)
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="SEEDS", help="e.g. 0-99 or 1,5,7")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.record_digests:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        record_digests(names, parse_seeds(args.record_digests))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    outcome = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
