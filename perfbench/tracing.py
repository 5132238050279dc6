"""Wall-clock spans around the program's layer boundaries.

The benchmark never edits the program.  It wraps each public callable
at the name its caller looks up (a module global such as
``repro.pelican.fleet.replay_schedule`` or a class attribute such as
``Fleet.serve``) and restores the original when the pass ends.

* :class:`TickProbe` wraps only the ``serve`` callable the event clock
  calls once per flushed micro-batch, timing each tick.  It is active in
  every pass, traced or not, and costs two clock reads per tick.
* :class:`Tracer` adds a span around every boundary in :data:`SPANS`.
  A span's *self* time is its duration minus the time covered by the
  spans it encloses, so self times add up to the traced run minus
  whatever no span covers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Observe = Callable[["Tracer", tuple, dict, Any], None]


# ----------------------------------------------------------------------
# Counting hooks: run after the wrapped call, outside every span's time.
# ----------------------------------------------------------------------
def _count_groups(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["dispatch.groups"] += len(result)
    tracer.counters["dispatch.group_queries"] += sum(len(v) for v in result.values())


def _count_stacked(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["dispatch.stacked_groups"] += sum(1 for r in result if r is not None)


def _count_encode_sequence(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["features.encode_rows"] += 1


def _count_encode_windows(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["features.encode_rows"] += len(result)


def _count_infer(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    rows = 1
    for dim in result.shape[:-1]:
        rows *= dim
    tracer.counters["nn.infer_rows"] += rows


def _count_gather(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    rows = list(args[1])
    # WeightStack.gather serves a contiguous ascending row run as views
    # and anything else as fancy-index copies of every returned array.
    if any(rows[i] != rows[0] + i for i in range(len(rows))):
        layers, head_w, head_b, temps = result
        copied = head_w.nbytes + head_b.nbytes + temps.nbytes
        copied += sum(a.nbytes for layer in layers for a in layer)
        tracer.counters["stacking.gather_copies"] += 1
        tracer.counters["stacking.gather_copied_bytes"] += copied


def _count_exchange(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["deployment.exchange_queries"] += args[1]


@dataclass(frozen=True)
class SpanSite:
    """One callable to wrap: ``module.attr`` (``attr`` may be ``Cls.meth``)."""

    module: str
    attr: str
    span: str
    layer: str
    observe: Optional[Observe] = None


#: Every wrapped boundary, grouped by layer.  A callable imported into
#: several modules is wrapped at each caller's name under one span.  The
#: event clock (``replay_schedule``) is wrapped by :class:`TickProbe`.
SPANS: Tuple[SpanSite, ...] = (
    SpanSite("repro.pelican.service", "ServiceFrontDoor.admit", "admit", "service"),
    SpanSite("repro.pelican.chaos", "perturb_schedule", "perturb_schedule", "chaos"),
    SpanSite("repro.pelican.cluster", "perturb_schedule", "perturb_schedule", "chaos"),
    SpanSite("repro.pelican.service", "shed_late_queries", "shed_late_queries", "resilience"),
    SpanSite("repro.pelican.chaos", "shed_late_queries", "shed_late_queries", "resilience"),
    SpanSite("repro.pelican.cluster", "shed_late_queries", "shed_late_queries", "resilience"),
    SpanSite("repro.pelican.cluster", "Cluster.run", "Cluster.run", "cluster"),
    SpanSite("repro.pelican.fleet", "Fleet.serve", "Fleet.serve", "fleet"),
    SpanSite("repro.pelican.fleet", "group_requests", "group_requests", "dispatch", _count_groups),
    SpanSite("repro.pelican.cluster", "group_requests", "group_requests", "dispatch", _count_groups),
    SpanSite("repro.pelican.fleet", "dispatch_model_batch", "dispatch_model_batch", "dispatch"),
    SpanSite("repro.pelican.cluster", "dispatch_model_batch", "dispatch_model_batch", "dispatch"),
    SpanSite("repro.pelican.fleet", "dispatch_stacked_tick", "dispatch_stacked_tick", "dispatch", _count_stacked),
    SpanSite("repro.pelican.stacking", "WeightStack.gather", "WeightStack.gather", "stacking", _count_gather),
    SpanSite("repro.data.features", "FeatureSpec.encode_sequence", "encode_sequence", "features", _count_encode_sequence),
    SpanSite("repro.data.features", "FeatureSpec.encode_windows", "encode_windows", "features", _count_encode_windows),
    SpanSite("repro.models.architecture", "lstm_infer_last", "lstm_infer_last", "nn", _count_infer),
    SpanSite("repro.pelican.dispatch", "stacked_infer_last", "stacked_infer_last", "nn", _count_infer),
    SpanSite("repro.models.personalize", "fit", "fit", "nn"),
    SpanSite("repro.pelican.updates", "fit", "fit", "nn"),
    SpanSite("repro.pelican.system", "Pelican.onboard_user", "onboard_user", "system"),
    SpanSite("repro.pelican.system", "Pelican.update_user", "update_user", "system"),
    SpanSite("repro.pelican.registry", "ModelRegistry.get", "ModelRegistry.get", "registry"),
    SpanSite("repro.pelican.registry", "ModelRegistry.register", "ModelRegistry.register", "registry"),
    SpanSite("repro.pelican.registry", "rebuild_personal_model", "rebuild_personal_model", "deployment"),
    SpanSite("repro.pelican.deployment", "rebuild_personal_model", "rebuild_personal_model", "deployment"),
    SpanSite("repro.pelican.deployment", "ServiceEndpoint.record_query_exchange", "record_query_exchange", "deployment", _count_exchange),
    SpanSite("repro.pelican.storage", "BlobStore.view", "BlobStore.view", "storage"),
    SpanSite("repro.pelican.storage", "DiskBlobStore.view", "BlobStore.view", "storage"),
)

#: Layers in table order (the order requests descend through them).
LAYERS: Tuple[str, ...] = (
    "service", "resilience", "chaos", "cluster", "clock", "fleet", "dispatch",
    "stacking", "registry", "storage", "deployment", "features", "nn", "system",
)


def _resolve(site_module: str, attr: str) -> Tuple[Any, str]:
    """``(owner, name)`` such that ``getattr(owner, name)`` is the callable."""
    owner: Any = importlib.import_module(site_module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        # Class attributes are read from the class dict so a staticmethod
        # or inherited name is never copied onto the wrong owner.
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class TickProbe:
    """Times every tick the event clock serves.

    Wraps ``replay_schedule`` in the fleet and cluster modules so the
    ``serve`` callable it receives is timed per call.  Under a tracer the
    replay and each tick also become spans: the cluster's tick callable
    is its routing (layer ``cluster``), the fleet's is a thin lambda
    (layer ``clock``).

    Given a ``sample`` callable, the probe also calls it between ticks,
    at most once every ``interval`` wall seconds, and keeps
    ``(ticks served before it, *sample())`` in :attr:`samples`.  Sample
    time lies outside every tick; :attr:`sampling_s` holds the wall and
    CPU seconds of all the calls.
    """

    SITES = (("repro.pelican.fleet", "replay_schedule"), ("repro.pelican.cluster", "replay_schedule"))

    def __init__(
        self,
        tracer: Optional["Tracer"] = None,
        sample: Optional[Callable[[], Tuple[float, float]]] = None,
        interval: float = 0.0,
    ) -> None:
        self.ticks: List[float] = []
        self.samples: List[Tuple[int, float, float]] = []
        self.sampling_s = [0.0, 0.0]
        self._tracer = tracer
        self._sample = sample
        self._interval = interval
        self._patches = Patches()

    def __enter__(self) -> "TickProbe":
        for module, attr in self.SITES:
            owner, name = _resolve(module, attr)
            tick_span = "Cluster._serve_tick" if module.endswith("cluster") else "Fleet.run.serve"
            layer = "cluster" if module.endswith("cluster") else "clock"
            self._patches.replace(
                owner, name, functools.partial(self._wrap_replay, span=tick_span, layer=layer)
            )
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()

    def _wrap_replay(self, replay: Callable, span: str, layer: str) -> Callable:
        ticks = self.ticks
        samples = self.samples
        sampling_s = self.sampling_s
        sample = self._sample
        interval = self._interval
        tracer = self._tracer
        clock = time.perf_counter
        next_sample = [0.0]

        @functools.wraps(replay)
        def replay_with_ticks(schedule, serve, *args, **kwargs):
            inner = serve if tracer is None else tracer.wrap(serve, span, layer)

            def timed_serve(tick_time, requests):
                if sample is not None and clock() >= next_sample[0]:
                    begin, cpu_begin = clock(), time.thread_time()
                    samples.append((len(ticks), *sample()))
                    next_sample[0] = clock()
                    sampling_s[0] += next_sample[0] - begin
                    sampling_s[1] += time.thread_time() - cpu_begin
                    next_sample[0] += interval
                start = clock()
                try:
                    return inner(tick_time, requests)
                finally:
                    ticks.append(clock() - start)

            return replay(schedule, timed_serve, *args, **kwargs)

        if tracer is not None:
            return tracer.wrap(replay_with_ticks, "replay_schedule", "clock")
        return replay_with_ticks


class Tracer:
    """Per-span call counts, total and self wall time, plus counters.

    ``stats[span] = [calls, total_s, self_s]``.  ``layer_total[layer]``
    counts only outermost spans of a layer, so a layer's total never
    double counts its own nested calls.  Time spent in the ``observe``
    counting hooks is charged to ``hook_s`` and excluded from every
    span's self time.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.span_layer: Dict[str, str] = {}
        self.layer_total: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.hook_s = 0.0
        self._stack: List[float] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches = Patches()
        self.probe = TickProbe(self)

    def wrap(self, fn: Callable, span: str, layer: str, observe: Optional[Observe] = None) -> Callable:
        self.span_layer[span] = layer
        record = self.stats[span]
        stack = self._stack
        depth = self._depth
        layer_total = self.layer_total
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                depth[layer] -= 1
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - covered
                if not depth[layer]:
                    layer_total[layer] += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                hook_start = clock()
                observe(self, args, kwargs, result)
                hook = clock() - hook_start
                self.hook_s += hook
                if stack:
                    stack[-1] += hook
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for site in SPANS:
            owner, name = _resolve(site.module, site.attr)
            self._patches.replace(
                owner,
                name,
                functools.partial(self.wrap, span=site.span, layer=site.layer, observe=site.observe),
            )
        self.probe.__enter__()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.probe.__exit__(*exc)
        self._patches.restore()

    # ------------------------------------------------------------------
    def self_s(self, *spans: str) -> float:
        return sum(self.stats[s][2] for s in spans if s in self.stats)

    def calls(self, *spans: str) -> int:
        return int(sum(self.stats[s][0] for s in spans if s in self.stats))

    def layer_rows(self, wall_s: float) -> List["LayerSummary"]:
        """One row per layer, in :data:`LAYERS` order, plus ``trace`` and
        ``(unattributed)`` rows that close the sum to ``wall_s``."""
        rows = []
        for layer in LAYERS:
            spans = [s for s, l in self.span_layer.items() if l == layer]
            calls = self.calls(*spans)
            self_time = self.self_s(*spans)
            rows.append(LayerSummary(layer, calls, self.layer_total.get(layer, 0.0), self_time, wall_s))
        rows.append(LayerSummary("trace", 0, self.hook_s, self.hook_s, wall_s))
        attributed = sum(r.self_s for r in rows)
        rows.append(LayerSummary("(unattributed)", 0, wall_s - attributed, wall_s - attributed, wall_s))
        return rows


@dataclass(frozen=True)
class LayerSummary:
    """One row of the per-layer table."""

    layer: str
    calls: int
    total_s: float
    self_s: float
    wall_s: float

    @property
    def share(self) -> float:
        return self.self_s / self.wall_s if self.wall_s > 0 else 0.0


def render_layer_table(rows: Sequence[LayerSummary], title: str) -> str:
    """Fixed-width per-layer table; names the layer with the largest share."""
    header = f"{'layer':<16} {'calls':>9} {'total_ms':>10} {'self_ms':>10} {'share':>7}"
    lines = [title, header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.layer:<16} {row.calls:>9d} {row.total_s * 1e3:>10.1f} "
            f"{row.self_s * 1e3:>10.1f} {row.share:>7.1%}"
        )
    named = [r for r in rows if r.layer not in ("trace", "(unattributed)")]
    top = max(named, key=lambda r: r.self_s)
    lines.append(f"largest share: {top.layer} ({top.share:.1%} of the traced run)")
    return "\n".join(lines)
