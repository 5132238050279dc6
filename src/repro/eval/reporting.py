"""Plain-text rendering of experiment results, matching the paper's rows."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.eval.analysis import ScatterStudy
from repro.eval.experiments import (
    AttackMethodResult,
    OverheadResult,
    PersonalizationRow,
)
from repro.pelican.device import CLOUD_SERVER, LOW_END_PHONE


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_series(series: Dict[int, float], label: str = "k") -> str:
    """Render a {k: value} series as one table row block."""
    headers = [label] + [str(k) for k in series]
    rows = [["value"] + [f"{v:.2f}" for v in series.values()]]
    return format_table(headers, rows)


def render_attack_methods(results: Dict[str, AttackMethodResult]) -> str:
    """Table II + Fig 2a combined view."""
    ks = list(next(iter(results.values())).accuracy)
    headers = ["method", *[f"top-{k}" for k in ks], "runtime (s)", "queries"]
    rows = [
        [r.name, *[r.accuracy[k] for k in ks], r.runtime_seconds, r.queries]
        for r in results.values()
    ]
    return format_table(headers, rows)


def render_accuracy_grid(results: Dict[str, Dict[int, float]], row_label: str) -> str:
    """Generic {series -> {k -> accuracy}} rendering (Figs 2b/2c/3a/5a/5c)."""
    ks = list(next(iter(results.values())))
    headers = [row_label, *[f"top-{k}" for k in ks]]
    rows = [[name, *[series[k] for k in ks]] for name, series in results.items()]
    return format_table(headers, rows)


def render_personalization(results: Dict[str, List[PersonalizationRow]]) -> str:
    """Table III rendering."""
    headers = ["location", "method", "train", "top-1", "top-2", "top-3"]
    rows = []
    for level, level_rows in results.items():
        for row in level_rows:
            rows.append(
                [level, row.method, row.train_top1, row.test_top1, row.test_top2, row.test_top3]
            )
    return format_table(headers, rows)


def render_training_sweep(results: Dict[int, List[PersonalizationRow]]) -> str:
    """Table IV rendering."""
    headers = ["weeks", "method", "train", "top-1", "top-2", "top-3"]
    rows = []
    for weeks, week_rows in results.items():
        for row in week_rows:
            rows.append(
                [weeks, row.method, row.train_top1, row.test_top1, row.test_top2, row.test_top3]
            )
    return format_table(headers, rows)


def render_overhead(result: OverheadResult) -> str:
    """§V-C2 rendering."""
    headers = ["phase", "billion cycles", "wall seconds"]
    rows = [["cloud general training", result.cloud.estimated_billion_cycles, result.cloud.wall_seconds]]
    for method, report in result.device_per_method.items():
        rows.append(
            [f"device personalization ({method})", report.estimated_billion_cycles, report.wall_seconds]
        )
    for method in result.device_per_method:
        rows.append([f"cloud/device ratio ({method})", result.ratio(method), ""])
    return format_table(headers, rows)


def render_bar_chart(
    series: Dict[str, float], width: int = 40, unit: str = "%"
) -> str:
    """Render a horizontal ASCII bar chart for one named series.

    Used by the CLI to approximate the paper's figures in a terminal::

        true     ████████████████████████  61.1%
        none     █████████████             33.3%
    """
    if not series:
        return "(empty series)"
    label_width = max(len(str(k)) for k in series)
    peak = max(max(series.values()), 1e-12)
    lines = []
    for name, value in series.items():
        filled = int(round(width * value / peak)) if value > 0 else 0
        bar = "█" * filled
        lines.append(f"{str(name).ljust(label_width)}  {bar.ljust(width)}  {value:.1f}{unit}")
    return "\n".join(lines)


def render_scatter(studies: Dict[str, ScatterStudy]) -> str:
    """Fig 3b/3c rendering: per-level correlations plus the raw points."""
    lines = []
    for level, study in studies.items():
        corr = study.correlation()
        lines.append(
            f"{level}: r={corr.coefficient:.3f} p={corr.p_value:.3g} n={corr.n} "
            f"({study.covariate_name} vs attack accuracy)"
        )
        for uid, (x, yv) in sorted(study.points.items()):
            lines.append(f"  user {uid}: {study.covariate_name}={x:.1f} attack={yv:.1f}%")
    return "\n".join(lines)


def render_scenarios(suite: "ScenarioSuiteResult") -> str:
    """Scenario-matrix rendering (DESIGN.md §8).

    One row per (regime, chaos policy) cell; the Δ columns compare each
    faulty run against the same regime's clean baseline, so population
    effects (rows across regimes) and fault effects (rows within one
    regime) read separately.  The avail/SLO/shed/degr columns score
    every cell against the suite's common deadline (DESIGN.md §11) —
    availability penalizes unprotected full-outage answers, SLO
    attainment additionally demands the deadline was met, and the shed
    and degraded counts expose what the resilience policy traded away.
    """
    headers = [
        "regime", "policy", "queries", "hit@k", "Δhit",
        "avail", "SLO", "shed", "degr",
        "net s", "Δnet s", "Δcloud s", "retries", "deferred",
        "stragglers", "cold-fails",
    ]
    rows = []
    for cell in suite.results:
        rows.append(
            [
                cell.regime,
                cell.policy,
                cell.num_queries,
                f"{cell.hit_rate:.2%}",
                f"{cell.hit_rate_delta:+.2%}",
                f"{cell.availability:.2%}",
                f"{cell.slo_attainment:.2%}",
                cell.shed_queries,
                cell.degraded_queries,
                f"{cell.signature['network_seconds']:.2f}",
                f"{cell.network_seconds_delta:+.2f}",
                f"{cell.cloud_seconds_delta:+.3f}",
                cell.chaos["transfer_retries"],
                cell.chaos["deferred_events"],
                cell.chaos["straggler_updates"],
                cell.chaos["cold_load_failures"],
            ]
        )
    shards = f", {suite.num_shards} shards" if suite.num_shards > 1 else ""
    resilience = (
        f", resilience {suite.resilience} (deadline {suite.deadline:g}s)"
        if suite.resilience != "none"
        else f", deadline {suite.deadline:g}s"
    )
    lines = [
        f"scenario matrix @ {suite.scale} "
        f"(chaos seed {suite.chaos_seed}{shards}{resilience}): "
        f"{len(suite.results)} cells",
        format_table(headers, rows),
    ]
    return "\n".join(lines)


def render_audit(report: "AuditReport") -> str:
    """Audit-matrix rendering (DESIGN.md §10).

    One row per (regime, defense, adversary-class) cell.  ``leak@k`` is
    the attack's hit rate against the live deployment (the paper's
    Fig 2/3 y-axis, measured through the serving stack); ``benign`` is
    the same cell's service accuracy, so the defense's privacy/utility
    trade reads off one table.  The query and simulated-seconds columns
    split the cell's books adversary-vs-benign.
    """
    headers = [
        "regime", "defense", "adversary", "users", "inst",
        *[f"leak@{k}" for k in report.ks],
        "benign", "adv queries", "benign queries", "adv net s",
    ]
    rows = []
    for cell in report.cells:
        rows.append(
            [
                cell.regime,
                cell.defense,
                cell.adversary,
                f"{cell.covered_users}/{cell.num_users}",
                cell.num_instances,
                *[f"{cell.leakage[k]:.2%}" for k in report.ks],
                f"{cell.benign_hit_rate:.2%}",
                cell.adversary_queries,
                cell.benign_queries,
                f"{cell.adversary_network_seconds:.2f}",
            ]
        )
    shards = f", {report.num_shards} shards" if report.num_shards > 1 else ""
    chaos = (
        f", chaos {report.chaos_policy} (seed {report.chaos_seed})"
        if report.chaos_policy != "none"
        else ""
    )
    lines = [
        f"privacy audit @ {report.scale} ({report.attack} attack{shards}{chaos}): "
        f"{len(report.cells)} cells",
        format_table(headers, rows),
    ]
    return "\n".join(lines)


def render_fleet(result: "FleetThroughputResult") -> str:
    """Fleet serving comparison rendering (DESIGN.md §7/§9)."""
    report = result.report
    shards = f" on {result.num_shards} shards" if result.num_shards > 1 else ""
    lines = [
        f"fleet @ {result.scale}: {result.num_users} users{shards}, "
        f"{result.num_queries} queries in {result.batches} batches "
        f"(mean batch {report.mean_batch_size:.1f})",
        f"  looped  serving: {result.looped_seconds * 1e3:9.1f} ms",
        f"  batched serving: {result.batched_seconds * 1e3:9.1f} ms   "
        f"({result.speedup:.2f}x, {result.batched_queries_per_second:,.0f} queries/s)",
        f"  parity: {'identical outputs' if result.parity else 'MISMATCH'}",
        "",
        "per-side attribution:",
        f"  cloud : {report.cloud_compute.macs / 1e6:10.1f} MMACs, "
        f"{report.cloud_simulated_seconds:.3f}s simulated "
        f"({CLOUD_SERVER.name})",
        f"  device: {report.device_compute.macs / 1e6:10.1f} MMACs, "
        f"{report.device_simulated_seconds:.3f}s simulated "
        f"({LOW_END_PHONE.name})",
        f"  network: {report.network_seconds:.2f}s simulated, "
        f"{report.network_bytes_up / 1e6:.2f} MB up / "
        f"{report.network_bytes_down / 1e6:.2f} MB down",
        f"  registry: {report.registry.hits} hits, "
        f"{report.registry.cold_loads} cold loads, "
        f"{report.registry.evictions} evictions",
    ]
    if report.adversary_queries:
        lines.append(
            f"  adversary: {report.adversary_queries} probe queries in "
            f"{report.adversary_batches} batches, "
            f"{report.adversary_cloud_compute.macs / 1e6:.1f} cloud MMACs, "
            f"{report.adversary_network_seconds:.2f}s network (DESIGN.md §10)"
        )
    if result.num_shards > 1:
        lines.append("")
        lines.append("per-shard breakdown:")
        for shard_id, shard in enumerate(report.shard_reports):
            lines.append(
                f"  shard {shard_id}: {shard.onboards} users, "
                f"{shard.queries} queries in {shard.batches} batches, "
                f"{shard.cloud_compute.macs / 1e6:.1f} cloud MMACs, "
                f"{shard.network_seconds:.2f}s network, "
                f"registry {shard.registry.hits}h/"
                f"{shard.registry.cold_loads}c/"
                f"{shard.registry.evictions}e"
            )
    return "\n".join(lines)


def render_service_load(result: "ServiceLoadResult") -> str:
    """Service front-door load rendering (DESIGN.md §15)."""
    stack = f" on {result.num_shards} shards" if result.num_shards > 1 else ""
    if result.store != "memory":
        stack += f", {result.store} store"
    knobs = f"chaos {result.policy}, resilience {result.resilience}"
    sig = result.signature
    lines = [
        f"service load @ {result.scale}: {result.num_devices} devices over "
        f"{result.num_users} users{stack} ({knobs})",
        f"  traffic : {', '.join(result.regimes)} regime(s), "
        f"{result.events} events compiled, {result.generated} queries generated",
        f"  admission: {result.generated - result.rejected} admitted, "
        f"{result.rejected} rejected, {result.shed} shed, "
        f"{result.flushes} flushes (mean batch {result.mean_flush_size:.1f}, "
        f"peak queue {sig['service_max_queue_depth']})",
        f"  latency : p50 {result.p50 * 1e3:.1f} ms, "
        f"p95 {result.p95 * 1e3:.1f} ms, p99 {result.p99 * 1e3:.1f} ms simulated "
        f"(queue {sig['service_queue_seconds']:.2f}s, "
        f"defer {sig['service_defer_seconds']:.2f}s, "
        f"service {sig['service_service_seconds']:.2f}s total)",
        f"  SLO     : {result.slo_attainment:.2%} within "
        f"{result.slo_deadline:g}s deadline "
        f"({sig['service_on_time']}/{result.generated} on time)",
        f"  books   : {sig['cloud_macs'] / 1e6:.1f} cloud MMACs, "
        f"{sig['network_seconds']:.2f}s network, "
        f"{sig['registry_cold_loads']} cold loads "
        f"({result.wall_seconds:.2f}s wall)",
    ]
    return "\n".join(lines)
