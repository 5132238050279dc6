#!/usr/bin/env python
"""Run the pytest-benchmark suite and summarize speedups vs. a baseline.

The committed baseline (``benchmarks/BENCH_baseline.json``) pins the perf
trajectory: it holds the benchmark means recorded when the fused LSTM
backend landed, so future PRs can show their speedup (or catch a
regression) with one command.

Usage::

    # micro-benchmarks only (seconds):
    python benchmarks/run_benchmarks.py

    # the full suite including experiment regeneration (minutes):
    python benchmarks/run_benchmarks.py --full

    # refresh the committed baseline from the current run:
    python benchmarks/run_benchmarks.py --update-baseline

Results are written to ``benchmarks/BENCH_latest.json`` (pytest-benchmark's
JSON format; not committed) and compared against the committed baseline by
test name — every benchmark artifact lives under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
# The quick suite: nn micro-benchmarks, the fleet serving comparison, the
# cluster shard-scaling comparison, the regimes x chaos scenario
# matrix, the privacy-audit
# comparison, the resilience clean-path overhead gate, the storage
# tiering gates, and the front-door micro-batching gate (all run in
# seconds; the experiment-regeneration targets need --full).
DEFAULT_TARGETS = [
    str(BENCH_DIR / "test_nn_microbench.py"),
    str(BENCH_DIR / "test_fleet_serving.py"),
    str(BENCH_DIR / "test_cluster_scaling.py"),
    str(BENCH_DIR / "test_scenario_matrix.py"),
    str(BENCH_DIR / "test_audit_matrix.py"),
    str(BENCH_DIR / "test_resilience_overhead.py"),
    str(BENCH_DIR / "test_storage_tiering.py"),
    str(BENCH_DIR / "test_service_load.py"),
]
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"
OUTPUT_PATH = BENCH_DIR / "BENCH_latest.json"


def run_pytest(targets: list[str], output: pathlib.Path) -> int:
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *targets,
        "-q",
        f"--benchmark-json={output}",
    ]
    env_src = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_src + (
        os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else ""
    )
    print("$", " ".join(cmd))
    return subprocess.call(cmd, cwd=REPO_ROOT, env=env)


def load_means(path: pathlib.Path) -> dict[str, float]:
    data = json.loads(path.read_text())
    return {b["name"]: b["stats"]["mean"] for b in data.get("benchmarks", [])}


def summarize(current: dict[str, float], baseline: dict[str, float]) -> None:
    width = max((len(n) for n in current), default=10)
    header = f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'speedup':>8}"
    print()
    print(header)
    print("-" * len(header))
    for name in sorted(current):
        cur = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"{name:<{width}}  {'—':>12}  {cur * 1e3:>10.3f}ms  {'new':>8}")
        else:
            print(
                f"{name:<{width}}  {base * 1e3:>10.3f}ms  {cur * 1e3:>10.3f}ms  "
                f"{base / cur:>7.2f}x"
            )
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"\nnot run (in baseline only): {', '.join(missing)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the entire benchmarks/ directory (experiment regeneration; slow)",
    )
    parser.add_argument(
        "--targets",
        nargs="*",
        default=None,
        help="explicit pytest targets (default: nn micro-benchmarks + fleet serving)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=BASELINE_PATH,
        help=f"baseline JSON to compare against (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the baseline with this run's results",
    )
    args = parser.parse_args()

    targets = args.targets or ([str(BENCH_DIR)] if args.full else DEFAULT_TARGETS)
    rc = run_pytest(targets, OUTPUT_PATH)
    if rc != 0:
        return rc
    current = load_means(OUTPUT_PATH)
    if not current:
        print("no benchmarks recorded")
        return 1
    if args.baseline.exists():
        summarize(current, load_means(args.baseline))
    else:
        print(f"no baseline at {args.baseline}; current means:")
        for name, mean in sorted(current.items()):
            print(f"  {name}: {mean * 1e3:.3f} ms")
    if args.update_baseline:
        args.baseline.write_text(OUTPUT_PATH.read_text())
        print(f"\nbaseline updated: {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
