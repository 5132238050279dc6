"""Smoke self-test of the benchmark at the tiny scale (~1 minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and checks that each
metric ``BENCHMARK.json`` names is reported with its unit and that every
run passes its correctness checks.  Then it injects a wrong ranking into
the program's serving path and checks that the answer digest catches it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def expected_metrics(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def tiny_run(workload: str, trace: bool, digests: dict) -> run.Outcome:
    return run.run_benchmark(
        workload,
        SEED,
        seconds=0.0,
        trace=trace,
        scale_name="tiny",
        digests=digests,
        setup_repeats=1,
        import_start=time.perf_counter(),
    )


def main() -> int:
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {run.SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
        "BENCHMARK.json workloads differ from the benchmark's",
    )

    clean = {}
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome = tiny_run(workload, trace, digests={})
            check(outcome.correct, f"{workload} trace={int(trace)}: {outcome.problems}")
            check(outcome.attempted >= 1, f"{workload}: no query attempted")
            reported = {name: m["unit"] for name, m in outcome.metrics.items()}
            check(
                reported == expected_metrics(spec, key),
                f"{workload} trace={int(trace)} reports {reported}",
            )
            clean[workload] = outcome.answer_digests[0]
        print(f"ok: {workload} reports every metric with its unit")

    # A wrong ranking injected below the front door must fail the check.
    from repro.models.predictor import NextLocationPredictor

    original = NextLocationPredictor.top_k_batch

    def swapped(self, histories, k):
        results = original(self, histories, k)
        results[0][0], results[0][1] = results[0][1], results[0][0]
        return results

    NextLocationPredictor.top_k_batch = swapped
    try:
        outcome = tiny_run("steady", False, digests={"steady": {str(SEED): clean["steady"]}})
    finally:
        NextLocationPredictor.top_k_batch = original
    check(not outcome.correct, "an injected wrong ranking passed the correctness check")
    check(
        any("digest" in p for p in outcome.problems),
        f"the injected ranking was not caught by the digest: {outcome.problems}",
    )
    print("ok: an injected wrong ranking fails the correctness check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
