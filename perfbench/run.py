"""Run one fleet-benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions, prints a per-layer table to stderr, writes the
spans to ``perfbench/out/`` and prints the per-layer metrics.  The last
line of stdout is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check exits with 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNITS = {
    "setup_s": "s",
    "ingest_values_per_s": "values/s",
    "freshness_p50_ms": "ms",
    "freshness_p95_ms": "ms",
    "panel_p50_ms": "ms",
    "panel_p95_ms": "ms",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "reads_per_s": "req/s",
    "rss_bytes_per_value": "B",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.harness import process_age_s

    # Set-up is timed from the process's start, imports included.
    origin = time.perf_counter() - process_age_s()
    from perfbench.tracing import LAYER_METRICS
    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 origin=origin, out_dir=ROOT / "perfbench" / "out")
    print(f"samples per class: {result['samples']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
