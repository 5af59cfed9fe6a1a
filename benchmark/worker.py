"""One benchmark process: set up, print READY, measure, print one JSON line.

Started by ``run.py`` with the thread variables pinned and ``src`` on the
path; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

import harness
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _check_package() -> None:
    import sdrelax

    if Path(sdrelax.__file__).resolve().parent != ROOT / "src" / "sdrelax":
        raise SystemExit(f"sdrelax was imported from {sdrelax.__file__}, not from this checkout")


def _raw_info(log: harness.RunLog, ref: harness.Reference) -> dict:
    rounds = log.rounds()
    cells = sum(harness.ok_cells(rounds))
    wall = sum(rec.wall_s for rec in log.records)
    return {
        "rounds": len(rounds),
        "raw_cells_per_s": cells / wall,
        "ref_ms": 1e3 * statistics.median(ref.walls),
        "ref_cpu_share": ref.cpu_share(),
        "task_wall_ms": {k: 1e3 * v for k, v in harness.task_wall_medians(log.records).items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _check_package()
    import workloads

    workload = workloads.make(args.workload, smoke=args.smoke)
    rng = np.random.default_rng(args.seed)
    ref = harness.Reference()
    warm = harness.RunLog()
    harness.run_round(workload.make_round(rng), -1, ref, warm)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    log = harness.RunLog(problems=warm.problems)
    tracer = None
    if args.trace:
        # untraced first half for the overhead figure, traced second half
        half = 0.5 * args.seconds
        nxt = harness.run_for(workload.make_round, rng, half, ref, log, 0)
        untraced = log.rounds()
        tracer = tracing.Tracer()
        tracer.install(extra_namespaces=[workloads])
        try:
            harness.run_for(workload.make_round, rng, half, ref, log, nxt, tracer)
        finally:
            tracer.uninstall()
        traced = log.rounds()[len(untraced):]
    else:
        harness.run_for(workload.make_round, rng, args.seconds, ref, log, 0)
    ref.check_cpu_share()

    rounds = log.rounds()
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["harness.ref_s"] = statistics.median(ref.walls)
        metrics["harness.trace_overhead_frac"] = (
            statistics.median(harness.round_costs(traced))
            / statistics.median(harness.round_costs(untraced))
            - 1.0
        )
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        metrics = {
            "cells_per_ref": harness.cells_per_ref(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for problem in log.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not log.problems,
        "attempted": len(log.records),
        "failed": sum(rec.failed for rec in log.records),
        "metrics": metrics,
        "info": _raw_info(log, ref),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
