#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing; ``--trace 1`` measures the per-layer metrics (an untraced reference
pass, then the same work under spans, half the window each).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit code is 1 when a correctness check fails.
Without ``--workload`` every workload runs, each in a process of its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="selfcheck sizes; the numbers mean nothing")
    parser.add_argument("--out", type=Path,
                        help="append this run as one JSON line (the input "
                             "of compare.py)")
    return parser.parse_args(argv)


def run_every_workload(args: argparse.Namespace, names) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    worst = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.tiny:
            command.append("--tiny")
        if args.out is not None:
            command += ["--out", str(args.out)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro beside perfbench/; there is no "
              "program here to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        return run_every_workload(args, names)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    seconds = (float(spec["run_seconds"]) if args.seconds is None
               else args.seconds)

    # Before numpy: the BLAS pools read their thread count when they load.
    from pbench.env import environment_stamp, pin_blas
    pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    from pbench import serve_engine, serve_http, train
    from pbench.common import Ctx
    from pbench.sizes import FULL, TINY
    from pbench.spans import SpanRecorder
    from pbench.speed import SpeedReference

    workload = args.workload
    sizes = TINY if args.tiny else FULL
    # Stamped first: a workload may narrow the affinity it runs under.
    env = environment_stamp(ROOT, workload, args.seed, seconds,
                            asdict(sizes))
    module = {"serve_http_batch32": serve_http,
              "serve_engine_open": serve_engine}.get(workload, train)
    work_dir = WORK / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(workload=workload, sizes=sizes, seed=args.seed, seconds=seconds,
              work_dir=work_dir, speed=SpeedReference(),
              recorder=SpanRecorder() if args.trace else None)

    try:
        # setup_s: world generation, tiling, shard writing, model build,
        # export + load, server start and warm-up, several times over.
        setup_walls = []
        state = None
        for _ in range(1 if args.trace else sizes.setup_repeats):
            if state is not None:
                module.teardown(state)
            before = ctx.speed.scale()
            start = time.perf_counter()
            state = module.setup(ctx)
            wall = time.perf_counter() - start
            setup_walls.append((wall * (before + ctx.speed.scale()) / 2.0,
                                wall))
        # The row pool, request bodies and datasets are the benchmark's,
        # not the program's: out of the collector's reach, so that a full
        # collection inside the window scans what the program allocates.
        gc.collect()
        gc.freeze()
        try:
            outcome = (module.run_traced(state, ctx) if args.trace
                       else module.run_untraced(state, ctx))
        finally:
            module.teardown(state)
        if args.trace:
            trace_path = WORK / f"trace-{workload}-seed{args.seed}.jsonl"
            ctx.recorder.write(trace_path)
            outcome.notes["trace_file"] = str(trace_path.relative_to(ROOT))
            outcome.notes["spans"] = len(ctx.recorder.spans)
        else:
            scaled, raw = zip(*setup_walls)
            outcome.metrics["setup_s"] = statistics.median(scaled)
            outcome.notes.setdefault("raw", {})["setup_s"] = (
                statistics.median(raw))
            outcome.metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # A layer the workload never enters reports 0: it did no work.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in outcome.metrics and not args.trace:
            outcome.problems.append(f"end-to-end metric {name} not measured")
        metrics[name] = {"value": float(outcome.metrics.get(name, 0.0)),
                         "unit": metric["unit"]}
    result = {"correct": not outcome.problems,
              "attempted": max(1, int(outcome.attempted)),
              "failed": int(outcome.failed), "metrics": metrics}
    print(f"perfbench {workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}{' TINY' if args.tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'ops_failed_share':<42} "
          f"{result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps({"env": env, "trace": args.trace,
                                  "tiny": args.tiny, "notes": outcome.notes,
                                  "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
