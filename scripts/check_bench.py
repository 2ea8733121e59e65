#!/usr/bin/env python3
"""Perf-regression guard: compare fresh bench output against baselines.

Usage (what the ``bench-guard`` CI job runs)::

    python -m repro bench-pipeline --out /tmp/pipe.json
    python scripts/check_bench.py --candidate-pipeline /tmp/pipe.json

Each candidate report is checked against the committed baseline
(``BENCH_pipeline.json`` etc. at the repo root) with a per-metric tolerance
band.  The compared quantity is always an **in-run relative speedup**
(prefetch-vs-sequential per worker count, N workers vs one), never
absolute milliseconds: both sides of each ratio ran on the same machine
seconds apart, so the ratios transfer across CI hardware while absolute
timings do not.

A metric regresses when the candidate ratio falls below
``max(floor, baseline * (1 - tolerance))``:

* ``tolerance`` absorbs run-to-run noise (default 0.40 — CI runners are
  shared and jittery; tighten locally with ``--tolerance``).
* ``floor`` (default 1.0) is the hard line: a prefetch pipeline that is
  *slower than its in-run reference* is a regression no matter what the
  baseline said.

Streaming reports (``BENCH_stream.json``, from ``repro bench-stream``) are
checked differently: throughput (windows/sec) is hardware-dependent and
never gated, but drift-detection behaviour is deterministic for a fixed
seed, so every baseline scenario must still *detect*, must not drop
requests, and its detection latency may grow at most
``--latency-slack`` windows over the baseline.

``--candidate PATH`` (repeatable) dispatches on the report's
``benchmark`` field, so CI can glob fresh reports without naming their
kinds.  A report whose kind this guard does not know is skipped with a
warning and does NOT fail the run — a new bench must be land-able before
its tolerances are registered here.

Exit status: 0 when every checked metric holds, 1 on any regression,
2 on unreadable/malformed input.  Metrics present in the baseline but
missing from the candidate fail loudly — silently dropping a configuration
from the bench is how regressions hide.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TOLERANCE = 0.40
DEFAULT_FLOOR = 1.0

#: Windows a scenario's detection latency may grow over the baseline
#: before it counts as a regression (detection is seeded-deterministic,
#: but detector-threshold tuning legitimately moves it a little).
DEFAULT_LATENCY_SLACK = 3

#: Hard line for the 2-worker distributed configuration: whatever the
#: baseline says, two workers slower than 1.2x of one worker means the
#: partition-locality win is gone.  (The committed baseline is ~2.6x; the
#: generic tolerance band usually binds first.)
DIST_W2_FLOOR = 1.2


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_bench: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _check(metric: str, baseline: float, candidate: float,
           tolerance: float, floor: float) -> dict:
    allowed = max(floor, baseline * (1.0 - tolerance))
    return {
        "metric": metric,
        "baseline": baseline,
        "candidate": candidate,
        "allowed": allowed,
        "ok": candidate >= allowed,
    }


def _pipeline_speedups(report: dict) -> dict[int, float]:
    """prefetch speedup-vs-sequential per worker count, recomputed."""
    sequential = None
    prefetch = {}
    for row in report.get("results", []):
        if row.get("mode") == "sequential":
            sequential = row["epoch_s"]
        elif row.get("mode") == "prefetch":
            prefetch[int(row["num_workers"])] = row["epoch_s"]
    if sequential is None or not prefetch:
        print("check_bench: pipeline report lacks sequential/prefetch "
              "results", file=sys.stderr)
        raise SystemExit(2)
    return {w: sequential / s for w, s in prefetch.items()}


def check_pipeline(baseline: dict, candidate: dict,
                   tolerance: float = DEFAULT_TOLERANCE,
                   floor: float = DEFAULT_FLOOR) -> list[dict]:
    """One row per (baseline) worker count, plus the best-of comparison.

    Per-worker-count bands catch a regression that only shows under
    contention; the ``best`` row is the headline number README quotes.
    """
    base = _pipeline_speedups(baseline)
    cand = _pipeline_speedups(candidate)
    rows = []
    for workers, base_ratio in sorted(base.items()):
        metric = f"pipeline.prefetch_w{workers}"
        if workers not in cand:
            rows.append({"metric": metric, "baseline": base_ratio,
                         "candidate": None, "allowed": None, "ok": False})
            continue
        rows.append(_check(metric, base_ratio, cand[workers],
                           tolerance, floor))
    rows.append(_check("pipeline.prefetch_best", max(base.values()),
                       max(cand.values()), tolerance, floor))
    return rows


def check_stream(baseline: dict, candidate: dict,
                 latency_slack: int = DEFAULT_LATENCY_SLACK) -> list[dict]:
    """Rows for every scenario in the stream baseline.

    Lower-is-better metrics: ``allowed`` is an upper bound here
    (baseline latency + slack windows; zero dropped requests).
    """
    rows = []
    cand_scenarios = candidate.get("scenarios", {})
    for name, base in sorted(baseline.get("scenarios", {}).items()):
        cand = cand_scenarios.get(name)
        if cand is None:
            rows.append({"metric": f"stream.{name}.detected",
                         "baseline": 1.0, "candidate": None,
                         "allowed": None, "ok": False})
            continue
        if base.get("detected"):
            base_latency = float(base["windows_to_detect"])
            allowed = base_latency + latency_slack
            detected = bool(cand.get("detected"))
            latency = (float(cand["windows_to_detect"]) if detected
                       else float("inf"))
            rows.append({"metric": f"stream.{name}.windows_to_detect",
                         "baseline": base_latency,
                         "candidate": latency, "allowed": allowed,
                         "ok": detected and latency <= allowed})
        rows.append({"metric": f"stream.{name}.dropped",
                     "baseline": float(base.get("dropped", 0)),
                     "candidate": float(cand.get("dropped", 0)),
                     "allowed": 0.0,
                     "ok": cand.get("dropped", 0) == 0})
    return rows


def _distributed_speedups(report: dict) -> dict[int, float]:
    """Scaling ratio per worker count, recomputed from raw rows/sec (an
    edited ``speedup_vs_single`` field cannot mask a doctored timing)."""
    rates = {int(row["num_procs"]): float(row["rows_per_s"])
             for row in report.get("results", [])}
    if 1 not in rates or len(rates) < 2:
        print("check_bench: distributed report lacks a single-proc baseline "
              "or scaled configurations", file=sys.stderr)
        raise SystemExit(2)
    single = rates.pop(1)
    return {w: rate / single for w, rate in rates.items()}


def check_distributed(baseline: dict, candidate: dict,
                      tolerance: float = DEFAULT_TOLERANCE,
                      floor: float = DEFAULT_FLOOR) -> list[dict]:
    """Rows for the distributed scaling report.

    Three kinds of gate: banded rows/sec scaling per worker count (with a
    hard 2-worker floor of ``DIST_W2_FLOOR``), zero failed ranks in every
    candidate configuration, and the determinism contract — the 2-process
    loss trajectory must be bitwise identical to its emulation and the
    final parameter divergence exactly zero.  Determinism failures are
    correctness bugs, not noise, so no tolerance applies to them.
    """
    base = _distributed_speedups(baseline)
    cand = _distributed_speedups(candidate)
    rows = []
    for workers, base_ratio in sorted(base.items()):
        metric = f"distributed.scaling_w{workers}"
        hard_floor = DIST_W2_FLOOR if workers == 2 else floor
        if workers not in cand:
            rows.append({"metric": metric, "baseline": base_ratio,
                         "candidate": None, "allowed": None, "ok": False})
            continue
        rows.append(_check(metric, base_ratio, cand[workers],
                           tolerance, hard_floor))
    for row in candidate.get("results", []):
        failed = float(row.get("failed_ranks", 0))
        rows.append({"metric": f"distributed.failed_ranks_w"
                               f"{int(row['num_procs'])}",
                     "baseline": 0.0, "candidate": failed,
                     "allowed": 0.0, "ok": failed == 0.0})
    bit = candidate.get("bit_identity")
    if bit is None:
        rows.append({"metric": "distributed.loss_trajectory_identical",
                     "baseline": 1.0, "candidate": None,
                     "allowed": None, "ok": False})
        return rows
    identical = bool(bit.get("loss_trajectory_identical"))
    rows.append({"metric": "distributed.loss_trajectory_identical",
                 "baseline": 1.0, "candidate": 1.0 if identical else 0.0,
                 "allowed": 1.0, "ok": identical})
    divergence = float(bit.get("max_param_divergence", float("inf")))
    rows.append({"metric": "distributed.max_param_divergence",
                 "baseline": 0.0, "candidate": divergence,
                 "allowed": 0.0, "ok": divergence == 0.0})
    return rows


def dispatch(path: Path, payload: dict, args) -> list[dict] | None:
    """Route a report to its checker by content; None = unknown kind."""
    kind = payload.get("benchmark")
    if kind == "pipeline":
        return check_pipeline(_load(args.baseline_pipeline), payload,
                              args.tolerance, args.floor)
    if kind == "stream":
        return check_stream(_load(args.baseline_stream), payload,
                            args.latency_slack)
    if kind == "distributed":
        return check_distributed(_load(args.baseline_distributed), payload,
                                 args.tolerance, args.floor)
    return None


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<28}{'baseline':>10}{'candidate':>11}"
             f"{'allowed':>10}  verdict"]
    for row in rows:
        if row["candidate"] is None:
            lines.append(f"{row['metric']:<28}{row['baseline']:>10.3f}"
                         f"{'missing':>11}{'-':>10}  FAIL (not in candidate)")
            continue
        verdict = "ok" if row["ok"] else "REGRESSION"
        lines.append(f"{row['metric']:<28}{row['baseline']:>10.3f}"
                     f"{row['candidate']:>11.3f}{row['allowed']:>10.3f}"
                     f"  {verdict}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when bench speedups regress vs. the committed "
                    "baselines")
    parser.add_argument("--baseline-pipeline", type=Path,
                        default=REPO_ROOT / "BENCH_pipeline.json")
    parser.add_argument("--candidate-pipeline", type=Path, default=None,
                        help="fresh `repro bench-pipeline` report to check")
    parser.add_argument("--baseline-stream", type=Path,
                        default=REPO_ROOT / "BENCH_stream.json")
    parser.add_argument("--candidate-stream", type=Path, default=None,
                        help="fresh `repro bench-stream` report to check")
    parser.add_argument("--baseline-distributed", type=Path,
                        default=REPO_ROOT / "BENCH_distributed.json")
    parser.add_argument("--candidate-distributed", type=Path, default=None,
                        help="fresh `repro bench-distributed` report to "
                             "check")
    parser.add_argument("--candidate", type=Path, action="append",
                        default=[], metavar="PATH",
                        help="report of any kind, dispatched by content; "
                             "unknown kinds are skipped with a warning "
                             "(repeatable)")
    parser.add_argument("--latency-slack", type=int,
                        default=DEFAULT_LATENCY_SLACK, metavar="WINDOWS",
                        help="extra drift-detection windows allowed over "
                             "the stream baseline (default %(default)s)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="FRAC",
                        help="fraction of the baseline speedup a metric may "
                             "lose before failing (default %(default)s)")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                        metavar="RATIO",
                        help="absolute minimum in-run speedup (default "
                             "%(default)s: never slower than reference)")
    args = parser.parse_args(argv)
    if (args.candidate_pipeline is None and args.candidate_stream is None
            and args.candidate_distributed is None and not args.candidate):
        parser.error("nothing to check: pass --candidate-pipeline, "
                     "--candidate-stream, --candidate-distributed and/or "
                     "--candidate")

    rows = []
    if args.candidate_pipeline is not None:
        rows += check_pipeline(_load(args.baseline_pipeline),
                               _load(args.candidate_pipeline),
                               args.tolerance, args.floor)
    if args.candidate_stream is not None:
        rows += check_stream(_load(args.baseline_stream),
                             _load(args.candidate_stream),
                             args.latency_slack)
    if args.candidate_distributed is not None:
        rows += check_distributed(_load(args.baseline_distributed),
                                  _load(args.candidate_distributed),
                                  args.tolerance, args.floor)
    for path in args.candidate:
        payload = _load(path)
        checked = dispatch(path, payload, args)
        if checked is None:
            kind = payload.get("benchmark", "?")
            print(f"check_bench: warning: {path} has unknown report kind "
                  f"{kind!r}; skipping (no tolerances registered)",
                  file=sys.stderr)
            continue
        rows += checked
    print(render(rows))
    failures = [r for r in rows if not r["ok"]]
    if failures:
        print(f"\ncheck_bench: {len(failures)} regression(s) out of "
              f"{len(rows)} metric(s)", file=sys.stderr)
        return 1
    print(f"\ncheck_bench: all {len(rows)} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
