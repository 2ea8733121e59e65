#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds the lines ``run.py --out FILE`` appended (untraced runs of
any workloads, any number of seeds).  For every (workload, end-to-end
metric) pair the table shows both medians, each set's spread (distance
between first and third quartile as a share of the median), how much worse
B's median is than A's, and a verdict:

  within      B is no worse than A by more than the metric's bound
  worse       it is
  unresolved  a set's own spread is wider than the bound, so the runs
              cannot tell (unless every run of B beats every run of A)

The exit code is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced, full-size runs."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] or record.get("tiny"):
                continue
            if not record["result"]["correct"]:
                raise SystemExit(f"{path}: a run of "
                                 f"{record['env']['workload']} failed its "
                                 f"correctness checks; nothing to compare")
            for name, entry in record["result"]["metrics"].items():
                values[record["env"]["workload"], name].append(
                    entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = load(argv[0]), load(argv[1])
    print(f"{'workload':<20} {'metric':<16} {'median A':>11} {'median B':>11} "
          f"{'spread A':>8} {'spread B':>8} {'B worse by':>10} {'bound':>6}  "
          f"verdict")
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a.get((workload, name)), b.get((workload, name))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / ma
            sa, sb = spread(va), spread(vb)
            b_always_better = (max(vb) < min(va) if sign > 0
                               else min(vb) > max(va))
            if max(sa, sb) > bound and not b_always_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "within"
            print(f"{workload:<20} {name:<16} {ma:>11.5g} {mb:>11.5g} "
                  f"{sa:>8.3f} {sb:>8.3f} {worse_by:>+10.3f} {bound:>6.2f}  "
                  f"{verdict}  (n={len(va)},{len(vb)})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
