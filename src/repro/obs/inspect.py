"""Run-trace inspection: parse a JSONL trace and render a summary.

Backs the ``repro inspect-run PATH`` CLI command.  The summary reports where
wall-time went (per-phase self-time shares), how the Eq. 17 loss components
evolved per epoch, and the final metrics of every evaluation split seen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .events import SCHEMA_VERSION, Event
from .trace import SPAN_EVENT, SPAN_OPTIONAL, SPAN_REQUIRED

__all__ = ["TraceSummary", "read_trace", "check_record", "summarize_trace",
           "render_summary",
           "SpanTree", "summarize_spans", "render_spans",
           "StreamSummary", "summarize_stream", "render_stream"]


@dataclass
class TraceSummary:
    """Digest of one JSONL run trace."""

    path: str
    schema_version: int
    model: str
    num_train: int
    num_validation: int
    config: dict[str, Any] = field(default_factory=dict)
    epochs: list[dict[str, Any]] = field(default_factory=list)
    final_evals: dict[str, dict[str, Any]] = field(default_factory=dict)
    timings: dict[str, dict[str, Any]] = field(default_factory=dict)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    best_epoch: int | None = None
    steps: int | None = None
    wall_time_s: float | None = None
    num_events: int = 0
    #: Number of ``run_start`` events seen; the summary reflects the last run
    #: (``compare --log-jsonl`` concatenates one run per model).
    num_runs: int = 0


def _envelope_problem(record: Any) -> str | None:
    """The check every reader applies: a JSON object naming its event, at
    the schema version this code reads."""
    if not isinstance(record, dict) or "event" not in record:
        return "not a trace event"
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        return (f"schema_version {version!r} unsupported "
                f"(expected {SCHEMA_VERSION})")
    return None


def read_trace(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL trace into event dicts, validating each line."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})")
            problem = _envelope_problem(record)
            if problem is not None:
                raise ValueError(f"{path}:{lineno}: {problem}")
            events.append(record)
    if not events:
        raise ValueError(f"{path}: empty trace")
    return events


def check_record(record: Any) -> str | None:
    """Why ``record`` is not a well-formed trace record, or ``None`` if it is.

    Strict where :func:`read_trace` is tolerant: the kind must be declared
    (an :class:`~repro.obs.events.Event` subclass, or a span), every
    always-written field present, and no undeclared field — all derived from
    the event dataclasses, so the check cannot drift from the writer.
    """
    problem = _envelope_problem(record)
    if problem is not None:
        return problem
    kind = record["event"]
    if kind == SPAN_EVENT:
        required, declared = SPAN_REQUIRED, SPAN_REQUIRED | SPAN_OPTIONAL
    else:
        cls = next((c for c in Event.__subclasses__() if c.kind == kind),
                   None)
        if cls is None:
            return f"unknown event kind {kind!r}"
        plan = cls.plan()
        required = {name for name, _, omit in plan if omit is None}
        declared = {name for name, _, _ in plan}
    keys = record.keys() - {"schema_version", "event"}
    if required - keys:
        return f"{kind}: missing field(s) {sorted(required - keys)}"
    if keys - declared:
        return f"{kind}: undeclared field(s) {sorted(keys - declared)}"
    return None


def summarize_trace(path: str) -> TraceSummary:
    """Fold a trace's events into a :class:`TraceSummary`."""
    events = read_trace(path)
    summary = TraceSummary(path=path, schema_version=SCHEMA_VERSION,
                           model="?", num_train=0, num_validation=0,
                           num_events=len(events))
    for record in events:
        kind = record["event"]
        if kind == "run_start":
            # A new run: reset per-run state so concatenated traces
            # (e.g. from `compare`) summarise their final run.
            summary.num_runs += 1
            summary.model = record.get("model", "?")
            summary.num_train = record.get("num_train", 0)
            summary.num_validation = record.get("num_validation", 0)
            summary.config = record.get("config", {})
            summary.epochs = []
            summary.final_evals = {}
            summary.timings = {}
            summary.metrics = {}
            summary.best_epoch = None
            summary.steps = None
            summary.wall_time_s = None
        elif kind == "eval_end":
            row = {k: record.get(k) for k in ("epoch", "split", "auc",
                                              "logloss", "train_loss",
                                              "loss_components")}
            summary.final_evals[record.get("split", "?")] = row
            if record.get("split") == "validation":
                summary.epochs.append(row)
        elif kind == "run_end":
            summary.best_epoch = record.get("best_epoch")
            summary.steps = record.get("steps")
            summary.wall_time_s = record.get("wall_time_s")
            summary.timings = record.get("timings", {})
            summary.metrics = record.get("metrics", {})
    return summary


# ---------------------------------------------------------------------------
# Span timeline / critical path (``inspect-run PATH --spans``)
# ---------------------------------------------------------------------------
@dataclass
class SpanTree:
    """One trace's spans, parent-linked and chronologically ordered."""

    trace_id: str
    spans: list[dict[str, Any]]            # sorted by start_s
    children: dict[str | None, list[dict[str, Any]]]
    start_s: float
    end_s: float

    @property
    def duration_ms(self) -> float:
        return (self.end_s - self.start_s) * 1000.0

    def roots(self) -> list[dict[str, Any]]:
        """Spans whose parent is absent from the trace (usually one)."""
        ids = {s["span_id"] for s in self.spans}
        return [s for s in self.spans if s.get("parent_id") not in ids]

    def critical_path(self) -> list[dict[str, Any]]:
        """Root-to-leaf chain through the longest child at each level.

        For the serving trace shape (request → queue_wait / forward) this
        names the stage that dominates the request's latency.
        """
        roots = self.roots()
        if not roots:
            return []
        node = max(roots, key=lambda s: s["duration_ms"])
        path = [node]
        while True:
            kids = self.children.get(node["span_id"], [])
            if not kids:
                return path
            node = max(kids, key=lambda s: s["duration_ms"])
            path.append(node)


def summarize_spans(events: list[dict[str, Any]]) -> list[SpanTree]:
    """Group a trace file's ``span`` events into per-trace trees."""
    spans = [record for record in events if record.get("event") == "span"]
    if not spans:
        raise ValueError("trace contains no span events (record some with "
                         "train/serve/stream-train --trace-jsonl)")
    by_trace: dict[str, list[dict[str, Any]]] = {}
    for record in spans:
        by_trace.setdefault(record["trace_id"], []).append(record)
    trees = []
    for trace_id, members in by_trace.items():
        members.sort(key=lambda s: (s["start_s"], s["span_id"]))
        children: dict[str | None, list[dict[str, Any]]] = {}
        for record in members:
            children.setdefault(record.get("parent_id"), []).append(record)
        start = min(s["start_s"] for s in members)
        end = max(s["start_s"] + s["duration_ms"] / 1000.0 for s in members)
        trees.append(SpanTree(trace_id=trace_id, spans=members,
                              children=children, start_s=start, end_s=end))
    trees.sort(key=lambda t: t.start_s)
    return trees


def _span_depths(tree: SpanTree) -> dict[str, int]:
    depths: dict[str, int] = {}
    ids = {s["span_id"] for s in tree.spans}
    for record in tree.spans:  # chronological ⇒ parents precede children
        parent = record.get("parent_id")
        depths[record["span_id"]] = (depths.get(parent, -1) + 1
                                     if parent in ids else 0)
    return depths


def render_spans(trees: list[SpanTree], width: int = 40,
                 max_traces: int = 12) -> str:
    """Per-trace timeline bars plus the critical path and a name rollup."""
    lines = [f"Span traces: {len(trees)} trace(s), "
             f"{sum(len(t.spans) for t in trees)} span(s)"]
    shown = trees[:max_traces]
    for tree in shown:
        lines.append("")
        lines.append(f"trace {tree.trace_id}  "
                     f"({len(tree.spans)} spans, {tree.duration_ms:.2f}ms)")
        depths = _span_depths(tree)
        window_ms = max(tree.duration_ms, 1e-9)
        for record in tree.spans:
            offset_ms = (record["start_s"] - tree.start_s) * 1000.0
            lo = int(round(offset_ms / window_ms * width))
            hi = int(round((offset_ms + record["duration_ms"])
                           / window_ms * width))
            hi = min(max(hi, lo + 1), width)
            bar = " " * lo + "█" * (hi - lo) + " " * (width - hi)
            label = ("  " * depths[record["span_id"]]
                     + record["name"])[:30]
            lines.append(f"  {label:<30} |{bar}| "
                         f"{record['duration_ms']:>9.3f}ms "
                         f"[{record.get('thread', '?')}]")
        path = tree.critical_path()
        if path:
            covered = path[-1]["duration_ms"]
            share = 100.0 * covered / window_ms
            lines.append("  critical path: "
                         + " -> ".join(s["name"] for s in path)
                         + f"  (leaf {covered:.3f}ms, {share:.0f}% of trace)")
    if len(trees) > len(shown):
        lines.append("")
        lines.append(f"... {len(trees) - len(shown)} more trace(s) omitted")

    totals: dict[str, list[float]] = {}
    for tree in trees:
        for record in tree.spans:
            totals.setdefault(record["name"], []).append(
                record["duration_ms"])
    lines.append("")
    lines.append("Per-span-name rollup:")
    lines.append(f"  {'name':<26}{'count':>7}{'total_ms':>11}{'mean_ms':>10}"
                 f"{'max_ms':>10}")
    for name, values in sorted(totals.items(),
                               key=lambda kv: -sum(kv[1])):
        lines.append(f"  {name:<26}{len(values):>7}{sum(values):>11.3f}"
                     f"{sum(values) / len(values):>10.3f}"
                     f"{max(values):>10.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Streaming timeline (``inspect-run PATH --stream``)
# ---------------------------------------------------------------------------
@dataclass
class StreamSummary:
    """Digest of a streaming run's additive events in one trace."""

    windows: list[dict[str, Any]] = field(default_factory=list)
    drift: list[dict[str, Any]] = field(default_factory=list)
    promotions: list[dict[str, Any]] = field(default_factory=list)


def summarize_stream(events: list[dict[str, Any]]) -> StreamSummary:
    """Collect the ``stream_window``/``drift_detected``/``promotion`` events."""
    summary = StreamSummary()
    buckets = {"stream_window": summary.windows,
               "drift_detected": summary.drift,
               "promotion": summary.promotions}
    for record in events:
        bucket = buckets.get(record.get("event"))
        if bucket is not None:
            bucket.append(record)
    return summary


def render_stream(summary: StreamSummary, width: int = 24) -> str:
    """Prequential timeline: per-window AUC bars with drift and promotion
    markers, then the promotion/rollback history."""
    if not summary.windows:
        return ("no streaming events in this trace "
                "(record one via `repro stream-train --log-jsonl PATH`)")
    drift_by_window: dict[int, list[str]] = {}
    for record in summary.drift:
        drift_by_window.setdefault(record["window"], []).append(
            record["detector"])
    promo_by_window: dict[int, list[dict[str, Any]]] = {}
    for record in summary.promotions:
        promo_by_window.setdefault(record["window"], []).append(record)
    aucs = [w["production_auc"] for w in summary.windows]
    lo, hi = min(aucs), max(aucs)
    span = max(hi - lo, 1e-9)
    lines = [f"Streaming run: {len(summary.windows)} windows, "
             f"{len(summary.drift)} drift signal(s), "
             f"{len(summary.promotions)} promotion event(s)",
             "",
             f"  {'w':>4}{'version':>9}{'prod AUC':>10}{'learner':>9}"
             f"  {'':{width}}  events"]
    for record in summary.windows:
        window = record["window"]
        filled = int(round((record["production_auc"] - lo) / span * width))
        bar = "▇" * filled + "·" * (width - filled)
        marks = []
        for detector in drift_by_window.get(window, []):
            marks.append(f"DRIFT[{detector}]")
        for promo in promo_by_window.get(window, []):
            label = promo["action"].upper()
            if promo.get("version"):
                label += f" {promo['version']}"
            marks.append(label)
        lines.append(f"  {window:>4}{record['production_version']:>9}"
                     f"{record['production_auc']:>10.4f}"
                     f"{record['learner_auc']:>9.4f}  {bar}  "
                     + " ".join(marks))
    lines.append(f"  (bars span AUC [{lo:.3f}, {hi:.3f}])")
    if summary.promotions:
        lines.append("")
        lines.append("Promotion history:")
        for record in summary.promotions:
            reason = f" ({record['reason']})" if record.get("reason") else ""
            detail = ""
            if record.get("challenger_auc") is not None:
                detail = (f"  challenger={record['challenger_auc']:.4f}"
                          f" vs production={record['production_auc']:.4f}")
            lines.append(f"  w{record['window']:<4} "
                         f"{record['action']:<10} {record.get('version')}"
                         f"{reason}{detail}")
    return "\n".join(lines)


def _format_components(components: dict[str, Any] | None) -> str:
    if not components:
        return ""
    return "  ".join(f"{name}={value:.4f}"
                     for name, value in sorted(components.items()))


def render_summary(summary: TraceSummary) -> str:
    """Plain-text report of a :class:`TraceSummary`."""
    lines = [f"Run trace: {summary.path} "
             f"({summary.num_events} events, schema v{summary.schema_version})"]
    if summary.num_runs > 1:
        lines.append(f"Contains {summary.num_runs} runs; summarising the last.")
    lines.append(f"Model: {summary.model}  train={summary.num_train} "
                 f"validation={summary.num_validation}")
    if summary.best_epoch is not None:
        wall = (f"{summary.wall_time_s:.2f}s"
                if summary.wall_time_s is not None else "?")
        lines.append(f"Best epoch: {summary.best_epoch}  "
                     f"steps: {summary.steps}  wall time: {wall}")

    if summary.timings:
        lines.append("")
        lines.append("Phase time share (self time):")
        lines.append(f"  {'phase':<30}{'share':>8}{'self_s':>10}{'count':>8}")
        ordered = sorted(summary.timings.items(),
                         key=lambda kv: kv[1].get("share", 0.0), reverse=True)
        for name, stat in ordered:
            lines.append(f"  {name:<30}{100.0 * stat.get('share', 0.0):>7.1f}%"
                         f"{stat.get('self_s', 0.0):>10.3f}"
                         f"{stat.get('count', 0):>8}")

    if summary.epochs:
        lines.append("")
        lines.append("Validation per epoch:")
        lines.append(f"  {'epoch':>5}{'AUC':>9}{'Logloss':>10}"
                     f"{'train_loss':>12}  components")
        for row in summary.epochs:
            train_loss = row.get("train_loss")
            lines.append(
                f"  {row.get('epoch', '?'):>5}{row.get('auc', float('nan')):>9.4f}"
                f"{row.get('logloss', float('nan')):>10.4f}"
                + (f"{train_loss:>12.4f}" if train_loss is not None
                   else f"{'-':>12}")
                + f"  {_format_components(row.get('loss_components'))}")

    lines.append("")
    lines.append("Final metrics:")
    for split, row in summary.final_evals.items():
        lines.append(f"  {split:<12} AUC={row['auc']:.4f} "
                     f"Logloss={row['logloss']:.4f}")
    grad = summary.metrics.get("train.grad_norm")
    if grad:
        lines.append(f"  grad_norm    p50={grad.get('p50'):.3f} "
                     f"p95={grad.get('p95'):.3f} max={grad.get('max'):.3f}")
    # A counter appears on its first increment, so a run that never hit
    # carries only the miss counter.
    cache = [summary.metrics.get(f"pipeline.shard_cache.{kind}")
             for kind in ("hit", "miss")]
    if any(cache):
        hits, misses = (int(c["value"]) if c else 0 for c in cache)
        lines.append(f"  shard cache hits={hits} misses={misses} "
                     f"hit_ratio={hits / max(hits + misses, 1):.3f}")
    return "\n".join(lines)
