"""Run-trace inspection: fold a JSONL trace into one report.

Backs ``repro inspect-run PATH``.  :func:`summarize_trace` reads the trace
once and folds every record in one pass; :func:`render_summary` prints each
section the trace holds records for, in a fixed order:

1. the training summary (``run_start``/``eval_end``/``run_end``): where
   wall-time went (per-phase self-time shares), how the Eq. 17 loss
   components evolved per epoch, and the final metrics of every split;
2. the streaming timeline (``stream_window``/``drift_detected``/
   ``promotion``): prequential AUC per window with drift and promotion
   markers, then the promotion/rollback history;
3. the span timelines (``span``): per-trace bars, the critical path and a
   per-name rollup.

A trace that no section reads is an error naming the record kinds it holds.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from .events import SCHEMA_VERSION, Event
from .trace import SPAN_EVENT, SPAN_OPTIONAL, SPAN_REQUIRED

__all__ = [
    "TraceSummary",
    "read_trace",
    "check_record",
    "summarize_trace",
    "render_summary",
    "SpanTree",
    "summarize_spans",
    "render_spans",
]

#: The ``eval_end`` fields the training summary keeps.
_EVAL_KEYS = ("epoch", "split", "auc", "logloss", "train_loss", "loss_components")


@dataclass
class TraceSummary:
    """Every record of one JSONL trace, folded for the report."""

    path: str
    num_events: int = 0
    #: Records per ``event`` kind; decides which sections the report prints.
    kinds: Counter[str] = field(default_factory=Counter)
    #: Number of ``run_start`` records.  The training fields below describe
    #: the last run (``compare --log-jsonl`` concatenates one run per model).
    num_runs: int = 0
    model: str = "?"
    num_train: int = 0
    num_validation: int = 0
    config: dict[str, Any] = field(default_factory=dict)
    epochs: list[dict[str, Any]] = field(default_factory=list)
    final_evals: dict[str, dict[str, Any]] = field(default_factory=dict)
    timings: dict[str, dict[str, Any]] = field(default_factory=dict)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    best_epoch: int | None = None
    steps: int | None = None
    wall_time_s: float | None = None
    # The streaming and span records of the whole file, in file order.
    windows: list[dict[str, Any]] = field(default_factory=list)
    drift: list[dict[str, Any]] = field(default_factory=list)
    promotions: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)


def _envelope_problem(record: Any) -> str | None:
    """The check every reader applies: a JSON object naming its event, at
    the schema version this code reads."""
    if not isinstance(record, dict) or "event" not in record:
        return "not a trace event"
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        return f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
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
        cls = next((c for c in Event.__subclasses__() if c.kind == kind), None)
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
    """Read the trace at ``path`` once and fold every record into a
    :class:`TraceSummary`."""
    records = read_trace(path)
    summary = TraceSummary(path=path, num_events=len(records))
    collected = {
        "stream_window": summary.windows,
        "drift_detected": summary.drift,
        "promotion": summary.promotions,
        SPAN_EVENT: summary.spans,
    }
    for record in records:
        kind = record["event"]
        summary.kinds[kind] += 1
        if kind in collected:
            collected[kind].append(record)
        elif kind == "run_start":
            # A new run: reset the training fields, so concatenated traces
            # summarise their last run.
            summary.num_runs += 1
            summary.model = record.get("model", "?")
            summary.num_train = record.get("num_train", 0)
            summary.num_validation = record.get("num_validation", 0)
            summary.config = record.get("config", {})
            summary.epochs, summary.final_evals = [], {}
            summary.timings, summary.metrics = {}, {}
            summary.best_epoch = summary.steps = summary.wall_time_s = None
        elif kind == "eval_end":
            row = {key: record.get(key) for key in _EVAL_KEYS}
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
# Section 1: the training summary
# ---------------------------------------------------------------------------
def _format_components(components: dict[str, Any] | None) -> str:
    if not components:
        return ""
    pairs = sorted(components.items())
    return "  ".join(f"{name}={value:.4f}" for name, value in pairs)


def _render_training(summary: TraceSummary) -> str:
    lines = []
    if summary.num_runs > 1:
        lines.append(f"Contains {summary.num_runs} runs; summarising the last.")
    rows = f"train={summary.num_train} validation={summary.num_validation}"
    lines.append(f"Model: {summary.model}  {rows}")
    if summary.best_epoch is not None:
        wall = "?" if summary.wall_time_s is None else f"{summary.wall_time_s:.2f}s"
        lines.append(
            f"Best epoch: {summary.best_epoch}  steps: {summary.steps}  "
            f"wall time: {wall}"
        )

    if summary.timings:
        lines += ["", "Phase time share (self time):"]
        lines.append(f"  {'phase':<30}{'share':>8}{'self_s':>10}{'count':>8}")
        ordered = sorted(
            summary.timings.items(),
            key=lambda kv: kv[1].get("share", 0.0),
            reverse=True,
        )
        for name, stat in ordered:
            share = 100.0 * stat.get("share", 0.0)
            lines.append(
                f"  {name:<30}{share:>7.1f}%"
                f"{stat.get('self_s', 0.0):>10.3f}{stat.get('count', 0):>8}"
            )

    if summary.epochs:
        lines += ["", "Validation per epoch:"]
        lines.append(
            f"  {'epoch':>5}{'AUC':>9}{'Logloss':>10}{'train_loss':>12}  components"
        )
        for row in summary.epochs:
            train_loss = row.get("train_loss")
            loss = "-" if train_loss is None else f"{train_loss:.4f}"
            lines.append(
                f"  {row.get('epoch', '?'):>5}{row.get('auc', float('nan')):>9.4f}"
                f"{row.get('logloss', float('nan')):>10.4f}{loss:>12}"
                f"  {_format_components(row.get('loss_components'))}"
            )

    lines += ["", "Final metrics:"]
    for split, row in summary.final_evals.items():
        lines.append(f"  {split:<12} AUC={row['auc']:.4f} Logloss={row['logloss']:.4f}")
    grad = summary.metrics.get("train.grad_norm")
    if grad:
        lines.append(
            f"  grad_norm    p50={grad.get('p50'):.3f} "
            f"p95={grad.get('p95'):.3f} max={grad.get('max'):.3f}"
        )
    # A counter appears on its first increment, so a run that never hit
    # carries only the miss counter.
    cache = [summary.metrics.get(f"pipeline.shard_cache.{k}") for k in ("hit", "miss")]
    if any(cache):
        hits, misses = (int(c["value"]) if c else 0 for c in cache)
        ratio = hits / max(hits + misses, 1)
        lines.append(f"  shard cache hits={hits} misses={misses} hit_ratio={ratio:.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Section 2: the streaming timeline
# ---------------------------------------------------------------------------
def _render_stream(summary: TraceSummary, width: int = 24) -> str:
    """Prequential timeline: per-window AUC bars with drift and promotion
    markers, then the promotion/rollback history."""
    marks: dict[int, list[str]] = {}
    for record in summary.drift:
        detector = record["detector"]
        marks.setdefault(record["window"], []).append(f"DRIFT[{detector}]")
    for record in summary.promotions:
        label = record["action"].upper()
        if record.get("version"):
            label += f" {record['version']}"
        marks.setdefault(record["window"], []).append(label)
    counts = (
        f"{len(summary.windows)} windows, {len(summary.drift)} drift signal(s), "
        f"{len(summary.promotions)} promotion event(s)"
    )
    lines = [f"Streaming run: {counts}"]
    if summary.windows:
        aucs = [record["production_auc"] for record in summary.windows]
        lo, hi = min(aucs), max(aucs)
        span = max(hi - lo, 1e-9)
        head = f"  {'w':>4}{'version':>9}{'prod AUC':>10}{'learner':>9}"
        lines += ["", f"{head}  {'':{width}}  events"]
        for record in summary.windows:
            filled = int(round((record["production_auc"] - lo) / span * width))
            bar = "▇" * filled + "·" * (width - filled)
            row = (
                f"  {record['window']:>4}{record['production_version']:>9}"
                f"{record['production_auc']:>10.4f}{record['learner_auc']:>9.4f}"
            )
            events = " ".join(marks.get(record["window"], []))
            lines.append(f"{row}  {bar}  {events}")
        lines.append(f"  (bars span AUC [{lo:.3f}, {hi:.3f}])")
    if summary.promotions:
        lines += ["", "Promotion history:"]
        for record in summary.promotions:
            reason = f" ({record['reason']})" if record.get("reason") else ""
            detail = ""
            if record.get("challenger_auc") is not None:
                detail = (
                    f"  candidate={record['challenger_auc']:.4f}"
                    f" vs production={record['production_auc']:.4f}"
                )
            lines.append(
                f"  w{record['window']:<4} {record['action']:<10} "
                f"{record.get('version')}{reason}{detail}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Section 3: span timelines and critical paths
# ---------------------------------------------------------------------------
@dataclass
class SpanTree:
    """One trace's spans, parent-linked and chronologically ordered."""

    trace_id: str
    spans: list[dict[str, Any]]  # sorted by start_s
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
    """Group the ``span`` records among ``events`` into per-trace trees."""
    spans = [record for record in events if record.get("event") == SPAN_EVENT]
    if not spans:
        raise ValueError("trace contains no span events")
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
        tree = SpanTree(trace_id, members, children, start_s=start, end_s=end)
        trees.append(tree)
    trees.sort(key=lambda t: t.start_s)
    return trees


def _span_depths(tree: SpanTree) -> dict[str, int]:
    depths: dict[str, int] = {}
    ids = {s["span_id"] for s in tree.spans}
    for record in tree.spans:  # chronological ⇒ parents precede children
        parent = record.get("parent_id")
        depths[record["span_id"]] = depths.get(parent, -1) + 1 if parent in ids else 0
    return depths


def render_spans(trees: list[SpanTree], width: int = 40, max_traces: int = 12) -> str:
    """Per-trace timeline bars plus the critical path and a name rollup."""
    total = sum(len(t.spans) for t in trees)
    lines = [f"Span traces: {len(trees)} trace(s), {total} span(s)"]
    shown = trees[:max_traces]
    for tree in shown:
        lines.append("")
        duration = f"{len(tree.spans)} spans, {tree.duration_ms:.2f}ms"
        lines.append(f"trace {tree.trace_id}  ({duration})")
        depths = _span_depths(tree)
        window_ms = max(tree.duration_ms, 1e-9)
        for record in tree.spans:
            offset_ms = (record["start_s"] - tree.start_s) * 1000.0
            lo = int(round(offset_ms / window_ms * width))
            hi = int(round((offset_ms + record["duration_ms"]) / window_ms * width))
            hi = min(max(hi, lo + 1), width)
            bar = " " * lo + "█" * (hi - lo) + " " * (width - hi)
            label = ("  " * depths[record["span_id"]] + record["name"])[:30]
            lines.append(
                f"  {label:<30} |{bar}| {record['duration_ms']:>9.3f}ms "
                f"[{record.get('thread', '?')}]"
            )
        path = tree.critical_path()
        if path:
            covered = path[-1]["duration_ms"]
            share = 100.0 * covered / window_ms
            names = " -> ".join(s["name"] for s in path)
            lines.append(
                f"  critical path: {names}  "
                f"(leaf {covered:.3f}ms, {share:.0f}% of trace)"
            )
    if len(trees) > len(shown):
        lines.append("")
        lines.append(f"... {len(trees) - len(shown)} more trace(s) omitted")

    totals: dict[str, list[float]] = {}
    for tree in trees:
        for record in tree.spans:
            totals.setdefault(record["name"], []).append(record["duration_ms"])
    lines += ["", "Per-span-name rollup:"]
    lines.append(
        f"  {'name':<26}{'count':>7}{'total_ms':>11}{'mean_ms':>10}{'max_ms':>10}"
    )
    for name, values in sorted(totals.items(), key=lambda kv: -sum(kv[1])):
        lines.append(
            f"  {name:<26}{len(values):>7}{sum(values):>11.3f}"
            f"{sum(values) / len(values):>10.3f}{max(values):>10.3f}"
        )
    return "\n".join(lines)


def _render_span_section(summary: TraceSummary) -> str:
    return render_spans(summarize_spans(summary.spans))


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------
#: The report's sections in print order: the record kinds that make each one
#: appear, and its renderer.
_SECTIONS = (
    (frozenset({"run_start", "eval_end", "run_end"}), _render_training),
    (frozenset({"stream_window", "drift_detected", "promotion"}), _render_stream),
    (frozenset({SPAN_EVENT}), _render_span_section),
)


def render_summary(summary: TraceSummary) -> str:
    """The one report of a trace: a header line, then every section whose
    records the trace holds.  ``ValueError`` when it holds none of them."""
    held = summary.kinds.keys()
    sections = [render(summary) for kinds, render in _SECTIONS if held & kinds]
    if not sections:
        read = ", ".join(sorted(set().union(*(kinds for kinds, _ in _SECTIONS))))
        raise ValueError(
            f"{summary.path}: nothing to report; the trace holds only "
            f"{', '.join(sorted(held))} records (the report reads {read})"
        )
    header = f"{summary.num_events} events, schema v{SCHEMA_VERSION}"
    return "\n\n".join([f"Run trace: {summary.path} ({header})", *sections])
