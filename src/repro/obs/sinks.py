"""Observer sinks: JSONL run traces and a throttled console reporter."""

from __future__ import annotations

import json
import os
import sys
import threading
from contextlib import suppress
from typing import Any, TextIO

from .events import (
    SCHEMA_VERSION,
    AnomalyDetectedEvent,
    BaseObserver,
    BatchEndEvent,
    BatchFlushedEvent,
    CheckpointRestoredEvent,
    CheckpointWrittenEvent,
    DriftDetectedEvent,
    EvalEndEvent,
    Event,
    PromotionEvent,
    RunEndEvent,
    RunStartEvent,
    StreamWindowEvent,
)

__all__ = ["JsonlTraceWriter", "ConsoleReporter"]


def _coerce(value: Any):
    """json.dumps fallback for numpy scalars and other item()-bearers."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


class JsonlTraceWriter(BaseObserver):
    """Writes one JSON object per event, schema-versioned, flushed per line.

    Crash-safe by design: every record is flushed to the OS immediately, so a
    trace from a killed or crashed run is readable up to the last completed
    event — the resume workflow relies on this to reconstruct what happened.
    ``close`` additionally fsyncs, is idempotent, and runs from ``__exit__``
    and ``__del__`` so an exception anywhere in the run cannot strand an open
    handle with buffered records.

    The file is opened at construction so an unwritable path fails before
    training starts, and stays open across runs (``run_experiment`` appends a
    final test evaluation after the trainer's ``run_end``); close explicitly
    or use as a context manager.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: TextIO | None = open(path, "w", encoding="utf-8")
        self._write_lock = threading.Lock()
        self.lines_written = 0

    @property
    def closed(self) -> bool:
        return self._fh is None

    def _write(self, kind: str, payload: dict) -> None:
        # Serialised: serving events and spans reach one writer from handler,
        # engine-worker, and tracer threads concurrently.
        with self._write_lock:
            if self._fh is None:
                raise ValueError(f"trace writer for {self.path} is closed")
            record = {"schema_version": SCHEMA_VERSION, "event": kind,
                      **payload}
            self._fh.write(json.dumps(record, default=_coerce) + "\n")
            self._fh.flush()
            self.lines_written += 1

    def on_event(self, event: Event) -> None:
        """Catch-all hook: every kind is written the same way, as its
        derived payload under its ``kind``."""
        self._write(event.kind, event.payload())

    def write_span(self, record: dict) -> None:
        """Span-sink protocol (see :class:`repro.obs.trace.Tracer`): spans
        share the run-trace file as additive ``span`` events."""
        self._write("span", record)

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            with suppress(OSError, ValueError):
                fh.flush()
                os.fsync(fh.fileno())
            fh.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        with suppress(Exception):
            self.close()


class ConsoleReporter(BaseObserver):
    """Human-readable progress lines, throttled to every ``every`` steps."""

    def __init__(self, every: int = 20, stream: TextIO | None = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.stream = stream if stream is not None else sys.stdout

    def _print(self, text: str) -> None:
        print(text, file=self.stream)

    def on_run_start(self, event: RunStartEvent) -> None:
        self._print(f"[obs] run start: {event.model} "
                    f"(train={event.num_train}, val={event.num_validation})")

    def on_batch_end(self, event: BatchEndEvent) -> None:
        if event.step % self.every:
            return
        line = (f"[obs] epoch {event.epoch} step {event.step:>6} "
                f"loss {event.loss:.4f} |grad| {event.grad_norm:.3f}")
        if event.loss_components:
            parts = " ".join(f"{k}={v:.4f}"
                             for k, v in event.loss_components.items())
            line += f" ({parts})"
        self._print(line)

    def on_eval_end(self, event: EvalEndEvent) -> None:
        line = (f"[obs] epoch {event.epoch} {event.split}: "
                f"AUC={event.auc:.4f} Logloss={event.logloss:.4f}")
        if event.train_loss is not None:
            line += f" train_loss={event.train_loss:.4f}"
        self._print(line)

    def on_checkpoint_written(self, event: CheckpointWrittenEvent) -> None:
        where = event.path or "memory"
        flags = "".join([" (best)" if event.is_best else "",
                         " (final)" if event.completed else ""])
        self._print(f"[obs] checkpoint @ step {event.step}: {where}{flags}")

    def on_checkpoint_restored(self, event: CheckpointRestoredEvent) -> None:
        line = (f"[obs] restored checkpoint @ step {event.step} "
                f"(epoch {event.epoch}, {event.reason})")
        if event.skipped:
            line += f" — skipped {len(event.skipped)} corrupt checkpoint(s)"
        self._print(line)

    def on_anomaly_detected(self, event: AnomalyDetectedEvent) -> None:
        self._print(f"[obs] ANOMALY {event.anomaly} @ step {event.step}: "
                    f"value={event.value!r} lr={event.lr:g} "
                    f"retries left={event.retries_remaining}")

    def on_batch_flushed(self, event: BatchFlushedEvent) -> None:
        self._print(f"[obs] batch flushed: {event.batch_size} request(s), "
                    f"waited {event.wait_ms:.1f}ms, "
                    f"forward {event.forward_ms:.1f}ms, "
                    f"queue depth {event.queue_depth}")

    def on_stream_window(self, event: StreamWindowEvent) -> None:
        self._print(f"[obs] window {event.window:>4} "
                    f"prod[{event.production_version}] "
                    f"AUC={event.production_auc:.4f} "
                    f"learner AUC={event.learner_auc:.4f} "
                    f"({event.rows} rows)")

    def on_drift_detected(self, event: DriftDetectedEvent) -> None:
        self._print(f"[obs] DRIFT {event.detector} @ window {event.window}: "
                    f"{event.value:.4f} > {event.threshold:g}")

    def on_promotion(self, event: PromotionEvent) -> None:
        line = (f"[obs] promotion {event.action}: {event.version} "
                f"@ window {event.window}")
        if event.reason:
            line += f" ({event.reason})"
        self._print(line)

    def on_run_end(self, event: RunEndEvent) -> None:
        self._print(f"[obs] run end: best epoch {event.best_epoch} "
                    f"after {event.epochs_run} epochs / {event.steps} steps "
                    f"in {event.wall_time_s:.2f}s")
        shares = sorted(event.timings.items(),
                        key=lambda kv: kv[1].get("share", 0.0), reverse=True)
        for name, stat in shares[:5]:
            self._print(f"[obs]   {name:<24} {100.0 * stat['share']:5.1f}% "
                        f"({stat['self_s']:.3f}s self, n={stat['count']})")
