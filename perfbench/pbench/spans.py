"""In-memory spans recorded by the benchmark *around* calls into the
program's layers; nothing here is called from inside ``repro``.

A span is ``(id, parent, name, start, end, ref, thread)``.  ``ref`` is the
step or request the span belongs to; children inherit it.  Spans live in a
list until :meth:`SpanRecorder.write` dumps them at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

__all__ = ["SpanRecorder"]


class _Span:
    __slots__ = ("recorder", "name", "ref", "id", "parent", "start")

    def __init__(self, recorder: "SpanRecorder", name: str, ref):
        self.recorder = recorder
        self.name = name
        self.ref = ref

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.id = next(self.recorder._ids)
        if stack:
            top = stack[-1]
            self.parent = top.id
            if self.ref is None:
                self.ref = top.ref
        else:
            self.parent = None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        recorder = self.recorder
        recorder._stack().pop()
        recorder.spans.append((self.id, self.parent, self.name, self.start,
                               end, self.ref,
                               threading.current_thread().name))
        return False


class SpanRecorder:
    def __init__(self):
        # list.append and next(count) are atomic under the GIL, which is
        # all the engine worker and the load threads need.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (thread name, start, end) of every load-generating thread; the
        #: denominator of :meth:`coverage`.
        self.walls: list[tuple[str, float, float]] = []

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, ref=None) -> _Span:
        """Context manager; nests under the calling thread's open span."""
        return _Span(self, name, ref)

    def record(self, name: str, start: float, end: float, ref=None,
               parent: int | None = None, thread: str | None = None) -> None:
        """A span timed by the caller: on another thread, or (``thread``
        given) an interval such as due -> done that no one thread spent."""
        self.spans.append((next(self._ids), parent, name, start, end, ref,
                           thread or threading.current_thread().name))

    def wall(self, start: float, end: float) -> None:
        self.walls.append((threading.current_thread().name, start, end))

    # ------------------------------------------------------------------
    # Roll-ups
    # ------------------------------------------------------------------
    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(s[4] - s[3]) * 1000.0 for s in self.spans
                         if s[2] == name])

    def total_s(self, *names: str) -> float:
        return float(sum(s[4] - s[3] for s in self.spans if s[2] in names))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {s[0]: (s[4] - s[3]) - child[s[0]] for s in self.spans}

    def coverage(self) -> float:
        """Sum of self time over every span in a tree rooted on a load
        thread, as a share of those threads' wall time."""
        load_threads = {name for name, _, _ in self.walls}
        root_of: dict[int, bool] = {}
        parents = {s[0]: s[1] for s in self.spans}
        threads = {s[0]: s[6] for s in self.spans}

        def on_load_tree(span_id: int) -> bool:
            trail = []
            while span_id not in root_of:
                trail.append(span_id)
                parent = parents[span_id]
                if parent is None:
                    root_of[span_id] = threads[span_id] in load_threads
                    break
                span_id = parent
            verdict = root_of[span_id]
            for seen in trail:
                root_of[seen] = verdict
            return verdict

        own = self.self_times()
        covered = sum(t for span_id, t in own.items()
                      if on_load_tree(span_id))
        wall = sum(end - start for _, start, end in self.walls)
        return covered / wall if wall > 0 else 0.0

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "ref", "thread")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
