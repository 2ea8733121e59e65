"""Load generator: drive the scoring engine at a target QPS and measure it.

Open-loop generation — request ``i`` is dispatched at ``start + i/qps``
regardless of how fast earlier requests complete — so a saturated engine
shows up as queue growth and latency inflation rather than as a silently
reduced request rate (the closed-loop failure mode that makes overloaded
systems look healthy).

The report is plain JSON: exact p50/p95/p99 latency over every request (not
a sketch), achieved vs target QPS, the engine's batch-size distribution, and
the cache hit rate.  ``repro bench-serve`` prints it.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..data.batching import CTRDataset
from .batcher import ScoringEngine

__all__ = ["dataset_rows", "build_request_stream", "run_load",
           "RetryPolicy", "run_http_load"]

Row = tuple[np.ndarray, np.ndarray, np.ndarray]


def dataset_rows(dataset: CTRDataset, limit: int | None = None) -> list[Row]:
    """Feature rows of a split in (categorical, sequences, mask) form."""
    n = len(dataset)
    if limit is not None:
        n = min(n, limit)
    return [(dataset.categorical[i], dataset.sequences[i], dataset.mask[i])
            for i in range(n)]


def build_request_stream(num_rows: int, num_requests: int,
                         repeat_fraction: float = 0.0,
                         seed: int = 0) -> list[int]:
    """Row index per request; repeats exercise the engine's LRU cache.

    Each request is, with probability ``repeat_fraction``, a re-send of a
    previously requested row (uniform over the history); otherwise the next
    row in a round-robin over the pool.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if num_rows < 1:
        raise ValueError("num_rows must be >= 1")
    if not 0.0 <= repeat_fraction < 1.0:
        raise ValueError("repeat_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    stream: list[int] = []
    fresh = 0
    for _ in range(num_requests):
        if stream and rng.random() < repeat_fraction:
            stream.append(stream[int(rng.integers(0, len(stream)))])
        else:
            stream.append(fresh % num_rows)
            fresh += 1
    return stream


def _paced(count: int, target_qps: float) -> Iterator[int]:
    """Yield ``i`` once request ``i`` is due, at ``start + i / target_qps``
    however long the consumer spent on earlier ones: the open loop."""
    start = time.monotonic()
    for i in range(count):
        delay = start + i / target_qps - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        yield i


def _latency_summary(done: np.ndarray) -> dict[str, float]:
    """Exact mean / p50 / p95 / p99 / max over every completed request."""
    return {
        "mean": float(done.mean()),
        "p50": float(np.quantile(done, 0.50)),
        "p95": float(np.quantile(done, 0.95)),
        "p99": float(np.quantile(done, 0.99)),
        "max": float(done.max()),
    }


@dataclass
class RetryPolicy:
    """Client-side retry with capped exponential backoff and full jitter.

    Retryable statuses are the ones the server uses for *transient* refusal
    — 429 (shed) and 503 (draining / breaker open) — plus connection-level
    failures.  The backoff for attempt ``k`` is drawn uniformly from
    ``[0, min(max_backoff_s, base_backoff_s * 2**k)]`` ("full jitter"):
    retries from a shed burst decorrelate instead of re-arriving as the
    same thundering herd, which is the difference between backoff that
    relieves an overloaded server and backoff that re-overloads it on a
    schedule.  A server-provided ``Retry-After`` hint is the floor of the
    draw.
    """

    max_retries: int = 3
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    retry_statuses: tuple[int, ...] = (429, 503)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff_s <= 0 or self.max_backoff_s <= 0:
            raise ValueError("backoff bounds must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._rng_lock = threading.Lock()

    def should_retry(self, attempt: int, status: int | None) -> bool:
        """``status`` is the HTTP code, or ``None`` for connection errors."""
        if attempt >= self.max_retries:
            return False
        return status is None or status in self.retry_statuses

    def backoff_s(self, attempt: int,
                  retry_after_s: float | None = None) -> float:
        ceiling = min(self.max_backoff_s,
                      self.base_backoff_s * (2.0 ** attempt))
        with self._rng_lock:
            delay = float(self._rng.uniform(0.0, ceiling))
        if retry_after_s is not None:
            delay = max(delay, min(retry_after_s, self.max_backoff_s))
        return delay


def _post_score(url: str, body: bytes, timeout_s: float,
                deadline_ms: float | None) -> tuple[int, float | None]:
    """One POST /score; returns (status, Retry-After seconds or None)."""
    headers = {"Content-Type": "application/json"}
    if deadline_ms is not None:
        headers["X-Deadline-Ms"] = f"{deadline_ms:g}"
    request = urllib.request.Request(url + "/score", data=body,
                                     headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            resp.read()
            return resp.status, None
    except urllib.error.HTTPError as exc:
        exc.read()
        retry_after = exc.headers.get("Retry-After")
        try:
            return exc.code, (float(retry_after)
                              if retry_after is not None else None)
        finally:
            exc.close()


def run_http_load(url: str, rows: Sequence[Row], *, target_qps: float,
                  num_requests: int, repeat_fraction: float = 0.0,
                  seed: int = 0, timeout_s: float = 30.0,
                  deadline_ms: float | None = None,
                  retry: RetryPolicy | None = None,
                  max_threads: int = 64) -> dict:
    """Open-loop load against a live HTTP server (not the in-process engine).

    Each request runs on its own thread so a slow response never delays the
    dispatch schedule (the open-loop property).  With a :class:`RetryPolicy`
    attached, 429/503 responses and connection errors are retried with
    jittered backoff; the report then separates transport-level outcomes
    (``status_counts``, ``retries``) from request-level ones (``ok`` /
    ``shed`` / ``failed`` / ``dropped``).  ``dropped`` — a request that
    never got *any* HTTP response — is the number that must be zero for a
    hot-swap to count as seamless.
    """
    if target_qps <= 0:
        raise ValueError("target_qps must be positive")
    stream = build_request_stream(len(rows), num_requests,
                                  repeat_fraction=repeat_fraction, seed=seed)
    bodies = []
    for index in stream:
        categorical, sequences, mask = rows[index]
        bodies.append(json.dumps({"rows": [{
            "categorical": categorical.tolist(),
            "sequences": sequences.tolist(),
            "mask": mask.tolist()}]}).encode("utf-8"))
    latencies = np.full(num_requests, np.nan)
    final_status = np.zeros(num_requests, dtype=np.int64)
    attempts_used = np.zeros(num_requests, dtype=np.int64)
    dropped = np.zeros(num_requests, dtype=bool)
    gate = threading.Semaphore(max_threads)

    def fire(i: int) -> None:
        try:
            sent = time.monotonic()
            attempt = 0
            while True:
                status: int | None
                retry_after = None
                try:
                    status, retry_after = _post_score(
                        url, bodies[i], timeout_s, deadline_ms)
                except (urllib.error.URLError, ConnectionError,
                        TimeoutError, OSError):
                    status = None
                if status == 200:
                    latencies[i] = (time.monotonic() - sent) * 1000.0
                if status is not None:
                    final_status[i] = status
                if retry is None or not retry.should_retry(attempt, status) \
                        or status == 200:
                    break
                time.sleep(retry.backoff_s(attempt, retry_after))
                attempt += 1
            attempts_used[i] = attempt
            dropped[i] = final_status[i] == 0
        finally:
            gate.release()

    start = time.monotonic()
    threads = []
    for i in _paced(num_requests, target_qps):
        gate.acquire()
        worker = threading.Thread(target=fire, args=(i,), daemon=True)
        worker.start()
        threads.append(worker)
    for worker in threads:
        worker.join(timeout=timeout_s + 10.0)
    wall_s = max(time.monotonic() - start, 1e-9)
    statuses, counts = np.unique(final_status, return_counts=True)
    done = latencies[np.isfinite(latencies)]
    ok = int((final_status == 200).sum())
    report = {
        "requests": num_requests,
        "ok": ok,
        "shed": int(np.isin(final_status, (429,)).sum()),
        "unavailable": int(np.isin(final_status, (503,)).sum()),
        "deadline_exceeded": int(np.isin(final_status, (504,)).sum()),
        "http_5xx": int((final_status >= 500).sum()),
        "dropped": int(dropped.sum()),
        "retries": int(attempts_used.sum()),
        "status_counts": {int(s): int(c) for s, c in zip(statuses, counts)
                          if s != 0},
        "target_qps": float(target_qps),
        "achieved_qps": float(ok / wall_s),
        "wall_time_s": float(wall_s),
        "latency_ms": _latency_summary(done) if done.size else None,
    }
    return report


def run_load(engine: ScoringEngine, rows: Sequence[Row], *,
             target_qps: float, num_requests: int,
             repeat_fraction: float = 0.0, seed: int = 0,
             timeout_s: float = 120.0) -> dict:
    """Fire ``num_requests`` at ``target_qps`` and return the report dict."""
    if target_qps <= 0:
        raise ValueError("target_qps must be positive")
    stream = build_request_stream(len(rows), num_requests,
                                  repeat_fraction=repeat_fraction, seed=seed)
    latencies = np.full(num_requests, np.nan)
    completions = np.full(num_requests, np.nan)
    futures = []
    start = time.monotonic()
    for i in _paced(num_requests, target_qps):
        sent = time.monotonic()
        future = engine.submit_row(*rows[stream[i]])

        def on_done(f, i=i, sent=sent):
            now = time.monotonic()
            latencies[i] = (now - sent) * 1000.0
            completions[i] = now

        future.add_done_callback(on_done)
        futures.append(future)
    errors = 0
    for future in futures:
        try:
            future.result(timeout=timeout_s)
        except Exception:
            errors += 1
    done = latencies[np.isfinite(latencies)]
    if done.size == 0:
        raise RuntimeError(f"no request completed within {timeout_s}s")
    wall_s = max(float(np.nanmax(completions)) - start, 1e-9)
    stats = engine.stats()
    batch_hist = stats["metrics"].get("serve.batch_size", {})
    report = {
        "requests": num_requests,
        "completed": int(done.size),
        "errors": errors,
        "target_qps": float(target_qps),
        "achieved_qps": float(done.size / wall_s),
        "wall_time_s": float(wall_s),
        "repeat_fraction": float(repeat_fraction),
        "latency_ms": _latency_summary(done),
        "batch_size": {
            "mean": batch_hist.get("mean"),
            "p50": batch_hist.get("p50"),
            "max": batch_hist.get("max"),
            "batches": batch_hist.get("count", 0),
        },
        "cache": stats["cache"],
    }
    return report
