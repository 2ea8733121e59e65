"""Prefetching mini-batch loader with deterministic parallel epoch order.

``PrefetchLoader`` is a :class:`~repro.data.batching.DataLoader` that, for
``num_workers > 0``, assembles batches in background worker threads while
the training loop computes.  The determinism contract — the foundation for
bit-identical checkpoint resume — is:

* The per-epoch permutation is drawn **exactly once** from the loader RNG at
  the start of ``iter_batches``, before any worker thread exists.  The RNG
  stream is therefore identical to the sequential loader's, for every
  ``num_workers``.
* The epoch is split into *windows* of ``prefetch_depth`` consecutive batch
  indices, assigned round-robin to workers (worker ``w`` handles windows
  ``w``, ``w + num_workers``, ...).  Batch *contents* depend only on the
  permutation and the batch index, never on thread timing; threads only
  change *when* a batch is assembled, not *what* it contains.
* Each worker posts finished batches, in order, to its own bounded queue
  (``maxsize=prefetch_depth``); the consumer pops from the queue owning the
  next global batch index.  The owner of batch ``k`` is
  ``((k - skip) // prefetch_depth) % num_workers``, so delivery order equals
  sequential order and the consumer never waits on a queue whose head is not
  the batch it needs — bounded memory with no circular wait.

``num_workers=0`` *is* the inherited ``DataLoader.iter_batches`` — one
sequential path, and the reference the loader tests compare against.

Windowing also matters on sharded datasets: a worker hands its whole window
to :meth:`ShardedCTRDataset.gather_batches`, which loads each needed shard
once per window instead of once per batch.  Under shuffled access a
per-batch gather still loads every touched shard the LRU could not keep
(about 24.5 of 33 a batch with 8 cached, in perfbench's
``train_din_sharded``), so a window can divide that decode work (one
inflate of a few tens of KB per load) by up to ``prefetch_depth``.
Prefetch-worker throughput itself is not measured by the repo benchmark
today (DESIGN.md §11).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Iterator

import numpy as np

from ...obs.timers import phase
from ...obs.trace import get_tracer
from ..batching import Batch, DataLoader

__all__ = ["PrefetchLoader"]

_JOIN_TIMEOUT_S = 5.0
_PUT_POLL_S = 0.1


class PrefetchLoader(DataLoader):
    """Deterministic prefetching loader over any ``__len__``/``batch`` dataset.

    Accepts both :class:`~repro.data.batching.CTRDataset` and
    :class:`~repro.data.pipeline.shards.ShardedCTRDataset`; the latter's
    ``gather_batches`` window gather is used automatically when present.
    """

    def __init__(
        self,
        dataset,
        batch_size: int = 128,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
        drop_last: bool = False,
        num_workers: int = 0,
        prefetch_depth: int = 2,
    ):
        super().__init__(dataset, batch_size, shuffle, rng, drop_last)
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        self.num_workers = num_workers
        self.prefetch_depth = prefetch_depth
        self._registry = None
        self._observers = None

    def bind_telemetry(self, registry=None, observers=None) -> None:
        """Attach metrics/observers; forwarded to the dataset when supported.

        Enables the ``pipeline.prefetch_queue_depth`` gauge here and, on a
        sharded dataset, shard-cache counters and ``shard_loaded`` events.
        """
        self._registry = registry
        self._observers = observers
        bind = getattr(self.dataset, "bind_telemetry", None)
        if bind is not None:
            bind(registry=registry, observers=observers)

    def iter_batches(self, skip: int = 0) -> Iterator[Batch]:
        """Iterate the epoch, optionally skipping the first ``skip`` batches.

        Exactly one ``rng.permutation`` is consumed per call (when shuffling)
        at any worker count — restoring the RNG to its epoch-start state and
        passing the completed-batch count as ``skip`` replays a partial epoch
        bit-identically.
        """
        if self.num_workers == 0:
            return super().iter_batches(skip)
        return self._iter_prefetch(skip)

    # ------------------------------------------------------------------
    # Threaded path
    # ------------------------------------------------------------------
    def _chunk(self, order: np.ndarray, index: int) -> np.ndarray:
        lo = index * self.batch_size
        hi = lo + self.batch_size
        return order[lo:hi]

    def _iter_prefetch(self, skip: int) -> Iterator[Batch]:
        if skip < 0:
            raise ValueError("skip must be >= 0")
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        num_batches = len(self)
        if skip >= num_batches:
            return
        depth = self.prefetch_depth
        workers = self.num_workers
        windows = []
        for j, wstart in enumerate(range(skip, num_batches, depth)):
            windows.append((j % workers, wstart, min(wstart + depth, num_batches)))
        queues = [queue.Queue(maxsize=depth) for _ in range(workers)]
        stop = threading.Event()
        # Trace context is captured here, on the consumer thread, and handed
        # to workers explicitly — contextvars do not cross thread spawns.
        tracer = get_tracer()
        epoch_ctx = tracer.make_context() if tracer is not None else None
        epoch_start = time.monotonic()

        def post(q: queue.Queue, item) -> bool:
            while not stop.is_set():
                try:
                    q.put(item, timeout=_PUT_POLL_S)
                    return True
                except queue.Full:
                    continue
            return False

        def run(worker_id: int) -> None:
            q = queues[worker_id]
            try:
                for owner, wstart, wend in windows:
                    if owner != worker_id:
                        continue
                    chunks = [self._chunk(order, k) for k in range(wstart, wend)]
                    window_start = time.monotonic()
                    gather = getattr(self.dataset, "gather_batches", None)
                    if gather is not None:
                        batches = gather(chunks)
                    else:
                        batches = [self.dataset.batch(c) for c in chunks]
                    if tracer is not None:
                        tracer.record_span(
                            "pipeline.window", epoch_ctx, window_start,
                            time.monotonic(),
                            attrs={"worker": worker_id,
                                   "batches": wend - wstart})
                    for batch in batches:
                        if not post(q, ("batch", batch)):
                            return
            except Exception as exc:
                post(q, ("error", exc))

        threads = [
            threading.Thread(target=run, args=(w,), daemon=True)
            for w in range(workers)
        ]
        for t in threads:
            t.start()
        try:
            for k in range(skip, num_batches):
                q = queues[((k - skip) // depth) % workers]
                with phase("data.prefetch_wait"):
                    item = q.get()
                if item[0] == "error":
                    raise item[1]
                self._record_queue_depth(queues)
                yield item[1]
        finally:
            stop.set()
            for q in queues:
                while True:
                    try:
                        q.get_nowait()
                    except queue.Empty:
                        break
            for t in threads:
                t.join(timeout=_JOIN_TIMEOUT_S)
            if tracer is not None:
                tracer.record_span(
                    "pipeline.epoch", epoch_ctx, epoch_start,
                    time.monotonic(), span_id=epoch_ctx.span_id,
                    attrs={"num_workers": workers,
                           "batches": num_batches - skip})

    def _record_queue_depth(self, queues) -> None:
        if self._registry is None:
            return
        total = sum(q.qsize() for q in queues)
        self._registry.gauge("pipeline.prefetch_queue_depth").set(total)
