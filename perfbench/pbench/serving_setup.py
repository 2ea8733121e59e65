"""What both serving workloads share: the exported DIN+MISS artifact, a
pool of distinct request rows, the offline reference scores, and the probe
that stands in for the session to time the blocked forward."""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.data import Batch, load_dataset
from repro.serving import (
    PARITY_BLOCK,
    InferenceSession,
    dataset_rows,
    export_artifact,
    forward_logits,
    row_key,
)

from .common import Ctx, RateSampler, build_din, miss_config
from .spans import SpanRecorder
from .speed import SpeedReference

__all__ = ["ServingBase", "ForwardProbe", "ReferenceScorer", "build_serving",
           "histogram_quantile_ms", "batcher_counters"]

_REFERENCE_CHUNK = 512


@dataclass
class ServingBase:
    session: InferenceSession
    pool: list                  # (categorical, sequences, mask) per row
    artifact: object            # Path

    def teardown(self) -> None:
        shutil.rmtree(self.artifact, ignore_errors=True)


def build_serving(ctx: Ctx) -> ServingBase:
    sizes = ctx.sizes
    data = load_dataset(sizes.dataset, scale=sizes.serve_scale,
                        seed=ctx.seed)
    pool, seen = [], set()
    for split in (data.train, data.validation, data.test):
        for row in dataset_rows(split):
            key = row_key(*row)
            if key not in seen:
                seen.add(key)
                pool.append(row)
    if len(pool) < sizes.pool_rows:
        raise RuntimeError(
            f"seed {ctx.seed} yields {len(pool)} distinct rows; the pool "
            f"needs {sizes.pool_rows} (2x the row cache) so that the cache "
            f"never hits")
    pool = pool[:sizes.pool_rows]
    # Weights are as initialised: scoring cost does not depend on their
    # values, and the bit-for-bit check holds for any weights.
    model = build_din(data.schema, ctx.seed, miss=True)
    artifact = ctx.work_dir / "artifact"
    shutil.rmtree(artifact, ignore_errors=True)
    export_artifact(model, artifact, model_name="DIN",
                    miss_config=miss_config(ctx.seed))
    return ServingBase(session=InferenceSession.load(artifact), pool=pool,
                       artifact=artifact)


class ReferenceScorer:
    """Offline ``forward_logits`` of the pool, 512 rows at a time: the
    reference every served score is checked against, and (each chunk timed
    by a :class:`RateSampler`) the offline scoring rate."""

    def __init__(self, base: ServingBase, speed: SpeedReference):
        self.base = base
        self.sampler = RateSampler(speed)
        self._outputs: list[np.ndarray] = []

    def _score_chunks(self, count: int) -> None:
        session, pool = self.base.session, self.base.pool
        for _ in range(count):
            start = len(self._outputs) * _REFERENCE_CHUNK
            rows = pool[start:start + _REFERENCE_CHUNK]
            batch = Batch(categorical=np.stack([r[0] for r in rows]),
                          sequences=np.stack([r[1] for r in rows]),
                          mask=np.stack([r[2] for r in rows]),
                          labels=np.zeros(len(rows)))
            self._outputs.append(self.sampler.time(
                lambda: forward_logits(session.model, batch,
                                       block_size=session.block_size,
                                       backend=session.backend),
                len(rows)))

    def _chunks_left(self) -> int:
        total = -(-len(self.base.pool) // _REFERENCE_CHUNK)
        return total - len(self._outputs)

    def score_half(self) -> None:
        """Half of what is left: once before the window, once after."""
        self._score_chunks(-(-self._chunks_left() // 2))

    def logits(self) -> np.ndarray:
        self._score_chunks(self._chunks_left())
        return np.concatenate(self._outputs)


class ForwardProbe:
    """Given to an engine in place of the session: same scores, and each
    ``score_batch`` call is timed and counted from outside."""

    def __init__(self, session: InferenceSession,
                 recorder: SpanRecorder | None = None):
        self._session = session
        self.recorder = recorder
        #: span the next calls belong to (set by a single-flight caller)
        self.parent: int | None = None
        self.ref = None
        self.calls: list[tuple[float, int, int]] = []   # ms, rows, blocks

    def __getattr__(self, name: str):
        return getattr(self._session, name)

    def score_batch(self, batch: Batch) -> np.ndarray:
        start = time.perf_counter()
        logits = self._session.score_batch(batch)
        end = time.perf_counter()
        rows = len(batch)
        self.calls.append(((end - start) * 1000.0, rows,
                           -(-rows // PARITY_BLOCK)))
        if self.recorder is not None:
            self.recorder.record("serving.forward.score_batch", start, end,
                                 ref=self.ref, parent=self.parent)
        return logits

    def summary(self, since: int = 0) -> dict[str, float]:
        calls = self.calls[since:]
        if not calls:
            return {"serving.forward.block_ms_p50": 0.0,
                    "serving.forward.calls": 0.0,
                    "serving.forward.useful_row_share": 0.0}
        ms, rows, blocks = (np.array(column, dtype=np.float64)
                            for column in zip(*calls))
        return {
            "serving.forward.block_ms_p50": float(np.median(ms / blocks)),
            "serving.forward.calls": float(len(calls)),
            "serving.forward.useful_row_share":
                float(rows.sum() / (blocks.sum() * PARITY_BLOCK)),
        }


def histogram_quantile_ms(snapshot: dict | None, q: float) -> float:
    """Quantile of a ``FixedBucketHistogram`` snapshot (seconds -> ms),
    linear inside the bucket as Prometheus' ``histogram_quantile`` does."""
    if not snapshot or not snapshot.get("count"):
        return 0.0
    target = q * snapshot["count"]
    lower, below = 0.0, 0
    for bound, cumulative in snapshot["buckets"].items():
        if cumulative >= target:
            if bound == "+Inf":
                return lower * 1000.0
            upper = float(bound)
            inside = cumulative - below
            share = (target - below) / inside if inside else 1.0
            return (lower + (upper - lower) * share) * 1000.0
        lower, below = float(bound), cumulative
    return lower * 1000.0


def batcher_counters(stats: dict) -> dict[str, float]:
    """The ``serving.batcher.*`` counters out of ``engine.stats()``."""
    metrics = stats["metrics"]
    batch_size = metrics.get("serve.batch_size", {})
    depth = metrics.get("serve.queue_depth", {})
    return {
        "serving.batcher.batches":
            float(metrics.get("serve.batches", {}).get("value", 0.0)),
        "serving.batcher.batch_size_mean":
            float(batch_size.get("mean") or 0.0),
        "serving.batcher.queue_wait_ms_p50": histogram_quantile_ms(
            metrics.get("serve.queue_wait_seconds"), 0.5),
        "serving.batcher.queue_depth_max": float(depth.get("max") or 0.0),
        "serving.batcher.cache_hit_ratio":
            float(stats["cache"]["hit_rate"] or 0.0),
    }
