"""Data-pipeline benchmark: sequential vs. prefetching batch assembly.

Times one full shuffled epoch over a sharded on-disk training set, for the
sequential loader (``num_workers=0`` — per-batch gather through a small LRU
shard cache, exactly what ``DataLoader`` does over a ``ShardedCTRDataset``)
and for ``PrefetchLoader`` at several worker counts.  The prefetch
configurations win by *doing less work*, not just overlapping it: a worker
gathers a whole window of ``prefetch_depth`` batches per shard visit, so
each shard is decompressed once per window instead of once per batch —
under shuffled access the sequential loader's LRU thrashes and reloads
nearly every shard for every batch.

The train split of a simulated dataset is tiled up to ``rows`` rows so the
shard set decisively exceeds any cache; rows/sec numbers are therefore
about batch *assembly*, deliberately excluding model compute.  The report
is written to ``BENCH_pipeline.json`` (best-of-N timing, atomic JSON
publish).
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from ..data.batching import CTRDataset, DataLoader
from ..data.catalogs import load_dataset
from ..data.pipeline import PrefetchLoader, ShardedCTRDataset, write_shards
from ..resilience.atomic import atomic_write_json

__all__ = ["run_pipeline_bench", "render_pipeline_report"]

#: LRU capacity (in shards) used for every timed configuration.
CACHE_SHARDS = 4


def _tile_dataset(dataset: CTRDataset, rows: int) -> CTRDataset:
    """Repeat ``dataset`` whole until it holds at least ``rows`` rows."""
    reps = max(1, -(-rows // len(dataset)))
    if reps == 1:
        return dataset
    return CTRDataset(
        schema=dataset.schema,
        categorical=np.tile(dataset.categorical, (reps, 1)),
        sequences=np.tile(dataset.sequences, (reps, 1, 1)),
        mask=np.tile(dataset.mask, (reps, 1)),
        labels=np.tile(dataset.labels, reps),
    )


def _time_epoch(make_loader, seed: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time (s) for one full epoch of batches."""
    best = float("inf")
    for rep in range(repeats):
        loader = make_loader(np.random.default_rng(seed + rep))
        start = time.perf_counter()
        consumed = 0
        for batch in loader.iter_batches():
            consumed += len(batch)
        elapsed = time.perf_counter() - start
        if consumed != len(loader.dataset):
            raise RuntimeError(
                f"epoch consumed {consumed} rows, expected "
                f"{len(loader.dataset)}"
            )
        best = min(best, elapsed)
    return best


def run_pipeline_bench(
    dataset: str = "amazon-cds",
    scale: float = 0.4,
    seed: int = 0,
    rows: int = 16384,
    batch_size: int = 256,
    shard_size: int = 512,
    prefetch_depth: int = 8,
    worker_counts: tuple = (1, 2, 4),
    repeats: int = 3,
    out_path: str | None = "BENCH_pipeline.json",
) -> dict:
    """Run the benchmark and return (and optionally write) the report."""
    data = load_dataset(dataset, scale=scale, seed=seed)
    train = _tile_dataset(data.train, rows)
    with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as tmp:
        write_shards(train, tmp, shard_size=shard_size, compressed=True)
        sharded = ShardedCTRDataset(tmp, cache_shards=CACHE_SHARDS)

        def sequential(rng):
            return DataLoader(
                sharded,
                batch_size=batch_size,
                shuffle=True,
                rng=rng,
            )

        def prefetch(workers):
            def make(rng):
                return PrefetchLoader(
                    sharded,
                    batch_size=batch_size,
                    shuffle=True,
                    rng=rng,
                    num_workers=workers,
                    prefetch_depth=prefetch_depth,
                )

            return make

        def in_memory(rng):
            return DataLoader(
                train,
                batch_size=batch_size,
                shuffle=True,
                rng=rng,
            )

        results = []
        n = len(train)
        seq_s = _time_epoch(sequential, seed, repeats)
        results.append(
            {
                "mode": "sequential",
                "num_workers": 0,
                "epoch_s": seq_s,
                "rows_per_s": n / seq_s,
                "speedup_vs_sequential": 1.0,
            }
        )
        for workers in worker_counts:
            epoch_s = _time_epoch(prefetch(workers), seed, repeats)
            results.append(
                {
                    "mode": "prefetch",
                    "num_workers": int(workers),
                    "epoch_s": epoch_s,
                    "rows_per_s": n / epoch_s,
                    "speedup_vs_sequential": seq_s / epoch_s,
                }
            )
        mem_s = _time_epoch(in_memory, seed, repeats)
        results.append(
            {
                "mode": "in_memory_reference",
                "num_workers": 0,
                "epoch_s": mem_s,
                "rows_per_s": n / mem_s,
                "speedup_vs_sequential": seq_s / mem_s,
            }
        )
        payload = {
            "benchmark": "pipeline",
            "config": {
                "dataset": dataset,
                "scale": scale,
                "seed": seed,
                "rows": n,
                "batch_size": batch_size,
                "shard_size": shard_size,
                "num_shards": sharded.num_shards,
                "prefetch_depth": prefetch_depth,
                "cache_shards": CACHE_SHARDS,
                "repeats": repeats,
            },
            "results": results,
        }
    if out_path:
        atomic_write_json(out_path, payload)
    return payload


def render_pipeline_report(payload: dict) -> str:
    """Console table for a ``run_pipeline_bench`` payload."""
    cfg = payload["config"]
    lines = [
        f"pipeline bench: {cfg['rows']} rows, "
        f"{cfg['num_shards']} shards x {cfg['shard_size']}, "
        f"batch {cfg['batch_size']}, depth {cfg['prefetch_depth']}",
        f"{'mode':<22}{'workers':>8}{'epoch_s':>10}"
        f"{'rows/s':>12}{'speedup':>9}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['mode']:<22}{row['num_workers']:>8}"
            f"{row['epoch_s']:>10.3f}{row['rows_per_s']:>12.0f}"
            f"{row['speedup_vs_sequential']:>8.2f}x"
        )
    return "\n".join(lines)
