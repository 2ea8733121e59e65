"""Distributed-training benchmark: rows/sec scaling plus the bit-identity gate.

Times the full per-step protocol (forward/backward on every rank, gradient
pack, barrier, rank-0 fold/clip/step, parameter broadcast) at several
worker counts over an identical sharded training set, then runs the
determinism check the subsystem is named for: a 2-process run and its
single-process emulation must produce bitwise-identical step losses and
final weights (``max_param_divergence`` is required to be exactly 0.0 —
see ``scripts/check_bench.py``).

Where the speedup comes from — and does not.  This box (and CI) is a
single CPU core, so ranks timeshare: there is no parallel FLOP budget to
win.  The scaling lever is *partition cache locality*, the same lever the
pipeline bench measures: every process gets the same fixed LRU budget of
``cache_shards`` shards.  A single worker scanning all ``num_shards``
shards shuffled thrashes that LRU and pays a decompression per shard per
batch; two workers each own half the shards, the partitions fit their
caches, and decompression drops to one load per shard per run.  That is an
honest single-core throughput win (it is how the committed baseline was
produced), and on a multi-core machine the same harness additionally
overlaps rank compute.  The per-rank batch size is fixed, so worker counts
are weak scaling: the global batch is ``batch_size × num_procs``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..data.catalogs import load_dataset
from ..distributed import DistSpec, prepare_dist_data, run_distributed
from ..resilience.atomic import atomic_write_json
from .pipeline import _tile_dataset

__all__ = ["run_distributed_bench", "render_distributed_report"]

#: Per-process LRU budget (in shards) for every timed configuration — the
#: same fixed-budget rule the pipeline bench uses (its ``CACHE_SHARDS``).
CACHE_SHARDS = 4


def run_distributed_bench(
    dataset: str = "amazon-cds",
    scale: float = 0.4,
    seed: int = 0,
    rows: int = 8192,
    num_shards: int = 8,
    batch_size: int = 64,
    epochs: int = 2,
    proc_counts: tuple = (1, 2, 4),
    out_path: str | None = "BENCH_distributed.json",
) -> dict:
    """Run the benchmark and return (and optionally write) the report."""
    if 1 not in proc_counts:
        raise ValueError("proc_counts must include 1 (the scaling baseline)")
    data = load_dataset(dataset, scale=scale, seed=seed)
    train = _tile_dataset(data.train, rows)
    shard_size = -(-len(train) // num_shards)
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as tmp:
        train_dir, val_dir = prepare_dist_data(
            train, data.validation, Path(tmp), shard_size=shard_size)

        def spec(world: int) -> DistSpec:
            return DistSpec(
                model_name="DIN", miss=None, model_seed=seed + 1,
                train_dir=str(train_dir), val_dir=str(val_dir),
                config=dict(epochs=epochs, batch_size=batch_size,
                            eval_batch_size=512, learning_rate=1e-2,
                            weight_decay=1e-5, patience=max(3, epochs),
                            grad_clip=10.0, seed=seed),
                world_size=world, cache_shards=CACHE_SHARDS,
                checkpoint_dir=None, checkpoint_every=None)

        results = []
        single_rows_per_s = None
        two_proc = None
        for world in proc_counts:
            outcome = run_distributed(spec(world))
            if world == 2:
                two_proc = outcome
            # Epoch wall time covers the step loop only (eval excluded);
            # best-of-epochs, so warm-cache steady state is what's scored.
            epoch_s = min(outcome.epoch_seconds)
            rows_per_epoch = outcome.steps_per_epoch * batch_size * world
            rows_per_s = rows_per_epoch / epoch_s
            if world == 1:
                single_rows_per_s = rows_per_s
            results.append({
                "num_procs": int(world),
                "epoch_s": epoch_s,
                "rows_per_epoch": int(rows_per_epoch),
                "rows_per_s": rows_per_s,
                "speedup_vs_single": rows_per_s / single_rows_per_s,
                "steps_per_epoch": outcome.steps_per_epoch,
                "failed_ranks": 0,
            })

        # The gate this subsystem exists for: the 2-process run must equal
        # its single-process emulation bit for bit — same fold tree, same
        # per-rank RNG streams, same optimizer — at the same global batch.
        if two_proc is None:
            two_proc = run_distributed(spec(2))
        emulated = run_distributed(spec(2), emulate=True)
        identical = emulated.step_losses == two_proc.step_losses
        divergence = max(
            float(np.max(np.abs(emulated.final_state[k]
                                - two_proc.final_state[k])))
            for k in emulated.final_state)
        payload = {
            "benchmark": "distributed",
            "config": {
                "dataset": dataset, "scale": scale, "seed": seed,
                "rows": len(train), "num_shards": num_shards,
                "shard_size": shard_size, "batch_size": batch_size,
                "epochs": epochs, "cache_shards": CACHE_SHARDS,
            },
            "results": results,
            "bit_identity": {
                "world_size": 2,
                "steps": two_proc.steps,
                "loss_trajectory_identical": bool(identical),
                "max_param_divergence": divergence,
            },
        }
    if out_path:
        atomic_write_json(out_path, payload)
    return payload


def render_distributed_report(payload: dict) -> str:
    """Console table for a ``run_distributed_bench`` payload."""
    cfg = payload["config"]
    bit = payload["bit_identity"]
    lines = [
        f"distributed bench: {cfg['rows']} rows, "
        f"{cfg['num_shards']} shards x {cfg['shard_size']}, "
        f"batch {cfg['batch_size']}/rank, cache {cfg['cache_shards']} shards",
        f"{'procs':>6}{'epoch_s':>10}{'rows/s':>12}{'speedup':>9}"
        f"{'steps':>7}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['num_procs']:>6}{row['epoch_s']:>10.3f}"
            f"{row['rows_per_s']:>12.0f}"
            f"{row['speedup_vs_single']:>8.2f}x"
            f"{row['steps_per_epoch']:>7}")
    lines.append(
        f"bit-identity (2 procs vs emulation, {bit['steps']} steps): "
        f"losses {'identical' if bit['loss_trajectory_identical'] else 'DIVERGED'}, "
        f"max param divergence {bit['max_param_divergence']:g}")
    return "\n".join(lines)
