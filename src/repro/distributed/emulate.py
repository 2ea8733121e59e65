"""Single-process emulation of a W-rank data-parallel run.

The determinism contract of :mod:`repro.distributed` is that a training
trajectory is a pure function of ``(seed, world_size)`` — the number of OS
processes executing it never changes a bit.  This module is the other half
of that claim: it drives the *same* W-rank schedule (same shard partitions,
same per-rank loader RNG streams, same per-rank module RNG streams, same
:func:`~.collective.pairwise_fold` reduction tree, same optimizer) inside
one process, one model, by swapping per-virtual-rank RNG states around each
micro-batch.  ``scripts/distributed_smoke.py`` and
``tests/test_distributed.py`` compare a real N-process run against this
emulation and assert bitwise equality of every step loss and every final
parameter.

It is also the practical ``--num-procs N --dist-emulate`` path for running
the W-rank math on machines where spawning processes is unwanted, and the
reference comparator the issue calls "the 1-proc run at equal global batch
size": W micro-batches summed over the fixed fold tree *is* the global
batch of ``W × batch_size`` rows.

Resume is intentionally unsupported here (process mode owns checkpointing);
the emulator always runs start-to-finish.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.batching import DataLoader
from ..data.pipeline import ShardPartitionView, ShardedCTRDataset, \
    partition_shards
from ..nn import Adam
from ..obs import MetricRegistry
from ..resilience import named_rng_states, restore_rng_states
from ..training import TrainConfig, evaluate
from ..training.step import Selection, forward_backward
from .collective import apply_update, rank_rng, reduce_mean, steps_per_epoch
from .shm import FlatLayout
from .worker import DistSpec, build_model, result_payload

__all__ = ["run_emulated"]


def _buffer_state(model) -> dict[str, np.ndarray]:
    return {name: b.value.copy() for name, b in model.named_buffers()}


def _restore_buffers(model, state: dict[str, np.ndarray]) -> None:
    for name, b in model.named_buffers():
        b.value = state[name].copy()


def run_emulated(spec: DistSpec) -> dict:
    """Run ``spec`` start-to-finish in one process; returns the same payload
    shape rank 0 writes to ``result.json``, plus the final weights."""
    if spec.resume_step is not None:
        raise ValueError("emulation mode cannot resume; run process mode "
                         "(num_procs > 1) against the checkpoint directory")
    if spec.fail_at is not None:
        raise ValueError("fail_at chaos injection requires process mode")
    cfg = TrainConfig(**spec.config)
    world = spec.world_size

    train = ShardedCTRDataset(spec.train_dir, cache_shards=spec.cache_shards)
    parts = partition_shards(train.num_shards, world)
    views = [ShardPartitionView(train, shard_ids) for shard_ids in parts]
    rows = train.shard_rows()
    part_rows = [sum(rows[i] for i in shard_ids) for shard_ids in parts]
    steps = steps_per_epoch(part_rows, cfg.batch_size)
    validation = ShardedCTRDataset(spec.val_dir).materialize()

    model = build_model(spec, train.schema)
    params = model.parameters()
    layout = FlatLayout.from_parameters(model.named_parameters())
    optimizer = Adam(params, lr=cfg.learning_rate,
                     weight_decay=cfg.weight_decay)

    # Every virtual rank starts from the same module RNG states (all ranks
    # build the model from the same seed) and then advances its own copy —
    # exactly what W separate processes would do.  Buffers (Dice running
    # stats) get the same treatment: the allreduce broadcasts parameters
    # only, so in process mode each rank's buffers drift with its own
    # micro-batches and evaluation/selection run under rank 0's.
    mod_states = [named_rng_states(model) for _ in range(world)]
    buf_states = [_buffer_state(model) for _ in range(world)]
    loaders = [DataLoader(views[r], batch_size=cfg.batch_size, shuffle=True,
                          rng=rank_rng(cfg.seed, r)) for r in range(world)]
    grad_parts = [np.empty(layout.size, dtype=np.float64)
                  for _ in range(world)]

    registry = MetricRegistry()
    steps_counters = [registry.counter(f"dist.rank.{r}.steps")
                      for r in range(world)]
    rows_counters = [registry.counter(f"dist.rank.{r}.rows")
                     for r in range(world)]

    selection = Selection()
    train_losses, step_losses, epoch_seconds = [], [], []

    model.train()
    run_start = time.perf_counter()
    while True:
        epoch_start = time.perf_counter()
        iters = [loader.iter_batches() for loader in loaders]
        epoch_loss = 0.0
        for _ in range(steps):
            losses = []
            for r in range(world):
                # Swap in rank r's private module RNG streams and buffer
                # values for its micro-batch (MISS SSL pair sampling and
                # dropout draw RNG in the training forward; Dice updates its
                # running stats), then capture where they advanced to.
                restore_rng_states(model, mod_states[r])
                _restore_buffers(model, buf_states[r])
                batch = next(iters[r])
                losses.append(forward_backward(model, batch, params))
                layout.pack_grads(params, grad_parts[r])
                mod_states[r] = named_rng_states(model)
                buf_states[r] = _buffer_state(model)
                steps_counters[r].inc()
                rows_counters[r].inc(len(batch.labels))
            apply_update(optimizer, layout, grad_parts, cfg.grad_clip)
            mean_loss = reduce_mean(losses)
            epoch_loss += mean_loss
            step_losses.append(float(mean_loss))
        epoch_seconds.append(time.perf_counter() - epoch_start)

        train_losses.append(epoch_loss / max(steps, 1))
        # Evaluation and selection are rank 0's in process mode, so they run
        # under rank 0's buffer view here (eval mode draws no RNG and reads
        # running stats without updating them).
        _restore_buffers(model, buf_states[0])
        result = evaluate(model, validation, batch_size=cfg.eval_batch_size)
        selection.update(result, model)
        if selection.should_stop(cfg):
            break

    return {
        "mode": "emulated",
        **result_payload(world, selection, len(step_losses), train_losses,
                         step_losses, steps, part_rows, epoch_seconds,
                         time.perf_counter() - run_start),
        "final_state": selection.best_or_raise(),
        "metrics": registry.snapshot(),
    }
