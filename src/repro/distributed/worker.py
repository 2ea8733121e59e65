"""The per-rank training loop of a data-parallel run.

``worker_main`` is the target every spawned process executes (and the
function the single-process emulator re-drives virtually, one rank at a
time).  A rank owns a disjoint round-robin partition of the training
shards, runs the existing model/optimizer math locally, and synchronises
with its peers through the :class:`~repro.distributed.shm.SharedArena`:

* **startup** — rank 0 packs its freshly built parameters into the shared
  parameter buffer; barrier A; every other rank unpacks, so all ranks open
  the run bitwise-identical.
* **per step** — each rank runs the first half of the shared training step
  (:func:`~repro.training.step.forward_backward`) on its own micro-batch,
  packs the flat gradient into its arena slot, then waits on barrier A.
  Rank 0 folds the slots and runs the second half
  (:func:`~.collective.apply_update`: reduce, scatter, clip, step the one
  real optimizer), packs the updated parameters and the reduced
  loss/grad-norm control words, and releases barrier B; the other ranks
  unpack the new parameters.  The optimizer therefore sees the mean
  gradient over ``world_size × batch_size`` rows — one global batch.
* **per epoch** — rank 0 evaluates on the validation split, applies the
  shared :class:`~repro.training.step.Selection` policy, and publishes
  the stop decision through the control word.  Every rank writes its own
  :class:`~repro.resilience.RunCheckpoint`; barrier C orders those files
  before rank 0 appends the commit record to ``dist-manifest.json`` — a
  commit only exists once every rank's checkpoint for that step exists.

A rank that dies (or is SIGKILLed by the ``fail_at`` chaos hook) leaves its
peers waiting at a barrier; the launcher notices the exit, aborts the
barriers, and surfaces a :class:`~.launcher.DistributedRunError`.  Resuming
from the last manifest commit is bit-identical because each checkpoint
carries the rank's loader RNG, module RNG streams, and (on rank 0) the
optimizer moments.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from threading import BrokenBarrierError  # mp barriers raise this too

from ..data.batching import DataLoader
from ..data.pipeline import ShardPartitionView, ShardedCTRDataset, \
    partition_shards
from ..models.base import CTRModel
from ..models.registry import create_model
from ..core import MISSConfig, attach_miss
from ..nn import Adam, set_backend
from ..obs import (
    DistSyncEvent,
    EpochStartEvent,
    EvalEndEvent,
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    RunStartEvent,
)
from ..resilience import CheckpointStore
from ..resilience.atomic import atomic_write_json
from ..resilience.sealed import read_record, write_record, write_sealed
from ..training import TrainConfig, evaluate
from ..training.step import RunState, forward_backward
from .collective import apply_update, rank_rng, reduce_mean, steps_per_epoch
from .shm import CTL_GRAD_NORM, CTL_LOSS, CTL_STOP, FlatLayout, SharedArena

__all__ = ["DistSpec", "build_model", "worker_main", "MANIFEST_NAME",
           "read_manifest", "rank_checkpoint_dir"]

#: Rank 0's commit record: which global steps have a full set of per-rank
#: checkpoints on disk (written atomically, after barrier C orders the files).
MANIFEST_NAME = "dist-manifest.json"
MANIFEST_KEEP = 8
MANIFEST_FORMAT_VERSION = 1
RESULT_FORMAT_VERSION = 1


class _NoOptimizer:
    """What ranks != 0 checkpoint in the optimizer's place: they never step;
    the one real optimizer lives on rank 0 and only its moments are
    restored."""

    def state_dict(self) -> dict:
        return {"kind": "none", "lr": 0.0, "weight_decay": 0.0, "arrays": {}}

    def load_state_dict(self, state: dict) -> None:
        pass


@dataclass(frozen=True)
class DistSpec:
    """Everything a spawned rank needs, as picklable primitives."""

    model_name: str
    miss: dict | None               # MISSConfig kwargs, or None for baseline
    model_seed: int                 # create_model seed (MISS seed rides in miss)
    backend: str                    # nn backend name, pinned across ranks
    train_dir: str                  # sharded training split (partition source)
    val_dir: str                    # sharded validation split (rank 0 eval)
    config: dict                    # TrainConfig kwargs; batch_size is per-rank
    world_size: int
    cache_shards: int               # per-process LRU budget (locality knob)
    checkpoint_dir: str | None
    checkpoint_every: int | None
    keep_checkpoints: int = 3
    resume_step: int | None = None  # manifest-selected commit to restart from
    log_jsonl: str | None = None    # per-rank traces at "<path>.rank<r>"
    fail_at: tuple[int, int] | None = None  # (rank, step): SIGKILL chaos hook
    barrier_timeout_s: float = 120.0


def build_model(spec: DistSpec, schema) -> CTRModel:
    """The model every rank (and the emulator) builds identically."""
    model = create_model(spec.model_name, schema, seed=spec.model_seed)
    if spec.miss is not None:
        kwargs = dict(spec.miss)
        for key in ("interest_encoder_sizes", "feature_encoder_sizes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        model = attach_miss(model, MISSConfig(**kwargs))
    return model


def rank_checkpoint_dir(checkpoint_dir: str | Path, rank: int) -> Path:
    return Path(checkpoint_dir) / f"rank-{rank:02d}"


def read_manifest(checkpoint_dir: str | Path) -> dict | None:
    """The commit manifest, ``None`` if the run never committed; a manifest
    that does not verify raises ``resilience.sealed.SealError``."""
    path = Path(checkpoint_dir) / MANIFEST_NAME
    if not path.exists():
        return None
    return read_record(path, MANIFEST_FORMAT_VERSION)


def _write_manifest(checkpoint_dir: Path, world_size: int,
                    commits: list[dict]) -> None:
    write_record(checkpoint_dir / MANIFEST_NAME, {
        "format_version": MANIFEST_FORMAT_VERSION,
        "world_size": world_size,
        "commits": commits[-MANIFEST_KEEP:],
    })


def worker_main(rank: int, spec: DistSpec, arena_spec, barriers,
                workdir: str) -> None:
    """Entry point of rank ``rank`` (run in a spawned process)."""
    try:
        _run_rank(rank, spec, arena_spec, barriers, Path(workdir))
    except BrokenBarrierError:
        # A peer died (or the launcher aborted us); the launcher reports the
        # original failure, so exit quietly but non-zero.
        raise SystemExit(3)


def _run_rank(rank: int, spec: DistSpec, arena_spec, barriers,
              workdir: Path) -> None:
    barrier_a, barrier_b, barrier_c = barriers
    timeout = spec.barrier_timeout_s
    set_backend(spec.backend)
    cfg = TrainConfig(**spec.config)
    world = spec.world_size

    train = ShardedCTRDataset(spec.train_dir, cache_shards=spec.cache_shards)
    parts = partition_shards(train.num_shards, world)
    view = ShardPartitionView(train, parts[rank])
    rows = train.shard_rows()
    part_rows = [sum(rows[i] for i in shard_ids) for shard_ids in parts]
    steps = steps_per_epoch(part_rows, cfg.batch_size)

    model = build_model(spec, train.schema)
    params = model.parameters()
    layout = FlatLayout.from_parameters(model.named_parameters())
    arena = SharedArena.attach(arena_spec)
    optimizer = (Adam(params, lr=cfg.learning_rate,
                      weight_decay=cfg.weight_decay) if rank == 0
                 else _NoOptimizer())
    validation = (ShardedCTRDataset(spec.val_dir).materialize()
                  if rank == 0 else None)

    registry = MetricRegistry()
    prefix = f"dist.rank.{rank}"
    steps_counter = registry.counter(f"{prefix}.steps")
    rows_counter = registry.counter(f"{prefix}.rows")
    wait_hist = registry.histogram(f"{prefix}.allreduce_wait_ms")
    reduce_hist = (registry.histogram("dist.reduce_ms") if rank == 0 else None)
    trace = (JsonlTraceWriter(f"{spec.log_jsonl}.rank{rank}")
             if spec.log_jsonl else None)
    obs = ObserverList.build([trace] if trace is not None else [])
    view.bind_telemetry(registry=registry, observers=obs)

    store = None
    if spec.checkpoint_dir is not None:
        store = CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, rank),
                                keep_last=spec.keep_checkpoints)
    manifest_commits: list[dict] = []
    manifest = (read_manifest(spec.checkpoint_dir)
                if rank == 0 and spec.checkpoint_dir is not None else None)
    if manifest is not None:
        manifest_commits = list(manifest["commits"])

    rng = rank_rng(cfg.seed, rank)
    loader = DataLoader(view, batch_size=cfg.batch_size, shuffle=True, rng=rng)
    state = RunState(rng, model, optimizer,
                     {**spec.config, "world_size": world})
    selection = state.selection      # rank 0 only: validation + selection
    step_losses: list[float] = []    # rank 0 only: every reduced step loss

    if spec.resume_step is not None:
        if store is None:
            raise ValueError("resume_step requires checkpoint_dir")
        state.restore(store.load_step(spec.resume_step))
        if rank == 0:
            # Reduced per-step losses live in the manifest commit, not the
            # checkpoint (RunCheckpoint has no such field); JSON float64
            # round-trips exactly, so the resumed trajectory concatenates
            # bit-identically.
            commit = next((c for c in manifest_commits
                           if c["step"] == spec.resume_step), None)
            if commit is not None:
                step_losses = list(commit["step_losses"])

    if rank == 0:
        obs.emit(RunStartEvent(
            model=type(model).__name__, num_train=len(train),
            num_validation=len(validation),
            config={**spec.config, "world_size": world,
                    "backend": spec.backend}))

    def commit_manifest(completed: bool) -> None:
        manifest_commits.append({
            "step": state.step, "epoch": state.epoch,
            "batches_done": state.batches_done, "completed": completed,
            "step_losses": [float(v) for v in step_losses],
        })
        _write_manifest(Path(spec.checkpoint_dir), world, manifest_commits)

    def sync_checkpoint() -> None:
        """All ranks persist the current step, then rank 0 commits."""
        state.save(store)
        barrier_c.wait(timeout=timeout)
        if rank == 0:
            commit_manifest(completed=False)

    # Startup broadcast: every rank opens on rank 0's exact initial weights
    # (they are already identical by construction — same seed, same backend —
    # but routing them through the float64 buffer makes that a checked
    # invariant rather than an assumption).
    if rank == 0:
        layout.pack_params(params, arena.params)
    barrier_a.wait(timeout=timeout)
    if rank != 0:
        layout.unpack_params(arena.params, params)

    model.train()
    run_start = time.perf_counter()
    epoch_seconds: list[float] = []
    while True:
        epoch = state.epoch
        skip = state.begin_epoch()
        if rank == 0 and skip == 0:
            obs.emit(EpochStartEvent(epoch=epoch))
        epoch_start = time.perf_counter()
        batch_iter = loader.iter_batches(skip=skip)
        for _ in range(steps - skip):
            batch = next(batch_iter)
            arena.losses[rank] = forward_backward(model, batch, params)
            layout.pack_grads(params, arena.grad_slot(rank))
            if spec.fail_at is not None and spec.fail_at == (rank, state.step):
                # Chaos hook: die exactly where it hurts — gradients
                # published, barrier not yet reached.  SIGKILL means no
                # finally-blocks, no flush: the real failure mode.
                os.kill(os.getpid(), signal.SIGKILL)
            wait_start = time.perf_counter()
            barrier_a.wait(timeout=timeout)
            wait_ms = (time.perf_counter() - wait_start) * 1e3
            if rank == 0:
                reduce_start = time.perf_counter()
                grad_norm = apply_update(optimizer, layout,
                                         arena.grad_slots(), cfg.grad_clip)
                mean_loss = reduce_mean([float(v) for v in arena.losses])
                layout.pack_params(params, arena.params)
                arena.ctl[CTL_LOSS] = mean_loss
                arena.ctl[CTL_GRAD_NORM] = grad_norm
                reduce_hist.record((time.perf_counter() - reduce_start) * 1e3)
            barrier_b.wait(timeout=timeout)
            if rank != 0:
                layout.unpack_params(arena.params, params)
            mean_loss = float(arena.ctl[CTL_LOSS])
            state.record_step(mean_loss)
            if rank == 0:
                step_losses.append(mean_loss)
            steps_counter.inc()
            rows_counter.inc(len(batch.labels))
            wait_hist.record(wait_ms)
            obs.emit(DistSyncEvent(
                rank=rank, world_size=world, step=state.step,
                epoch=epoch, wait_ms=wait_ms, loss=mean_loss))
            if (store is not None and spec.checkpoint_every
                    and state.step % spec.checkpoint_every == 0):
                sync_checkpoint()
        epoch_seconds.append(time.perf_counter() - epoch_start)

        # Epoch end: rank 0 evaluates and owns the selection + stop decision;
        # everyone learns it through the control word after barrier C.
        train_loss = state.end_epoch()
        if rank == 0:
            result = evaluate(model, validation, batch_size=cfg.eval_batch_size)
            obs.emit(EvalEndEvent(
                epoch=epoch, split="validation", auc=result.auc,
                logloss=result.logloss, train_loss=train_loss))
            selection.update(result, model)
            arena.ctl[CTL_STOP] = 1.0 if selection.should_stop(cfg) else 0.0
        if store is not None:
            sync_checkpoint()
        else:
            barrier_c.wait(timeout=timeout)
        if arena.ctl[CTL_STOP] >= 1.0:
            break

    if rank == 0:
        best_state = selection.best_or_raise()
        model.load_state_dict(best_state)
        state.completed = True
        if store is not None:
            # Same step number as the last epoch-end save, so this
            # atomically replaces rank 0's file; the fresh commit flags the
            # run complete.
            state.save(store, is_best=True)
            commit_manifest(completed=True)
        write_sealed(
            workdir / "final_state.npz", workdir / "result.json", best_state,
            {"format_version": RESULT_FORMAT_VERSION, **result_payload(
                world, selection, state.step, state.losses, step_losses,
                steps, part_rows, epoch_seconds,
                time.perf_counter() - run_start)})
    _dump_metrics(registry, rank, workdir)
    if trace is not None:
        trace.close()


def result_payload(world_size, selection, steps_done, train_losses,
                   step_losses, steps, part_rows, epoch_seconds,
                   wall_time_s) -> dict:
    """What a finished run reports (``result.json``), in either mode."""
    return {
        "world_size": world_size,
        "best_epoch": selection.best_epoch,
        "epochs_run": len(selection.history),
        "steps": steps_done,
        "steps_per_epoch": steps,
        "partition_rows": [int(r) for r in part_rows],
        "history": [{"auc": float(r.auc), "logloss": float(r.logloss)}
                    for r in selection.history],
        "train_losses": [float(v) for v in train_losses],
        "step_losses": [float(v) for v in step_losses],
        "epoch_seconds": [float(s) for s in epoch_seconds],
        "wall_time_s": float(wall_time_s),
        "completed": True,
    }


def _dump_metrics(registry: MetricRegistry, rank: int, workdir: Path) -> None:
    atomic_write_json(workdir / f"metrics-rank{rank}.json",
                      registry.snapshot())
