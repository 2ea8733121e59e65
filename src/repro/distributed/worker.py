"""The per-rank training loop of a data-parallel run, and its two drivers.

:func:`rank_loop` is one rank's whole run, written once as a generator
that yields a barrier label (``"A"``, ``"B"``, ``"C"``) at every collective
point and continues once every rank has reached it.  Two drivers run it:

* :func:`worker_main` — process mode, the target every spawned process
  executes: each yield becomes a timed wait on that label's shared
  barrier (barrier A's wait is ``dist.rank.<r>.allreduce_wait_ms``), and
  the ``fail_at`` chaos hook SIGKILLs the process just before barrier A.
* :func:`emulate_ranks` — emulation: all W loops in one process, advanced
  round-robin in rank order, one round per barrier.  Each virtual rank
  builds its own model from the same seed, exactly as a process does, so
  its module RNG streams and Dice buffers are its own and nothing is
  swapped.  No rank blocks, so every wait reads 0.0.

Either way, rank ``r`` owns a disjoint round-robin partition of the
training shards, holds its own model and its own :class:`~repro.nn.Adam`,
and synchronises with its peers through the one
:class:`~repro.distributed.shm.SharedArena`:

* **per step** — each rank runs the first half of the shared training step
  (:func:`~repro.training.step.forward_backward`) on its own micro-batch,
  copies its gradient vector (zero where a parameter has none) into its
  arena slot, its touched flags into its ``touched`` row and its loss into
  the losses vector, then waits on barrier A.  Every rank then folds the
  same slots and runs the second half (:func:`~.collective.apply_update`:
  reduce, clip, step its Adam, skipping a parameter no rank touched) and
  takes the mean loss; barrier B keeps any rank from overwriting its slot
  before every peer has read it.  Each optimizer therefore sees the mean
  gradient over ``world_size × batch_size`` rows — one global batch — and
  the replicas stay bitwise equal: one fold tree, the same float64
  arithmetic, one BLAS thread per rank.
* **per epoch** — rank 0 evaluates on the validation split, applies the
  shared :class:`~repro.training.step.Selection` policy, and publishes
  the stop decision through ``CTL_STOP``.  Every rank writes its own
  :class:`~repro.resilience.RunCheckpoint`; barrier C orders those files
  before rank 0 appends the commit record to ``dist-manifest.json`` — a
  commit only exists once every rank's checkpoint for that step exists.
  The stop epoch's commit, flagged ``completed``, is the run's last; no
  step is committed twice.

A rank process that dies (or is SIGKILLed by ``fail_at``) leaves its peers
waiting at a barrier; the launcher notices the exit, aborts the barriers,
and surfaces a :class:`~.launcher.DistributedRunError`.  Resuming from the
last manifest commit is bit-identical, in either mode, because each
checkpoint carries the rank's weights, Adam moments, loader RNG and module
RNG streams.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from threading import BrokenBarrierError  # mp barriers raise this too

import numpy as np

from ..data.batching import DataLoader
from ..data.pipeline import ShardPartitionView, ShardedCTRDataset, \
    partition_shards
from ..models.base import CTRModel
from ..models.registry import create_model
from ..core import MISSConfig, attach_miss
from ..nn import Adam
from ..obs import (
    DistSyncEvent,
    EpochStartEvent,
    EvalEndEvent,
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    RunStartEvent,
)
from ..resilience import CheckpointStore, RunCheckpoint
from ..resilience.atomic import atomic_write_json
from ..resilience.sealed import (read_arrays, read_record, write_record,
                                 write_sealed)
from ..training import TrainConfig, evaluate
from ..training.step import RunState, forward_backward
from .collective import apply_update, rank_rng, reduce_mean, steps_per_epoch
from .shm import CTL_STOP, SharedArena

__all__ = ["DistSpec", "DistResult", "PartitionError", "build_model",
           "partition_plan", "rank_loop", "worker_main", "emulate_ranks",
           "MANIFEST_NAME", "read_manifest", "rank_checkpoint_dir"]

#: Rank 0's commit record: which global steps have a full set of per-rank
#: checkpoints on disk (written atomically, after barrier C orders the files).
MANIFEST_NAME = "dist-manifest.json"
MANIFEST_KEEP = 8
MANIFEST_FORMAT_VERSION = 1
RESULT_FORMAT_VERSION = 1


@dataclass
class DistResult:
    """Harvested outcome of one run, in process mode or emulated.

    Rank 0 builds one and writes it (:meth:`write`); the launcher reads it
    back (:meth:`read`) and fills in ``mode`` and ``metrics``.
    """

    world_size: int
    best_epoch: int
    epochs_run: int
    steps: int
    steps_per_epoch: int
    partition_rows: list[int]
    history: list[dict]             # [{"auc", "logloss"}] per epoch
    train_losses: list[float]
    step_losses: list[float]
    epoch_seconds: list[float]
    wall_time_s: float
    final_state: dict[str, np.ndarray]
    # Set by the launcher: "process" | "emulated" | "resumed-complete".
    mode: str = ""
    metrics: dict = field(default_factory=dict)

    #: Not entries of ``result.json`` (``final_state`` is its sealed arrays).
    _OFF_RECORD = ("final_state", "mode", "metrics")

    def write(self, workdir: Path) -> None:
        write_sealed(workdir / "final_state.npz", workdir / "result.json",
                     self.final_state, {
                         "format_version": RESULT_FORMAT_VERSION,
                         **{f.name: getattr(self, f.name) for f in fields(self)
                            if f.name not in self._OFF_RECORD}})

    @classmethod
    def read(cls, workdir: Path, mode: str, metrics: dict) -> "DistResult":
        record = read_record(workdir / "result.json", RESULT_FORMAT_VERSION,
                             seal_key="arrays")
        return cls(mode=mode, metrics=metrics,
                   final_state=read_arrays(workdir / "final_state.npz",
                                           record["arrays"]),
                   **{f.name: record[f.name] for f in fields(cls)
                      if f.name not in cls._OFF_RECORD})


@dataclass(frozen=True)
class DistSpec:
    """Everything a rank needs, as picklable primitives."""

    model_name: str
    miss: dict | None               # MISSConfig kwargs, or None for baseline
    model_seed: int                 # create_model seed (MISS seed rides in miss)
    train_dir: str                  # sharded training split (partition source)
    val_dir: str                    # sharded validation split (rank 0 eval)
    config: dict                    # TrainConfig kwargs; batch_size is per-rank
    world_size: int
    cache_shards: int               # per-rank LRU budget (locality knob)
    checkpoint_dir: str | None
    checkpoint_every: int | None
    keep_checkpoints: int = 3
    resume_step: int | None = None  # manifest-selected commit to restart from
    log_jsonl: str | None = None    # per-rank traces at "<path>.rank<r>"
    fail_at: tuple[int, int] | None = None  # (rank, step): SIGKILL chaos hook
    barrier_timeout_s: float = 120.0


def build_model(spec: DistSpec, schema) -> CTRModel:
    """The model every rank builds identically."""
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


class PartitionError(ValueError):
    """The training shards cannot give every rank at least one batch."""


def partition_plan(train: ShardedCTRDataset, world_size: int,
                   batch_size: int) -> tuple[list[list[int]], list[int], int]:
    """Each rank's shard ids, each partition's rows, and the lockstep step
    count.  Raises :class:`PartitionError` when ``world_size`` exceeds the
    shard count or a partition holds less than one batch."""
    try:
        parts = partition_shards(train.num_shards, world_size)
        rows = train.shard_rows()
        part_rows = [sum(rows[i] for i in shard_ids) for shard_ids in parts]
        return parts, part_rows, steps_per_epoch(part_rows, batch_size)
    except ValueError as exc:
        raise PartitionError(str(exc)) from exc


def worker_main(rank: int, spec: DistSpec, arena_spec, barriers,
                workdir: str) -> None:
    """Process-mode driver: rank ``rank``'s loop in a spawned process, each
    yielded label a timed wait on that label's shared barrier."""
    barrier = dict(zip("ABC", barriers))
    step = spec.resume_step or 0
    loop = rank_loop(rank, spec, SharedArena.attach(arena_spec),
                     Path(workdir))
    waited_ms = None  # what a fresh generator must be sent
    try:
        while True:
            label = loop.send(waited_ms)
            if label == "B":
                step += 1
            elif label == "A" and spec.fail_at == (rank, step):
                # Chaos hook: die exactly where it hurts — gradients
                # published, barrier not yet reached.  SIGKILL means no
                # finally-blocks, no flush: the real failure mode.
                os.kill(os.getpid(), signal.SIGKILL)
            wait_start = time.perf_counter()
            barrier[label].wait(timeout=spec.barrier_timeout_s)
            waited_ms = (time.perf_counter() - wait_start) * 1e3
    except StopIteration:
        return
    except BrokenBarrierError:
        # A peer died (or the launcher aborted us); the launcher reports the
        # original failure, so exit quietly but non-zero.
        raise SystemExit(3)


def emulate_ranks(spec: DistSpec, arena: SharedArena, workdir: Path) -> None:
    """Emulation driver: all ``world_size`` rank loops in this process,
    advanced round-robin in rank order.  One round is one barrier: every
    rank runs up to its next yield, so by the time any rank resumes, all
    of them have reached the same collective point."""
    loops = [rank_loop(rank, spec, arena, workdir)
             for rank in range(spec.world_size)]
    while True:
        labels = [next(loop, None) for loop in loops]
        if all(label is None for label in labels):
            return
        if len(set(labels)) > 1:
            raise RuntimeError(f"ranks reached different barriers in one "
                               f"round: {labels}")


def rank_loop(rank: int, spec: DistSpec, arena: SharedArena,
              workdir: Path) -> Iterator[str]:
    """The whole run of rank ``rank``: yields ``"A"``, ``"B"`` or ``"C"``
    at each barrier and continues once every rank has reached it; the
    driver sends back how long it blocked there (ms), or ``None``.  No
    yield sits inside a block that sets process-global state."""
    cfg = TrainConfig(**spec.config)
    world = spec.world_size

    train = ShardedCTRDataset(spec.train_dir, cache_shards=spec.cache_shards)
    parts, part_rows, steps = partition_plan(train, world, cfg.batch_size)
    view = ShardPartitionView(train, parts[rank])

    model = build_model(spec, train.schema)
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate,
                     weight_decay=cfg.weight_decay)
    flat = optimizer.flat
    validation = (ShardedCTRDataset(spec.val_dir).materialize()
                  if rank == 0 else None)

    registry = MetricRegistry()
    prefix = f"dist.rank.{rank}"
    steps_counter = registry.counter(f"{prefix}.steps")
    rows_counter = registry.counter(f"{prefix}.rows")
    wait_hist = registry.histogram(f"{prefix}.allreduce_wait_ms")
    reduce_hist = registry.histogram(f"{prefix}.reduce_ms")
    trace = (JsonlTraceWriter(f"{spec.log_jsonl}.rank{rank}")
             if spec.log_jsonl else None)
    obs = ObserverList.build([trace] if trace is not None else [])
    view.bind_telemetry(registry=registry, observers=obs)

    store = None
    if spec.checkpoint_dir is not None:
        store = CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, rank),
                                keep_last=spec.keep_checkpoints)
    manifest = (read_manifest(spec.checkpoint_dir)
                if spec.checkpoint_dir is not None else None)
    manifest_commits = list(manifest["commits"]) if manifest else []

    rng = rank_rng(cfg.seed, rank)
    loader = DataLoader(view, batch_size=cfg.batch_size, shuffle=True, rng=rng)
    state = RunState(rng, model, optimizer,
                     {**spec.config, "world_size": world})
    selection = state.selection      # rank 0 only: validation + selection
    step_losses: list[float] = []    # every reduced step loss

    if spec.resume_step is not None:
        if store is None:
            raise ValueError("resume_step requires checkpoint_dir")
        state.restore(_load_resume_step(spec, store))
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
            config={**spec.config, "world_size": world}))

    def barrier_c() -> Iterator[str]:
        """Every rank persists the current step (when checkpointing), then
        rank 0 commits it; the stop epoch's commit flags the run complete."""
        if store is not None:
            state.save(store)
        yield "C"
        if store is not None and rank == 0:
            manifest_commits.append({
                "step": state.step, "epoch": state.epoch,
                "batches_done": state.batches_done,
                "completed": state.completed,
                "step_losses": [float(v) for v in step_losses],
            })
            _write_manifest(Path(spec.checkpoint_dir), world,
                            manifest_commits)

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
            arena.losses[rank] = forward_backward(model, batch,
                                                  optimizer.parameters)
            arena.grad_slot(rank)[...] = flat.published_grad()
            arena.touched[rank] = flat.touched
            wait_ms = (yield "A") or 0.0
            reduce_start = time.perf_counter()
            # Every rank folds the same slots and steps its own Adam: the
            # replicas take one step, bit for bit.
            apply_update(optimizer, arena.grad_slots(), arena.touched,
                         cfg.grad_clip)
            mean_loss = reduce_mean([float(v) for v in arena.losses])
            reduce_hist.record((time.perf_counter() - reduce_start) * 1e3)
            # No rank overwrites its slot before every peer has read it.
            yield "B"
            state.record_step(mean_loss)
            step_losses.append(mean_loss)
            steps_counter.inc()
            rows_counter.inc(len(batch.labels))
            wait_hist.record(wait_ms)
            obs.emit(DistSyncEvent(
                rank=rank, world_size=world, step=state.step,
                epoch=epoch, wait_ms=wait_ms, loss=mean_loss))
            # The epoch-end commit below covers the epoch's last step.
            if (store is not None and spec.checkpoint_every
                    and state.batches_done < steps
                    and state.step % spec.checkpoint_every == 0):
                yield from barrier_c()
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
            state.completed = selection.should_stop(cfg)
            arena.ctl[CTL_STOP] = float(state.completed)
        yield from barrier_c()
        if arena.ctl[CTL_STOP] >= 1.0:
            break

    if rank == 0:
        DistResult(
            world_size=world, best_epoch=selection.best_epoch,
            epochs_run=len(selection.history), steps=state.step,
            steps_per_epoch=steps,
            partition_rows=[int(r) for r in part_rows],
            history=[asdict(r) for r in selection.history],
            train_losses=state.train_losses, step_losses=step_losses,
            epoch_seconds=epoch_seconds,
            wall_time_s=time.perf_counter() - run_start,
            final_state=selection.best_or_raise()).write(workdir)
    _dump_metrics(registry, rank, workdir)
    if trace is not None:
        trace.close()


def _load_resume_step(spec: DistSpec,
                      store: CheckpointStore) -> RunCheckpoint:
    """This rank's checkpoint at ``spec.resume_step``.  A file whose
    optimizer state is the placeholder ``kind: "none"`` was written while
    rank 0 alone held the optimizer; the moments every rank stepped with
    then were rank 0's, so they are read from rank 0's file at the same
    committed step."""
    ckpt = store.load_step(spec.resume_step)
    if ckpt.optimizer_state.get("kind") == "none":
        rank0 = CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, 0))
        ckpt.optimizer_state = rank0.load_step(
            spec.resume_step).optimizer_state
    return ckpt


def _dump_metrics(registry: MetricRegistry, rank: int, workdir: Path) -> None:
    atomic_write_json(workdir / f"metrics-rank{rank}.json",
                      registry.snapshot())
