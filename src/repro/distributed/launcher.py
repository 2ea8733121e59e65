"""Run a data-parallel job two ways, and harvest either the same way.

``run_distributed`` owns everything outside the per-rank loop.  Before any
rank starts it checks the partition plan (``world_size`` no larger than the
shard count, every partition at least one batch), sizes the parameter
vector from a throwaway model build, and creates the shared-memory arena
(under ``/dev/shm`` when the platform has it, so "file-backed" means tmpfs
pages).  Then it drives
:func:`~.worker.rank_loop` one of two ways:

* **process mode** — one spawned process per rank with three shared
  barriers, and a monitor on their exit codes.  A rank that dies — crash,
  OOM kill, or the ``fail_at`` chaos hook — strands its peers at a
  barrier; the monitor aborts the barriers, reaps the survivors, and
  raises :class:`DistributedRunError` naming the failed ranks.  Nothing
  hangs.
* **emulation** (``emulate=True``) — all ranks round-robin inside this
  process (:func:`~.worker.emulate_ranks`).

Both leave the same files in the run directory (``result.json``,
``final_state.npz``, ``metrics-rank<r>.json``) and are harvested by the
same code; only :attr:`DistResult.mode` differs.

Resume is decided *here*, not in the ranks: the launcher reads rank 0's
``dist-manifest.json`` and picks the newest commit for which **every**
rank's checkpoint file exists — the manifest is the commit record, the
per-rank files are the payload, and a commit missing any rank's file is
treated as never having happened (exactly the torn-write discipline of
:mod:`repro.resilience`).  If the newest such commit is flagged complete,
the result is rebuilt from rank 0's checkpoint at that step (its
``best_state``) without running anything.

BLAS thread pools are pinned to one thread in every rank process before
spawn: intra-op reduction order is then fixed, and cross-rank order is
owned by the :func:`~.collective.pairwise_fold` tree — together they make
the trajectory a pure function of ``(seed, world_size)``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from ..data.batching import CTRDataset
from ..data.pipeline import ShardedCTRDataset, open_shards_for
from ..resilience import CheckpointCorruptError, CheckpointStore
from ..training import TrainConfig
from .shm import SharedArena
from .worker import (
    DistResult,
    DistSpec,
    build_model,
    emulate_ranks,
    partition_plan,
    rank_checkpoint_dir,
    read_manifest,
    worker_main,
)

__all__ = ["DistResult", "DistributedRunError", "run_distributed",
           "prepare_dist_data"]

#: Pinned in every rank's environment before spawn (children re-import numpy
#: under these, so the BLAS pool really is a single thread per rank).
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_MONITOR_POLL_S = 0.25


class DistributedRunError(RuntimeError):
    """A worker rank exited abnormally (the run may be resumable)."""

    def __init__(self, message: str, failed_ranks: list[int]):
        super().__init__(message)
        self.failed_ranks = failed_ranks


def prepare_dist_data(train: CTRDataset, validation: CTRDataset,
                      directory: str | Path,
                      shard_size: int = 2048) -> tuple[Path, Path]:
    """Write the two shard directories a :class:`DistSpec` points at.

    ``shard_size`` controls the training shard count and therefore the
    partition granularity (``world_size`` may not exceed the shard count).
    An existing directory is reused only if it holds its split's schema and
    rows; otherwise :class:`~repro.data.pipeline.ShardCorruptError` is
    raised here, before any rank is spawned.
    """
    directory = Path(directory)
    train_dir = directory / "train"
    val_dir = directory / "validation"
    open_shards_for(train, train_dir, shard_size=shard_size)
    open_shards_for(validation, val_dir, shard_size=shard_size)
    return train_dir, val_dir


def _workdir() -> Path:
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    return Path(tempfile.mkdtemp(prefix="repro-dist-", dir=base))


def _select_resume_commit(spec: DistSpec) -> dict | None:
    """Newest manifest commit backed by every rank's checkpoint file, or
    ``None`` when nothing on disk is resumable.  Commits missing any rank's
    file are skipped — a kill between a rank's save and the manifest write
    must look like it never happened.
    """
    manifest = read_manifest(spec.checkpoint_dir)
    if manifest is None:
        return None
    if manifest.get("world_size") != spec.world_size:
        raise DistributedRunError(
            f"checkpoint directory {spec.checkpoint_dir} holds a manifest "
            f"for world_size={manifest.get('world_size')}, but this run has "
            f"world_size={spec.world_size}; resume must keep the world size",
            failed_ranks=[])
    stores = [CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, r))
              for r in range(spec.world_size)]
    for commit in reversed(manifest.get("commits", [])):
        if all(store.has_step(int(commit["step"])) for store in stores):
            return commit
    return None


def _completed_result(spec: DistSpec, commit: dict, part_rows: list[int],
                      steps_per_epoch: int) -> DistResult:
    """Rebuild the result of an already-finished run from rank 0's
    checkpoint at its completed ``commit``, whose ``best_state`` holds the
    selected epoch's weights."""
    store = CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, 0))
    try:
        ckpt = store.load_step(int(commit["step"]))
    except CheckpointCorruptError as exc:
        raise DistributedRunError(f"the run completed, but {exc}",
                                  failed_ranks=[0]) from exc
    if ckpt.best_state is None:
        raise DistributedRunError("the run never produced a finite "
                                  "validation AUC", failed_ranks=[])
    return DistResult(
        world_size=spec.world_size, mode="resumed-complete",
        best_epoch=ckpt.best_epoch, epochs_run=ckpt.epochs_run,
        steps=ckpt.step, steps_per_epoch=steps_per_epoch,
        partition_rows=[int(r) for r in part_rows],
        history=list(ckpt.history), train_losses=list(ckpt.train_losses),
        step_losses=[float(v) for v in commit.get("step_losses", [])],
        epoch_seconds=[], wall_time_s=0.0,
        final_state=dict(ckpt.best_state))


def _merge_metrics(workdir: Path, world_size: int) -> dict:
    """One flat registry dump: rank-scoped names pass through, shared
    pipeline telemetry gets a ``dist.rank.<r>.`` prefix per rank."""
    merged: dict = {}
    for rank in range(world_size):
        path = workdir / f"metrics-rank{rank}.json"
        if not path.exists():
            continue
        for name, snap in json.loads(path.read_text()).items():
            key = name if name.startswith("dist.") \
                else f"dist.rank.{rank}.{name}"
            merged[key] = snap
    return merged


def run_distributed(spec: DistSpec, *, resume: bool = False,
                    emulate: bool = False) -> DistResult:
    """Run ``spec`` to completion and return the harvested result.

    ``emulate`` runs every rank inside this process instead of one process
    each; the trajectory, the checkpoints and the result are the same bits.
    """
    if spec.world_size < 1:
        raise ValueError("world_size must be >= 1")
    if spec.checkpoint_every is not None and spec.checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1 (or None)")
    if spec.keep_checkpoints < 1:
        raise ValueError("keep_checkpoints must be >= 1")
    if emulate and spec.fail_at is not None:
        raise ValueError("fail_at chaos injection requires process mode")
    train = ShardedCTRDataset(spec.train_dir)
    # Raises here, before any rank starts, rather than once in every rank.
    _, part_rows, steps = partition_plan(
        train, spec.world_size, TrainConfig(**spec.config).batch_size)
    if resume:
        if spec.checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        commit = _select_resume_commit(spec)
        if commit is not None and commit.get("completed"):
            return _completed_result(spec, commit, part_rows, steps)
        if commit is not None:
            spec = replace(spec, resume_step=int(commit["step"]))
    params = build_model(spec, train.schema).parameters()
    workdir = _workdir()
    try:
        arena = SharedArena.create(workdir, spec.world_size,
                                   sum(p.size for p in params), len(params))
        if emulate:
            emulate_ranks(spec, arena, workdir)
        else:
            _run_processes(spec, arena, workdir)
        return _harvest(spec, workdir, "emulated" if emulate else "process")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_processes(spec: DistSpec, arena: SharedArena,
                   workdir: Path) -> None:
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    ctx = mp.get_context("spawn")
    barriers = tuple(ctx.Barrier(spec.world_size) for _ in range(3))
    procs = [
        ctx.Process(target=worker_main,
                    args=(rank, spec, arena.spec(), barriers, str(workdir)),
                    name=f"repro-dist-rank{rank}")
        for rank in range(spec.world_size)
    ]
    for p in procs:
        p.start()
    _monitor(procs, barriers)


def _monitor(procs, barriers) -> None:
    """Join all ranks; on any abnormal exit, abort the barriers so the
    survivors unblock, reap them, and raise naming the failed ranks."""
    while True:
        alive = False
        for p in procs:
            p.join(timeout=_MONITOR_POLL_S)
            if p.is_alive():
                alive = True
            elif p.exitcode != 0:
                _abort(procs, barriers)
                failed = [(r, q.exitcode) for r, q in enumerate(procs)
                          if q.exitcode not in (0, None)]
                # Exit code 3 is the worker's "peer broke my barrier" exit —
                # report the original casualties, fall back to everything.
                primary = [r for r, code in failed if code != 3] \
                    or [r for r, _ in failed]
                raise DistributedRunError(
                    "distributed run failed: "
                    + ", ".join(f"rank {r} exit {code}" for r, code in failed)
                    + "; resume from the checkpoint directory to continue",
                    failed_ranks=primary)
        if not alive:
            return


def _abort(procs, barriers) -> None:
    for barrier in barriers:
        barrier.abort()
    deadline = time.monotonic() + 5.0
    for p in procs:
        p.join(timeout=max(0.1, deadline - time.monotonic()))
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - terminate() sufficed so far
                p.kill()
                p.join()


def _harvest(spec: DistSpec, workdir: Path, mode: str) -> DistResult:
    if not (workdir / "result.json").exists():  # pragma: no cover - defensive
        raise DistributedRunError(
            "all ranks finished but rank 0 left no result.json",
            failed_ranks=[0])
    return DistResult.read(workdir, mode,
                           _merge_metrics(workdir, spec.world_size))
