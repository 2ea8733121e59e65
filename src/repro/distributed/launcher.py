"""Spawn, monitor, and harvest a fleet of data-parallel worker ranks.

``run_distributed`` owns everything outside the per-rank loop: it sizes the
:class:`~.shm.FlatLayout` from a throwaway parent-side model build, creates
the shared-memory arena (under ``/dev/shm`` when the platform has it, so
"file-backed" means tmpfs pages), spawns one process per rank with three
shared barriers, and watches exit codes.  A rank that dies — crash, OOM
kill, or the ``fail_at`` chaos hook — strands its peers at a barrier; the
monitor aborts the barriers, reaps the survivors, and raises
:class:`DistributedRunError` naming the failed ranks.  Nothing hangs.

Resume is decided *here*, not in the workers: the launcher reads rank 0's
``dist-manifest.json`` and picks the newest commit for which **every**
rank's checkpoint file exists — the manifest is the commit record, the
per-rank files are the payload, and a commit missing any rank's file is
treated as never having happened (exactly the torn-write discipline of
:mod:`repro.resilience`).  If the newest such commit is flagged complete,
the result is rebuilt from rank 0's checkpoint without spawning anything.

BLAS thread pools are pinned to one thread in every rank before spawn:
intra-op reduction order is then fixed, and cross-rank order is owned by
the :func:`~.collective.pairwise_fold` tree — together they make the
trajectory a pure function of ``(seed, world_size)``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..data.batching import CTRDataset
from ..data.pipeline import ShardedCTRDataset, write_shards
from ..resilience.sealed import read_arrays, read_record
from .emulate import run_emulated
from .shm import FlatLayout, SharedArena
from .worker import (
    RESULT_FORMAT_VERSION,
    DistSpec,
    build_model,
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


@dataclass
class DistResult:
    """Harvested outcome of one distributed (or emulated) run."""

    world_size: int
    mode: str                       # "process" | "emulated" | "resumed-complete"
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
    metrics: dict = field(default_factory=dict)


def prepare_dist_data(train: CTRDataset, validation: CTRDataset,
                      directory: str | Path,
                      shard_size: int = 2048) -> tuple[Path, Path]:
    """Write the two shard directories a :class:`DistSpec` points at.

    ``shard_size`` controls the training shard count and therefore the
    partition granularity (``world_size`` may not exceed the shard count).
    Existing directories with an index are reused as-is.
    """
    directory = Path(directory)
    train_dir = directory / "train"
    val_dir = directory / "validation"
    if not (train_dir / "index.json").exists():
        write_shards(train, train_dir, shard_size=shard_size)
    if not (val_dir / "index.json").exists():
        write_shards(validation, val_dir, shard_size=shard_size)
    return train_dir, val_dir


def _workdir() -> Path:
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    return Path(tempfile.mkdtemp(prefix="repro-dist-", dir=base))


def _select_resume_step(spec: DistSpec) -> tuple[int | None, bool]:
    """Newest manifest commit backed by every rank's checkpoint file.

    Returns ``(step, completed)``; ``(None, False)`` when nothing on disk is
    resumable.  Commits missing any rank's file are skipped — a kill between
    a rank's save and the manifest write must look like it never happened.
    """
    manifest = read_manifest(spec.checkpoint_dir)
    if manifest is None:
        return None, False
    if manifest.get("world_size") != spec.world_size:
        raise DistributedRunError(
            f"checkpoint directory {spec.checkpoint_dir} holds a manifest "
            f"for world_size={manifest.get('world_size')}, but this run has "
            f"world_size={spec.world_size}; resume must keep the world size",
            failed_ranks=[])
    from ..resilience import CheckpointStore
    stores = [CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, r))
              for r in range(spec.world_size)]
    for commit in reversed(manifest.get("commits", [])):
        step = int(commit["step"])
        if all(store.has_step(step) for store in stores):
            return step, bool(commit.get("completed", False))
    return None, False


def _completed_result(spec: DistSpec) -> DistResult:
    """Rebuild the result of an already-finished run from rank 0's final
    checkpoint (its model state *is* the best-epoch weights)."""
    from ..resilience import CheckpointStore
    store = CheckpointStore(rank_checkpoint_dir(spec.checkpoint_dir, 0))
    ckpt, _, _ = store.load_latest()
    if ckpt is None or not ckpt.completed:
        raise DistributedRunError(
            "manifest says the run completed but rank 0's final checkpoint "
            "is unreadable", failed_ranks=[0])
    manifest = read_manifest(spec.checkpoint_dir)
    commit = manifest["commits"][-1]
    return DistResult(
        world_size=spec.world_size, mode="resumed-complete",
        best_epoch=ckpt.best_epoch, epochs_run=ckpt.epochs_run,
        steps=ckpt.step, steps_per_epoch=0,
        partition_rows=[], history=list(ckpt.history),
        train_losses=list(ckpt.train_losses),
        step_losses=[float(v) for v in commit.get("step_losses", [])],
        epoch_seconds=[], wall_time_s=0.0,
        final_state=dict(ckpt.model_state))


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
    """Run ``spec`` to completion and return the harvested result."""
    if spec.world_size < 1:
        raise ValueError("world_size must be >= 1")
    if emulate:
        payload = run_emulated(spec)
        final_state = payload.pop("final_state")
        metrics = payload.pop("metrics")
        payload.pop("completed", None)
        return DistResult(**payload, final_state=final_state,
                          metrics=metrics)
    if resume:
        if spec.checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        step, completed = _select_resume_step(spec)
        if completed:
            return _completed_result(spec)
        if step is not None:
            spec = replace(spec, resume_step=step)
    return _run_processes(spec)


def _run_processes(spec: DistSpec) -> DistResult:
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    workdir = _workdir()
    try:
        schema = ShardedCTRDataset(spec.train_dir).schema
        sizing_model = build_model(spec, schema)
        layout = FlatLayout.from_parameters(sizing_model.named_parameters())
        arena = SharedArena.create(workdir, spec.world_size, layout.size)

        ctx = mp.get_context("spawn")
        barriers = tuple(ctx.Barrier(spec.world_size) for _ in range(3))
        procs = [
            ctx.Process(target=worker_main,
                        args=(rank, spec, arena.spec(), barriers,
                              str(workdir)),
                        name=f"repro-dist-rank{rank}")
            for rank in range(spec.world_size)
        ]
        for p in procs:
            p.start()
        _monitor(procs, barriers)
        return _harvest(spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


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


def _harvest(spec: DistSpec, workdir: Path) -> DistResult:
    result_path = workdir / "result.json"
    if not result_path.exists():  # pragma: no cover - defensive
        raise DistributedRunError(
            "all ranks exited 0 but rank 0 left no result.json",
            failed_ranks=[0])
    payload = read_record(result_path, RESULT_FORMAT_VERSION,
                          seal_key="arrays")
    final_state = read_arrays(workdir / "final_state.npz", payload["arrays"])
    return DistResult(
        world_size=payload["world_size"], mode="process",
        best_epoch=payload["best_epoch"], epochs_run=payload["epochs_run"],
        steps=payload["steps"], steps_per_epoch=payload["steps_per_epoch"],
        partition_rows=payload["partition_rows"],
        history=payload["history"], train_losses=payload["train_losses"],
        step_losses=payload["step_losses"],
        epoch_seconds=payload["epoch_seconds"],
        wall_time_s=payload["wall_time_s"],
        final_state=final_state,
        metrics=_merge_metrics(workdir, spec.world_size))
