#!/usr/bin/env python
"""End-to-end smoke test of data-parallel training: the CI
``distributed-smoke`` job.

Exercises the two contracts ``repro.distributed`` makes (DESIGN.md §15),
on a world small enough to finish in seconds:

1. **Determinism** — a real 2-process run and its single-process emulation
   (same ``(seed, world_size)``) must produce bitwise-identical step-loss
   trajectories and bitwise-identical final weights.  Not "close": every
   float equal, max absolute parameter divergence exactly 0.0.
2. **Crash resilience** — rerun the same training with checkpointing on
   and the chaos hook armed so rank 1 SIGKILLs itself mid-epoch (gradients
   already published, barrier not yet reached — the nastiest point).  The
   launcher must surface a ``DistributedRunError`` naming rank 1, and a
   ``--resume`` run from the per-rank checkpoints plus rank 0's manifest
   must finish with weights and losses bitwise identical to the
   uninterrupted run.  A second resume must report the run complete
   without spawning anything.

Per-rank JSONL traces are written under ``--trace-dir`` (uploaded as a CI
artifact on failure) and are asserted to contain ``dist_sync`` events for
every rank; every record in them must pass ``repro.obs.check_record``.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

# One BLAS thread per rank: intra-op reduction order fixed before numpy
# loads anywhere (the launcher re-pins children, this covers the parent).
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from repro.data import load_dataset  # noqa: E402
from repro.distributed import (  # noqa: E402
    DistSpec,
    DistributedRunError,
    prepare_dist_data,
    run_distributed,
)
from repro.nn.backend import get_backend  # noqa: E402
from repro.obs import check_record  # noqa: E402

FAIL_RANK = 1
FAIL_STEP = 20          # mid-epoch 2 for the world below (28 steps total)


def fail(message: str) -> None:
    print(f"distributed_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def max_divergence(a: dict, b: dict) -> float:
    check(sorted(a) == sorted(b), "final state dictionaries differ in keys")
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in a)


def base_spec(train_dir: Path, val_dir: Path, trace_dir: Path | None,
              tag: str, **overrides) -> DistSpec:
    log = str(trace_dir / f"{tag}.jsonl") if trace_dir is not None else None
    kwargs = dict(
        model_name="DIN", miss=None, model_seed=1,
        backend=get_backend().name,
        train_dir=str(train_dir), val_dir=str(val_dir),
        config=dict(epochs=2, batch_size=16, eval_batch_size=256,
                    learning_rate=1e-2, weight_decay=1e-5, patience=3,
                    grad_clip=10.0, seed=0),
        world_size=2, cache_shards=4,
        checkpoint_dir=None, checkpoint_every=None,
        log_jsonl=log, barrier_timeout_s=60.0)
    kwargs.update(overrides)
    return DistSpec(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="directory for per-rank JSONL traces "
                             "(uploaded by CI on failure)")
    args = parser.parse_args(argv)
    trace_dir = args.trace_dir
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)

    data = load_dataset("amazon-cds", scale=0.3, seed=0)
    tmp = Path(tempfile.mkdtemp(prefix="dist-smoke-"))
    train_dir, val_dir = prepare_dist_data(
        data.train, data.validation, tmp,
        shard_size=max(32, len(data.train) // 8))
    print(f"world: {len(data.train)} train rows, 2 ranks, "
          f"8 shards, batch 16/rank")

    # -- 1. determinism: process mode vs emulation --------------------------
    clean = run_distributed(base_spec(train_dir, val_dir, trace_dir, "clean"))
    emulated = run_distributed(
        base_spec(train_dir, val_dir, None, "emu"), emulate=True)
    check(clean.steps == emulated.steps,
          f"step counts differ: {clean.steps} vs {emulated.steps}")
    check(clean.step_losses == emulated.step_losses,
          "2-proc step losses are not bitwise identical to emulation")
    divergence = max_divergence(clean.final_state, emulated.final_state)
    check(divergence == 0.0,
          f"final weights diverge from emulation by {divergence!r}")
    print(f"determinism: {clean.steps} steps bitwise identical across "
          f"modes, param divergence {divergence}")

    # -- 2. chaos: SIGKILL rank 1 mid-epoch, then resume --------------------
    ckdir = tmp / "checkpoints"
    chaos = base_spec(train_dir, val_dir, trace_dir, "chaos",
                      checkpoint_dir=str(ckdir), checkpoint_every=5,
                      fail_at=(FAIL_RANK, FAIL_STEP))
    try:
        run_distributed(chaos)
        fail("chaos run finished despite the fail_at SIGKILL hook")
    except DistributedRunError as exc:
        check(FAIL_RANK in exc.failed_ranks,
              f"failure attributed to ranks {exc.failed_ranks}, "
              f"expected {FAIL_RANK}")
        print(f"chaos: rank {FAIL_RANK} SIGKILLed at step {FAIL_STEP}, "
              f"launcher reported: {exc}")

    resumed = run_distributed(
        base_spec(train_dir, val_dir, trace_dir, "resume",
                  checkpoint_dir=str(ckdir), checkpoint_every=5),
        resume=True)
    check(resumed.steps == clean.steps,
          f"resumed run did {resumed.steps} steps, expected {clean.steps}")
    check(resumed.step_losses == clean.step_losses,
          "resumed step-loss trajectory differs from the uninterrupted run")
    divergence = max_divergence(clean.final_state, resumed.final_state)
    check(divergence == 0.0,
          f"resumed weights diverge from uninterrupted run by {divergence!r}")
    print(f"resume: bit-identical to the uninterrupted run "
          f"({resumed.steps} steps, divergence {divergence})")

    again = run_distributed(
        base_spec(train_dir, val_dir, None, "again",
                  checkpoint_dir=str(ckdir), checkpoint_every=5),
        resume=True)
    check(again.mode == "resumed-complete",
          f"second resume re-ran the training (mode={again.mode!r})")
    check(max_divergence(clean.final_state, again.final_state) == 0.0,
          "completed-run resume returned different weights")
    print("resume of a completed run: no respawn, same weights")

    # -- 3. traces ---------------------------------------------------------
    if trace_dir is not None:
        for rank in range(2):
            path = trace_dir / f"clean.jsonl.rank{rank}"
            check(path.exists(), f"missing trace {path}")
            events = [json.loads(line)["event"]
                      for line in path.read_text().splitlines()]
            check(events.count("dist_sync") == clean.steps,
                  f"rank {rank} trace has {events.count('dist_sync')} "
                  f"dist_sync events, expected {clean.steps}")
        print(f"traces: dist_sync present for every rank under {trace_dir}")
        checked = 0
        for path in sorted(trace_dir.glob("*.jsonl.rank*")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                problem = check_record(json.loads(line))
                check(problem is None, f"{path}:{lineno}: {problem}")
                checked += 1
        print(f"traces: all {checked} records match the event schema")

    print("distributed_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
