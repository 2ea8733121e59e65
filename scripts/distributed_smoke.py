#!/usr/bin/env python
"""End-to-end smoke test of data-parallel training: the CI
``distributed-smoke`` job.

Exercises the two contracts ``repro.distributed`` makes (DESIGN.md §15),
on a world small enough to finish in seconds:

1. **Determinism** — a real 2-process run and its single-process emulation
   (same ``(seed, world_size)``) must produce bitwise-identical step-loss
   trajectories and bitwise-identical final weights.  Not "close": every
   float equal, max absolute parameter divergence exactly 0.0.  Checked
   for DIN, and for one epoch of DIN+MISS, whose steps can leave a
   parameter without a gradient.
2. **Crash resilience** — rerun the same training with checkpointing on
   and the chaos hook armed so rank 1 SIGKILLs itself mid-epoch (gradients
   already published, barrier not yet reached — the nastiest point).  The
   launcher must surface a ``DistributedRunError`` naming rank 1, and a
   ``--resume`` run from the per-rank checkpoints plus rank 0's manifest
   must finish with weights and losses bitwise identical to the
   uninterrupted run.  A second resume must report the run complete
   without spawning anything.
3. **Cross-mode resume** — a copy of the SIGKILLed run's checkpoint
   directory, taken before the process-mode resume completes it, is
   resumed in emulation (``emulate=True``) and must also finish bitwise
   identical to the uninterrupted 2-process run: both modes read and
   write the same per-rank checkpoints and manifest.
4. **Replica equality** — every rank steps its own Adam, so in both
   resumed checkpoint directories each rank's checkpoints hold rank 0's
   weights and Adam moments, bit for bit, at every step both keep, the
   final one included; each manifest commits every step once, in
   strictly increasing order.

Per-rank JSONL traces are written under ``--trace-dir`` (uploaded as a CI
artifact on failure) and are asserted to contain ``dist_sync`` events for
every rank; every record in them must pass ``repro.obs.check_record``.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
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
from repro.distributed.worker import (  # noqa: E402
    rank_checkpoint_dir,
    read_manifest,
)
from repro.obs import check_record  # noqa: E402
from repro.resilience import CheckpointStore  # noqa: E402

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


def check_replicas(ckdir: Path, world_size: int) -> int:
    """Assert every rank's checkpoints hold rank 0's weights and Adam
    moments at each step both keep, the final one included, and that the
    manifest commits each step once; returns how many files were compared.
    Buffers (Dice running stats) are each rank's own, so they are not
    compared."""
    commits = [c["step"] for c in read_manifest(ckdir)["commits"]]
    check(all(a < b for a, b in zip(commits, commits[1:])),
          f"{ckdir.name}: manifest commit steps {commits} do not strictly "
          f"increase")
    stores = [CheckpointStore(rank_checkpoint_dir(ckdir, rank))
              for rank in range(world_size)]
    compared = 0
    for rank, store in enumerate(stores[1:], 1):
        for path in store.manifests():
            mine = store.load(path)
            ours = stores[0].load_step(mine.step)
            moments = ours.optimizer_state["arrays"]
            check(mine.optimizer_state.get("t") == ours.optimizer_state["t"]
                  and mine.optimizer_state["arrays"].keys() == moments.keys()
                  and all(np.array_equal(mine.optimizer_state["arrays"][k], m)
                          for k, m in moments.items()),
                  f"{ckdir.name}: rank {rank}'s Adam moments at step "
                  f"{mine.step} differ from rank 0's")
            names = [k for k in ours.model_state if not k.endswith("@buffer")]
            check(all(np.array_equal(mine.model_state[k], ours.model_state[k])
                      for k in names),
                  f"{ckdir.name}: rank {rank}'s weights at step {mine.step} "
                  f"differ from rank 0's")
            compared += 1
    return compared


def base_spec(train_dir: Path, val_dir: Path, trace_dir: Path | None,
              tag: str, **overrides) -> DistSpec:
    log = str(trace_dir / f"{tag}.jsonl") if trace_dir is not None else None
    kwargs = dict(
        model_name="DIN", miss=None, model_seed=1,
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

    # -- 1b. determinism with MISS's SSL branches in the step ----------------
    # RS^if samples 8 view pairs a batch, so a MIMFE kernel can go a step
    # with no gradient on one rank or on all: the touched flags cross the
    # arena too.
    miss_spec = replace(base_spec(train_dir, val_dir, None, "miss"),
                        miss={"seed": 0})
    miss_spec = replace(miss_spec, config={**miss_spec.config, "epochs": 1})
    miss_proc = run_distributed(miss_spec)
    miss_emu = run_distributed(miss_spec, emulate=True)
    check(miss_proc.step_losses == miss_emu.step_losses,
          "DIN+MISS 2-proc step losses are not bitwise identical to "
          "emulation")
    divergence = max_divergence(miss_proc.final_state, miss_emu.final_state)
    check(divergence == 0.0,
          f"DIN+MISS final weights diverge from emulation by {divergence!r}")
    print(f"determinism, DIN+MISS: {miss_proc.steps} steps bitwise identical "
          f"across modes, param divergence {divergence}")

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
    emu_ckdir = tmp / "checkpoints-emulated"
    shutil.copytree(ckdir, emu_ckdir)

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

    # -- 3. cross-mode: resume the SIGKILLed checkpoints in emulation --------
    emu_resumed = run_distributed(
        base_spec(train_dir, val_dir, None, "emu-resume",
                  checkpoint_dir=str(emu_ckdir), checkpoint_every=5),
        resume=True, emulate=True)
    check(emu_resumed.mode == "emulated",
          f"emulated resume reported mode {emu_resumed.mode!r}")
    check(emu_resumed.step_losses == clean.step_losses,
          "emulated resume of the SIGKILLed checkpoints differs in step "
          "losses from the uninterrupted 2-process run")
    divergence = max_divergence(clean.final_state, emu_resumed.final_state)
    check(divergence == 0.0,
          f"emulated resume diverges from the 2-process run by "
          f"{divergence!r}")
    print(f"cross-mode resume: emulation continued the process-mode "
          f"checkpoints bit-identically (divergence {divergence})")

    # -- 4. replicas: every rank's checkpoints are rank 0's ----------------
    compared = sum(check_replicas(path, 2) for path in (ckdir, emu_ckdir))
    print(f"replicas: {compared} rank-1 checkpoints hold rank 0's weights "
          f"and Adam moments bit for bit; commit steps strictly increase")

    # -- 5. traces ---------------------------------------------------------
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
