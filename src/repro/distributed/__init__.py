"""Data-parallel multi-process training (DESIGN.md §15).

``N`` ranks each own a disjoint round-robin partition of the training
shards and a replica of the model and its Adam.  Per step every rank
publishes its gradient to shared-memory buffers, then folds all ranks'
gradients over one fixed tree and takes the same optimizer step, so the
replicas stay bitwise equal with no parameter broadcast.
The rank loop is written once (:func:`~.worker.rank_loop`) and driven two
ways: one spawned process per rank, or all ranks round-robin in one
process (``emulate=True``).  The determinism contract: a trajectory is a
pure function of ``(seed, world_size)`` — both modes produce
bitwise-identical losses, weights and checkpoints, and ``world_size=1``
through this machinery reproduces the plain
:class:`~repro.training.Trainer` trajectory for the same data order.

Public surface:

* :func:`run_distributed` / :class:`DistSpec` / :class:`DistResult` — the
  launcher (partition check, spawn or emulate, monitor, resume selection,
  harvest).
* :func:`prepare_dist_data` — write the train/validation shard directories
  a spec points at.
* :mod:`~repro.distributed.collective` / :mod:`~repro.distributed.shm` —
  the fold-tree reduction math and the memmap gradient transport.
"""

from .collective import (
    apply_update,
    pairwise_fold,
    rank_rng,
    reduce_mean,
    steps_per_epoch,
)
from .launcher import (
    DistResult,
    DistributedRunError,
    prepare_dist_data,
    run_distributed,
)
from .shm import SharedArena
from .worker import DistSpec, build_model, read_manifest, worker_main

__all__ = [
    "DistSpec", "DistResult", "DistributedRunError",
    "run_distributed", "prepare_dist_data",
    "pairwise_fold", "reduce_mean", "apply_update", "rank_rng",
    "steps_per_epoch", "SharedArena",
    "build_model", "read_manifest", "worker_main",
]
