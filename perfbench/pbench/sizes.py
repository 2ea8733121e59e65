"""Fixed workload sizes.

Every size is a constant here; none is derived from the machine.  The only
input is ``--seconds``: training workloads turn it into a whole number of
epochs through a fixed epochs-per-second constant (so the *work* is fixed
for a given ``--seconds`` and counters repeat exactly), serving workloads
use it as the length of the measuring window.

The epoch constants were chosen so that the fixed work lasts about
``--seconds`` on the 2-core reference box; a faster program simply
finishes sooner and reports a higher ``rows_per_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Sizes", "FULL", "TINY"]


@dataclass(frozen=True)
class Sizes:
    # -- shared ---------------------------------------------------------
    dataset: str = "amazon-cds"
    batch_size: int = 128              # paper §VI-A5
    setup_repeats: int = 3             # setup_s is the median of these
    eval_repeats: int = 16             # eval_rows_per_s is the median
    min_final_auc: float = 0.5         # validation AUC a fit must beat
    # -- train_din_miss_mem ---------------------------------------------
    train_scale: float = 1.0           # InterestWorld scale of the world
    miss_rows: int = 4096              # train split tiled to this many rows
    miss_epochs_per_second: float = 0.25
    # -- train_din_sharded ----------------------------------------------
    shard_count: int = 33
    shard_rows: int = 512
    shard_cache: int = 8               # what `repro train --shard-dir` uses
    sharded_epochs_per_second: float = 0.15
    # -- both serve_* ---------------------------------------------------
    serve_scale: float = 2.0
    pool_rows: int = 8192              # distinct rows, 2x the LRU capacity
    cache_size: int = 4096             # ScoringEngine / ScoringServer default
    # -- serve_http_batch32 ---------------------------------------------
    http_connections: int = 2
    http_rows_per_request: int = 32
    http_warmup_per_connection: int = 8
    replay_requests: int = 200         # in-process layer replay (traced)
    newconn_requests: int = 200        # Connection: close probe (traced)
    # -- serve_engine_open ----------------------------------------------
    # The top rate is beyond what one core can send and score: it is
    # there so that ``rows_per_s`` reads a capacity, not the schedule.
    ladder_qps: tuple[int, ...] = (1000, 2000, 4000, 8000, 16000)
    ladder_cycles: int = 2             # the window holds the ladder twice
    headline_qps: int = 1000           # p50_ms / tail_ms: far below the knee
    repeat_fraction: float = 0.3
    engine_warmup_requests: int = 50
    latency_limit_ms: float = 25.0
    limit_share: float = 0.99

    def epochs(self, per_second: float, seconds: float, traced: bool) -> int:
        """Whole epochs for ``seconds``; a traced run splits them between
        its untraced reference pass and its traced pass."""
        epochs = max(1, round(per_second * seconds))
        return max(1, epochs // 2) if traced else epochs


FULL = Sizes()

# test_selfcheck.py: same shapes and the same pool (the zero-cache-hit
# contract needs it), little work -- too little to learn anything, so the
# AUC floor is off.
TINY = Sizes(setup_repeats=1, eval_repeats=3, min_final_auc=0.0,
             miss_rows=512, shard_rows=32,
             replay_requests=8, newconn_requests=8,
             engine_warmup_requests=10)
