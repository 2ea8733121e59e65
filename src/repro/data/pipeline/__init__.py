"""Data pipeline: sharded storage for the training input path.

:mod:`~repro.data.pipeline.shards` is the checksummed row-array shard format
(``write_shards`` / ``ShardedCTRDataset``) with a window gather (see
DESIGN.md §11); :class:`~repro.data.batching.DataLoader` iterates it the
same way as an in-memory split.
"""

from .shards import (
    SHARD_FORMAT_VERSION,
    ShardCorruptError,
    ShardedCTRDataset,
    ShardPartitionView,
    open_shards_for,
    partition_shards,
    write_shards,
)

__all__ = [
    "SHARD_FORMAT_VERSION",
    "ShardCorruptError",
    "ShardedCTRDataset",
    "ShardPartitionView",
    "open_shards_for",
    "partition_shards",
    "write_shards",
]
