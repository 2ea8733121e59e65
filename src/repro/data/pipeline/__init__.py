"""Data pipeline: sharded storage and a processing cache.

Two independent pieces that compose on the training input path (see
DESIGN.md §11); :class:`~repro.data.batching.DataLoader` iterates either:

* :mod:`~repro.data.pipeline.shards` — checksummed row-array shard format
  (``write_shards`` / ``ShardedCTRDataset``) with a window gather;
* :mod:`~repro.data.pipeline.cache` — on-disk ``build_ctr_data`` cache keyed
  by (raw data, world config, processing config) digests.
"""

from .cache import (
    PROCESSING_VERSION,
    cache_key,
    cached_build_ctr_data,
    config_digest,
    processing_digest,
    schema_digest,
    world_digest,
)
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
    "PROCESSING_VERSION",
    "cache_key",
    "cached_build_ctr_data",
    "config_digest",
    "processing_digest",
    "schema_digest",
    "world_digest",
    "SHARD_FORMAT_VERSION",
    "ShardCorruptError",
    "ShardedCTRDataset",
    "ShardPartitionView",
    "open_shards_for",
    "partition_shards",
    "write_shards",
]
