"""On-disk preprocessing cache: run ``build_ctr_data`` once per dataset.

The §VI-A2 processing pipeline (frequency filter, leave-last-3 split,
negative sampling) is pure Python per user and dominates start-up time on
large worlds.  Its output is a pure function of three ingredients, so a
cache entry is keyed by the SHA-256 of their digests concatenated:

* **raw-data digest** — the simulated world's behaviour arrays (per-user
  histories plus the item→category/seller tables);
* **world-config digest** — the full ``InterestWorldConfig``, covering every
  knob that shapes the derived schema (field list, vocab sizes, thresholds);
* **processing-config digest** — ``max_seq_len``, the sampling ``seed``, and
  ``PROCESSING_VERSION`` (bumped whenever ``build_ctr_data`` semantics
  change, invalidating all prior entries).

An entry is a sealed archive (:mod:`repro.resilience.sealed`; formats in
DESIGN.md §8): ``arrays.npz`` first, then ``cache.json``, the record that
seals every array and carries the result's schema digest.  An entry that
fails any check is treated as a miss — the pipeline rebuilds and rewrites it
rather than erroring.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from ...resilience.sealed import (
    SealError,
    fields_of,
    read_arrays,
    read_record,
    write_sealed,
)
from ..batching import CTRDataset
from ..processing import ProcessedData, build_ctr_data
from ..schema import DatasetSchema

__all__ = [
    "PROCESSING_VERSION",
    "CACHE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "ARRAYS_NAME",
    "world_digest",
    "config_digest",
    "processing_digest",
    "schema_digest",
    "cache_key",
    "cached_build_ctr_data",
]

#: Bump when ``build_ctr_data`` changes semantics; invalidates old entries.
PROCESSING_VERSION = 1

CACHE_FORMAT_VERSION = 1
MANIFEST_NAME = "cache.json"
ARRAYS_NAME = "arrays.npz"

_SPLITS = ("train", "validation", "test")
_ARRAY_KEYS = ("categorical", "sequences", "mask", "labels")


def _hexdigest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def world_digest(world) -> str:
    """SHA-256 over the raw behaviour data the processing pipeline consumes."""
    h = hashlib.sha256()

    def update(array: np.ndarray) -> None:
        h.update(np.ascontiguousarray(array).tobytes())

    update(world.item_category)
    if world.item_seller is not None:
        update(world.item_seller)
    for user in world.users:
        h.update(int(user.user_id).to_bytes(8, "little", signed=True))
        update(user.items)
        update(user.topics)
    return h.hexdigest()


def config_digest(config) -> str:
    """SHA-256 over the full world configuration (canonical JSON)."""
    payload = dataclasses.asdict(config)
    return _hexdigest(json.dumps(payload, sort_keys=True))


def processing_digest(max_seq_len: int, seed: int) -> str:
    """SHA-256 over the processing knobs plus ``PROCESSING_VERSION``."""
    payload = {
        "max_seq_len": int(max_seq_len),
        "seed": int(seed),
        "processing_version": PROCESSING_VERSION,
    }
    return _hexdigest(json.dumps(payload, sort_keys=True))


def schema_digest(schema: DatasetSchema) -> str:
    """SHA-256 over a schema's canonical dict form (stored for verification)."""
    return _hexdigest(json.dumps(schema.to_dict(), sort_keys=True))


def cache_key(world, max_seq_len: int, seed: int) -> str:
    """Entry key: digest over (raw data, world config, processing config)."""
    parts = "\n".join(
        [
            world_digest(world),
            config_digest(world.config),
            processing_digest(max_seq_len, seed),
        ]
    )
    return _hexdigest(parts)


def _entry_dir(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / key[:32]


def _array_name(split: str, field: str) -> str:
    return f"{split}_{field}"


def _store(entry: Path, data: ProcessedData, key: str, raw: str) -> None:
    arrays = {}
    for split in _SPLITS:
        dataset = data.splits[split]
        for field in _ARRAY_KEYS:
            arrays[_array_name(split, field)] = getattr(dataset, field)
    record = {
        "format_version": CACHE_FORMAT_VERSION,
        "key": key,
        "raw_digest": raw,
        "schema": data.schema.to_dict(),
        "schema_digest": schema_digest(data.schema),
        "item_map": {str(k): int(v) for k, v in data.item_map.items()},
        "user_map": {str(k): int(v) for k, v in data.user_map.items()},
    }
    write_sealed(entry / ARRAYS_NAME, entry / MANIFEST_NAME, arrays, record)


def _load(entry: Path, key: str) -> ProcessedData | None:
    """Read and verify one entry; anything short of a sound one is a miss."""
    record_path = entry / MANIFEST_NAME
    try:
        record = read_record(record_path, CACHE_FORMAT_VERSION, seal_key="arrays")
        with fields_of(record_path):
            schema = DatasetSchema.from_dict(record["schema"])
            if record["key"] != key:
                return None
            if schema_digest(schema) != record["schema_digest"]:
                return None
            arrays = read_arrays(entry / ARRAYS_NAME, record["arrays"])
            splits = {
                split: CTRDataset(
                    schema=schema,
                    **{f: arrays[_array_name(split, f)] for f in _ARRAY_KEYS},
                )
                for split in _SPLITS
            }
            return ProcessedData(
                schema=schema,
                item_map={int(k): v for k, v in record["item_map"].items()},
                user_map={int(k): v for k, v in record["user_map"].items()},
                **splits,
            )
    except SealError:
        return None


def _count(registry, name: str) -> None:
    if registry is not None:
        registry.counter(name).inc()


def cached_build_ctr_data(
    world,
    max_seq_len: int = 20,
    seed: int = 0,
    cache_dir: str | Path | None = None,
    registry=None,
) -> ProcessedData:
    """``build_ctr_data`` with an on-disk cache in front.

    With ``cache_dir=None`` this is exactly ``build_ctr_data``.  Otherwise
    the entry keyed by :func:`cache_key` is verified and returned on hit;
    on miss (including a corrupt entry) the pipeline runs and the entry is
    (re)written.  Hits and misses tick ``pipeline.cache.hit`` /
    ``pipeline.cache.miss`` on ``registry`` when one is supplied.
    """
    if cache_dir is None:
        return build_ctr_data(world, max_seq_len=max_seq_len, seed=seed)
    key = cache_key(world, max_seq_len, seed)
    entry = _entry_dir(cache_dir, key)
    cached = _load(entry, key)
    if cached is not None:
        _count(registry, "pipeline.cache.hit")
        return cached
    _count(registry, "pipeline.cache.miss")
    data = build_ctr_data(world, max_seq_len=max_seq_len, seed=seed)
    _store(entry, data, key, world_digest(world))
    return data
