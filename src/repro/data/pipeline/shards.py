"""Sharded on-disk dataset format: row-array shards plus a checksummed index.

``write_shards`` splits a :class:`~repro.data.batching.CTRDataset` into
fixed-size row ranges and writes each as one ``shard-NNNNN.bin`` payload:
the four row arrays back to back, integer arrays narrowed to the smallest
dtype that holds the whole dataset's range, as one zlib stream (or raw with
``compressed=False``).  The JSON index is committed last: every byte on disk
is covered by a SHA-256 digest, every file is published via atomic
temp+fsync+rename, and the index is the commit record (shards without an
index are an unfinished write).  The index is a
:mod:`repro.resilience.sealed` record whose self-digest (``index_digest``)
is mandatory, so a tampered or truncated index is as loud as a tampered
shard.  Its ``dtypes``, ``stored_dtypes``, schema and per-shard ``rows`` fix
every byte offset of a payload, so shards carry no header.  A load reads the
file, checks its digest before decoding, inflates it once, requires exactly
``rows`` rows of bytes and widens the views back to ``dtypes``; the codec
lives in :mod:`repro.resilience.sealed` (formats in DESIGN.md §8).

``ShardedCTRDataset`` is the read side: random access by global row index
through a bounded LRU shard cache, shard-grouped gathers that load each
needed shard at most once per call (resident shards first, so a gather
never evicts a shard it still needs), and a ``gather_batches`` window gather
the loader uses to assemble several batches per shard visit.
All reads verify the recorded digest before any array is trusted.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ...obs.events import ShardLoadedEvent
from ...resilience.atomic import atomic_write_bytes
from ...resilience.sealed import (
    SealError,
    pack_rows,
    read_record,
    unpack_rows,
    write_record,
)
from ..batching import Batch, CTRDataset
from ..schema import DatasetSchema

__all__ = [
    "SHARD_FORMAT_VERSION",
    "INDEX_NAME",
    "ShardCorruptError",
    "write_shards",
    "open_shards_for",
    "ShardedCTRDataset",
    "ShardPartitionView",
    "partition_shards",
]

SHARD_FORMAT_VERSION = 2
INDEX_NAME = "index.json"
_DIGEST_KEY = "index_digest"

#: Row arrays stored per shard, in a fixed order.
_ARRAY_KEYS = ("categorical", "sequences", "mask", "labels")

#: Integer dtypes a stored array may be narrowed to: uint8, int8, ... int64.
_NARROW_DTYPES = [np.dtype(f"{kind}{size}") for size in (1, 2, 4, 8) for kind in "ui"]


class ShardCorruptError(ValueError):
    """A shard directory failed checksum/structure validation, or does not
    hold the dataset its caller expected."""


def _shard_name(i: int) -> str:
    return f"shard-{i:05d}.bin"


def _row_shapes(schema: DatasetSchema) -> dict[str, tuple[int, ...]]:
    """Shape of one row of each array in ``_ARRAY_KEYS``."""
    return {
        "categorical": (schema.num_categorical,),
        "sequences": (schema.num_sequential, schema.max_seq_len),
        "mask": (schema.max_seq_len,),
        "labels": (),
    }


def _narrowest(array: np.ndarray) -> np.dtype:
    """Smallest integer dtype holding ``array``'s [min, max]; bool and float
    arrays are stored as they are."""
    if array.dtype.kind not in "iu" or array.size == 0:
        return array.dtype
    lo, hi = int(array.min()), int(array.max())
    return next(
        dtype
        for dtype in _NARROW_DTYPES
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
    )


def write_shards(
    dataset: CTRDataset,
    directory: str | Path,
    shard_size: int = 2048,
    compressed: bool = True,
) -> Path:
    """Write ``dataset`` as row-array shards plus a checksummed index;
    return the directory.

    Shards are written first, the index last: a crash mid-write leaves no
    readable dataset rather than a silently short one.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = len(dataset)
    if n == 0:
        raise ValueError("refusing to shard an empty dataset")
    full = {key: getattr(dataset, key) for key in _ARRAY_KEYS}
    stored = {key: _narrowest(array) for key, array in full.items()}
    shards = []
    for i, start in enumerate(range(0, n, shard_size)):
        rows = slice(start, min(start + shard_size, n))
        payload = pack_rows(
            [full[key][rows].astype(stored[key], copy=False) for key in _ARRAY_KEYS],
            compressed=compressed,
        )
        name = _shard_name(i)
        atomic_write_bytes(directory / name, payload)
        meta = {
            "name": name,
            "offset": int(start),
            "rows": int(rows.stop - rows.start),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        shards.append(meta)
    index = {
        "format_version": SHARD_FORMAT_VERSION,
        "schema": dataset.schema.to_dict(),
        "num_samples": int(n),
        "shard_size": int(shard_size),
        "compressed": bool(compressed),
        "dtypes": {key: str(array.dtype) for key, array in full.items()},
        "stored_dtypes": {key: str(dtype) for key, dtype in stored.items()},
        "shards": shards,
    }
    write_record(directory / INDEX_NAME, index, digest_key=_DIGEST_KEY)
    return directory


def open_shards_for(
    dataset: CTRDataset,
    directory: str | Path,
    shard_size: int = 2048,
    cache_shards: int | None = None,
) -> "ShardedCTRDataset":
    """Open ``directory`` as the shards of ``dataset``, writing them first
    when it holds no index.

    A directory that already has an index is reused only if it is readable
    at this format version and holds ``dataset``'s schema and row count;
    anything else (another dataset or scale, an older format, corruption)
    raises :class:`ShardCorruptError` rather than training on wrong rows.
    """
    directory = Path(directory)
    if not (directory / INDEX_NAME).exists():
        write_shards(dataset, directory, shard_size=shard_size)
    hint = "point at an empty directory to (re)shard"
    try:
        sharded = ShardedCTRDataset(directory, cache_shards=cache_shards)
    except ShardCorruptError as exc:
        raise ShardCorruptError(f"{exc}; {hint}") from exc
    if sharded.schema != dataset.schema:
        raise ShardCorruptError(
            f"{directory} holds shards for schema {sharded.schema.name!r}, "
            f"which does not match the requested dataset; {hint}"
        )
    if len(sharded) != len(dataset):
        raise ShardCorruptError(
            f"{directory} holds {len(sharded)} rows but the processed split "
            f"has {len(dataset)}; {hint}"
        )
    return sharded


class ShardedCTRDataset:
    """Random-access view over a shard directory written by ``write_shards``.

    Exposes the subset of the :class:`CTRDataset` surface the training loop
    uses — ``__len__``, ``schema``, and ``batch(indices)`` — plus the
    ``gather_batches`` window gather :class:`~repro.data.batching.DataLoader`
    prefers.  ``cache_shards`` bounds how many decompressed shards stay
    resident (``None`` keeps everything; training-scale shard sets rarely
    fit, which is the point of the format).

    Thread safety: the cache map is lock-protected; disk loads run outside
    the lock, so threads sharing one dataset overlap IO and decompression.
    Two threads racing on the same cold shard may both load it — wasted
    work, never wrong results.
    """

    def __init__(self, directory: str | Path, cache_shards: int | None = None):
        if cache_shards is not None and cache_shards < 1:
            raise ValueError("cache_shards must be >= 1 (or None for unbounded)")
        self.directory = Path(directory)
        self.cache_shards = cache_shards
        index_path = self.directory / INDEX_NAME
        if not index_path.exists():
            raise ShardCorruptError(f"no shard index at {index_path}")
        try:
            index = read_record(
                index_path,
                SHARD_FORMAT_VERSION,
                digest_key=_DIGEST_KEY,
                digest_required=True,
            )
        except SealError as exc:
            raise ShardCorruptError(str(exc)) from exc
        self._index = index
        self.schema = DatasetSchema.from_dict(index["schema"])
        self.num_samples = int(index["num_samples"])
        self._shards = index["shards"]
        self._offsets = np.array(
            [s["offset"] for s in self._shards] + [self.num_samples],
            dtype=np.int64,
        )
        self._dtypes = {k: np.dtype(v) for k, v in index["dtypes"].items()}
        row_shapes = _row_shapes(self.schema)
        self._layout = [
            (np.dtype(index["stored_dtypes"][k]), row_shapes[k]) for k in _ARRAY_KEYS
        ]
        self._compressed = bool(index["compressed"])
        self._cache: OrderedDict[int, dict[str, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()
        self._telemetry_lock = threading.Lock()
        self._registry = None
        self._observers = None

    def __len__(self) -> int:
        return self.num_samples

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def bind_telemetry(self, registry=None, observers=None) -> None:
        """Attach a metric registry (shard-cache hit/miss counters) and an
        observer list (``shard_loaded`` events).  Either may be ``None``."""
        self._registry = registry
        self._observers = observers

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def load_shard(self, i: int) -> dict[str, np.ndarray]:
        """Read, checksum-verify, and decode shard ``i`` (no caching)."""
        meta = self._shards[i]
        path = self.directory / meta["name"]
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise ShardCorruptError(f"missing shard file {path}") from None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != meta["sha256"]:
            raise ShardCorruptError(
                f"{path}: SHA-256 mismatch (expected {meta['sha256'][:12]}, "
                f"got {digest[:12]})"
            )
        try:
            views = unpack_rows(
                payload,
                self._layout,
                meta_rows(meta),
                compressed=self._compressed,
                where=path,
            )
        except SealError as exc:
            raise ShardCorruptError(str(exc)) from exc
        return {
            key: view.astype(self._dtypes[key], copy=False)
            for key, view in zip(_ARRAY_KEYS, views)
        }

    def _shard(self, i: int) -> dict[str, np.ndarray]:
        """Cached shard access; counts hits/misses, events actual loads."""
        with self._lock:
            cached = self._cache.get(i)
            if cached is not None:
                self._cache.move_to_end(i)
        if cached is not None:
            self._count("pipeline.shard_cache.hit")
            return cached
        self._count("pipeline.shard_cache.miss")
        start = time.perf_counter()
        arrays = self.load_shard(i)
        load_ms = (time.perf_counter() - start) * 1000.0
        with self._lock:
            self._cache[i] = arrays
            self._cache.move_to_end(i)
            limit = self.cache_shards
            while limit is not None and len(self._cache) > limit:
                self._cache.popitem(last=False)
        self._event(i, int(meta_rows(self._shards[i])), load_ms)
        return arrays

    def _count(self, name: str) -> None:
        if self._registry is not None:
            with self._telemetry_lock:
                self._registry.counter(name).inc()

    def _event(self, shard: int, rows: int, load_ms: float) -> None:
        if self._observers is None:
            return
        event = ShardLoadedEvent(
            shard=shard,
            rows=rows,
            load_ms=load_ms,
            source=str(self.directory),
        )
        # Serialised: threads sharing the dataset may emit concurrently and
        # sinks (e.g. the JSONL trace writer) are not thread-safe.
        with self._telemetry_lock:
            self._observers.emit(event)

    # ------------------------------------------------------------------
    # Row gather
    # ------------------------------------------------------------------
    def _locate(self, indices: np.ndarray) -> np.ndarray:
        lo = int(indices.min())
        hi = int(indices.max())
        if lo < 0 or hi >= self.num_samples:
            raise IndexError(f"row index out of range (n={self.num_samples})")
        return np.searchsorted(self._offsets, indices, side="right") - 1

    def _alloc(self, total: int) -> dict[str, np.ndarray]:
        return {
            key: np.empty((total, *row_shape), dtype=self._dtypes[key])
            for key, (_, row_shape) in zip(_ARRAY_KEYS, self._layout)
        }

    def _gather_into(
        self,
        out: dict[str, np.ndarray],
        positions: np.ndarray,
        indices: np.ndarray,
    ) -> None:
        """Fill ``out[positions]`` with rows ``indices``, one shard at a time.

        Shards already resident are visited before the ones that must be
        loaded, so a load never evicts a shard this call still needs.  In
        shard-id order a shuffled batch, which touches nearly every shard,
        is a cyclic scan through a smaller LRU: its worst case, no hits.
        The residency snapshot may go stale under concurrent threads;
        that only turns a hit into a miss.
        """
        if indices.size == 0:
            return
        shard_ids = self._locate(indices)
        order = np.argsort(shard_ids, kind="stable")
        sorted_ids = shard_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        groups = np.split(order, boundaries)
        with self._lock:
            resident = set(self._cache)
        groups.sort(key=lambda group: int(shard_ids[group[0]]) not in resident)
        for group in groups:
            shard = int(shard_ids[group[0]])
            arrays = self._shard(shard)
            local = indices[group] - int(self._offsets[shard])
            dest = positions[group]
            for key in _ARRAY_KEYS:
                out[key][dest] = arrays[key][local]

    def batch(self, indices: np.ndarray) -> Batch:
        """Assemble one mini-batch; loads each touched shard at most once."""
        indices = np.asarray(indices, dtype=np.int64)
        out = self._alloc(indices.shape[0])
        self._gather_into(out, np.arange(indices.shape[0]), indices)
        return Batch(**out)

    def gather_batches(self, index_arrays: list[np.ndarray]) -> list[Batch]:
        """Assemble a *window* of batches with one pass over the shards.

        Each shard needed anywhere in the window is loaded at most once —
        the loader's main lever under shuffled access, where a per-batch
        gather reloads every touched shard the cache could not keep (all but
        about ``cache_shards`` of them).
        """
        if not index_arrays:
            return []
        chunks = [np.asarray(ix, dtype=np.int64) for ix in index_arrays]
        lengths = [c.shape[0] for c in chunks]
        flat = np.concatenate(chunks)
        out = self._alloc(int(flat.shape[0]))
        self._gather_into(out, np.arange(flat.shape[0]), flat)
        splits = np.cumsum(lengths)[:-1]
        parts = {key: np.split(out[key], splits) for key in _ARRAY_KEYS}
        return [
            Batch(**{key: parts[key][b] for key in _ARRAY_KEYS})
            for b in range(len(chunks))
        ]

    def materialize(self) -> CTRDataset:
        """Load every shard (in order) back into one in-memory dataset."""
        arrays = [self.load_shard(i) for i in range(self.num_shards)]
        return CTRDataset(
            schema=self.schema,
            categorical=np.concatenate([a["categorical"] for a in arrays]),
            sequences=np.concatenate([a["sequences"] for a in arrays]),
            mask=np.concatenate([a["mask"] for a in arrays]),
            labels=np.concatenate([a["labels"] for a in arrays]),
        )

    def shard_rows(self) -> list[int]:
        """Row count of every shard, from the index (no shard reads)."""
        return [meta_rows(meta) for meta in self._shards]


def meta_rows(meta: dict) -> int:
    """Row count recorded for one shard in the index."""
    return int(meta["rows"])


def partition_shards(num_shards: int, world_size: int) -> list[list[int]]:
    """Round-robin assignment of shard indices to ``world_size`` ranks.

    The shard index is the partition key: rank ``r`` owns shards
    ``r, r + world_size, r + 2*world_size, ...``.  The result is a disjoint
    exact cover of ``range(num_shards)`` — every shard belongs to exactly one
    rank — which is what makes data-parallel training over a shared shard
    directory safe without any cross-process coordination.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    if world_size > num_shards:
        raise ValueError(
            f"world_size {world_size} exceeds num_shards {num_shards}: "
            f"some ranks would own no data; reshard with a smaller "
            f"shard_size or use fewer processes")
    return [list(range(rank, num_shards, world_size))
            for rank in range(world_size)]


class ShardPartitionView:
    """One rank's slice of a :class:`ShardedCTRDataset`: a subset of shards.

    Exposes the same duck-typed surface the training loaders need —
    ``__len__``, ``schema``, ``batch(indices)``, ``gather_batches`` — with
    row indices local to the partition (``0 .. len(view)``), mapped to the
    base dataset's global rows shard by shard.  The base dataset's LRU shard
    cache is shared, so a process holding one partition only ever caches its
    own shards.
    """

    def __init__(self, base: ShardedCTRDataset, shard_ids):
        shard_ids = [int(i) for i in shard_ids]
        if not shard_ids:
            raise ValueError("a shard partition must hold at least one shard")
        for i in shard_ids:
            if not 0 <= i < base.num_shards:
                raise ValueError(
                    f"shard id {i} out of range (num_shards="
                    f"{base.num_shards})")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids in partition: {shard_ids}")
        self.base = base
        self.shard_ids = shard_ids
        self.schema = base.schema
        rows = base.shard_rows()
        # Local row -> global row, in partition order (shard by shard).
        self._rows = np.concatenate([
            np.arange(rows[i], dtype=np.int64) + int(base._offsets[i])
            for i in shard_ids
        ])

    def __len__(self) -> int:
        return int(self._rows.shape[0])

    @property
    def num_shards(self) -> int:
        return len(self.shard_ids)

    def bind_telemetry(self, registry=None, observers=None) -> None:
        self.base.bind_telemetry(registry=registry, observers=observers)

    def batch(self, indices: np.ndarray) -> Batch:
        indices = np.asarray(indices, dtype=np.int64)
        return self.base.batch(self._rows[indices])

    def gather_batches(self, index_arrays: list[np.ndarray]) -> list[Batch]:
        return self.base.gather_batches(
            [self._rows[np.asarray(ix, dtype=np.int64)]
             for ix in index_arrays])
