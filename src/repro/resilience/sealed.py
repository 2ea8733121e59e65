"""Sealed archives: the one place where bytes on disk become trusted.

Every durable format of this repo (the table in DESIGN.md §8) is the same
idea: named arrays in an ``.npz``, then a JSON *record* that is written last,
names every array's SHA-256 / dtype / shape (the *seal*) and carries a digest
of itself.  Checkpoints and serving artifacts are that pair; the shard
index, the registry state and the distributed commit manifest are the record
alone.  This module owns the pair:

* **write** — :func:`write_sealed` publishes the arrays, then the record,
  both through :mod:`.atomic`.  The record is the commit: arrays without a
  record are an unfinished write and no reader looks at them.
* **read** — :func:`read_record` accepts a JSON object of the expected
  ``format_version`` whose self-digest (when present) matches and whose seal
  is well formed; :func:`read_arrays` is the only guarded ``np.load`` of
  digest-protected arrays.  Whatever goes wrong in either — an exception of
  any type out of numpy, zipfile, zlib or the tokenizer, a missing member, a
  member the seal does not name, a wrong digest — is one :class:`SealError`
  naming the file.  No list of "what ``np.load`` can raise" has been right
  yet, so there is none here.
* **row arrays** — :func:`pack_rows` / :func:`unpack_rows` are the codec of
  a payload that is *not* an archive: row arrays back to back, raw or one
  zlib stream, whose layout the caller's record fixes (the shard format).
  The caller digests the payload before :func:`unpack_rows` sees it; a
  stream that will not inflate, or inflates to the wrong length, is one
  :class:`SealError`.

What a failed read *means* is the caller's policy, not this module's: a
corrupt checkpoint is skipped, a corrupt artifact is refused.  Callers catch
:class:`SealError` and raise their own public error type.

Legacy spellings that still verify (files written before this module): a
record without a self-digest, and ``dtype`` spelled either ``"<f8"`` or
``"float64"`` (entries are compared as ``np.dtype``).  Every seal entry
names its ``shape``.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atomic import atomic_write_json, atomic_write_npz

__all__ = [
    "DIGEST_KEY",
    "SealError",
    "array_digest",
    "seal",
    "record_digest",
    "write_record",
    "write_sealed",
    "read_record",
    "read_arrays",
    "pack_rows",
    "unpack_rows",
    "fields_of",
]

#: Where a record keeps the digest of itself (the shard index predates this
#: module and keeps its own key, ``index_digest``).
DIGEST_KEY = "record_digest"


class SealError(ValueError):
    """A record or archive on disk is unreadable, malformed or fails a digest."""


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over an array's raw bytes (contiguous, native layout)."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def seal(arrays: Mapping[str, np.ndarray]) -> dict[str, dict[str, Any]]:
    """The per-array entries a record carries for ``arrays``."""
    return {
        name: {
            "sha256": array_digest(array),
            "dtype": str(array.dtype),
            "shape": [int(d) for d in array.shape],
        }
        for name, array in arrays.items()
    }


def record_digest(record: Mapping[str, Any], digest_key: str = DIGEST_KEY) -> str:
    """SHA-256 over the canonical JSON of ``record`` minus its own digest."""
    payload = {k: v for k, v in record.items() if k != digest_key}
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def write_record(
    path: str | Path, record: Mapping[str, Any], *, digest_key: str = DIGEST_KEY
) -> Path:
    """Stamp ``record`` with its own digest and publish it atomically."""
    stamped = {**record, digest_key: record_digest(record, digest_key)}
    return atomic_write_json(path, stamped)


def write_sealed(
    arrays_path: str | Path,
    record_path: str | Path,
    arrays: Mapping[str, np.ndarray],
    record: Mapping[str, Any],
    *,
    seal_key: str = "arrays",
    compressed: bool = False,
    unsealed: Mapping[str, np.ndarray] | None = None,
) -> Path:
    """Publish ``arrays`` then ``record``; returns the record path.

    The record gains ``seal_key`` (the seal of ``arrays``) and its
    self-digest.  ``unsealed`` members ride in the archive without a seal
    entry (the weights-format version marker of a serving artifact).
    """
    members = dict(arrays)
    for name, value in (unsealed or {}).items():
        if name in members:
            raise ValueError(f"array name {name!r} is reserved by the format")
        members[name] = value
    atomic_write_npz(arrays_path, members, compressed=compressed)
    return write_record(record_path, {**record, seal_key: seal(arrays)})


def _check_seal(entries: Any, where: str) -> None:
    if not isinstance(entries, dict):
        raise SealError(f"{where} is not an object")
    for name, spec in entries.items():
        with fields_of(f"{where}[{name!r}]"):
            shape = spec["shape"]
            if not (
                isinstance(spec["sha256"], str)
                and isinstance(spec["dtype"], str)
                and isinstance(shape, list)
                and all(type(d) is int for d in shape)
            ):
                raise TypeError("not a seal entry")
            np.dtype(spec["dtype"])


def read_record(
    path: str | Path,
    format_version: int,
    *,
    seal_key: str | None = None,
    digest_key: str = DIGEST_KEY,
    digest_required: bool = False,
) -> dict[str, Any]:
    """Read one JSON record; raises :class:`SealError` unless it is sound.

    Sound means: a JSON object, of ``format_version``, whose self-digest
    matches, and (with ``seal_key``) whose seal is well formed.  A record
    without a self-digest is accepted unless ``digest_required`` — records
    written before the digest existed must still load.
    """
    try:
        record = json.loads(Path(path).read_bytes())
    except Exception as exc:  # OSError, bad UTF-8, bad JSON, absurd nesting
        raise SealError(f"{path}: unreadable record ({exc})") from exc
    if not isinstance(record, dict):
        raise SealError(f"{path}: record is not a JSON object")
    version = record.get("format_version")
    if version != format_version:
        raise SealError(
            f"{path}: format_version {version!r} is not supported "
            f"(this library reads version {format_version})"
        )
    if digest_key in record:
        if record[digest_key] != record_digest(record, digest_key):
            raise SealError(f"{path}: record digest mismatch ({digest_key})")
    elif digest_required:
        raise SealError(f"{path}: record lacks its {digest_key}")
    if seal_key is not None:
        _check_seal(record.get(seal_key), f"{path}: {seal_key!r}")
    return record


def read_arrays(
    path: str | Path,
    entries: Mapping[str, Mapping[str, Any]],
    *,
    unsealed: Iterable[str] = (),
) -> dict[str, np.ndarray]:
    """Load the archive at ``path`` and verify it against ``entries``.

    ``entries`` is a seal that :func:`read_record` has checked.  Returns
    every sealed array plus whichever ``unsealed`` members are present
    (unverified: the caller decides what they may say).  Any other member,
    any missing one, and any exception at all while reading raise
    :class:`SealError`.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            strangers = set(archive.files) - set(entries) - set(unsealed)
            if strangers:
                raise SealError(
                    f"{path}: members the record does not name: {sorted(strangers)}"
                )
            arrays = {name: archive[name] for name in archive.files}
            for name, spec in entries.items():
                array = arrays.get(name)
                if not isinstance(array, np.ndarray):
                    raise SealError(f"{path}: missing array {name!r}")
                if (
                    array.dtype != np.dtype(spec["dtype"])
                    or list(array.shape) != spec["shape"]
                ):
                    raise SealError(
                        f"{path}: array {name!r} is {array.dtype}{array.shape}, "
                        f"the record declares {spec['dtype']}{spec['shape']}"
                    )
                digest = array_digest(array)
                if digest != spec["sha256"]:
                    raise SealError(
                        f"{path}: array {name!r} fails its checksum "
                        f"(record {spec['sha256'][:12]}…, got {digest[:12]}…)"
                    )
            return arrays
    except SealError:
        raise
    except Exception as exc:
        raise SealError(f"{path}: unreadable archive ({exc!r})") from exc


def pack_rows(arrays: Sequence[np.ndarray], *, compressed: bool) -> bytes:
    """The C-order bytes of ``arrays`` back to back; one zlib stream when
    ``compressed``.  The arrays share their first (row) axis."""
    raw = b"".join(np.ascontiguousarray(array).tobytes() for array in arrays)
    return zlib.compress(raw) if compressed else raw


def unpack_rows(
    payload: bytes,
    layout: Sequence[tuple[np.dtype, tuple[int, ...]]],
    rows: int,
    *,
    compressed: bool,
    where: str | Path,
) -> list[np.ndarray]:
    """Inverse of :func:`pack_rows`: read-only views of ``rows`` rows of
    each ``(dtype, row_shape)`` in ``layout``, in order.

    The payload must inflate (when ``compressed``) to one complete stream
    with nothing after it, of exactly ``rows`` times the layout's row width;
    anything else raises :class:`SealError`.
    """
    shapes = [(np.dtype(dtype), (rows, *row_shape)) for dtype, row_shape in layout]
    sizes = [dtype.itemsize * math.prod(shape) for dtype, shape in shapes]
    expected = sum(sizes)
    raw = payload
    if compressed:
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(payload)
        except zlib.error as exc:
            raise SealError(f"{where}: corrupt zlib stream ({exc})") from exc
        if not inflater.eof or inflater.unused_data:
            raise SealError(f"{where}: zlib stream truncated or followed by junk")
    if len(raw) != expected:
        raise SealError(
            f"{where}: {len(raw)} bytes decoded, {rows} rows need {expected}"
        )
    arrays, offset = [], 0
    for (dtype, shape), size in zip(shapes, sizes):
        view = np.frombuffer(raw, dtype, size // dtype.itemsize, offset)
        arrays.append(view.reshape(shape))
        offset += size
    return arrays


@contextmanager
def fields_of(where: str | Path) -> Iterator[None]:
    """Scope in which a caller takes its own fields out of a record.

    A record can be sound JSON with a matching digest and still not be what
    the caller expects (a missing key, a list where an object belongs, an
    index out of range); inside this scope that is a :class:`SealError`
    naming ``where``, never a bare ``KeyError`` / ``TypeError``.
    """
    try:
        yield
    except SealError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise SealError(f"{where}: malformed record ({exc!r})") from exc
