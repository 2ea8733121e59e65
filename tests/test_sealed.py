"""A file on disk is trusted in one place (``repro.resilience.sealed``).

Every durable format is damaged on purpose here — bytes flipped, files
truncated, records rewritten into valid-but-wrong JSON, the disk filling up
mid-write — and each time the only acceptable endings are the ones the
format documents (DESIGN.md §8):

==============  ===========================================================
checkpoint      ``CheckpointCorruptError``; ``load_latest`` falls back to
                the previous checkpoint and lists the bad one as skipped
artifact        ``ArtifactError``
cache entry     a miss, after which a valid entry has been rewritten
shard index     ``ShardCorruptError``
registry state  ``RegistryError``
==============  ===========================================================

or a clean load whose content equals the pristine one (zip metadata, JSON
whitespace and the name of the self-digest key are not content).  Any other
exception type is a leak and fails the test with the offsets that caused it.
"""

import errno
import hashlib
import io
import json
import os
import shutil
import struct
import zipfile

import numpy as np
import pytest

from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.data.pipeline import (
    ShardCorruptError,
    ShardedCTRDataset,
    cached_build_ctr_data,
    write_shards,
)
from repro.data.pipeline import cache as cache_module
from repro.data.pipeline.shards import INDEX_NAME
from repro.models import create_model
from repro.nn.serialization import load_checkpoint
from repro.obs import MetricRegistry
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointStore,
    RunCheckpoint,
    array_digest,
    atomic,
)
from repro.resilience.sealed import DIGEST_KEY, record_digest
from repro.serving import (
    ArtifactError,
    InferenceSession,
    ModelRegistry,
    RegistryError,
    export_artifact,
    load_artifact,
)
from repro.serving.artifact import MANIFEST_NAME, WEIGHTS_NAME
from repro.serving.registry import STATE_NAME, manifest_digest

from .helpers import edit_record

#: 0x08 turns a space of an npy header's padding into ``(`` (a bracket that
#: never closes is the tokenizer's ``TokenError``, which no reader used to
#: expect) and a JSON ``"`` into ``*``; 0xFF leaves nothing of the byte.
MASKS = (0x08, 0xFF)

# A header numpy cannot parse at once is retried as a Python 2 one, with a
# warning about the file's age.
pytestmark = [
    pytest.mark.filterwarnings("ignore:Reading `.npy` or `.npz` file"),
    pytest.mark.filterwarnings("ignore:Data type alias"),
]


@pytest.fixture(scope="module")
def world():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=3)
    return InterestWorld(config)


@pytest.fixture(scope="module")
def data(world):
    return build_ctr_data(world, max_seq_len=6, seed=4)


# ----------------------------------------------------------------------
# The formats: how each one is written, probed, and put back
# ----------------------------------------------------------------------
def _checkpoint(step: int) -> RunCheckpoint:
    rng = np.random.default_rng(step)
    # One member is larger than zipfile's read-ahead: only then does numpy
    # parse a damaged header before the CRC-32 has seen the whole member.
    weights = {"dense.weight": rng.normal(size=(4, 3)),
               "dense.bias": rng.normal(size=3),
               "table": rng.integers(0, 9, size=(400, 2))}
    return RunCheckpoint(
        model_state=weights,
        best_state={k: v + 1 for k, v in weights.items()},
        optimizer_state={"kind": "adam", "lr": 0.01, "step": step,
                         "arrays": {"m/0": rng.normal(size=(4, 3)),
                                    "v/0": rng.normal(size=(4, 3))}},
        loader_rng_state={"bit_generator": "PCG64", "state": {"state": step}},
        module_rng_states={"dropout": {"bit_generator": "PCG64"}},
        epoch=1, batches_done=3, step=step, best_auc=0.71, best_epoch=0,
        bad_epochs=1, history=[{"auc": 0.71, "logloss": 0.6}],
        train_losses=[0.69], config={"epochs": 2})


def _same_arrays(left: dict, right: dict) -> bool:
    return (sorted(left) == sorted(right)
            and all(left[k].dtype == right[k].dtype
                    and np.array_equal(left[k], right[k]) for k in left))


def _split_arrays(dataset) -> dict:
    return {k: getattr(dataset, k)
            for k in ("categorical", "sequences", "mask", "labels")}


def _same_content(record: dict, pristine: dict) -> bool:
    """Every pristine field survives (the self-digest is not content)."""
    return all(record.get(k) == v for k, v in pristine.items()
               if k != DIGEST_KEY)


class Case:
    """One format on disk: ``probe()`` loads it and returns ``"clean"`` or
    ``"refused"`` after asserting that ending is the documented one."""

    arrays_path = None
    digest_key = DIGEST_KEY

    def remember(self):
        paths = [p for p in (self.arrays_path, self.record_path) if p]
        self._pristine = {p: p.read_bytes() for p in paths}

    def restore(self):
        for path, raw in self._pristine.items():
            path.write_bytes(raw)

    def record(self) -> dict:
        return json.loads(self._pristine[self.record_path])


class CheckpointCase(Case):
    def __init__(self, root):
        self.store = CheckpointStore(root)
        self.previous = self.store.save(_checkpoint(step=1))
        self.record_path = self.store.save(_checkpoint(step=2))
        self.arrays_path = self.record_path.with_suffix(".npz")
        self.good = self.store.load(self.record_path)
        self.remember()

    def probe(self, thorough=True):
        try:
            loaded = self.store.load(self.record_path)
        except CheckpointCorruptError as exc:
            assert self.record_path.stem in str(exc)
            if thorough:
                ckpt, path, skipped = self.store.load_latest()
                assert path == self.previous and ckpt.step == 1
                assert [p for p, _ in skipped] == [self.record_path]
            return "refused"
        assert loaded.meta() == self.good.meta()
        assert _same_arrays(loaded.arrays(), self.good.arrays())
        return "clean"


class ArtifactCase(Case):
    def __init__(self, root, data):
        model = create_model("LR", data.schema, seed=1)
        self.root = export_artifact(model, root, model_name="LR",
                                    metadata={"dataset": "tiny"})
        self.arrays_path = self.root / WEIGHTS_NAME
        self.record_path = self.root / MANIFEST_NAME
        self.state = model.state_dict()
        self.remember()

    def probe(self, thorough=True):
        try:
            model, manifest = load_artifact(self.root)
        except ArtifactError as exc:
            assert str(self.root) in str(exc)
            return "refused"
        assert _same_content(manifest, self.record())
        assert _same_arrays(model.state_dict(), self.state)
        return "clean"


class CacheCase(Case):
    def __init__(self, root, world):
        self.world, self.root = world, root
        self.good = self._build(MetricRegistry())
        self.entry = next(p for p in root.iterdir() if p.is_dir())
        self.key = cache_module.cache_key(world, 6, 4)
        self.arrays_path = self.entry / cache_module.ARRAYS_NAME
        self.record_path = self.entry / cache_module.MANIFEST_NAME
        self.remember()

    def _build(self, registry):
        return cached_build_ctr_data(self.world, max_seq_len=6, seed=4,
                                     cache_dir=self.root, registry=registry)

    def _same(self, loaded):
        return (loaded.schema == self.good.schema
                and loaded.item_map == self.good.item_map
                and loaded.user_map == self.good.user_map
                and all(_same_arrays(_split_arrays(loaded.splits[s]),
                                     _split_arrays(self.good.splits[s]))
                        for s in ("train", "validation", "test")))

    def probe(self, thorough=True):
        if not thorough:    # the reader alone: a miss is ``None``
            loaded = cache_module._load(self.entry, self.key)
            assert loaded is None or self._same(loaded)
            return "refused" if loaded is None else "clean"
        registry = MetricRegistry()
        loaded = self._build(registry)
        assert self._same(loaded)
        if "pipeline.cache.hit" in registry.snapshot():
            return "clean"
        again = MetricRegistry()    # the miss rewrote a valid entry
        self._build(again)
        assert again.snapshot()["pipeline.cache.hit"]["value"] == 1
        return "refused"


class ShardIndexCase(Case):
    digest_key = "index_digest"

    def __init__(self, root, data):
        self.root = write_shards(data.train, root, shard_size=8)
        self.record_path = self.root / INDEX_NAME
        self.good = ShardedCTRDataset(self.root)
        self.remember()

    def probe(self, thorough=True):
        try:
            dataset = ShardedCTRDataset(self.root)
        except ShardCorruptError as exc:
            assert str(self.record_path) in str(exc)
            return "refused"
        assert dataset.schema == self.good.schema
        assert dataset.shard_rows() == self.good.shard_rows()
        assert dataset._shards == self.good._shards
        return "clean"


class RegistryCase(Case):
    def __init__(self, root):
        self.registry = ModelRegistry(root)
        self.registry.set_challenger(None)
        self.record_path = root / STATE_NAME
        self.remember()

    def probe(self, thorough=True):
        try:
            state = self.registry.state()
        except RegistryError as exc:
            assert str(self.record_path) in str(exc)
            return "refused"
        assert _same_content(state, self.record())
        return "clean"


@pytest.fixture(scope="module")
def cases(tmp_path_factory, world, data):
    root = tmp_path_factory.mktemp("sealed")
    return {
        "checkpoint": CheckpointCase(root / "ckpt"),
        "artifact": ArtifactCase(root / "artifact", data),
        "cache": CacheCase(root / "cache", world),
        "index": ShardIndexCase(root / "shards", data),
        "registry": RegistryCase(root / "registry"),
    }


ARRAY_FORMATS = ("checkpoint", "artifact", "cache")
RECORDS = ("checkpoint", "artifact", "cache", "index", "registry")


# ----------------------------------------------------------------------
# Damage
# ----------------------------------------------------------------------
def _header_offsets(raw: bytes) -> list[list[int]]:
    """Per member, largest first, the file offsets of its npy header: parsed
    exactly when the member is stored, the first 64 bytes of the stream when
    it is deflated (the header is what the stream opens with)."""
    offsets = []
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        for info in archive.infolist():
            at = info.header_offset
            name_len, extra_len = struct.unpack("<HH", raw[at + 26:at + 30])
            start = at + 30 + name_len + extra_len
            if info.compress_type == zipfile.ZIP_STORED:
                (header_len,) = struct.unpack("<H", raw[start + 8:start + 10])
                span = 10 + header_len
            else:
                span = min(64, info.compress_size)
            offsets.append((info.compress_size, list(range(start, start + span))))
    return [span for _, span in sorted(offsets, reverse=True)]


def _sweep(case, path, offsets, thorough):
    """Flip each offset with each mask; returns how the probes ended and
    fails on any that ended in an undocumented exception.

    ``thorough`` probes go through the public entry points, including the
    recovery each format promises (fallback, rebuild); the others call the
    reader alone, which is what an exhaustive sweep can afford."""
    pristine = path.read_bytes()
    outcomes = {"clean": 0, "refused": 0}
    leaks = []
    try:
        for offset in offsets:
            for mask in MASKS:
                damaged = bytearray(pristine)
                damaged[offset] ^= mask
                path.write_bytes(bytes(damaged))
                try:
                    outcomes[case.probe(thorough)] += 1
                except Exception as exc:  # noqa: BLE001 - the point of the test
                    leaks.append((offset, hex(mask), repr(exc)[:120]))
                if thorough:    # a rebuild may have rewritten the other file
                    case.restore()
    finally:
        case.restore()
    assert not leaks, f"{len(leaks)} flips escaped as another error: {leaks[:5]}"
    return outcomes


def _sample(size: int, count: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(size, size=min(count, size), replace=False).tolist())


@pytest.mark.parametrize("name", ARRAY_FORMATS)
def test_flipped_array_bytes_end_in_the_documented_outcome(cases, name):
    case = cases[name]
    raw = case.arrays_path.read_bytes()
    # The largest member's header in full, then a seeded sample of
    # everything (data, zip local headers, the central directory).
    header = _sweep(case, case.arrays_path, _header_offsets(raw)[0],
                    thorough=False)
    assert header["refused"] > header["clean"]
    sample = _sweep(case, case.arrays_path, _sample(len(raw), 60, seed=19),
                    thorough=True)
    assert sample["refused"] > 0
    assert case.probe() == "clean"


@pytest.mark.slow
@pytest.mark.parametrize("name", ARRAY_FORMATS)
def test_every_header_byte_flipped(cases, name):
    case = cases[name]
    headers = sum(_header_offsets(case.arrays_path.read_bytes()), [])
    outcomes = _sweep(case, case.arrays_path, headers, thorough=False)
    assert outcomes["refused"] > outcomes["clean"]


@pytest.mark.parametrize("name", ARRAY_FORMATS)
def test_truncated_arrays_end_in_the_documented_outcome(cases, name):
    case = cases[name]
    raw = case.arrays_path.read_bytes()
    try:
        for length in (0, 1, len(raw) // 3, len(raw) - 30, len(raw) - 1):
            case.arrays_path.write_bytes(raw[:length])
            assert case.probe() == "refused", f"truncated to {length} bytes"
            case.restore()
        case.arrays_path.unlink()
        assert case.probe() == "refused", "arrays file missing"
    finally:
        case.restore()


@pytest.mark.parametrize("name", RECORDS)
def test_flipped_record_bytes_end_in_the_documented_outcome(cases, name):
    case = cases[name]
    size = len(case.record_path.read_bytes())
    outcomes = _sweep(case, case.record_path, _sample(size, 120, seed=29),
                      thorough=True)
    assert outcomes["refused"] > outcomes["clean"]


@pytest.mark.slow
@pytest.mark.parametrize("name", RECORDS)
def test_every_record_byte_flipped(cases, name):
    case = cases[name]
    size = len(case.record_path.read_bytes())
    outcomes = _sweep(case, case.record_path, range(size), thorough=False)
    # What still loads is the pristine content: only whitespace and the
    # spelling of the self-digest's own key are left unprotected.
    assert outcomes["clean"] < 0.05 * (outcomes["clean"] + outcomes["refused"])


@pytest.mark.parametrize("name", RECORDS)
def test_truncated_records_are_refused(cases, name):
    case = cases[name]
    raw = case.record_path.read_bytes()
    try:
        for length in (0, 1, len(raw) // 2, len(raw) - 1):
            case.record_path.write_bytes(raw[:length])
            assert case.probe() == "refused", f"truncated to {length} bytes"
            case.restore()
    finally:
        case.restore()


# ----------------------------------------------------------------------
# Valid JSON, wrong structure
# ----------------------------------------------------------------------
def _first_seal_entry(record, key):
    return next(iter(record[key].values()))


def _misspell_sha(key):
    def mutate(record):
        entry = _first_seal_entry(record, key)
        entry["sha25v"] = entry.pop("sha256")
    return mutate


MALFORMED = [
    ("checkpoint", "sha25v", _misspell_sha("manifest")),
    ("checkpoint", "seal-is-a-list", lambda r: r.update(manifest=[1, 2])),
    ("checkpoint", "entry-is-a-string",
     lambda r: r["manifest"].update({next(iter(r["manifest"])): "oops"})),
    ("checkpoint", "no-epoch", lambda r: r.pop("epoch")),
    ("checkpoint", "record-is-a-list", None),
    ("artifact", "sha25v", _misspell_sha("arrays")),
    ("artifact", "bad-dtype",
     lambda r: _first_seal_entry(r, "arrays").update(dtype="float65")),
    ("artifact", "shape-of-strings",
     lambda r: _first_seal_entry(r, "arrays").update(shape=["4", "3"])),
    ("artifact", "seal-is-null", lambda r: r.update(arrays=None)),
    ("artifact", "field-kind",
     lambda r: r["schema"]["categorical"][0].update(kind="quantum")),
    ("artifact", "field-without-vocab",
     lambda r: r["schema"]["categorical"][0].pop("vocab_size")),
    ("artifact", "paired-with-out-of-range",
     lambda r: r["schema"].update(paired_with=[99] * len(
         r["schema"]["paired_with"]))),
    ("artifact", "schema-is-a-string", lambda r: r.update(schema="amazon")),
    ("artifact", "embedding-dim-is-a-list",
     lambda r: r.update(embedding_dim=[10])),
    ("cache", "sha25v", _misspell_sha("arrays")),
    ("cache", "item-map-is-a-list", lambda r: r.update(item_map=[1, 2])),
    ("cache", "seal-drops-an-array",
     lambda r: r["arrays"].pop("train_labels")),
    ("registry", "record-is-a-list", None),
]


@pytest.mark.parametrize("restamp", [True, False], ids=["stamped", "legacy"])
@pytest.mark.parametrize("name, what, mutate", MALFORMED,
                         ids=[f"{n}-{w}" for n, w, _ in MALFORMED])
def test_malformed_records_are_the_callers_error(cases, name, what, mutate,
                                                 restamp):
    """With the digest re-stamped the reader reaches the edit itself; without
    one the record is in the layout that predates the digest.  Either way the
    ending names the file and is never KeyError / TypeError / IndexError."""
    case = cases[name]
    try:
        if mutate is None:
            case.record_path.write_text(json.dumps([1, 2, 3]))
        else:
            edit_record(case.record_path, mutate, digest_key=case.digest_key,
                        restamp=restamp)
        assert case.probe() == "refused"
    finally:
        case.restore()


def test_present_and_wrong_digest_is_corrupt_absent_is_legacy(cases):
    for name in ("checkpoint", "artifact", "cache", "registry"):
        case = cases[name]
        try:
            # absent: what the parent commit wrote; still loads
            edit_record(case.record_path, lambda r: None, restamp=False)
            assert DIGEST_KEY not in json.loads(case.record_path.read_text())
            assert case.probe() == "clean"
            # present and wrong: a field changed behind the digest's back
            record = case.record()
            assert record[DIGEST_KEY] == record_digest(record)
            record["tampered"] = True
            case.record_path.write_text(json.dumps(record))
            assert case.probe() == "refused"
        finally:
            case.restore()
    # The shard index predates the others' digest: there it is mandatory.
    index = cases["index"]
    try:
        edit_record(index.record_path, lambda r: None,
                    digest_key="index_digest", restamp=False)
        with pytest.raises(ShardCorruptError, match="index_digest"):
            ShardedCTRDataset(index.root)
    finally:
        index.restore()


# ----------------------------------------------------------------------
# Compatibility with what the parent commit wrote and read
# ----------------------------------------------------------------------
def _parent_seal(arrays, dtype_of, with_shape=True):
    entries = {}
    for name, arr in arrays.items():
        entries[name] = {"sha256": array_digest(arr), "dtype": dtype_of(arr)}
        if with_shape:
            entries[name]["shape"] = list(arr.shape)
    return entries


def _minus_additions(record, seal_key):
    """A record of today with what this format gained taken back out: the
    self-digest, and per seal entry the dtype spelling and the shape."""
    record = {k: v for k, v in record.items() if k != DIGEST_KEY}
    record[seal_key] = {name: {"sha256": spec["sha256"]}
                        for name, spec in record[seal_key].items()}
    return record


def test_parent_layout_checkpoint_loads_and_writer_adds_only_the_digest(tmp_path):
    ckpt = _checkpoint(step=7)
    store = CheckpointStore(tmp_path)
    # As b2e6b71 wrote it: ``dtype.str`` spelling, shape, no self-digest.
    meta = {**ckpt.meta(), "is_best": True,
            "manifest": _parent_seal(ckpt.arrays(), lambda a: a.dtype.str)}
    np.savez(tmp_path / "ckpt-0000000007.npz", **ckpt.arrays())
    (tmp_path / "ckpt-0000000007.json").write_text(
        json.dumps(meta, sort_keys=True))
    loaded, path, skipped = store.load_latest()
    assert skipped == [] and loaded.meta() == ckpt.meta()
    assert _same_arrays(loaded.arrays(), ckpt.arrays())

    written = json.loads(store.save(ckpt, is_best=True).read_text())
    assert sorted(set(written) - set(meta)) == [DIGEST_KEY]
    assert _minus_additions(written, "manifest") == _minus_additions(
        meta, "manifest")
    assert all(np.dtype(spec["dtype"]) == np.dtype(meta["manifest"][n]["dtype"])
               and spec["shape"] == meta["manifest"][n]["shape"]
               for n, spec in written["manifest"].items())


def test_parent_layout_artifact_loads_with_the_same_identity(cases, tmp_path):
    case = cases["artifact"]
    legacy = tmp_path / "legacy"
    shutil.copytree(case.root, legacy)
    # ``"dtype": "float64"`` beside a weights.npz that carries the format's
    # version member, no self-digest: b2e6b71's export, field for field.
    written = case.record()
    parent = {k: v for k, v in written.items() if k != DIGEST_KEY}
    parent["arrays"] = _parent_seal(dict(sorted(case.state.items())),
                                    lambda a: str(a.dtype))
    assert parent["arrays"] == written["arrays"]      # nothing else moved
    (legacy / MANIFEST_NAME).write_text(json.dumps(parent, sort_keys=True))
    with np.load(legacy / WEIGHTS_NAME) as archive:
        assert "__repro_checkpoint_version__" in archive.files
    session = InferenceSession.load(legacy)
    assert _same_arrays(session.model.state_dict(), case.state)
    assert session.artifact_digest() == manifest_digest(parent)
    assert manifest_digest(parent) == manifest_digest(written)
    # ...and the weights file is still a plain ``nn.serialization`` file.
    twin = create_model("LR", session.schema, seed=9)
    load_checkpoint(twin, legacy / WEIGHTS_NAME)
    assert _same_arrays(twin.state_dict(), case.state)


def test_artifact_weights_version_and_strangers(cases, tmp_path):
    case = cases["artifact"]
    with np.load(case.arrays_path) as archive:
        members = {name: archive[name] for name in archive.files}
    for label, change, named in [
        ("newer", {"__repro_checkpoint_version__": np.array(2)}, "version"),
        ("not-a-version",
         {"__repro_checkpoint_version__": np.array([1.5, 2.0])}, "version"),
        ("stranger", {"extra": np.zeros(3)}, "does not name"),
    ]:
        broken = tmp_path / label
        shutil.copytree(case.root, broken)
        np.savez_compressed(broken / WEIGHTS_NAME, **{**members, **change})
        with pytest.raises(ArtifactError, match=named):
            load_artifact(broken)


def test_parent_layout_cache_entry_is_a_hit(cases, world):
    case = cases["cache"]
    try:
        # b2e6b71's cache.json: ``str(dtype)``, no shape, no self-digest.
        def strip(record):
            for spec in record["arrays"].values():
                del spec["shape"]
        edit_record(case.record_path, strip, restamp=False)
        legacy = json.loads(case.record_path.read_text())
        assert set(legacy) == {"format_version", "key", "raw_digest", "schema",
                               "schema_digest", "item_map", "user_map",
                               "arrays"}
        assert legacy["arrays"] == _parent_seal(
            {f"{split}_{field}": array
             for split, dataset in case.good.splits.items()
             for field, array in _split_arrays(dataset).items()},
            lambda a: str(a.dtype), with_shape=False)
        registry = MetricRegistry()
        case._build(registry)
        assert registry.snapshot()["pipeline.cache.hit"]["value"] == 1
    finally:
        case.restore()


def test_shard_index_bytes_are_the_parents(data, tmp_path):
    # ``write_shards`` at b2e6b71: canonical JSON of the index plus
    # ``_index_digest`` of it, spelled out here as the oracle.
    root = write_shards(data.train, tmp_path / "s", shard_size=8)
    raw = (root / INDEX_NAME).read_bytes()
    index = {k: v for k, v in json.loads(raw).items() if k != "index_digest"}
    canonical = json.dumps(index, sort_keys=True).encode("utf-8")
    index["index_digest"] = hashlib.sha256(canonical).hexdigest()
    assert json.dumps(index, sort_keys=True).encode("utf-8") == raw
    assert len(ShardedCTRDataset(root)) == len(data.train)


# ----------------------------------------------------------------------
# The disk fills up (ROADMAP 3(f)): ENOSPC / EIO after k bytes
# ----------------------------------------------------------------------
class _FailingFile(io.BufferedWriter):
    """What ``atomic_write`` opens, on a disk with ``room["bytes"]`` left."""

    def __init__(self, fd, room, code):
        super().__init__(io.FileIO(fd, "wb"))
        self.room, self.code = room, code

    def write(self, data):
        data = bytes(data)
        fits = data[:self.room["bytes"]]
        self.room["bytes"] -= len(fits)
        super().write(fits)
        if len(fits) < len(data):
            raise OSError(self.code, os.strerror(self.code))
        return len(data)


@pytest.fixture
def failing_disk(monkeypatch):
    """``failing_disk(k, code)``: from now on everything ``atomic_write``
    writes shares ``k`` bytes of room, then fails with ``OSError(code)``."""
    real, room, fault = os.fdopen, {"bytes": None}, {}

    def fdopen(fd, mode="r", *args, **kwargs):
        if mode != "wb" or room["bytes"] is None:
            return real(fd, mode, *args, **kwargs)
        return _FailingFile(fd, room, fault["code"])

    monkeypatch.setattr(atomic.os, "fdopen", fdopen)

    def arm(k, code=None):
        room["bytes"], fault["code"] = k, code

    return arm


def _litter(root):
    return [p for p in root.rglob("*")
            if p.name.endswith(".tmp") or p.name.startswith(".incoming-")]


def _fault_points(arrays_path, record_path):
    """Room that runs out at once, inside the arrays, and inside the record."""
    arrays, record = arrays_path.stat().st_size, record_path.stat().st_size
    return [0, arrays // 2, arrays + record // 2]


CODES = [errno.ENOSPC, errno.EIO]


@pytest.mark.parametrize("code", CODES)
def test_checkpoint_save_on_a_failing_disk(tmp_path, failing_disk, code):
    store = CheckpointStore(tmp_path)
    first = store.save(_checkpoint(step=1))
    for k in _fault_points(first.with_suffix(".npz"), first):
        failing_disk(k, code)
        with pytest.raises(OSError) as caught:
            store.save(_checkpoint(step=2))
        assert caught.value.errno == code
        # Step 2's arrays may be there; without a record nobody looks.
        loaded, path, skipped = store.load_latest()
        assert (loaded.step, path, skipped) == (1, first, [])
        assert _litter(tmp_path) == []
    failing_disk(None)
    assert store.load(store.save(_checkpoint(step=2))).step == 2


@pytest.mark.parametrize("code", CODES)
def test_cache_store_on_a_failing_disk(tmp_path, world, failing_disk, code):
    kwargs = dict(max_seq_len=6, seed=4, cache_dir=tmp_path)
    good = cached_build_ctr_data(world, **kwargs)
    entry = next(p for p in tmp_path.iterdir() if p.is_dir())
    record_path = entry / cache_module.MANIFEST_NAME
    points = _fault_points(entry / cache_module.ARRAYS_NAME, record_path)
    committed = record_path.read_bytes()
    for k in points:
        record_path.write_text("{not json")      # a miss: forces the rewrite
        failing_disk(k, code)
        with pytest.raises(OSError) as caught:
            cached_build_ctr_data(world, **kwargs)
        assert caught.value.errno == code
        assert _litter(tmp_path) == []
    # The committed record over whatever arrays the last attempt left: the
    # entry either verifies or is a miss, and the next build serves the data.
    record_path.write_bytes(committed)
    failing_disk(None)
    again = cached_build_ctr_data(world, **kwargs)
    assert _same_arrays(_split_arrays(again.train), _split_arrays(good.train))
    registry = MetricRegistry()
    cached_build_ctr_data(world, registry=registry, **kwargs)
    assert registry.snapshot()["pipeline.cache.hit"]["value"] == 1


@pytest.mark.parametrize("code", CODES)
def test_artifact_export_on_a_failing_disk(tmp_path, data, failing_disk, code):
    first = create_model("LR", data.schema, seed=1)
    second = create_model("LR", data.schema, seed=2)
    path = export_artifact(first, tmp_path / "a", model_name="LR")
    for k in _fault_points(path / WEIGHTS_NAME, path / MANIFEST_NAME):
        # Somewhere new: weights without a manifest are not an artifact.
        failing_disk(k, code)
        with pytest.raises(OSError) as caught:
            export_artifact(second, tmp_path / f"new-{k}", model_name="LR")
        assert caught.value.errno == code
        with pytest.raises(ArtifactError, match="missing manifest.json"):
            load_artifact(tmp_path / f"new-{k}")
        # Over an existing artifact: it is still the first model, or (new
        # weights under the old manifest) refused; never the wrong scores.
        failing_disk(k, code)
        with pytest.raises(OSError):
            export_artifact(second, path, model_name="LR")
        try:
            model, _ = load_artifact(path)
            assert _same_arrays(model.state_dict(), first.state_dict())
        except ArtifactError as exc:
            assert "checksum" in str(exc)
        assert _litter(tmp_path) == []
        failing_disk(None)
        export_artifact(first, path, model_name="LR")


@pytest.mark.parametrize("code", CODES)
def test_registry_publish_on_a_failing_disk(tmp_path, cases, failing_disk,
                                            monkeypatch, code):
    artifact = cases["artifact"].root
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(artifact, version="v1", promote=True)

    # The role file fails to publish: v2 exists, production is still v1.
    failing_disk(10, code)
    with pytest.raises(OSError) as caught:
        registry.publish(artifact, version="v2", promote=True)
    assert caught.value.errno == code
    assert registry.state()["production"] == "v1"
    assert registry.versions() == ["v1", "v2"]

    # The copy into staging fails: no version, no staging dir.
    def full(src, dst, **kwargs):
        raise OSError(code, os.strerror(code))
    monkeypatch.setattr(shutil, "copy2", full)
    with pytest.raises(OSError):
        registry.publish(artifact, version="v3")
    assert registry.versions() == ["v1", "v2"]
    assert _litter(tmp_path) == []
