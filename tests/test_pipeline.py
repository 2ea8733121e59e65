"""Tests for the data pipeline: sharded storage, the loader's window gather
over shards (determinism contract incl. bit-identical resume), and the
``iter_batches(skip)`` regression."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.data import (
    CTRDataset,
    DataLoader,
    InterestWorld,
    InterestWorldConfig,
    ShardCorruptError,
    ShardedCTRDataset,
    build_ctr_data,
    write_shards,
)
from repro.data.batching import WINDOW_BATCHES
from repro.data.pipeline.shards import INDEX_NAME
from repro.models import create_model
from repro.obs import BaseObserver, MetricRegistry, ObserverList
from repro.obs.trace import SpanRecorder, Tracer, use_tracer
from repro.resilience.sealed import pack_rows
from repro.training import TrainConfig, Trainer

from .helpers import edit_record

ARRAY_FIELDS = ("categorical", "sequences", "mask", "labels")


@pytest.fixture(scope="module")
def world():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=4)
    return InterestWorld(config)


@pytest.fixture(scope="module")
def data(world):
    return build_ctr_data(world, max_seq_len=8, seed=5)


@pytest.fixture(scope="module")
def shard_dir(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    write_shards(data.train, directory, shard_size=13)
    return directory


@pytest.fixture(scope="module")
def sharded(shard_dir):
    return ShardedCTRDataset(shard_dir, cache_shards=3)


def assert_batches_equal(got, want, context=""):
    for field in ARRAY_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, f"{context}: {field} dtype {a.dtype}!={b.dtype}"
        np.testing.assert_array_equal(a, b, err_msg=f"{context}: {field}")


def _restamp_shard(directory, i, payload):
    """Write ``payload`` as shard ``i`` with the index digest re-stamped to
    match, so the decode (not the SHA-256 check) has to refuse it."""
    index_path = directory / INDEX_NAME
    name = json.loads(index_path.read_text())["shards"][i]["name"]
    (directory / name).write_bytes(payload)

    def stamp(index):
        index["shards"][i]["sha256"] = hashlib.sha256(payload).hexdigest()

    edit_record(index_path, stamp, digest_key="index_digest")


class ShardEventRecorder(BaseObserver):
    def __init__(self):
        self.events = []

    def on_shard_loaded(self, event):
        self.events.append(event.payload())


# ----------------------------------------------------------------------
# Shard format
# ----------------------------------------------------------------------
class TestShardFormat:
    def test_materialize_round_trips_exactly(self, data, sharded):
        assert len(sharded) == len(data.train)
        assert sharded.schema == data.train.schema
        assert_batches_equal(sharded.materialize().as_single_batch(),
                             data.train.as_single_batch())

    def test_random_access_batch_matches_in_memory(self, data, sharded):
        rng = np.random.default_rng(0)
        indices = rng.permutation(len(data.train))[:29]
        assert_batches_equal(sharded.batch(indices),
                             data.train.batch(indices))

    def test_gather_batches_matches_per_batch_gather(self, data, sharded):
        rng = np.random.default_rng(1)
        order = rng.permutation(len(data.train))
        chunks = [order[:10], order[10:17], order[17:40]]
        for got, indices in zip(sharded.gather_batches(list(chunks)), chunks):
            assert_batches_equal(got, data.train.batch(indices))

    def test_out_of_range_index_raises(self, sharded):
        with pytest.raises(IndexError):
            sharded.batch(np.array([len(sharded)]))
        with pytest.raises(IndexError):
            sharded.batch(np.array([-1]))

    def test_missing_index_is_commit_record(self, data, tmp_path):
        # Shards without an index are an unfinished write, not a dataset.
        write_shards(data.train, tmp_path / "s", shard_size=16)
        (tmp_path / "s" / INDEX_NAME).unlink()
        with pytest.raises(ShardCorruptError, match="no shard index"):
            ShardedCTRDataset(tmp_path / "s")

    def test_index_tamper_detected(self, data, tmp_path):
        write_shards(data.train, tmp_path / "s", shard_size=16)
        path = tmp_path / "s" / INDEX_NAME
        index = json.loads(path.read_text())
        index["num_samples"] = 1  # lie, without recomputing the digest
        path.write_text(json.dumps(index))
        with pytest.raises(ShardCorruptError, match="digest mismatch"):
            ShardedCTRDataset(tmp_path / "s")

    def test_unsupported_format_version_rejected(self, data, tmp_path):
        write_shards(data.train, tmp_path / "s", shard_size=16)
        path = tmp_path / "s" / INDEX_NAME
        edit_record(path, lambda index: index.update(format_version=99),
                    digest_key="index_digest")
        with pytest.raises(ShardCorruptError, match="format_version"):
            ShardedCTRDataset(tmp_path / "s")

    def test_missing_shard_file_detected(self, data, tmp_path):
        write_shards(data.train, tmp_path / "s", shard_size=16)
        next(iter((tmp_path / "s").glob("shard-*.bin"))).unlink()
        ds = ShardedCTRDataset(tmp_path / "s")
        with pytest.raises(ShardCorruptError, match="missing shard"):
            ds.materialize()

    @pytest.mark.parametrize("compressed", [True, False])
    def test_truncated_shard_is_corrupt_not_a_decoder_error(self, data,
                                                           tmp_path,
                                                           compressed):
        write_shards(data.train, tmp_path / "s", shard_size=16,
                     compressed=compressed)
        payload = (tmp_path / "s" / "shard-00001.bin").read_bytes()
        _restamp_shard(tmp_path / "s", 1, payload[:-7])
        with pytest.raises(ShardCorruptError) as excinfo:
            ShardedCTRDataset(tmp_path / "s").materialize()
        assert excinfo.type is ShardCorruptError
        assert "shard-00001.bin" in str(excinfo.value)

    @pytest.mark.parametrize("compressed", [True, False])
    def test_shard_one_row_short_fails_the_length_check(self, data, tmp_path,
                                                        compressed):
        directory = write_shards(data.train, tmp_path / "s", shard_size=16,
                                 compressed=compressed)
        stored = json.loads((directory / INDEX_NAME).read_text())[
            "stored_dtypes"]
        rows = ShardedCTRDataset(directory).load_shard(0)
        short = pack_rows([rows[key][:-1].astype(stored[key])
                           for key in ARRAY_FIELDS], compressed=compressed)
        _restamp_shard(directory, 0, short)
        with pytest.raises(ShardCorruptError, match="16 rows need"):
            ShardedCTRDataset(directory).load_shard(0)

    def test_write_shards_validation(self, data, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            write_shards(data.train, tmp_path / "s", shard_size=0)
        empty = CTRDataset(
            schema=data.schema,
            categorical=np.empty((0, data.schema.num_categorical), np.int64),
            sequences=np.empty((0, data.schema.num_sequential,
                                data.schema.max_seq_len), np.int64),
            mask=np.empty((0, data.schema.max_seq_len), bool),
            labels=np.empty(0, np.float64))
        with pytest.raises(ValueError, match="empty"):
            write_shards(empty, tmp_path / "s2")

    def test_cache_shards_validation(self, shard_dir):
        with pytest.raises(ValueError, match="cache_shards"):
            ShardedCTRDataset(shard_dir, cache_shards=0)

    def test_lru_cache_is_bounded_and_counts(self, shard_dir):
        ds = ShardedCTRDataset(shard_dir, cache_shards=2)
        registry = MetricRegistry()
        ds.bind_telemetry(registry=registry)
        ds.batch(np.arange(len(ds)))  # touches every shard once: all misses
        assert len(ds._cache) == 2
        snapshot = registry.snapshot()
        assert snapshot["pipeline.shard_cache.miss"]["value"] == ds.num_shards
        ds.batch(np.arange(5))  # shard 0 was evicted: one more miss
        assert (registry.snapshot()["pipeline.shard_cache.miss"]["value"]
                == ds.num_shards + 1)

    def test_resident_shards_are_gathered_before_loads(self, data, tmp_path):
        # In shard-id order, a batch touching every shard is a cyclic scan
        # that evicts each resident shard before reaching it (0 hits).
        # Resident shards first, it takes cache_shards hits.
        rows = data.train.subset(np.arange(12 * 5))
        write_shards(rows, tmp_path / "s", shard_size=5)
        ds = ShardedCTRDataset(tmp_path / "s", cache_shards=4)
        assert ds.num_shards == 12
        registry = MetricRegistry()
        ds.bind_telemetry(registry=registry)
        cache_sizes = []  # len(ds._cache) as each load starts
        load_shard = ds.load_shard

        def sized_load(i):
            cache_sizes.append(len(ds._cache))
            return load_shard(i)

        ds.load_shard = sized_load

        def counts():
            snapshot = registry.snapshot()
            return tuple(snapshot.get(f"pipeline.shard_cache.{kind}",
                                      {"value": 0})["value"]
                         for kind in ("hit", "miss"))

        order = np.random.default_rng(2).permutation(len(rows))
        assert_batches_equal(ds.batch(order), rows.batch(order))
        assert counts() == (0, 12)
        assert_batches_equal(ds.batch(order), rows.batch(order))
        assert counts() == (4, 20)
        chunks = [order[:17], order[17:40], order[40:]]
        for got, indices in zip(ds.gather_batches(chunks), chunks):
            assert_batches_equal(got, rows.batch(indices))
        assert counts() == (8, 28)
        assert len(cache_sizes) == 28
        assert max(cache_sizes) <= ds.cache_shards
        assert len(ds._cache) == ds.cache_shards


# ----------------------------------------------------------------------
# Property tests: exact round trip for random shard/batch geometry
# ----------------------------------------------------------------------
_PROPERTY_DATA = {}


def _property_train():
    if "train" not in _PROPERTY_DATA:
        config = InterestWorldConfig(num_users=20, num_items=60, num_topics=6,
                                     num_categories=3, min_interactions=2,
                                     seed=11)
        _PROPERTY_DATA["train"] = build_ctr_data(
            InterestWorld(config), max_seq_len=6, seed=12).train
    return _PROPERTY_DATA["train"]


def _offset_ids(train, id_offset):
    """``train`` with every id moved by ``id_offset``: past 2**16 or 2**32,
    where the stored dtype must widen, or down to int32's minimum."""
    if id_offset == 0:
        return train
    return CTRDataset(schema=train.schema,
                      categorical=train.categorical + id_offset,
                      sequences=train.sequences + id_offset,
                      mask=train.mask, labels=train.labels)


class TestShardProperties:
    @settings(max_examples=24, deadline=None)
    @given(shard_size=st.integers(min_value=1, max_value=80),
           batch_size=st.integers(min_value=1, max_value=64),
           seed=st.integers(min_value=0, max_value=2**16),
           id_offset=st.sampled_from([0, 2**16, 2**32, -2**31]),
           compressed=st.booleans())
    @example(shard_size=7, batch_size=9, seed=1, id_offset=2**32,
             compressed=False)
    @example(shard_size=80, batch_size=64, seed=2, id_offset=-2**31,
             compressed=True)
    def test_sharded_loader_equals_in_memory_loader(self, tmp_path_factory,
                                                    shard_size, batch_size,
                                                    seed, id_offset,
                                                    compressed):
        train = _offset_ids(_property_train(), id_offset)
        directory = tmp_path_factory.mktemp("prop")
        write_shards(train, directory, shard_size=shard_size,
                     compressed=compressed)
        stored = json.loads((directory / INDEX_NAME).read_text())
        narrowest = {0: "uint8", 2**16: "uint32", 2**32: "uint64",
                     -2**31: "int32"}[id_offset]
        assert stored["stored_dtypes"] == {
            "categorical": narrowest, "sequences": narrowest,
            "mask": "bool", "labels": "float64"}
        ds = ShardedCTRDataset(directory, cache_shards=1 + seed % 5)
        ref = DataLoader(train, batch_size=batch_size, shuffle=True,
                         rng=np.random.default_rng(seed))
        got = DataLoader(ds, batch_size=batch_size, shuffle=True,
                         rng=np.random.default_rng(seed))
        ref_batches = list(ref)
        got_batches = list(got)
        assert len(got_batches) == len(ref_batches)
        for index, (a, b) in enumerate(zip(got_batches, ref_batches)):
            assert_batches_equal(a, b, context=f"batch {index}")

    @settings(max_examples=10, deadline=None)
    @given(shard_size=st.integers(min_value=1, max_value=40),
           position=st.floats(min_value=0.0, max_value=1.0),
           which=st.integers(min_value=0, max_value=10**6))
    def test_any_flipped_shard_byte_is_detected(self, tmp_path_factory,
                                                shard_size, position, which):
        train = _property_train()
        directory = tmp_path_factory.mktemp("tamper")
        write_shards(train, directory, shard_size=shard_size)
        shards = sorted(directory.glob("shard-*.bin"))
        target = shards[which % len(shards)]
        blob = bytearray(target.read_bytes())
        blob[int(position * (len(blob) - 1))] ^= 0xFF
        target.write_bytes(bytes(blob))
        ds = ShardedCTRDataset(directory)
        with pytest.raises(ShardCorruptError, match="SHA-256 mismatch"):
            ds.materialize()


# ----------------------------------------------------------------------
# DataLoader read-ahead: window gathers over shards vs the in-memory path
# ----------------------------------------------------------------------
def per_batch_epoch(dataset, batch_size, seed):
    """One epoch as a per-batch gather reads it: ``dataset.batch`` per chunk
    of the permutation a ``DataLoader`` seeded ``seed`` draws."""
    order = np.random.default_rng(seed).permutation(len(dataset))
    return [dataset.batch(order[lo:lo + batch_size])
            for lo in range(0, len(dataset), batch_size)]


class TestPrefetchLoader:
    """A dataset with ``gather_batches`` is read ahead ``WINDOW_BATCHES``
    batches at a time; every batch must equal the in-memory per-batch one."""

    @pytest.mark.parametrize("epoch", [0, 1, 4])
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("skip", [0, 3, 7, 9])
    def test_matches_dataloader_exactly(self, data, sharded, epoch,
                                        shuffle, skip):
        # 60 rows in batches of 7: 9 batches, the last one short, so the
        # skips start a full window, mid-window, in the final short window
        # and at the end.  Unshuffled (the online learner's order), each
        # window gathers contiguous shards.
        ref = DataLoader(data.train, batch_size=7, shuffle=shuffle,
                         rng=np.random.default_rng(7))
        loader = DataLoader(sharded, batch_size=7, shuffle=shuffle,
                            rng=np.random.default_rng(7))
        assert len(loader) == len(ref)
        for _ in range(epoch):
            list(ref.iter_batches(skip=skip))
            list(loader.iter_batches(skip=skip))
        ref_batches = list(ref.iter_batches(skip=skip))
        got_batches = list(loader.iter_batches(skip=skip))
        assert len(got_batches) == len(ref_batches) == max(0, len(ref) - skip)
        for index, (a, b) in enumerate(zip(got_batches, ref_batches)):
            assert_batches_equal(a, b, context=f"epoch {epoch} batch {index}")

    def test_rng_stream_parity_across_epochs(self, data, sharded):
        # Each epoch must consume exactly one permutation on either path,
        # so checkpoints taken over shards and in memory are interchangeable.
        ref = DataLoader(data.train, batch_size=4,
                         rng=np.random.default_rng(3))
        loader = DataLoader(sharded, batch_size=4,
                            rng=np.random.default_rng(3))
        for epoch in range(3):
            for a, b in zip(loader.iter_batches(), ref.iter_batches(),
                            strict=True):
                assert_batches_equal(a, b, context=f"epoch {epoch}")

    def test_works_over_in_memory_dataset(self, data):
        # A dataset without gather_batches keeps the per-batch path.
        got = list(DataLoader(data.train, batch_size=16,
                              rng=np.random.default_rng(5)))
        want = per_batch_epoch(data.train, 16, seed=5)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_batches_equal(a, b)

    def test_skip_beyond_epoch_yields_nothing(self, sharded):
        loader = DataLoader(sharded, batch_size=16)
        assert list(loader.iter_batches(skip=len(loader))) == []
        assert list(loader.iter_batches(skip=len(loader) + 5)) == []

    def test_validation(self, sharded):
        with pytest.raises(ValueError, match="batch_size"):
            DataLoader(sharded, batch_size=0)
        with pytest.raises(ValueError, match="skip"):
            list(DataLoader(sharded).iter_batches(skip=-1))

    def test_telemetry_counters_and_events(self, shard_dir):
        ds = ShardedCTRDataset(shard_dir, cache_shards=2)
        loader = DataLoader(ds, batch_size=16, rng=np.random.default_rng(0))
        registry = MetricRegistry()
        recorder = ShardEventRecorder()
        loader.bind_telemetry(registry=registry,
                              observers=ObserverList([recorder]))
        list(loader.iter_batches())
        snapshot = registry.snapshot()
        assert snapshot["pipeline.shard_cache.miss"]["value"] > 0
        assert recorder.events, "shard_loaded events were not emitted"
        payload = recorder.events[0]
        assert set(payload) == {"shard", "rows", "load_ms", "source"}
        assert (registry.snapshot()["pipeline.shard_cache.miss"]["value"]
                == len(recorder.events))

    def test_window_gather_loads_fewer_shards_than_per_batch(self, shard_dir):
        def misses(read_epoch):
            ds = ShardedCTRDataset(shard_dir, cache_shards=2)
            registry = MetricRegistry()
            ds.bind_telemetry(registry=registry)
            batches = read_epoch(ds)
            return batches, registry.snapshot()["pipeline.shard_cache.miss"][
                "value"]

        windowed, window_misses = misses(lambda ds: list(DataLoader(
            ds, batch_size=4, rng=np.random.default_rng(0))))
        per_batch, batch_misses = misses(
            lambda ds: per_batch_epoch(ds, 4, seed=0))
        assert len(windowed) == len(per_batch) == 15
        for a, b in zip(windowed, per_batch):
            assert_batches_equal(a, b)
        assert window_misses < batch_misses

    def test_tracer_records_epoch_and_window_spans(self, sharded, data):
        sink = SpanRecorder()
        with use_tracer(Tracer(sink)):
            list(DataLoader(sharded, batch_size=4).iter_batches(skip=3))
            list(DataLoader(data.train, batch_size=4))
        epochs = sink.by_name("pipeline.epoch")
        assert [r["attrs"] for r in epochs] == [{"batches": 12},
                                                {"batches": 15}]
        windows = sink.by_name("pipeline.window")
        assert [r["attrs"] for r in windows] == [{"batches": 8},
                                                 {"batches": 4}]
        assert {r["parent_id"] for r in windows} == {epochs[0]["span_id"]}

    def test_data_package_starts_no_threads(self):
        # Batches are gathered on the calling thread: nothing under
        # repro/data may spawn a thread or hand batches across a queue.
        import ast
        import repro.data

        root = Path(repro.data.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names]
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)):
                    names = [f"{node.value.id}.{node.attr}"]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} {name}"
                              for name in names
                              if name.split(".")[0] == "queue"
                              or name == "threading.Thread"]
        assert not offenders, offenders


# ----------------------------------------------------------------------
# Trainer integration: identical trajectories and bit-identical resume
# ----------------------------------------------------------------------
class CrashAtStep(BaseObserver):
    class Boom(RuntimeError):
        pass

    def __init__(self, step):
        self.step = step

    def on_batch_end(self, event):
        if event.step == self.step:
            raise self.Boom(f"injected crash at step {event.step}")


def fit_lr(data, train, tmp_path=None, observers=None, resume=False):
    model = create_model("LR", data.schema, seed=1)
    config = TrainConfig(epochs=3, seed=0, batch_size=8)
    result = Trainer(config).fit(
        model, train, data.validation, observers=observers,
        checkpoint_dir=tmp_path, resume=resume,
        checkpoint_every=3 if tmp_path else None)
    return model, result


def assert_same_fit(model, result, control_model, control):
    assert result.train_losses == control.train_losses
    assert ([(r.auc, r.logloss) for r in result.history]
            == [(r.auc, r.logloss) for r in control.history])
    for name, value in control_model.state_dict().items():
        np.testing.assert_array_equal(model.state_dict()[name], value,
                                      err_msg=name)


class TestTrainerIntegration:
    def test_sharded_fit_matches_in_memory(self, data, sharded):
        control_model, control = fit_lr(data, data.train)
        model, result = fit_lr(data, sharded)
        assert_same_fit(model, result, control_model, control)

    def test_crash_mid_window_resumes_bit_identically(self, data, sharded,
                                                      tmp_path):
        # Step 7 falls inside the epoch's first window of WINDOW_BATCHES;
        # the resumed run restarts from the step-6 checkpoint, so its
        # windows start at batch 6 instead of 0.
        assert 6 < 7 < WINDOW_BATCHES
        control_model, control = fit_lr(data, data.train)
        with pytest.raises(CrashAtStep.Boom):
            fit_lr(data, sharded, tmp_path=tmp_path,
                   observers=[CrashAtStep(7)])
        model, result = fit_lr(data, sharded, tmp_path=tmp_path, resume=True)
        assert_same_fit(model, result, control_model, control)

    def test_instrumented_run_reports_pipeline_metrics(self, data, sharded,
                                                       tmp_path):
        trace = tmp_path / "trace.jsonl"
        from repro.obs import JsonlTraceWriter
        writer = JsonlTraceWriter(str(trace))
        try:
            _, result = fit_lr(data, sharded, observers=[writer])
        finally:
            writer.close()
        assert "pipeline.shard_cache.miss" in result.metrics
        kinds = [json.loads(line)["event"]
                 for line in trace.read_text().splitlines()]
        assert "shard_loaded" in kinds

    def test_inspect_run_reports_shard_cache(self, data, shard_dir, tmp_path):
        from repro.obs import JsonlTraceWriter, render_summary, summarize_trace
        trace = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(str(trace)) as writer:
            _, result = fit_lr(data, ShardedCTRDataset(shard_dir,
                                                       cache_shards=2),
                               observers=[writer])
        hits = int(result.metrics["pipeline.shard_cache.hit"]["value"])
        misses = int(result.metrics["pipeline.shard_cache.miss"]["value"])
        assert hits and misses
        text = render_summary(summarize_trace(str(trace)))
        assert (f"  shard cache hits={hits} misses={misses} "
                f"hit_ratio={hits / (hits + misses):.3f}") in text.splitlines()
        # An in-memory run has no shard cache, so no line.
        with JsonlTraceWriter(str(tmp_path / "mem.jsonl")) as writer:
            fit_lr(data, data.train, observers=[writer])
        text = render_summary(summarize_trace(str(tmp_path / "mem.jsonl")))
        assert "shard cache" not in text
        # A run that never hit carries only the miss counter.
        summary = summarize_trace(str(trace))
        del summary.metrics["pipeline.shard_cache.hit"]
        assert (f"  shard cache hits=0 misses={misses} hit_ratio=0.000"
                in render_summary(summary).splitlines())


# ----------------------------------------------------------------------
# DataLoader.iter_batches(skip) regression: skip × shuffle × short batch
# ----------------------------------------------------------------------
class TestIterBatchesSkip:
    def make_dataset(self, n, data):
        return data.train.subset(np.arange(n))

    @pytest.mark.parametrize("n,batch_size", [(20, 8), (16, 8), (7, 8)])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_skip_suffix_equals_full_iteration(self, data, n, batch_size,
                                               shuffle):
        dataset = self.make_dataset(n, data)
        full = list(DataLoader(dataset, batch_size=batch_size,
                               shuffle=shuffle,
                               rng=np.random.default_rng(2)))
        for skip in range(len(full) + 2):
            loader = DataLoader(dataset, batch_size=batch_size,
                                shuffle=shuffle,
                                rng=np.random.default_rng(2))
            got = list(loader.iter_batches(skip=skip))
            assert len(got) == max(0, len(full) - skip), f"skip={skip}"
            for a, b in zip(got, full[skip:]):
                assert_batches_equal(a, b, context=f"skip={skip}")

    def test_exact_multiple_has_no_empty_final_batch(self, data):
        dataset = self.make_dataset(16, data)
        loader = DataLoader(dataset, batch_size=8)
        assert len(list(loader.iter_batches(skip=1))) == 1
        assert list(loader.iter_batches(skip=2)) == []

    def test_negative_skip_rejected(self, data):
        loader = DataLoader(self.make_dataset(16, data), batch_size=8)
        with pytest.raises(ValueError, match="skip"):
            list(loader.iter_batches(skip=-1))


# ----------------------------------------------------------------------
# CLI train path with shards
# ----------------------------------------------------------------------
class TestCLIPipelineFlags:
    def test_train_with_shards_reuses_the_shard_dir(self, tmp_path, capsys):
        argv = ["train", "--dataset", "amazon-cds", "--scale", "0.05",
                "--model", "LR", "--epochs", "1",
                "--shard-dir", str(tmp_path / "shards")]
        assert main(argv) == 0
        assert (tmp_path / "shards" / INDEX_NAME).exists()
        out = capsys.readouterr().out
        assert "wrote training shards" in out
        # Second run reuses the shard dir.
        assert main(argv) == 0
        assert "wrote training shards" not in capsys.readouterr().out

    def test_stale_shard_dir_fails_loudly(self, tmp_path, data):
        write_shards(data.train, tmp_path / "shards", shard_size=16)
        argv = ["train", "--dataset", "amazon-cds", "--scale", "0.05",
                "--model", "LR", "--epochs", "1",
                "--shard-dir", str(tmp_path / "shards")]
        with pytest.raises(SystemExit, match="does not match"):
            main(argv)

    def test_stale_shard_dir_fails_before_ranks_spawn(self, tmp_path, data,
                                                      monkeypatch):
        # ``--num-procs`` shards into <dir>/train and <dir>/validation; a
        # stale train directory must be refused in the parent process.
        import repro.distributed

        def spawn(*args, **kwargs):
            raise AssertionError("ranks spawned over a stale shard directory")

        monkeypatch.setattr(repro.distributed, "run_distributed", spawn)
        write_shards(data.train, tmp_path / "shards" / "train", shard_size=16)
        argv = ["train", "--dataset", "amazon-cds", "--scale", "0.05",
                "--model", "DIN", "--epochs", "1", "--batch-size", "16",
                "--num-procs", "2", "--shard-dir", str(tmp_path / "shards")]
        with pytest.raises(SystemExit, match="does not match") as excinfo:
            main(argv)
        assert "point at an empty directory" in str(excinfo.value)
