"""Tests for the parallel data pipeline: sharded storage, the prefetching
loader (determinism contract incl. bit-identical resume), the preprocessing
cache, the ``iter_batches(skip)`` regression, and the bench harness."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.pipeline import render_pipeline_report, run_pipeline_bench
from repro.cli import main
from repro.data import (
    CTRDataset,
    DataLoader,
    InterestWorld,
    InterestWorldConfig,
    PrefetchLoader,
    ShardCorruptError,
    ShardedCTRDataset,
    build_ctr_data,
    load_dataset,
    write_shards,
)
from repro.data.pipeline.cache import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    cache_key,
    cached_build_ctr_data,
)
from repro.data.pipeline.shards import INDEX_NAME
from repro.models import create_model
from repro.obs import BaseObserver, MetricRegistry, ObserverList
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
        next(iter((tmp_path / "s").glob("shard-*.npz"))).unlink()
        ds = ShardedCTRDataset(tmp_path / "s")
        with pytest.raises(ShardCorruptError, match="missing shard"):
            ds.materialize()

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


class TestShardProperties:
    @settings(max_examples=20, deadline=None)
    @given(shard_size=st.integers(min_value=1, max_value=80),
           batch_size=st.integers(min_value=1, max_value=64),
           seed=st.integers(min_value=0, max_value=2**16),
           drop_last=st.booleans())
    def test_sharded_loader_equals_in_memory_loader(self, tmp_path_factory,
                                                    shard_size, batch_size,
                                                    seed, drop_last):
        train = _property_train()
        directory = tmp_path_factory.mktemp("prop")
        write_shards(train, directory, shard_size=shard_size,
                     compressed=seed % 2 == 0)
        ds = ShardedCTRDataset(directory, cache_shards=1 + seed % 5)
        ref = DataLoader(train, batch_size=batch_size, shuffle=True,
                         rng=np.random.default_rng(seed), drop_last=drop_last)
        got = DataLoader(ds, batch_size=batch_size, shuffle=True,
                         rng=np.random.default_rng(seed), drop_last=drop_last)
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
        shards = sorted(directory.glob("shard-*.npz"))
        target = shards[which % len(shards)]
        blob = bytearray(target.read_bytes())
        blob[int(position * (len(blob) - 1))] ^= 0xFF
        target.write_bytes(bytes(blob))
        ds = ShardedCTRDataset(directory)
        with pytest.raises(ShardCorruptError, match="SHA-256 mismatch"):
            ds.materialize()


# ----------------------------------------------------------------------
# PrefetchLoader
# ----------------------------------------------------------------------
class TestPrefetchLoader:
    @pytest.mark.parametrize("num_workers", [0, 1, 4])
    @pytest.mark.parametrize("drop_last", [False, True])
    @pytest.mark.parametrize("skip", [0, 3])
    def test_matches_dataloader_exactly(self, data, sharded, num_workers,
                                        drop_last, skip):
        ref = DataLoader(data.train, batch_size=16, shuffle=True,
                         rng=np.random.default_rng(7), drop_last=drop_last)
        loader = PrefetchLoader(sharded, batch_size=16, shuffle=True,
                                rng=np.random.default_rng(7),
                                drop_last=drop_last, num_workers=num_workers,
                                prefetch_depth=3)
        assert len(loader) == len(ref)
        ref_batches = list(ref.iter_batches(skip=skip))
        got_batches = list(loader.iter_batches(skip=skip))
        assert len(got_batches) == len(ref_batches)
        for index, (a, b) in enumerate(zip(got_batches, ref_batches)):
            assert_batches_equal(a, b, context=f"batch {index}")

    def test_rng_stream_parity_across_epochs(self, data, sharded):
        # Each epoch must consume exactly one permutation, like DataLoader,
        # so checkpoints taken under either loader are interchangeable.
        ref = DataLoader(data.train, batch_size=16,
                         rng=np.random.default_rng(3))
        loader = PrefetchLoader(sharded, batch_size=16,
                                rng=np.random.default_rng(3),
                                num_workers=4, prefetch_depth=2)
        for epoch in range(3):
            for a, b in zip(loader.iter_batches(), ref.iter_batches()):
                assert_batches_equal(a, b, context=f"epoch {epoch}")

    def test_works_over_in_memory_dataset(self, data):
        ref = list(DataLoader(data.train, batch_size=16,
                              rng=np.random.default_rng(5)))
        got = list(PrefetchLoader(data.train, batch_size=16,
                                  rng=np.random.default_rng(5),
                                  num_workers=2, prefetch_depth=2))
        for a, b in zip(got, ref):
            assert_batches_equal(a, b)

    def test_skip_beyond_epoch_yields_nothing(self, sharded):
        loader = PrefetchLoader(sharded, batch_size=16, num_workers=2)
        assert list(loader.iter_batches(skip=len(loader))) == []
        assert list(loader.iter_batches(skip=len(loader) + 5)) == []

    def test_worker_exception_propagates(self):
        class Exploding:
            def __len__(self):
                return 64

            def batch(self, indices):
                raise RuntimeError("boom in worker")

        loader = PrefetchLoader(Exploding(), batch_size=8, num_workers=2)
        with pytest.raises(RuntimeError, match="boom in worker"):
            list(loader.iter_batches())

    def test_abandoned_iteration_stops_workers(self, sharded):
        before = threading.active_count()
        loader = PrefetchLoader(sharded, batch_size=8, num_workers=4,
                                prefetch_depth=2)
        iterator = loader.iter_batches()
        next(iterator)
        iterator.close()  # runs the generator's finally: stop + join
        assert threading.active_count() == before

    def test_validation(self, sharded):
        with pytest.raises(ValueError, match="batch_size"):
            PrefetchLoader(sharded, batch_size=0)
        with pytest.raises(ValueError, match="num_workers"):
            PrefetchLoader(sharded, num_workers=-1)
        with pytest.raises(ValueError, match="prefetch_depth"):
            PrefetchLoader(sharded, prefetch_depth=0)
        with pytest.raises(ValueError, match="skip"):
            list(PrefetchLoader(sharded).iter_batches(skip=-1))

    def test_telemetry_counters_events_and_gauge(self, shard_dir):
        ds = ShardedCTRDataset(shard_dir, cache_shards=2)
        loader = PrefetchLoader(ds, batch_size=16, num_workers=2,
                                prefetch_depth=2,
                                rng=np.random.default_rng(0))
        registry = MetricRegistry()
        recorder = ShardEventRecorder()
        loader.bind_telemetry(registry=registry,
                              observers=ObserverList([recorder]))
        list(loader.iter_batches())
        snapshot = registry.snapshot()
        assert snapshot["pipeline.shard_cache.miss"]["value"] > 0
        assert "pipeline.prefetch_queue_depth" in snapshot
        assert recorder.events, "shard_loaded events were not emitted"
        payload = recorder.events[0]
        assert set(payload) == {"shard", "rows", "load_ms", "source"}
        assert (registry.snapshot()["pipeline.shard_cache.miss"]["value"]
                == len(recorder.events))


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


def fit_lr(data, train, tmp_path=None, num_workers=0, observers=None,
           resume=False):
    model = create_model("LR", data.schema, seed=1)
    config = TrainConfig(epochs=3, seed=0, batch_size=8,
                         num_workers=num_workers, prefetch_depth=2)
    result = Trainer(config).fit(
        model, train, data.validation, observers=observers,
        checkpoint_dir=tmp_path, resume=resume,
        checkpoint_every=3 if tmp_path else None)
    return model, result


class TestTrainerIntegration:
    def test_worker_count_does_not_change_trajectory(self, data, sharded):
        control_model, control = fit_lr(data, data.train, num_workers=0)
        for num_workers in (1, 4):
            model, result = fit_lr(data, sharded, num_workers=num_workers)
            assert result.train_losses == control.train_losses
            assert ([(r.auc, r.logloss) for r in result.history]
                    == [(r.auc, r.logloss) for r in control.history])
            for name, value in control_model.state_dict().items():
                np.testing.assert_array_equal(model.state_dict()[name], value,
                                              err_msg=name)

    def test_crash_resume_bit_identical_with_workers(self, data, sharded,
                                                     tmp_path):
        control_model, control = fit_lr(data, data.train, num_workers=0)
        with pytest.raises(CrashAtStep.Boom):
            fit_lr(data, sharded, tmp_path=tmp_path, num_workers=4,
                   observers=[CrashAtStep(7)])
        model, result = fit_lr(data, sharded, tmp_path=tmp_path,
                               num_workers=4, resume=True)
        assert result.train_losses == control.train_losses
        assert ([(r.auc, r.logloss) for r in result.history]
                == [(r.auc, r.logloss) for r in control.history])
        for name, value in control_model.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[name], value,
                                          err_msg=name)

    def test_train_config_validates_pipeline_fields(self):
        with pytest.raises(ValueError, match="num_workers"):
            TrainConfig(num_workers=-1)
        with pytest.raises(ValueError, match="prefetch_depth"):
            TrainConfig(prefetch_depth=0)

    def test_instrumented_run_reports_pipeline_metrics(self, data, sharded,
                                                       tmp_path):
        trace = tmp_path / "trace.jsonl"
        from repro.obs import JsonlTraceWriter
        writer = JsonlTraceWriter(str(trace))
        try:
            _, result = fit_lr(data, sharded, num_workers=2,
                               observers=[writer])
        finally:
            writer.close()
        assert "pipeline.shard_cache.miss" in result.metrics
        assert "pipeline.prefetch_queue_depth" in result.metrics
        kinds = [json.loads(line)["event"]
                 for line in trace.read_text().splitlines()]
        assert "shard_loaded" in kinds


# ----------------------------------------------------------------------
# Preprocessing cache
# ----------------------------------------------------------------------
class TestPreprocessingCache:
    def test_round_trip_and_hit_miss_counters(self, world, data, tmp_path):
        registry = MetricRegistry()
        first = cached_build_ctr_data(world, max_seq_len=8, seed=5,
                                      cache_dir=tmp_path, registry=registry)
        second = cached_build_ctr_data(world, max_seq_len=8, seed=5,
                                       cache_dir=tmp_path, registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["pipeline.cache.miss"]["value"] == 1
        assert snapshot["pipeline.cache.hit"]["value"] == 1
        assert second.schema == data.schema
        assert second.item_map == first.item_map
        assert second.user_map == first.user_map
        for split in ("train", "validation", "test"):
            assert_batches_equal(second.splits[split].as_single_batch(),
                                 data.splits[split].as_single_batch(),
                                 context=split)

    def test_processing_config_changes_key(self, world):
        assert cache_key(world, 8, 5) != cache_key(world, 9, 5)
        assert cache_key(world, 8, 5) != cache_key(world, 8, 6)

    def test_corrupt_arrays_treated_as_miss_and_rebuilt(self, world,
                                                        tmp_path):
        registry = MetricRegistry()
        cached_build_ctr_data(world, max_seq_len=8, seed=5,
                              cache_dir=tmp_path, registry=registry)
        entry = next(p for p in tmp_path.iterdir() if p.is_dir())
        blob = bytearray((entry / ARRAYS_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (entry / ARRAYS_NAME).write_bytes(bytes(blob))
        rebuilt = cached_build_ctr_data(world, max_seq_len=8, seed=5,
                                        cache_dir=tmp_path, registry=registry)
        assert registry.snapshot()["pipeline.cache.miss"]["value"] == 2
        assert len(rebuilt.train) > 0
        # The rebuild rewrote a valid entry.
        registry2 = MetricRegistry()
        cached_build_ctr_data(world, max_seq_len=8, seed=5,
                              cache_dir=tmp_path, registry=registry2)
        assert registry2.snapshot()["pipeline.cache.hit"]["value"] == 1

    def test_corrupt_manifest_treated_as_miss(self, world, tmp_path):
        cached_build_ctr_data(world, max_seq_len=8, seed=5,
                              cache_dir=tmp_path)
        entry = next(p for p in tmp_path.iterdir() if p.is_dir())
        (entry / MANIFEST_NAME).write_text("{not json")
        registry = MetricRegistry()
        cached_build_ctr_data(world, max_seq_len=8, seed=5,
                              cache_dir=tmp_path, registry=registry)
        assert registry.snapshot()["pipeline.cache.miss"]["value"] == 1

    def test_load_dataset_cache_dir(self, tmp_path):
        plain = load_dataset("amazon-cds", scale=0.05, seed=0, max_seq_len=6)
        registry = MetricRegistry()
        kwargs = dict(scale=0.05, seed=0, max_seq_len=6, cache_dir=tmp_path,
                      registry=registry)
        load_dataset("amazon-cds", **kwargs)
        cached = load_dataset("amazon-cds", **kwargs)
        snapshot = registry.snapshot()
        assert snapshot["pipeline.cache.miss"]["value"] == 1
        assert snapshot["pipeline.cache.hit"]["value"] == 1
        assert_batches_equal(cached.train.as_single_batch(),
                             plain.train.as_single_batch())


# ----------------------------------------------------------------------
# DataLoader.iter_batches(skip) regression: skip × drop_last × short batch
# ----------------------------------------------------------------------
class TestIterBatchesSkip:
    def make_dataset(self, n, data):
        return data.train.subset(np.arange(n))

    @pytest.mark.parametrize("n,batch_size", [(20, 8), (16, 8), (7, 8)])
    @pytest.mark.parametrize("drop_last", [False, True])
    def test_skip_suffix_equals_full_iteration(self, data, n, batch_size,
                                               drop_last):
        dataset = self.make_dataset(n, data)
        full = list(DataLoader(dataset, batch_size=batch_size,
                               rng=np.random.default_rng(2),
                               drop_last=drop_last))
        for skip in range(len(full) + 2):
            loader = DataLoader(dataset, batch_size=batch_size,
                                rng=np.random.default_rng(2),
                                drop_last=drop_last)
            got = list(loader.iter_batches(skip=skip))
            assert len(got) == max(0, len(full) - skip), f"skip={skip}"
            for a, b in zip(got, full[skip:]):
                assert_batches_equal(a, b, context=f"skip={skip}")

    def test_drop_last_never_yields_short_batch(self, data):
        dataset = self.make_dataset(20, data)
        loader = DataLoader(dataset, batch_size=8, drop_last=True)
        assert len(loader) == 2
        for skip in (0, 1, 2, 3):
            batches = list(loader.iter_batches(skip=skip))
            assert all(len(batch) == 8 for batch in batches)
            assert len(batches) == max(0, 2 - skip)

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
# bench-pipeline
# ----------------------------------------------------------------------
class TestBenchPipeline:
    def test_report_structure_and_render(self, tmp_path):
        out = tmp_path / "BENCH_pipeline.json"
        payload = run_pipeline_bench(scale=0.05, rows=256, batch_size=32,
                                     shard_size=32, prefetch_depth=4,
                                     worker_counts=(1,), repeats=1,
                                     out_path=str(out))
        assert out.exists()
        assert json.loads(out.read_text()) == payload
        modes = [row["mode"] for row in payload["results"]]
        assert modes == ["sequential", "prefetch", "in_memory_reference"]
        for row in payload["results"]:
            assert row["rows_per_s"] > 0
        assert payload["results"][0]["speedup_vs_sequential"] == 1.0
        report = render_pipeline_report(payload)
        assert "rows/s" in report and "prefetch" in report

    def test_cli_verb(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench-pipeline", "--scale", "0.05", "--rows", "256",
                     "--batch-size", "32", "--shard-size", "32",
                     "--workers", "1", "--repeats", "1",
                     "--out", "BENCH_pipeline.json"])
        assert code == 0
        assert (tmp_path / "BENCH_pipeline.json").exists()
        assert "pipeline bench" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI train path with shards + workers + cache
# ----------------------------------------------------------------------
class TestCLIPipelineFlags:
    def test_train_with_shards_workers_and_cache(self, tmp_path, capsys):
        argv = ["train", "--dataset", "amazon-cds", "--scale", "0.05",
                "--model", "LR", "--epochs", "1",
                "--shard-dir", str(tmp_path / "shards"),
                "--cache-dir", str(tmp_path / "cache"),
                "--num-workers", "2", "--prefetch-depth", "2"]
        assert main(argv) == 0
        assert (tmp_path / "shards" / INDEX_NAME).exists()
        assert any((tmp_path / "cache").iterdir())
        out = capsys.readouterr().out
        assert "wrote training shards" in out
        # Second run reuses both the shard dir and the cache entry.
        assert main(argv) == 0
        assert "wrote training shards" not in capsys.readouterr().out

    def test_stale_shard_dir_fails_loudly(self, tmp_path, data):
        write_shards(data.train, tmp_path / "shards", shard_size=16)
        argv = ["train", "--dataset", "amazon-cds", "--scale", "0.05",
                "--model", "LR", "--epochs", "1",
                "--shard-dir", str(tmp_path / "shards")]
        with pytest.raises(SystemExit, match="does not match"):
            main(argv)
