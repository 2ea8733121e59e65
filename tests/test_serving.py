"""Tests for the online inference subsystem: deterministic forwards, frozen
artifacts, the micro-batched scoring engine, the HTTP endpoint, and the load
generator.  The headline property is golden parity: serving logits are
bit-identical to offline evaluation regardless of batch split or cache state.
"""

import ast
import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro.serving
from repro.core import MISSConfig, attach_miss
from repro.data import (
    InterestWorld,
    InterestWorldConfig,
    build_ctr_data,
    load_dataset,
)
from repro.data.schema import DatasetSchema
from repro.models import MODEL_NAMES, create_model
from repro.nn import is_grad_enabled, tiled_no_grad
from repro.nn.tensor import row_matmul, row_tiles
from repro.obs import JsonlTraceWriter, MetricRegistry, SpanRecorder, Tracer
from repro.serving import (
    PARITY_BLOCK,
    ArtifactError,
    EngineClosedError,
    InferenceSession,
    LRUCache,
    ScoringEngine,
    ScoringServer,
    build_request_stream,
    dataset_rows,
    export_artifact,
    forward_logits,
    load_artifact,
    load_manifest,
    row_key,
    rows_to_batch,
)
from repro.resilience import array_digest
from repro.serving import forward as serving_forward
from repro.serving.artifact import MANIFEST_NAME, WEIGHTS_NAME
from repro.serving.forward import TILES_PER_FORWARD
from repro.training import evaluate, predict_logits_array

from .helpers import edit_record
from .oracles import blocked_forward_logits


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=3)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=4)


@pytest.fixture(scope="module")
def din(data):
    # Untrained weights score just as deterministically as trained ones.
    return create_model("DIN", data.schema, seed=1)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, data, din):
    path = tmp_path_factory.mktemp("artifacts") / "din"
    export_artifact(din, path, model_name="DIN",
                    metadata={"dataset": data.schema.name, "note": "test"})
    return path


@pytest.fixture(scope="module")
def session(artifact):
    return InferenceSession.load(artifact)


def _reference_logits(model, dataset):
    """``dataset``'s logits in eval mode from the per-block oracle."""
    was_training = model.training
    model.eval()
    try:
        return blocked_forward_logits(model, dataset.as_single_batch())
    finally:
        if was_training:
            model.train()


def _row_dicts(dataset, indices):
    return [{"categorical": dataset.categorical[i].tolist(),
             "sequences": dataset.sequences[i].tolist(),
             "mask": dataset.mask[i].tolist()} for i in indices]


@pytest.fixture(scope="module")
def cds():
    # 600 test rows: a 600-row batch is more than one forward.
    return load_dataset("amazon-cds", scale=0.4, seed=0)


def _scoring_model(name, schema):
    if name == "DIN+MISS":
        model = attach_miss(create_model("DIN", schema, seed=2),
                            MISSConfig(seed=0))
    else:
        model = create_model(name, schema, seed=1)
    return model.eval()


class TestForwardParity:
    """Every forward == the per-block oracle
    (``tests/oracles.py::blocked_forward_logits``), bit for bit."""

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 32, 50, 511])
    def test_bit_identical_across_batch_sizes(self, data, din, batch_size):
        reference = _reference_logits(din, data.test)
        split = predict_logits_array(din, data.test, batch_size=batch_size)
        np.testing.assert_array_equal(split, reference)

    def test_evaluate_bit_identical_across_batch_sizes(self, data, din):
        small = evaluate(din, data.validation, batch_size=5)
        large = evaluate(din, data.validation, batch_size=512)
        assert small.auc == large.auc
        assert small.logloss == large.logloss

    def test_miss_model_parity(self, data):
        base = create_model("DIN", data.schema, seed=2)
        model = attach_miss(base, MISSConfig(seed=0))
        model.eval()
        reference = _reference_logits(model, data.test)
        for batch_size in (1, 7, 33):
            np.testing.assert_array_equal(
                predict_logits_array(model, data.test, batch_size=batch_size),
                reference)

    def test_empty_batch(self, data, din):
        batch = data.test.subset(np.arange(1)).as_single_batch()
        empty = type(batch)(categorical=batch.categorical[:0],
                            sequences=batch.sequences[:0],
                            mask=batch.mask[:0], labels=batch.labels[:0])
        assert forward_logits(din, empty).shape == (0,)

    def test_block_size_validation(self, data, din):
        batch = data.test.as_single_batch()
        with pytest.raises(ValueError):
            forward_logits(din, batch, block_size=0)

    # The library's forward length, and 16 tiles: in 512-row forwards the
    # 50-wide DCN-M cross products round differently as one gemm than as
    # 32-row ones, so an untiled forward fails there.
    @pytest.mark.parametrize("tiles", [TILES_PER_FORWARD, 16])
    @pytest.mark.parametrize("name", MODEL_NAMES + ("DIN+MISS",))
    def test_every_model_matches_the_blocked_oracle(self, cds, name, tiles,
                                                    monkeypatch):
        monkeypatch.setattr(serving_forward, "TILES_PER_FORWARD", tiles)
        model = _scoring_model(name, cds.schema)
        rng = np.random.default_rng(7)
        for n in (1, 31, 32, 33, 64, 100, 512, 600):
            batch = cds.test.subset(
                rng.choice(len(cds.test), n, replace=False)).as_single_batch()
            np.testing.assert_array_equal(forward_logits(model, batch),
                                          blocked_forward_logits(model, batch),
                                          err_msg=f"{name}, {n} rows")

    def test_a_batch_row_product_runs_in_tiles(self):
        rng = np.random.default_rng(0)
        rows, weight = rng.standard_normal((512, 50)), rng.standard_normal(
            (50, 50))
        per_tile = np.concatenate([rows[i:i + 32] @ weight
                                   for i in range(0, 512, 32)])
        with tiled_no_grad(512, 32):
            np.testing.assert_array_equal(row_matmul(rows, weight), per_tile)
            # Another row count, or a stacked operand, is not the forward's.
            for a in (rows[:480], rows.reshape(16, 32, 50)):
                np.testing.assert_array_equal(row_matmul(a, weight),
                                              a @ weight)
        np.testing.assert_array_equal(row_matmul(rows, weight),
                                      rows @ weight)

    def test_a_raising_forward_leaves_the_thread_untiled(self, data):
        seen = {}

        class Raising:
            def predict_logits(self, batch):
                seen["tiles"], seen["grad"] = row_tiles(), is_grad_enabled()
                raise RuntimeError("model failure")

        batch = data.test.subset(np.arange(33)).as_single_batch()
        with pytest.raises(RuntimeError, match="model failure"):
            forward_logits(Raising(), batch)
        assert seen == {"tiles": (64, 32), "grad": False}
        assert row_tiles() is None
        assert is_grad_enabled()

    def test_a_worker_forward_does_not_tile_a_training_step(self, cds):
        # The step's batch has the rows the worker's forward is tiled for,
        # so a tile leaking across threads would reach its gemms.
        batch = cds.test.subset(np.arange(512)).as_single_batch()
        trained = create_model("DCN-M", cds.schema, seed=1)

        def step():
            trained.zero_grad()
            loss = trained.training_loss(batch)
            loss.backward()
            return loss.item(), [p.grad.copy() for p in trained.parameters()]

        alone_loss, alone_grads = step()
        served = _scoring_model("DCN-M", cds.schema)
        inside, release, out = threading.Event(), threading.Event(), {}

        class Paused:
            def predict_logits(self, rows):
                inside.set()
                assert release.wait(10)
                return served.predict_logits(rows)

        worker = threading.Thread(
            target=lambda: out.update(logits=forward_logits(Paused(), batch)))
        worker.start()
        try:
            assert inside.wait(10)
            assert row_tiles() is None and is_grad_enabled()
            loss, grads = step()
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        assert loss == alone_loss
        for grad, alone in zip(grads, alone_grads):
            np.testing.assert_array_equal(grad, alone)
        np.testing.assert_array_equal(out["logits"],
                                      blocked_forward_logits(served, batch))


class TestThreadLocalGradMode:
    def test_no_grad_on_worker_thread_does_not_leak(self):
        # Regression: grad mode was a process-global; a worker inside
        # no_grad could clobber the main thread's state (and two workers
        # could leave it disabled forever).
        from repro.nn import is_grad_enabled, no_grad
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with no_grad():
                seen["worker"] = is_grad_enabled()
                inside.set()
                release.wait(5)

        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(5)
        assert is_grad_enabled()    # main thread unaffected mid-no_grad
        release.set()
        thread.join()
        assert seen["worker"] is False
        assert is_grad_enabled()


class TestArtifact:
    def test_round_trip_bit_identical(self, data, din, session):
        reference = _reference_logits(din, data.test)
        loaded = session.score_batch(data.test.as_single_batch())
        np.testing.assert_array_equal(loaded, reference)

    def test_manifest_contents(self, artifact, din):
        manifest = load_manifest(artifact)
        assert manifest["model"] == "DIN"
        assert manifest["block_size"] == PARITY_BLOCK
        assert manifest["miss"] is None
        assert manifest["metadata"]["note"] == "test"
        state = din.state_dict()
        assert set(manifest["arrays"]) == set(state)
        for name, spec in manifest["arrays"].items():
            assert spec["sha256"] == array_digest(state[name])
            assert spec["shape"] == list(state[name].shape)

    def test_miss_round_trip(self, data, tmp_path):
        config = MISSConfig(seed=0)
        model = attach_miss(create_model("DIN", data.schema, seed=5), config)
        model.eval()
        reference = _reference_logits(model, data.test)
        path = export_artifact(model, tmp_path / "miss", model_name="DIN",
                               miss_config=config)
        restored = InferenceSession.load(path)
        assert restored.manifest["miss"] is not None
        np.testing.assert_array_equal(
            restored.score_batch(data.test.as_single_batch()), reference)

    @staticmethod
    def _miss_artifact(data, path, mutate):
        """Export DIN-MISS, then rewrite its manifest through ``mutate``."""
        config = MISSConfig(seed=0)
        model = attach_miss(create_model("DIN", data.schema, seed=5), config)
        model.eval()
        export_artifact(model, path, model_name="DIN", miss_config=config)
        edit_record(path / MANIFEST_NAME, mutate)
        return model

    @pytest.mark.parametrize("mutate, named", [
        (lambda m: m["miss"].update(warmup_steps=3), "warmup_steps"),
        (lambda m: m["miss"].update(extractor="gru"), "extractor"),
        (lambda m: m["miss"].update(temperature="hot"), "temperature"),
        (lambda m: m.pop("embedding_dim"), "embedding_dim"),
        (lambda m: m["miss"].update(interest_encoder="transformer"),
         "Transformer view encoder"),
        (lambda m: m["miss"].update(distance_distribution="gaussian"),
         "non-uniform augmentation distances"),
    ], ids=["unknown-key", "bad-extractor", "bad-temperature",
            "no-embedding-dim", "removed-transformer", "removed-gaussian"])
    def test_bad_miss_block_is_an_artifact_error(self, data, tmp_path, mutate,
                                                 named):
        # These used to escape as TypeError / ValueError / KeyError.
        self._miss_artifact(data, tmp_path / "bad", mutate)
        with pytest.raises(ArtifactError, match=named) as caught:
            load_artifact(tmp_path / "bad")
        assert MANIFEST_NAME in str(caught.value)

    def test_manifest_with_removed_miss_keys_still_loads(self, data, tmp_path):
        # What export_artifact wrote while MISSConfig still had the two
        # fields: each holds the only behaviour that remains.
        model = self._miss_artifact(
            data, tmp_path / "legacy",
            lambda m: m["miss"].update(interest_encoder="mlp",
                                       distance_distribution="uniform"))
        restored = InferenceSession.load(tmp_path / "legacy")
        np.testing.assert_array_equal(
            restored.score_batch(data.test.as_single_batch()),
            _reference_logits(model, data.test))

    def test_unknown_model_name_rejected(self, data, din, tmp_path):
        with pytest.raises(ArtifactError, match="registry"):
            export_artifact(din, tmp_path / "bad", model_name="NotAModel")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing"):
            load_artifact(tmp_path)

    def test_unsupported_format_version(self, data, din, tmp_path):
        path = export_artifact(din, tmp_path / "v99", model_name="DIN")
        edit_record(path / MANIFEST_NAME,
                    lambda m: m.update(format_version=99))
        with pytest.raises(ArtifactError, match="format_version"):
            load_artifact(path)

    def test_corrupt_weights_rejected(self, data, din, tmp_path):
        path = export_artifact(din, tmp_path / "corrupt", model_name="DIN")
        weights = path / WEIGHTS_NAME
        raw = bytearray(weights.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        weights.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_digest_mismatch_named(self, data, tmp_path):
        # Keep the manifest but swap in a different model's weights: every
        # shape matches, so only the checksum can catch the substitution.
        model = create_model("DIN", data.schema, seed=6)
        path = export_artifact(model, tmp_path / "swap", model_name="DIN")
        other = create_model("DIN", data.schema, seed=7)
        np.savez_compressed(path / WEIGHTS_NAME, **other.state_dict())
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(path)


class TestSessionAndRows:
    def test_score_rows_matches_score_batch(self, data, session):
        indices = [0, 3, 5]
        rows = _row_dicts(data.test, indices)
        reference = _reference_logits(session.model, data.test)[indices]
        np.testing.assert_array_equal(session.score_rows(rows), reference)

    def test_rows_to_batch_validates_shapes(self, data):
        row = _row_dicts(data.test, [0])[0]
        bad = dict(row, categorical=row["categorical"] + [1])
        with pytest.raises(ValueError, match="row 0"):
            rows_to_batch(data.schema, [bad])

    def test_rows_to_batch_validates_vocab(self, data):
        row = _row_dicts(data.test, [0])[0]
        bad = dict(row, categorical=[10 ** 9] * len(row["categorical"]))
        with pytest.raises(ValueError, match="vocab"):
            rows_to_batch(data.schema, [bad])

    def test_rows_to_batch_rejects_empty(self, data):
        with pytest.raises(ValueError):
            rows_to_batch(data.schema, [])

    def test_rows_to_batch_rejects_garbage(self, data):
        with pytest.raises(ValueError, match="row 0"):
            rows_to_batch(data.schema, [{"categorical": [0]}])

    @pytest.mark.parametrize("block_size",
                             [0, 1, 33, 64, "32", True, -1, "x"])
    def test_manifest_without_block_size_rejected(self, session, block_size):
        # Only PARITY_BLOCK keeps serving equal to offline evaluation: a
        # 33-row tile already changes logits, and True would read as 1.
        manifest = dict(session.manifest, block_size=block_size)
        with pytest.raises(ArtifactError, match="block_size"):
            InferenceSession(session.model, manifest)

    def test_describe_is_json_safe(self, session):
        described = json.loads(json.dumps(session.describe()))
        assert described["model"] == "DIN"
        assert described["block_size"] == PARITY_BLOCK


class TestCheckpointErrors:
    def test_shape_mismatch_names_parameter_and_shapes(self, data):
        small = create_model("DIN", data.schema, embedding_dim=4, seed=1)
        big = create_model("DIN", data.schema, embedding_dim=8, seed=1)
        with pytest.raises(ValueError) as excinfo:
            big.load_state_dict(small.state_dict())
        message = str(excinfo.value)
        assert "shape mismatch" in message  # what went wrong
        assert any(name in message for name in small.state_dict())
        assert "(" in message and "4" in message and "8" in message

    def test_missing_keys_named(self, data):
        lr = create_model("LR", data.schema, seed=1)
        din = create_model("DIN", data.schema, seed=1)
        with pytest.raises(KeyError) as excinfo:
            din.load_state_dict(lr.state_dict())
        message = str(excinfo.value)
        assert "state_dict mismatch" in message
        missing = set(din.state_dict()) - set(lr.state_dict())
        assert all(name in message for name in missing)


class TestRowKeyAndCache:
    def _row(self, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, 5, 3), rng.integers(0, 9, (2, 4)),
                rng.integers(0, 2, 4).astype(bool))

    def test_equal_rows_equal_keys(self):
        a, b = self._row(1), self._row(1)
        assert row_key(*a) == row_key(*b)

    def test_any_component_changes_key(self):
        cat, seq, mask = self._row(2)
        base = row_key(cat, seq, mask)
        assert row_key(cat + 1, seq, mask) != base
        assert row_key(cat, seq + 1, mask) != base
        assert row_key(cat, seq, ~mask) != base

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put(b"a", 1.0)
        cache.put(b"b", 2.0)
        assert cache.get(b"a") == 1.0   # refresh a → b is now oldest
        cache.put(b"c", 3.0)
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1.0
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put(b"a", 1.0)
        assert cache.get(b"a") is None
        with pytest.raises(ValueError):
            LRUCache(-1)


class StubSession:
    """Scorer whose per-row logit is a deterministic function of the row,
    so lost/duplicated/crossed responses are detectable."""

    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s
        self.forwards = 0
        self.batch_sizes = []
        self._lock = threading.Lock()
        self.fail = False

    def score_batch(self, batch):
        with self._lock:
            self.forwards += 1
            self.batch_sizes.append(len(batch))
        if self.fail:
            raise RuntimeError("injected scorer failure")
        if self.delay_s:
            threading.Event().wait(self.delay_s)
        return batch.categorical[:, 0].astype(np.float64) * 0.5


def _stub_row(value):
    return (np.array([value, 0], dtype=np.int64),
            np.zeros((1, 4), dtype=np.int64),
            np.ones(4, dtype=bool))


class Recorder:
    """Observer capturing the three serving events, in arrival order."""

    def __init__(self):
        self.events = []

    def on_request_received(self, event):
        self.events.append(event)

    def on_batch_flushed(self, event):
        self.events.append(event)

    def on_request_completed(self, event):
        self.events.append(event)


class TestScoringEngine:
    def test_constructor_validation(self):
        stub = StubSession()
        with pytest.raises(ValueError):
            ScoringEngine(stub, max_batch_size=0)
        with pytest.raises(ValueError):
            ScoringEngine(stub, max_wait_ms=-1)
        with pytest.raises(ValueError):
            ScoringEngine(stub, num_workers=0)

    def test_each_request_gets_its_own_logit(self):
        with ScoringEngine(StubSession(), max_batch_size=4,
                           max_wait_ms=1.0) as engine:
            futures = [engine.submit_row(*_stub_row(v)) for v in range(20)]
            for value, future in enumerate(futures):
                assert future.result(timeout=10.0) == value * 0.5

    def test_bursty_producers_no_lost_or_crossed_responses(self):
        stub = StubSession(delay_s=0.002)
        engine = ScoringEngine(stub, max_batch_size=16, max_wait_ms=1.0,
                               num_workers=3, cache_size=0)
        results = {}
        lock = threading.Lock()

        def producer(offset):
            local = [(v, engine.submit_row(*_stub_row(v)))
                     for v in range(offset, offset + 40)]
            with lock:
                results.update((v, f.result(timeout=30.0)) for v, f in local)

        threads = [threading.Thread(target=producer, args=(i * 40,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        engine.close(drain=True)
        assert len(results) == 240
        assert all(results[v] == v * 0.5 for v in results)
        assert max(stub.batch_sizes) <= 16

    def test_cache_hit_resolves_immediately_and_identically(self):
        stub = StubSession()
        with ScoringEngine(stub, max_batch_size=4, max_wait_ms=1.0,
                           cache_size=64) as engine:
            first = engine.submit_row(*_stub_row(7)).result(timeout=10.0)
            forwards = stub.forwards
            hit = engine.submit_row(*_stub_row(7))
            assert hit.done()               # resolved without touching queue
            assert hit.result() == first
            assert stub.forwards == forwards
            stats = engine.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_cache_disabled_always_forwards(self):
        stub = StubSession()
        with ScoringEngine(stub, max_batch_size=1, cache_size=0) as engine:
            for _ in range(3):
                engine.submit_row(*_stub_row(1)).result(timeout=10.0)
        assert stub.forwards == 3

    def test_drain_resolves_everything_in_flight(self):
        stub = StubSession(delay_s=0.005)
        engine = ScoringEngine(stub, max_batch_size=8, max_wait_ms=50.0,
                               cache_size=0)
        futures = [engine.submit_row(*_stub_row(v)) for v in range(50)]
        engine.close(drain=True)    # SIGTERM path: flush, then stop
        for value, future in enumerate(futures):
            assert future.result(timeout=1.0) == value * 0.5
        assert engine.queue_depth() == 0

    def test_close_without_drain_fails_pending(self):
        stub = StubSession(delay_s=0.05)
        engine = ScoringEngine(stub, max_batch_size=1, cache_size=0)
        futures = [engine.submit_row(*_stub_row(v)) for v in range(20)]
        engine.close(drain=False)
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=5.0)
                outcomes.append("ok")
            except EngineClosedError:
                outcomes.append("closed")
        assert "closed" in outcomes     # queue was abandoned...
        assert all(o in ("ok", "closed") for o in outcomes)  # ...never hung

    def test_submit_after_close_raises(self):
        engine = ScoringEngine(StubSession())
        engine.close(drain=True)
        with pytest.raises(EngineClosedError):
            engine.submit_row(*_stub_row(0))

    def test_scorer_failure_reaches_the_future_then_recovers(self):
        stub = StubSession()
        with ScoringEngine(stub, max_batch_size=4, max_wait_ms=1.0,
                           cache_size=0) as engine:
            stub.fail = True
            with pytest.raises(RuntimeError, match="injected"):
                engine.submit_row(*_stub_row(1)).result(timeout=10.0)
            stub.fail = False
            assert engine.submit_row(*_stub_row(4)).result(timeout=10.0) == 2.0
            snapshot = engine.registry.snapshot()
            assert snapshot["serve.errors"]["value"] == 1.0

    def test_single_request_flushes_after_max_wait(self):
        with ScoringEngine(StubSession(), max_batch_size=64,
                           max_wait_ms=5.0) as engine:
            assert engine.submit_row(*_stub_row(2)).result(timeout=10.0) == 1.0

    def test_score_convenience_preserves_order(self):
        with ScoringEngine(StubSession(), max_batch_size=8) as engine:
            rows = [_stub_row(v) for v in (5, 1, 9)]
            np.testing.assert_array_equal(engine.score(rows, timeout=10.0),
                                          [2.5, 0.5, 4.5])


class TestGoldenParity:
    """The tentpole invariant: online scores == offline evaluation, bitwise,
    for any micro-batch split and any cache state."""

    def test_engine_logits_bit_identical_to_offline(self, data, session):
        reference = _reference_logits(session.model, data.test)
        rows = dataset_rows(data.test)
        # Duplicates exercise cache hits; interleaved threads exercise
        # arbitrary micro-batch compositions.
        indices = list(range(len(rows))) * 2
        engine = ScoringEngine(session, max_batch_size=5, max_wait_ms=2.0,
                               num_workers=2, cache_size=128)
        futures = [(i, engine.submit_row(*rows[i])) for i in indices]
        engine.close(drain=True)
        for i, future in futures:
            assert future.result(timeout=5.0) == reference[i]

    def test_session_rows_bit_identical_to_offline(self, data, session):
        reference = _reference_logits(session.model, data.test)
        indices = [4, 0, 9, 4]
        logits = session.score_rows(_row_dicts(data.test, indices))
        np.testing.assert_array_equal(logits, reference[indices])


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get_text(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode("utf-8")


def _post(url, payload):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def server(session):
    with ScoringServer(session, port=0, max_batch_size=8,
                       max_wait_ms=1.0) as running:
        yield running


@pytest.mark.slow
@pytest.mark.serving
class TestHTTPServer:
    def test_healthz(self, server):
        status, payload = _get(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "DIN"
        # Fleet-probe fields: which artifact, which backend, how loaded.
        assert payload["ready"] is True
        assert payload["draining"] is False
        assert payload["queue_depth"] >= 0
        assert payload["uptime_s"] >= 0
        assert len(payload["artifact_digest"]) == 64
        assert payload["backend"] == "reference"

    def test_healthz_digest_matches_session(self, session, server):
        _, payload = _get(server.url + "/healthz")
        assert payload["artifact_digest"] == session.artifact_digest()

    def test_metrics_prometheus_by_default(self, server):
        # Prime the registry so the exposition has serving series.
        _get(server.url + "/healthz")
        status, content_type, text = _get_text(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE serve_uptime_seconds gauge" in text
        assert "serve_http_healthz_requests_total" in text

    def test_metrics_json_route_and_accept_header(self, server):
        # JSON metrics are negotiated on /metrics; /metrics.json is an
        # unknown route like any other (a JSON 404, never a 5xx).
        status, payload = _get(server.url + "/metrics",
                               headers={"Accept": "application/json"})
        assert status == 200
        assert payload["uptime_s"] >= 0
        assert "cache" in payload and "metrics" in payload
        status, payload = _get(server.url + "/metrics.json")
        assert status == 404
        assert "error" in payload

    def test_draining_healthz_is_503(self, session):
        server = ScoringServer(session, port=0).start()
        try:
            # Close the engine only: the HTTP front end still answers, which
            # is exactly the draining window a load balancer probes.
            server.engine.close(drain=True)
            status, payload = _get(server.url + "/healthz")
            assert status == 503
            assert payload["status"] == "draining"
            assert payload["ready"] is False
        finally:
            server.close(drain=True)

    def test_score_matches_offline(self, data, session, server):
        indices = [0, 2, 7]
        reference = _reference_logits(session.model, data.test)[indices]
        status, payload = _post(server.url + "/score",
                                {"rows": _row_dicts(data.test, indices)})
        assert status == 200
        np.testing.assert_array_equal(payload["logits"], reference)
        assert all(0.0 < p < 1.0 for p in payload["probabilities"])

    def test_single_row_shorthand(self, data, server):
        status, payload = _post(server.url + "/score",
                                _row_dicts(data.test, [1])[0])
        assert status == 200
        assert len(payload["logits"]) == 1

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/score", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_row_is_400(self, server):
        status, payload = _post(server.url + "/score",
                                {"rows": [{"categorical": [0]}]})
        assert status == 400
        assert "row 0" in payload["error"]

    def test_empty_rows_is_400(self, server):
        status, _ = _post(server.url + "/score", {"rows": []})
        assert status == 400

    def test_unknown_route_is_404(self, server):
        status, _ = _get(server.url + "/nope")
        assert status == 404

    def test_close_is_idempotent_and_graceful(self, session):
        server = ScoringServer(session, port=0).start()
        status, _ = _get(server.url + "/healthz")
        assert status == 200
        server.close(drain=True)
        server.close(drain=True)
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(server.url + "/healthz")


def _keepalive_post(conn, path, payload):
    """POST on an open ``http.client`` connection; (response, JSON body)."""
    conn.request("POST", path, body=json.dumps(payload).encode(),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response, json.loads(response.read())


@pytest.mark.serving
class TestReplyOnTheWire:
    """A reply leaves as one send on a ``TCP_NODELAY`` socket, so a
    keep-alive ``/score`` costs its computation, not a 40 ms Nagle ×
    delayed-ACK stall; and a drain ends keep-alive connections idle
    between requests instead of waiting for their clients to hang up."""

    @pytest.fixture
    def sends(self, server, monkeypatch):
        """TCP_NODELAY as seen at each server-side send, one entry per
        ``send``/``sendall`` call."""
        seen = []

        def counting(real):
            def send(sock, *args, **kwargs):
                if sock.getsockname()[1] == server.port:   # accepted side
                    seen.append(sock.getsockopt(socket.IPPROTO_TCP,
                                                socket.TCP_NODELAY))
                return real(sock, *args, **kwargs)
            return send

        for name in ("send", "sendall"):
            monkeypatch.setattr(socket.socket, name,
                                counting(getattr(socket.socket, name)))
        return seen

    def _rows32(self, data):
        return _row_dicts(data.test, [i % len(data.test) for i in range(32)])

    def test_a_score_reply_is_one_send(self, data, server, sends):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            for _ in range(3):
                before = len(sends)
                response, payload = _keepalive_post(
                    conn, "/score", {"rows": self._rows32(data)})
                assert response.status == 200
                assert len(payload["logits"]) == 32
                assert len(sends) - before == 1
        finally:
            conn.close()

    def test_accepted_socket_has_nodelay(self, data, server, sends):
        status, _ = _post(server.url + "/score",
                          {"rows": self._rows32(data)})
        assert status == 200
        assert sends and all(sends)

    def test_keepalive_score_costs_its_computation(self, data, session):
        # Before one-send replies this read ~44 ms a request on loopback:
        # the kernel's delayed-ACK timer, not the forward.
        rows = self._rows32(data)
        with ScoringServer(session, port=0, cache_size=0) as running:
            conn = http.client.HTTPConnection(running.host, running.port,
                                              timeout=10)
            latencies = []
            try:
                for _ in range(20):
                    start = time.perf_counter()
                    response, _ = _keepalive_post(conn, "/score",
                                                  {"rows": rows})
                    latencies.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
        assert float(np.median(latencies)) * 1000.0 < 20.0

    def test_drain_ends_idle_keepalive_and_answers_in_flight(
            self, data, artifact):
        gated = InferenceSession.load(artifact)
        entered, gate = threading.Event(), threading.Event()
        score_batch = gated.score_batch

        def held_score_batch(rows):
            entered.set()
            assert gate.wait(10.0)
            return score_batch(rows)

        gated.score_batch = held_score_batch
        reference = _reference_logits(gated.model, data.test)[[0, 3]]
        server = ScoringServer(gated, port=0, cache_size=0).start()
        idle = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        busy = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        replies, closer = [], None
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()        # now idle, kept alive
            in_flight = threading.Thread(target=lambda: replies.append(
                _keepalive_post(busy, "/score",
                                {"rows": _row_dicts(data.test, [0, 3])})))
            in_flight.start()
            assert entered.wait(10.0)               # being scored now
            start = time.monotonic()
            closer = threading.Thread(target=server.close)
            closer.start()
            idle.sock.settimeout(2.0)
            assert idle.sock.recv(1) == b""         # the server hung up
            gate.set()
            closer.join(2.0)
            assert not closer.is_alive()
            assert time.monotonic() - start < 2.0
            in_flight.join(10.0)
            assert not in_flight.is_alive()
            (response, payload), = replies
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            np.testing.assert_array_equal(payload["logits"], reference)
        finally:
            gate.set()
            idle.close()
            busy.close()
            if closer is None:
                server.close()
            else:
                closer.join(10.0)

    def test_drain_under_keepalive_churn(self, session):
        # Connections go idle and busy on every request while close()
        # runs; a lost idle-set update would leave one blocked in readline
        # and close() waiting on it.
        statuses, stop = [], threading.Event()
        server = ScoringServer(session, port=0).start()

        def client():
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=10)
            try:
                while not stop.is_set():
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    statuses.append(response.status)
                    if response.getheader("Connection") == "close":
                        break
            except (http.client.HTTPException, OSError):
                pass        # hung up between requests: the drain's right
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            deadline = time.monotonic() + 10.0
            while len(statuses) < 50 and time.monotonic() < deadline:
                time.sleep(0.001)
            closer = threading.Thread(target=server.close)
            closer.start()
            closer.join(5.0)
            assert not closer.is_alive()
            for thread in clients:
                thread.join(5.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            server.close()
        assert set(statuses) == {200}

    def test_replies_are_written_in_one_place_in_the_source(self):
        # A second writer would be a second way for a reply to leave in
        # pieces; a second TCP_NODELAY site, a socket that can miss it.
        class Sites(ast.NodeVisitor):
            def __init__(self):
                self.scope, self.writes, self.nodelay = [], [], 0

            def visit_scope(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            visit_ClassDef = visit_FunctionDef = visit_scope

            def visit_Call(self, node):
                func = node.func
                if isinstance(func, ast.Attribute) and (
                        func.attr in ("end_headers", "flush_headers")
                        or (func.attr == "write"
                            and getattr(func.value, "attr", "") == "wfile")):
                    self.writes.append(tuple(self.scope[-2:]))
                self.generic_visit(node)

            def visit_Attribute(self, node):
                self.nodelay += node.attr == "TCP_NODELAY"
                self.generic_visit(node)

            def visit_Name(self, node):
                self.nodelay += node.id in ("TCP_NODELAY",
                                            "disable_nagle_algorithm")

        sites = Sites()
        serving = Path(repro.serving.__file__).resolve().parent
        for path in serving.glob("*.py"):
            sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        assert sites.writes
        assert set(sites.writes) == {("Handler", "_send")}
        assert sites.nodelay == 1


@pytest.mark.slow
class TestLoadgen:
    def test_request_stream_round_robin_without_repeats(self):
        assert build_request_stream(3, 7) == [0, 1, 2, 0, 1, 2, 0]

    def test_request_stream_repeats_come_from_history(self):
        stream = build_request_stream(100, 400, repeat_fraction=0.5, seed=1)
        assert len(stream) == 400
        fresh = len(set(stream))
        assert fresh < 400              # some requests were re-sends
        assert stream == build_request_stream(100, 400, repeat_fraction=0.5,
                                              seed=1)

    def test_request_stream_validation(self):
        with pytest.raises(ValueError):
            build_request_stream(0, 5)
        with pytest.raises(ValueError):
            build_request_stream(5, 0)
        with pytest.raises(ValueError):
            build_request_stream(5, 5, repeat_fraction=1.0)

    def test_dataset_rows_limit(self, data):
        rows = dataset_rows(data.test, limit=3)
        assert len(rows) == 3
        np.testing.assert_array_equal(rows[1][0], data.test.categorical[1])


class TestServingEvents:
    def test_events_flow_through_jsonl_trace(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        writer = JsonlTraceWriter(str(trace))
        engine = ScoringEngine(StubSession(), max_batch_size=4,
                               max_wait_ms=1.0, cache_size=64,
                               observers=[writer])
        engine.submit_row(*_stub_row(1)).result(timeout=10.0)
        engine.submit_row(*_stub_row(1)).result(timeout=10.0)  # cache hit
        engine.close(drain=True)
        writer.close()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = [r["event"] for r in records]
        assert kinds.count("request_received") == 2
        assert kinds.count("batch_flushed") == 1
        assert kinds.count("request_completed") == 2
        completed = [r for r in records if r["event"] == "request_completed"]
        assert {r["cached"] for r in completed} == {True, False}
        flushed = next(r for r in records if r["event"] == "batch_flushed")
        assert flushed["batch_size"] == 1
        assert flushed["forward_ms"] >= 0

    def test_metrics_registry_snapshot(self):
        registry = MetricRegistry()
        engine = ScoringEngine(StubSession(), max_batch_size=2,
                               max_wait_ms=1.0, registry=registry)
        engine.score([_stub_row(v) for v in range(4)], timeout=10.0)
        engine.close(drain=True)
        snapshot = registry.snapshot()
        assert snapshot["serve.requests"]["value"] == 4.0
        assert snapshot["serve.latency_seconds"]["count"] == 4
        assert snapshot["serve.batch_size"]["count"] >= 1
        assert snapshot["serve.queue_wait_seconds"]["count"] == 4
        assert snapshot["serve.cache_hit_ratio"]["value"] == 0.0


class TestServingSpans:
    """Tentpole: span context survives the queue boundary — the ingress
    context captured on the submitting thread reappears in spans and events
    emitted from engine worker threads."""

    def _run_one(self, tracer, stub=None, rows=1):
        recorder = Recorder()
        engine = ScoringEngine(stub or StubSession(), max_batch_size=rows,
                               max_wait_ms=1.0, cache_size=64,
                               tracer=tracer, observers=[recorder])
        ingress = tracer.make_context()
        futures = [engine.submit_row(*_stub_row(v), trace_parent=ingress)
                   for v in range(rows)]
        for future in futures:
            future.result(timeout=10.0)
        engine.close(drain=True)
        return ingress, recorder

    def test_trace_id_propagates_to_worker_thread_events(self):
        sink = SpanRecorder()
        tracer = Tracer(sink)
        ingress, recorder = self._run_one(tracer, rows=3)
        received = [e for e in recorder.events
                    if type(e).kind == "request_received"]
        flushed = [e for e in recorder.events
                   if type(e).kind == "batch_flushed"]
        completed = [e for e in recorder.events
                     if type(e).kind == "request_completed"]
        assert {e.trace_id for e in received} == {ingress.trace_id}
        assert {e.trace_id for e in flushed} == {ingress.trace_id}
        assert {e.trace_id for e in completed} == {ingress.trace_id}
        # batch_flushed/request_completed are emitted by the worker thread,
        # yet carry the submitting thread's trace — explicit handoff worked.
        worker_spans = [r for r in sink.by_trace(ingress.trace_id)
                        if r["thread"].startswith("scoring-worker")]
        assert worker_spans

    def test_request_spans_parented_under_ingress(self):
        sink = SpanRecorder()
        tracer = Tracer(sink)
        ingress, _ = self._run_one(tracer, rows=2)
        requests = sink.by_name("serve.request")
        assert len(requests) == 2
        assert all(r["parent_id"] == ingress.span_id for r in requests)
        request_ids = {r["span_id"] for r in requests}
        for name in ("serve.queue_wait", "serve.forward"):
            children = sink.by_name(name)
            assert len(children) == 2
            assert all(c["parent_id"] in request_ids for c in children)
            assert all(c["trace_id"] == ingress.trace_id for c in children)

    def test_stage_spans_sum_to_request_latency(self):
        # Acceptance bound: queue_wait + forward within 10% of the request
        # span.  A slow forward makes the bound meaningful (the uncovered
        # gap is batch assembly + response bookkeeping, microseconds).
        sink = SpanRecorder()
        tracer = Tracer(sink)
        self._run_one(tracer, stub=StubSession(delay_s=0.05))
        request = sink.by_name("serve.request")[0]
        stages = (sink.by_name("serve.queue_wait")[0]["duration_ms"]
                  + sink.by_name("serve.forward")[0]["duration_ms"])
        assert stages <= request["duration_ms"] * 1.001
        assert stages == pytest.approx(request["duration_ms"], rel=0.10)

    def test_cache_hit_gets_root_span_only(self):
        sink = SpanRecorder()
        tracer = Tracer(sink)
        engine = ScoringEngine(StubSession(), max_batch_size=1,
                               max_wait_ms=1.0, cache_size=64, tracer=tracer)
        engine.submit_row(*_stub_row(5)).result(timeout=10.0)
        before = len(sink.by_name("serve.queue_wait"))
        hit = engine.submit_row(*_stub_row(5))
        assert hit.done()
        engine.close(drain=True)
        cached = [r for r in sink.by_name("serve.request")
                  if r.get("attrs", {}).get("cached")]
        assert len(cached) == 1
        assert len(sink.by_name("serve.queue_wait")) == before

    def test_unsampled_traces_emit_nothing(self):
        sink = SpanRecorder()
        tracer = Tracer(sink, sample_rate=0.0)
        engine = ScoringEngine(StubSession(), max_batch_size=1,
                               max_wait_ms=1.0, tracer=tracer)
        engine.submit_row(*_stub_row(1)).result(timeout=10.0)
        engine.close(drain=True)
        assert sink.records == []
        assert tracer.traces_started >= 1
        assert tracer.traces_sampled == 0

    def test_error_path_still_closes_request_span(self):
        sink = SpanRecorder()
        tracer = Tracer(sink)
        stub = StubSession()
        stub.fail = True
        engine = ScoringEngine(stub, max_batch_size=1, max_wait_ms=1.0,
                               cache_size=0, tracer=tracer)
        with pytest.raises(RuntimeError):
            engine.submit_row(*_stub_row(1)).result(timeout=10.0)
        engine.close(drain=True)
        failed = sink.by_name("serve.request")
        assert len(failed) == 1
        assert "injected" in failed[0]["attrs"]["error"]

    def test_no_tracer_requests_carry_no_context(self):
        # The disabled fast path: without a tracer, submissions never
        # allocate span contexts (one attribute load + None check).
        engine = ScoringEngine(StubSession(), max_batch_size=1,
                               max_wait_ms=1.0)
        future = engine.submit_row(*_stub_row(1))
        future.result(timeout=10.0)
        engine.close(drain=True)
        assert engine.tracer is None


class TestRowEndsOnce:
    """Every queued row ends in ``ScoringEngine._finish`` and only there:
    one future outcome, one ``request_completed``, one ``serve.request``
    span, whichever of the six endings it took."""

    # ending -> (request_completed payload, serve.request span attrs), less
    # the per-run fields (request_id, latency_ms, trace_id).  The first
    # four rows were captured from the commit before _finish existed, when
    # each ending built its own event and span; the last two endings were
    # silent then.
    GOLDEN = {
        "hit": ({"cached": True, "batch_size": 0}, {"cached": True}),
        "scored": ({"cached": False, "batch_size": 1}, {"batch_size": 1}),
        "model_error": (
            {"cached": False, "batch_size": 1,
             "error": "RuntimeError('injected scorer failure')"},
            {"error": "RuntimeError('injected scorer failure')"}),
        "expired": ({"cached": False, "batch_size": 0,
                     "error": "deadline_exceeded"},
                    {"error": "deadline_exceeded"}),
        "abandoned": ({"cached": False, "batch_size": 0,
                       "error": "abandoned"}, {"error": "abandoned"}),
        "engine_closed": ({"cached": False, "batch_size": 0,
                           "error": "engine_closed"},
                          {"error": "engine_closed"}),
    }
    # ending -> the counters it moves (and no other ending-counter); the
    # latency histograms belong to served rows alone.
    COUNTERS = {
        "hit": {"serve.cache.hits": 1}, "scored": {},
        "model_error": {"serve.errors": 1},
        "expired": {"serve.deadline_expired": 1},
        "abandoned": {"serve.abandoned": 1}, "engine_closed": {},
    }

    class GatedSession(StubSession):
        """Holds every forward until ``gate`` is set, so a second row is
        provably still queued when the test ends it."""

        def __init__(self):
            super().__init__()
            self.gate = threading.Event()
            self.entered = threading.Event()

        def score_batch(self, batch):
            self.entered.set()
            assert self.gate.wait(10.0)
            return super().score_batch(batch)

    def _drive(self, ending, engine, stub):
        """Run one row into ``ending``; returns (its future, earlier rows)."""
        if ending == "hit":
            engine.submit_row(*_stub_row(3)).result(timeout=10.0)
            return engine.submit_row(*_stub_row(3)), 1
        if ending in ("scored", "model_error"):
            stub.fail = ending == "model_error"
            return engine.submit_row(*_stub_row(3)), 0
        if ending == "expired":
            return engine.submit_row(
                *_stub_row(3), deadline=time.monotonic() - 1.0), 0
        blocker = engine.submit_row(*_stub_row(1))
        assert stub.entered.wait(10.0)      # worker is inside the forward
        future = engine.submit_row(*_stub_row(3))
        if ending == "abandoned":
            assert future.cancel()
        else:
            engine.close(drain=False, timeout=0.01)
        stub.gate.set()
        blocker.result(timeout=10.0)
        return future, 1

    @pytest.mark.parametrize("ending", list(GOLDEN))
    def test_every_ending_ends_once(self, ending):
        sink, recorder, registry = SpanRecorder(), Recorder(), MetricRegistry()
        gated = ending in ("abandoned", "engine_closed")
        stub = self.GatedSession() if gated else StubSession()
        engine = ScoringEngine(
            stub, max_batch_size=1, max_wait_ms=0.0, tracer=Tracer(sink),
            cache_size=8 if ending == "hit" else 0, registry=registry,
            observers=[recorder])
        future, earlier = self._drive(ending, engine, stub)
        resolutions = []
        future.add_done_callback(resolutions.append)
        engine.close(drain=True)

        # The future: resolved exactly once, with the ending's outcome.
        assert resolutions == [future]
        if ending in ("hit", "scored"):
            assert future.result(timeout=0) == 1.5
        elif ending == "abandoned":
            assert future.cancelled()
        else:
            expected = {"model_error": RuntimeError,
                        "expired": TimeoutError,
                        "engine_closed": EngineClosedError}[ending]
            assert isinstance(future.exception(timeout=0), expected)

        # Events: one request_completed per request_received, same ids.
        received = [e for e in recorder.events
                    if type(e).kind == "request_received"]
        completed = [e for e in recorder.events
                     if type(e).kind == "request_completed"]
        assert len(received) == earlier + 1
        assert sorted(e.request_id for e in completed) == sorted(
            e.request_id for e in received)
        (event,) = [e for e in completed
                    if e.request_id == received[-1].request_id]
        payload = event.payload()
        assert payload.pop("request_id") == received[-1].request_id
        assert payload.pop("latency_ms") >= 0.0
        assert payload.pop("trace_id") == received[-1].trace_id
        golden_event, golden_attrs = self.GOLDEN[ending]
        assert payload == golden_event

        # Spans: one serve.request per sampled request.
        spans = sink.by_name("serve.request")
        assert len(spans) == earlier + 1
        (span,) = [r for r in spans
                   if r["attrs"]["request_id"] == event.request_id]
        assert span["trace_id"] == event.trace_id
        assert span["attrs"] == {"request_id": event.request_id,
                                 **golden_attrs}

        # Counters and histograms: what each ending touched before.
        snapshot = registry.snapshot()
        for name in ("serve.cache.hits", "serve.errors",
                     "serve.deadline_expired", "serve.abandoned"):
            moved = snapshot.get(name, {}).get("value", 0)
            assert moved == self.COUNTERS[ending].get(name, 0), name
        served = earlier + (ending in ("hit", "scored"))
        latency = snapshot.get("serve.latency_seconds", {})
        assert latency.get("count", 0) == served

    def test_endings_are_spelled_out_once_in_the_source(self):
        # A second call site of any of these is a second place where a row
        # or a request can end: route it through ScoringEngine._finish /
        # Handler._handle_score instead.
        serving = Path(repro.serving.__file__).resolve().parent
        calls, span_names = {}, 0
        for path in serving.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and \
                        node.value == "serve.request":
                    span_names += 1
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    called = func.id
                elif isinstance(func, ast.Attribute):
                    # "<last name of the receiver>.<method>"
                    owner = func.value
                    receiver = getattr(owner, "attr", getattr(owner, "id", ""))
                    called = f"{receiver}.{func.attr}"
                else:
                    continue
                calls.setdefault(called, []).append(path.name)
        assert calls["RequestCompletedEvent"] == ["batcher.py"]
        assert span_names == 1
        assert calls["breaker.record"] == ["server.py"]
        assert calls["admission.release"] == ["server.py"]
        assert calls["future.set_result"] == ["batcher.py"]
        assert calls["future.set_exception"] == ["batcher.py"]


@pytest.mark.slow
@pytest.mark.serving
class TestHTTPTracing:
    def test_ingress_span_parents_engine_spans(self, data, session):
        sink = SpanRecorder()
        tracer = Tracer(sink)
        with ScoringServer(session, port=0, max_batch_size=8,
                           max_wait_ms=1.0, tracer=tracer) as server:
            status, _ = _post(server.url + "/score",
                              {"rows": _row_dicts(data.test, [0, 1])})
            assert status == 200
        ingress = sink.by_name("http.request")
        assert len(ingress) == 1
        assert ingress[0]["parent_id"] is None
        assert ingress[0]["attrs"]["status"] == 200
        # The ingress span names the deployment that scored the request.
        assert ingress[0]["attrs"]["model_version"] == "v0"
        requests = sink.by_name("serve.request")
        assert len(requests) == 2
        assert all(r["parent_id"] == ingress[0]["span_id"] for r in requests)
        assert all(r["trace_id"] == ingress[0]["trace_id"] for r in requests)
        # The ingress span covers its children.
        assert all(r["duration_ms"] <= ingress[0]["duration_ms"] * 1.001
                   for r in requests)


class TestSchemaRoundTrip:
    def test_to_dict_from_dict_through_json(self, data):
        payload = json.loads(json.dumps(data.schema.to_dict()))
        restored = DatasetSchema.from_dict(payload)
        assert restored == data.schema
        assert restored.categorical[0].vocab_size == \
            data.schema.categorical[0].vocab_size


class TestPredictCLI:
    def test_predict_from_rows_file(self, data, artifact, session, tmp_path,
                                    capsys):
        from repro.cli import main
        rows_file = tmp_path / "rows.json"
        indices = [0, 6]
        rows_file.write_text(json.dumps({"rows": _row_dicts(data.test,
                                                            indices)}))
        assert main(["predict", "--artifact", str(artifact),
                     "--input", str(rows_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = _reference_logits(session.model, data.test)[indices]
        np.testing.assert_array_equal(payload["logits"], reference)
        assert payload["model"] == "DIN"

    def test_predict_rejects_bad_miss_block_in_one_line(self, data, tmp_path):
        from repro.cli import main
        TestArtifact._miss_artifact(
            data, tmp_path / "bad", lambda m: m["miss"].update(extractor="gru"))
        with pytest.raises(SystemExit,
                           match="cannot load artifact .*'extractor'"):
            main(["predict", "--artifact", str(tmp_path / "bad"),
                  "--input", str(tmp_path / "rows.json")])

    def test_predict_rejects_bad_artifact(self, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit, match="cannot load artifact"):
            main(["predict", "--artifact", str(tmp_path / "nope"),
                  "--input", str(tmp_path / "rows.json")])
