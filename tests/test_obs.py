"""Tests for the observability subsystem: events, metrics, timers, sinks,
trace inspection, and its integration with the trainer and CLI."""

import ast
import json
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar

import numpy as np
import pytest

from repro.cli import main
from repro.core import MISSConfig, SimilarityTracker, attach_miss
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model, model_class, supports_miss
import repro.obs
from repro.obs import (
    SCHEMA_VERSION,
    AnomalyDetectedEvent,
    BaseObserver,
    BatchEndEvent,
    BatchFlushedEvent,
    CheckpointRestoredEvent,
    CheckpointWrittenEvent,
    ConsoleReporter,
    DistSyncEvent,
    DriftDetectedEvent,
    EMAMeter,
    EpochStartEvent,
    Event,
    FixedBucketHistogram,
    EvalEndEvent,
    JsonlTraceWriter,
    MetricRegistry,
    ModelSwappedEvent,
    ObserverList,
    PhaseTimings,
    PromotionEvent,
    RequestCompletedEvent,
    RequestReceivedEvent,
    RequestShedEvent,
    RunEndEvent,
    RunStartEvent,
    ShardLoadedEvent,
    StreamingHistogram,
    StreamWindowEvent,
    Tracer,
    active_timings,
    check_record,
    collect,
    phase,
    read_trace,
    render_summary,
    summarize_trace,
    timed,
)
from repro.obs.events import live, optional
from repro.obs.metrics import prometheus_name
from repro.serving import ScoringEngine
from repro.training import TrainConfig, Trainer, run_experiment


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=40, num_items=100, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=8)
    return build_ctr_data(InterestWorld(config), max_seq_len=10, seed=9)


class Recorder(BaseObserver):
    """Observer that logs every event it receives, in order."""

    def __init__(self):
        self.events = []

    def on_run_start(self, event):
        self.events.append(event)

    def on_epoch_start(self, event):
        self.events.append(event)

    def on_batch_end(self, event):
        self.events.append(event)

    def on_eval_end(self, event):
        self.events.append(event)

    def on_run_end(self, event):
        self.events.append(event)


# ---------------------------------------------------------------------------
# Metric registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        registry = MetricRegistry()
        counter = registry.counter("train.steps")
        counter.inc()
        counter.inc(3)
        assert registry.counter("train.steps").value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        registry = MetricRegistry()
        gauge = registry.gauge("lr")
        assert gauge.value is None
        gauge.set(0.01)
        gauge.set(0.005)
        assert gauge.value == pytest.approx(0.005)

    def test_ema_matches_numpy_reference(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=50)
        beta = 0.9
        meter = EMAMeter("loss", beta=beta)
        for v in values:
            meter.update(v)
        # Bias-corrected EMA reference computed directly.
        raw = 0.0
        for v in values:
            raw = beta * raw + (1 - beta) * v
        expected = raw / (1 - beta ** values.size)
        assert meter.value == pytest.approx(expected)
        assert meter.last == pytest.approx(values[-1])
        with pytest.raises(ValueError):
            EMAMeter("bad", beta=1.0)

    def test_histogram_exact_below_reservoir(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=200)
        hist = StreamingHistogram("t", reservoir_size=1000)
        for v in values:
            hist.record(v)
        assert hist.count == 200
        assert hist.min == pytest.approx(values.min())
        assert hist.max == pytest.approx(values.max())
        assert hist.mean == pytest.approx(values.mean())
        assert hist.p50 == pytest.approx(np.quantile(values, 0.5))
        assert hist.p95 == pytest.approx(np.quantile(values, 0.95))

    def test_histogram_reservoir_bounds_memory(self):
        hist = StreamingHistogram("t", reservoir_size=64)
        for v in range(5000):
            hist.record(float(v))
        assert hist.count == 5000
        assert len(hist._reservoir) == 64
        assert hist.max == 4999.0
        # The sampled median should land in the bulk of the stream.
        assert 500 < hist.p50 < 4500

    def test_name_and_type_collisions(self):
        registry = MetricRegistry()
        registry.counter("a.b")
        with pytest.raises(TypeError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.counter("bad name!")
        assert "a.b" in registry
        assert registry.names() == ["a.b"]

    def test_snapshot_is_json_safe(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        registry.ema("e").update(1.5)
        registry.histogram("h").record(2.0)
        registry.gauge("g").set(3.0)
        dumped = json.loads(json.dumps(registry.snapshot()))
        assert set(dumped) == {"c", "e", "g", "h"}
        assert dumped["h"]["p50"] == 2.0

    def test_streaming_histogram_exact_sum_and_count(self):
        # sum/count are exact stream totals, independent of the sketch.
        hist = StreamingHistogram("t", reservoir_size=8)
        values = [float(v) for v in range(1000)]
        for v in values:
            hist.record(v)
        assert hist.count == 1000
        assert hist.sum == pytest.approx(sum(values))
        assert len(hist._reservoir) == 8

    def test_streaming_histogram_deterministic_across_instances(self):
        # The replacement stream is seeded from a digest of the name, not
        # salted hash(): two instances fed the same stream must agree,
        # which is what makes identically-seeded runs bit-comparable.
        a = StreamingHistogram("serve.latency_ms", reservoir_size=16)
        b = StreamingHistogram("serve.latency_ms", reservoir_size=16)
        rng = np.random.default_rng(7)
        for v in rng.normal(size=500):
            a.record(v)
            b.record(v)
        assert a._reservoir == b._reservoir
        assert a.p50 == b.p50

    def test_fixed_bucket_histogram_semantics(self):
        hist = FixedBucketHistogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 2.0):   # 0.1 is inclusive (le semantics)
            hist.record(v)
        assert hist.cumulative() == [(0.1, 2), (1.0, 3), (float("inf"), 4)]
        assert hist.count == 4
        assert hist.sum == pytest.approx(2.65)
        snap = hist.snapshot()
        assert snap["buckets"] == {"0.1": 2, "1.0": 3, "+Inf": 4}
        json.dumps(snap)

    def test_fixed_bucket_histogram_validation(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram("h", buckets=())
        with pytest.raises(ValueError):
            FixedBucketHistogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            FixedBucketHistogram("h", buckets=(2.0, 1.0))

    def test_fixed_histogram_registry_accessor(self):
        registry = MetricRegistry()
        hist = registry.fixed_histogram("serve.lat", buckets=(0.5, 1.0))
        assert registry.fixed_histogram("serve.lat") is hist
        with pytest.raises(TypeError):
            registry.histogram("serve.lat")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{(?P<labels>[^}]*)\})? (?P<value>\S+)$")


def parse_exposition(text):
    """Minimal Prometheus text-format (v0.0.4) parser for round-tripping.

    Validates line shape, metric-name charset, and that every sample
    belongs to a family announced by a preceding ``# TYPE`` comment.
    Returns ``(types, samples)`` where samples map name -> [(labels, value)].
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    types: dict[str, str] = {}
    samples: dict[str, list] = {}
    for line in text.splitlines():
        if not line:
            continue                       # blank lines are ignorable
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "summary", "histogram")
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name, value = match.group("name"), float(match.group("value"))
        labels = dict(
            item.split("=", 1) for item in
            (match.group("labels") or "").split(",") if item)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                family = name[:-len(suffix)]
        assert family in types, f"sample {name!r} precedes its # TYPE"
        samples.setdefault(name, []).append((labels, value))
    return types, samples


class TestPrometheusExposition:
    def test_name_sanitisation(self):
        assert prometheus_name("serve.latency_ms") == "serve_latency_ms"
        assert (prometheus_name("serve.http.healthz.requests")
                == "serve_http_healthz_requests")
        assert prometheus_name("a-b") == "a_b"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("ok:colon") == "ok:colon"

    def _registry(self):
        registry = MetricRegistry()
        registry.counter("serve.requests").inc(5)
        registry.gauge("serve.queue_depth").set(2)
        registry.gauge("serve.unset")          # None: must be omitted
        registry.ema("train.loss").update(0.7)
        reservoir = registry.histogram("serve.latency_ms")
        fixed = registry.fixed_histogram("serve.latency_seconds",
                                         buckets=(0.01, 0.1, 1.0))
        for v in (0.004, 0.05, 0.05, 0.4, 3.0):
            reservoir.record(v * 1000.0)
            fixed.record(v)
        return registry

    def test_round_trips_through_exposition_parser(self):
        types, samples = parse_exposition(self._registry().render_prometheus())
        assert types["serve_requests_total"] == "counter"
        assert types["serve_queue_depth"] == "gauge"
        assert types["train_loss"] == "gauge"
        assert types["serve_latency_ms"] == "summary"
        assert types["serve_latency_seconds"] == "histogram"
        assert "serve_unset" not in types

        assert samples["serve_requests_total"] == [({}, 5.0)]
        assert samples["serve_queue_depth"] == [({}, 2.0)]
        quantiles = {labels["quantile"]: value
                     for labels, value in samples["serve_latency_ms"]}
        assert set(quantiles) == {'"0.5"', '"0.9"', '"0.95"', '"0.99"'}
        assert samples["serve_latency_ms_count"] == [({}, 5.0)]
        assert samples["serve_latency_ms_sum"][0][1] == pytest.approx(3504.0)

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        _, samples = parse_exposition(self._registry().render_prometheus())
        buckets = samples["serve_latency_seconds_bucket"]
        les = [labels["le"] for labels, _ in buckets]
        assert les == ['"0.01"', '"0.1"', '"1.0"', '"+Inf"']
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)          # cumulative => monotone
        assert counts == [1.0, 3.0, 4.0, 5.0]
        assert counts[-1] == samples["serve_latency_seconds_count"][0][1]

    def test_empty_registry_renders_empty_exposition(self):
        types, samples = parse_exposition(MetricRegistry().render_prometheus())
        assert types == {} and samples == {}


# ---------------------------------------------------------------------------
# Phase timers
# ---------------------------------------------------------------------------
class TestTimers:
    def test_noop_without_collector(self):
        assert active_timings() is None
        with phase("anything"):
            pass  # must not raise or record anywhere

    def test_inactive_phase_is_a_shared_singleton(self):
        # The no-observer fast path must not allocate per call: every
        # inactive phase() returns the same no-op scope object.
        assert phase("a") is phase("b")

    def test_inactive_scopes_record_nothing(self):
        # Instrumented code that runs while no collector is active must
        # leave zero trace in a collector activated later.
        @timed("fn.cold")
        def work():
            with phase("inner.cold"):
                return 1

        assert work() == 1
        timings = PhaseTimings()
        with collect(timings):
            pass
        assert timings.stats == {}

    def test_timed_skips_context_when_inactive(self):
        # With no collector, timed() must call straight through — the no-op
        # must propagate exceptions unchanged (no __exit__ swallowing).
        @timed("fn.raises")
        def explode():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            explode()

    def test_nesting_attributes_self_time(self):
        timings = PhaseTimings()
        with collect(timings):
            assert active_timings() is timings
            with phase("outer"):
                time.sleep(0.01)
                with phase("inner"):
                    time.sleep(0.02)
        outer, inner = timings.stats["outer"], timings.stats["inner"]
        assert outer.count == 1 and inner.count == 1
        assert outer.total_s >= inner.total_s
        assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
        shares = timings.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert active_timings() is None

    def test_timed_decorator(self):
        timings = PhaseTimings()

        @timed("fn")
        def work(x):
            return x + 1

        assert work(1) == 2            # works without a collector
        with collect(timings):
            assert work(2) == 3
        assert timings.stats["fn"].count == 1

    def test_registry_receives_ms_histograms(self):
        registry = MetricRegistry()
        timings = PhaseTimings(registry=registry)
        with collect(timings):
            with phase("data.batch"):
                pass
        hist = registry.get("data.batch_ms")
        assert hist is not None and hist.count == 1

    def test_snapshot_shape(self):
        timings = PhaseTimings()
        timings.observe("a", 0.5)
        snap = timings.snapshot()
        assert snap["a"]["count"] == 1
        assert snap["a"]["share"] == pytest.approx(1.0)
        json.dumps(snap)

    def test_four_threads_keep_independent_phase_stacks(self):
        # Regression test for the shared-stack bug: the active-phase stack
        # must be per-thread.  With one shared stack, concurrent push/pop
        # interleaves across threads, misattributing child time — visible
        # as negative self_s and corrupted nesting.  Four threads nest
        # phases into ONE collector; accounting must stay consistent.
        timings = PhaseTimings()
        iterations, errors = 25, []

        def work():
            try:
                for _ in range(iterations):
                    with phase("outer"):
                        time.sleep(0.0002)
                        with phase("inner"):
                            time.sleep(0.0002)
            except Exception as exc:     # pragma: no cover - failure detail
                errors.append(exc)

        with collect(timings):
            threads = [threading.Thread(target=work, name=f"timer-w{i}")
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert errors == []
        outer, inner = timings.stats["outer"], timings.stats["inner"]
        assert outer.count == 4 * iterations
        assert inner.count == 4 * iterations
        # Nesting only exists within a thread, so every inner is a child
        # of some outer and self-time can never go negative.
        assert outer.self_s >= 0.0
        assert inner.self_s >= 0.0
        assert outer.child_s == pytest.approx(inner.total_s)
        assert outer.total_s >= inner.total_s


# ---------------------------------------------------------------------------
# Event bus through the trainer
# ---------------------------------------------------------------------------
class TestTrainerEvents:
    def test_event_ordering_and_payloads(self, data):
        recorder = Recorder()
        model = create_model("LR", data.schema, seed=1)
        Trainer(TrainConfig(epochs=2, seed=0)).fit(
            model, data.train, data.validation, observers=[recorder])

        kinds = [type(e).kind for e in recorder.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        # Each epoch: epoch_start, batch_end*, eval_end.
        assert kinds[1] == "epoch_start"
        assert "eval_end" in kinds
        first_eval = kinds.index("eval_end")
        assert all(k == "batch_end" for k in kinds[2:first_eval])

        start = recorder.events[0]
        assert isinstance(start, RunStartEvent)
        assert start.model == "LRModel"
        assert start.num_train == len(data.train)
        assert start.config["epochs"] == 2

        batch_events = [e for e in recorder.events
                        if isinstance(e, BatchEndEvent)]
        steps = [e.step for e in batch_events]
        assert steps == list(range(1, len(steps) + 1))
        assert all(np.isfinite(e.loss) and e.grad_norm >= 0
                   for e in batch_events)
        # Live refs are present in-process but excluded from the payload.
        assert batch_events[0].model is model
        assert "model" not in batch_events[0].payload()

        end = recorder.events[-1]
        assert isinstance(end, RunEndEvent)
        assert end.steps == len(batch_events)
        assert "train.forward" in end.timings
        assert end.metrics["train.steps"]["value"] == len(batch_events)

    def test_no_observers_skips_telemetry(self, data):
        model = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=1, seed=0)).fit(
            model, data.train, data.validation)
        assert result.metrics is None and result.timings is None

    def test_telemetry_attached_to_result(self, data):
        model = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=1, seed=0)).fit(
            model, data.train, data.validation, observers=[Recorder()])
        assert result.metrics is not None
        assert "train.loss.total" in result.metrics
        assert "train.forward" in result.timings

    def test_observer_list_build(self):
        pair = ObserverList.build([Recorder(), Recorder()])
        assert len(pair) == 2
        nested = ObserverList.build(pair)
        assert nested.observers == pair.observers
        single = ObserverList.build(Recorder())
        assert len(single) == 1
        assert not ObserverList.build(None)

    def test_miss_loss_components_recorded(self, data):
        recorder = Recorder()
        model = attach_miss(create_model("DIN", data.schema, seed=1),
                            MISSConfig(seed=0))
        Trainer(TrainConfig(epochs=1, seed=0)).fit(
            model, data.train, data.validation, observers=[recorder])
        batch_events = [e for e in recorder.events
                        if isinstance(e, BatchEndEvent)]
        assert batch_events
        components = batch_events[0].loss_components
        assert set(components) == {"logloss", "ssl_interest", "ssl_feature"}
        # Eq. 17: total = logloss + α1·ssl + α2·ssl'.
        cfg = model.config
        expected = (components["logloss"]
                    + cfg.alpha_interest * components["ssl_interest"]
                    + cfg.alpha_feature * components["ssl_feature"])
        assert batch_events[0].loss == pytest.approx(expected, rel=1e-6)
        end = recorder.events[-1]
        assert "model.ssl.mie" in end.timings
        # The level phase keeps its inclusive meaning; its two named
        # children split it three ways (self time = the loss alone).
        level = end.timings["model.ssl.infonce"]
        children = [end.timings[name]
                    for name in ("model.ssl.encode", "model.ssl.fn_mask")]
        assert all(child["count"] == level["count"] for child in children)
        assert level["self_s"] == pytest.approx(
            level["total_s"] - sum(child["total_s"] for child in children))

    def test_similarity_tracker_as_observer(self, data):
        model = attach_miss(create_model("DIN", data.schema, seed=1),
                            MISSConfig(seed=0))
        tracker = SimilarityTracker(every=1)
        Trainer(TrainConfig(epochs=1, seed=0)).fit(
            model, data.train, data.validation, observers=[tracker])
        assert tracker.steps and len(tracker.steps) == len(tracker.similarities)


# ---------------------------------------------------------------------------
# Sinks and trace inspection
# ---------------------------------------------------------------------------
class TestSinksAndInspect:
    def _write_trace(self, data, path):
        model = create_model("LR", data.schema, seed=1)
        with JsonlTraceWriter(str(path)) as writer:
            run_experiment(model, data, TrainConfig(epochs=2, seed=0),
                           model_name="LR", observers=[writer])
        return path

    def test_jsonl_round_trip(self, data, tmp_path):
        path = self._write_trace(data, tmp_path / "run.jsonl")
        events = read_trace(str(path))
        assert all(e["schema_version"] == SCHEMA_VERSION for e in events)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds.count("run_end") == 1
        # run_experiment appends the calibrated test eval after run_end.
        assert kinds[-1] == "eval_end"
        assert events[-1]["split"] == "test"
        run_end = next(e for e in events if e["event"] == "run_end")
        assert "train.forward" in run_end["timings"]
        assert "train.grad_norm" in run_end["metrics"]

    def test_summarize_and_render(self, data, tmp_path):
        path = self._write_trace(data, tmp_path / "run.jsonl")
        summary = summarize_trace(str(path))
        assert summary.model == "LRModel"
        assert summary.num_runs == 1
        assert len(summary.epochs) >= 1
        assert "test" in summary.final_evals
        text = render_summary(summary)
        assert "Phase time share" in text
        assert "train.forward" in text
        assert "test" in text

    def test_read_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError):
            read_trace(str(bad))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_trace(str(empty))
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text(json.dumps({"schema_version": 999,
                                     "event": "run_start"}) + "\n")
        with pytest.raises(ValueError):
            read_trace(str(wrong))

    def test_console_reporter_throttles(self):
        import io
        stream = io.StringIO()
        reporter = ConsoleReporter(every=10, stream=stream)
        for step in range(1, 31):
            reporter.on_batch_end(BatchEndEvent(epoch=0, step=step, loss=1.0,
                                                grad_norm=0.5))
        assert len(stream.getvalue().strip().splitlines()) == 3
        reporter.on_eval_end(EvalEndEvent(epoch=0, split="validation",
                                          auc=0.6, logloss=0.69))
        assert "AUC=0.6000" in stream.getvalue()
        with pytest.raises(ValueError):
            ConsoleReporter(every=0)

    def test_inspect_run_cli(self, data, tmp_path, capsys):
        path = self._write_trace(data, tmp_path / "run.jsonl")
        assert main(["inspect-run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Phase time share" in out
        assert "Final metrics" in out

    def test_writer_fails_fast_on_bad_path(self, tmp_path):
        with pytest.raises(OSError):
            JsonlTraceWriter(str(tmp_path / "no-such-dir" / "x.jsonl"))
        writer = JsonlTraceWriter(str(tmp_path / "ok.jsonl"))
        writer.close()
        with pytest.raises(ValueError):
            writer.emit(EpochStartEvent(epoch=0))

    def test_inspect_run_cli_missing_file(self, tmp_path, capsys):
        assert main(["inspect-run", str(tmp_path / "nope.jsonl")]) == 1
        assert "inspect-run:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# An event kind is declared once: derived payload, one emit, checked schema
# ---------------------------------------------------------------------------
f64, f32, i64 = np.float64, np.float32, np.int64

#: Per kind: (class, required-only kwargs, the record body they produce,
#: every-optional-set kwargs, the record body they produce).  The bodies were
#: captured from the last commit with 18 hand-written ``payload()`` methods,
#: feeding numpy scalars and ints into float fields on purpose: the derived
#: payload must write the same keys, values AND JSON types.
GOLDEN = [
    (RunStartEvent,
     dict(model="DIN", num_train=10, num_validation=4),
     {"model": "DIN", "num_train": 10, "num_validation": 4, "config": {}},
     dict(model="DIN", num_train=i64(10), num_validation=4,
          config={"epochs": 2, "lr": f64(0.01),
                  "nested": {"k": [i64(1), 2.5]}}),
     {"model": "DIN",
      "num_train": 10,
      "num_validation": 4,
      "config": {"epochs": 2, "lr": 0.01, "nested": {"k": [1, 2.5]}}}),
    (EpochStartEvent,
     dict(epoch=0),
     {"epoch": 0},
     dict(epoch=i64(3)),
     {"epoch": 3}),
    (BatchEndEvent,
     dict(epoch=0, step=1, loss=0.5, grad_norm=1.25),
     {"epoch": 0, "step": 1, "loss": 0.5, "grad_norm": 1.25},
     dict(epoch=0, step=i64(7), loss=f64(0.5), grad_norm=2,
          loss_components={"logloss": f32(0.25), "ssl_interest": 1,
                           "ssl_feature": 0.125},
          model=object(), batch=object()),
     {"epoch": 0,
      "step": 7,
      "loss": 0.5,
      "grad_norm": 2.0,
      "loss_components": {"logloss": 0.25,
                          "ssl_interest": 1.0,
                          "ssl_feature": 0.125}}),
    (EvalEndEvent,
     dict(epoch=1, split="validation", auc=0.75, logloss=0.5),
     {"epoch": 1, "split": "validation", "auc": 0.75, "logloss": 0.5},
     dict(epoch=1, split="test", auc=f64(0.75), logloss=1,
          train_loss=f32(0.5), loss_components={"logloss": 2}),
     {"epoch": 1,
      "split": "test",
      "auc": 0.75,
      "logloss": 1.0,
      "train_loss": 0.5,
      "loss_components": {"logloss": 2.0}}),
    (RunEndEvent,
     dict(best_epoch=0, epochs_run=1, steps=8, wall_time_s=1.5),
     {"best_epoch": 0,
      "epochs_run": 1,
      "steps": 8,
      "wall_time_s": 1.5,
      "timings": {},
      "metrics": {}},
     dict(best_epoch=i64(1), epochs_run=2, steps=16, wall_time_s=3,
          timings={"train.forward": {"self_s": f64(0.5), "count": i64(4),
                                     "share": 0.25}},
          metrics={"train.steps": {"type": "counter", "value": i64(16)}}),
     {"best_epoch": 1,
      "epochs_run": 2,
      "steps": 16,
      "wall_time_s": 3.0,
      "timings": {"train.forward": {"self_s": 0.5, "count": 4, "share": 0.25}},
      "metrics": {"train.steps": {"type": "counter", "value": 16}}}),
    (CheckpointWrittenEvent,
     dict(step=4, epoch=0),
     {"step": 4,
      "epoch": 0,
      "path": None,
      "is_best": False,
      "completed": False},
     dict(step=i64(4), epoch=0, path="/tmp/c.ckpt", is_best=np.bool_(True),
          completed=1),
     {"step": 4,
      "epoch": 0,
      "path": "/tmp/c.ckpt",
      "is_best": True,
      "completed": True}),
    (CheckpointRestoredEvent,
     dict(step=4, epoch=0, reason="resume"),
     {"step": 4, "epoch": 0, "reason": "resume", "path": None},
     dict(step=4, epoch=i64(1), reason="rollback", path="/tmp/c.ckpt",
          skipped=["/tmp/bad.ckpt"]),
     {"step": 4,
      "epoch": 1,
      "reason": "rollback",
      "path": "/tmp/c.ckpt",
      "skipped": ["/tmp/bad.ckpt"]}),
    (AnomalyDetectedEvent,
     dict(step=3, epoch=0, anomaly="loss_spike", value=9.5, lr=0.01,
          retries=1, retries_remaining=2),
     {"step": 3,
      "epoch": 0,
      "anomaly": "loss_spike",
      "value": 9.5,
      "lr": 0.01,
      "retries": 1,
      "retries_remaining": 2},
     dict(step=3, epoch=0, anomaly="non_finite_grad", value=f32(9.5), lr=1,
          retries=i64(1), retries_remaining=2),
     {"step": 3,
      "epoch": 0,
      "anomaly": "non_finite_grad",
      "value": 9.5,
      "lr": 1.0,
      "retries": 1,
      "retries_remaining": 2}),
    (RequestReceivedEvent,
     dict(request_id=1, cached=False, queue_depth=2),
     {"request_id": 1, "cached": False, "queue_depth": 2},
     dict(request_id=i64(1), cached=np.bool_(True), queue_depth=2,
          trace_id="abc"),
     {"request_id": 1, "cached": True, "queue_depth": 2, "trace_id": "abc"}),
    (BatchFlushedEvent,
     dict(batch_size=8, queue_depth=0, wait_ms=0.5, forward_ms=1.5),
     {"batch_size": 8, "queue_depth": 0, "wait_ms": 0.5, "forward_ms": 1.5},
     dict(batch_size=8, queue_depth=i64(0), wait_ms=f64(0.5), forward_ms=2,
          trace_id="abc"),
     {"batch_size": 8,
      "queue_depth": 0,
      "wait_ms": 0.5,
      "forward_ms": 2.0,
      "trace_id": "abc"}),
    (RequestCompletedEvent,
     dict(request_id=1, latency_ms=2.5, cached=False, batch_size=8),
     {"request_id": 1, "latency_ms": 2.5, "cached": False, "batch_size": 8},
     dict(request_id=1, latency_ms=3, cached=0, batch_size=i64(8),
          error="ValueError('x')", trace_id="abc"),
     {"request_id": 1,
      "latency_ms": 3.0,
      "cached": False,
      "batch_size": 8,
      "error": "ValueError('x')",
      "trace_id": "abc"}),
    (ModelSwappedEvent,
     dict(old_version=None, new_version="v2", digest="d00d", swap_ms=1.5),
     {"old_version": None,
      "new_version": "v2",
      "digest": "d00d",
      "swap_ms": 1.5},
     dict(old_version="v1", new_version="v2", digest="d00d",
          swap_ms=f32(1.5)),
     {"old_version": "v1",
      "new_version": "v2",
      "digest": "d00d",
      "swap_ms": 1.5}),
    (RequestShedEvent,
     dict(reason="queue_full", queue_depth=9),
     {"reason": "queue_full", "queue_depth": 9},
     dict(reason="breaker_open", queue_depth=i64(9), retry_after_s=1),
     {"reason": "breaker_open", "queue_depth": 9, "retry_after_s": 1.0}),
    (ShardLoadedEvent,
     dict(shard=0, rows=512, load_ms=0.75, source="/data"),
     {"shard": 0, "rows": 512, "load_ms": 0.75, "source": "/data"},
     dict(shard=i64(3), rows=512, load_ms=f64(0.75), source="/data"),
     {"shard": 3, "rows": 512, "load_ms": 0.75, "source": "/data"}),
    (DistSyncEvent,
     dict(rank=0, world_size=2, step=1, epoch=0, wait_ms=0.25, loss=0.5),
     {"rank": 0,
      "world_size": 2,
      "step": 1,
      "epoch": 0,
      "wait_ms": 0.25,
      "loss": 0.5},
     dict(rank=i64(1), world_size=2, step=1, epoch=0, wait_ms=1,
          loss=f64(0.5)),
     {"rank": 1,
      "world_size": 2,
      "step": 1,
      "epoch": 0,
      "wait_ms": 1.0,
      "loss": 0.5}),
    (StreamWindowEvent,
     dict(window=0, timestamp=10.0, rows=128, production_version="v1",
          production_auc=0.75, production_logloss=0.5, learner_auc=0.625,
          learner_logloss=0.5),
     {"window": 0,
      "timestamp": 10.0,
      "rows": 128,
      "production_version": "v1",
      "production_auc": 0.75,
      "production_logloss": 0.5,
      "learner_auc": 0.625,
      "learner_logloss": 0.5,
      "new_users": 0},
     dict(window=i64(1), timestamp=20, rows=128, production_version="v1",
          production_auc=f64(0.75), production_logloss=f32(0.5),
          learner_auc=1, learner_logloss=0.5, train_loss=f64(0.25),
          new_users=i64(3)),
     {"window": 1,
      "timestamp": 20.0,
      "rows": 128,
      "production_version": "v1",
      "production_auc": 0.75,
      "production_logloss": 0.5,
      "learner_auc": 1.0,
      "learner_logloss": 0.5,
      "new_users": 3,
      "train_loss": 0.25}),
    (DriftDetectedEvent,
     dict(window=5, detector="score_psi", value=0.5, threshold=0.25),
     {"window": 5, "detector": "score_psi", "value": 0.5, "threshold": 0.25},
     dict(window=i64(5), detector="label_kl", value=f64(0.5), threshold=1),
     {"window": 5, "detector": "label_kl", "value": 0.5, "threshold": 1.0}),
    (PromotionEvent,
     dict(window=2, action="published", version="v2"),
     {"window": 2, "action": "published", "version": "v2"},
     dict(window=i64(2), action="rollback", version="v2", reason="auc drop",
          previous_version="v1", challenger_auc=f64(0.75), production_auc=1),
     {"window": 2,
      "action": "rollback",
      "version": "v2",
      "reason": "auc drop",
      "previous_version": "v1",
      "challenger_auc": 0.75,
      "production_auc": 1.0}),
]


def _typed(value):
    """``value`` with every leaf paired with its type name, so that
    ``1 != 1.0 != True`` when two parsed records are compared."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value).__name__, value


def _write_one(tmp_path, event):
    """The parsed JSONL record ``event`` becomes on its way through an
    ``ObserverList`` into a ``JsonlTraceWriter``."""
    path = tmp_path / "one.jsonl"
    with JsonlTraceWriter(str(path)) as writer:
        ObserverList([writer]).emit(event)
    (line,) = path.read_text().splitlines()
    return json.loads(line)


def _class_members(path: Path, class_name: str) -> set[str]:
    """Names defined or assigned directly in ``class_name``'s body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (cls,) = [n for n in ast.walk(tree)
              if isinstance(n, ast.ClassDef) and n.name == class_name]
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


class StubSession:
    """Scorer for engine traces: logit = first categorical id."""

    def score_batch(self, batch):
        return batch.categorical[:, 0].astype(np.float64)


class TestDeclaredOnce:
    def test_a_new_kind_needs_only_its_dataclass(self, tmp_path):
        @dataclass
        class ProbeEvent(Event):
            kind: ClassVar[str] = "probe"

            depth: int
            ratio: float
            note: str | None = optional()
            handle: Any = live()

        typed, catch_all, both = [], [], []

        class Typed:
            def on_probe(self, event):
                typed.append(event)

        class CatchAll:
            def on_event(self, event):
                catch_all.append(event)

        class Both(BaseObserver):
            def on_probe(self, event):
                both.append(("on_probe", event))

            def on_event(self, event):
                both.append(("on_event", event))

        class Deaf:
            pass

        event = ProbeEvent(depth=i64(3), ratio=1, handle=object())
        path = tmp_path / "probe.jsonl"
        with JsonlTraceWriter(str(path)) as writer:
            ObserverList.build(
                [writer, Typed(), CatchAll(), Both(), Deaf()]).emit(event)
        assert typed == [event] and catch_all == [event]
        assert both == [("on_probe", event)]     # the typed hook wins
        (record,) = read_trace(str(path))
        assert _typed(record) == _typed({
            "schema_version": SCHEMA_VERSION, "event": "probe",
            "depth": 3, "ratio": 1.0})
        assert check_record(record) is None
        assert check_record({**record, "note": "set"}) is None
        assert "undeclared" in check_record({**record, "handle": 1})

    def test_nested_observer_lists_fan_out(self):
        seen = []

        class Sink:
            def on_epoch_start(self, event):
                seen.append(event)

        event = EpochStartEvent(epoch=2)
        ObserverList([ObserverList([Sink()]), Sink()]).emit(event)
        assert seen == [event, event]

    @pytest.mark.parametrize(
        "cls, required, want_required, full, want_full", GOLDEN,
        ids=[case[0].kind for case in GOLDEN])
    def test_golden_records(self, tmp_path, cls, required, want_required,
                            full, want_full):
        for kwargs, want in ((required, want_required), (full, want_full)):
            record = _write_one(tmp_path, cls(**kwargs))
            assert _typed(record) == _typed({
                "schema_version": 1, "event": cls.kind, **want})
            assert check_record(record) is None

    def test_golden_covers_every_declared_kind(self):
        declared = {cls for cls in Event.__subclasses__()
                    if cls.__module__ == "repro.obs.events"}
        assert {case[0] for case in GOLDEN} == declared
        assert len(declared) == 18
        assert all(getattr(repro.obs, cls.__name__) is cls
                   for cls in declared)

    def test_empty_skipped_list_is_left_out(self, tmp_path):
        record = _write_one(tmp_path, CheckpointRestoredEvent(
            step=4, epoch=0, reason="resume", path=None, skipped=[]))
        assert _typed(record) == _typed({
            "schema_version": 1, "event": "checkpoint_restored",
            "step": 4, "epoch": 0, "reason": "resume", "path": None})

    def test_no_per_kind_code_outside_the_dataclasses(self):
        obs_dir = Path(repro.obs.__file__).resolve().parent
        events_py, sinks_py = obs_dir / "events.py", obs_dir / "sinks.py"
        defs = [n.name for n in
                ast.walk(ast.parse(events_py.read_text(encoding="utf-8")))
                if isinstance(n, ast.FunctionDef)]
        assert defs.count("payload") == 1
        for path, name in ((events_py, "BaseObserver"),
                           (events_py, "ObserverList"),
                           (sinks_py, "JsonlTraceWriter")):
            hooks = {m for m in _class_members(path, name)
                     if m.startswith("on_")}
            assert hooks <= {"on_event"}, (name, hooks)


class TestCheckRecord:
    def test_trainer_trace_is_well_formed(self, data, tmp_path):
        path = tmp_path / "fit.jsonl"
        model = attach_miss(create_model("DIN", data.schema, seed=1),
                            MISSConfig(seed=2))
        with JsonlTraceWriter(str(path)) as writer:
            Trainer(TrainConfig(epochs=1, seed=0)).fit(
                model, data.train, data.validation, observers=[writer],
                checkpoint_dir=tmp_path / "ckpt")
        records = read_trace(str(path))
        assert {"run_start", "batch_end", "eval_end", "checkpoint_written",
                "run_end"} <= {r["event"] for r in records}
        assert [check_record(r) for r in records] == [None] * len(records)

    def test_engine_trace_with_spans_is_well_formed(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        row = (np.array([7, 0], dtype=np.int64),
               np.zeros((1, 4), dtype=np.int64), np.ones(4, dtype=bool))
        with JsonlTraceWriter(str(path)) as writer:
            with ScoringEngine(StubSession(), max_batch_size=4,
                               max_wait_ms=1.0, observers=[writer],
                               tracer=Tracer(writer)) as engine:
                for _ in range(2):      # the second is a cache hit
                    assert engine.submit_row(*row).result(timeout=10.0) == 7.0
        records = read_trace(str(path))
        assert {"request_received", "batch_flushed", "request_completed",
                "span"} <= {r["event"] for r in records}
        assert [check_record(r) for r in records] == [None] * len(records)

    def test_bad_records_are_named(self):
        good = {"schema_version": SCHEMA_VERSION, "event": "epoch_start",
                "epoch": 0}
        assert check_record(good) is None
        assert "missing" in check_record(
            {k: v for k, v in good.items() if k != "epoch"})
        assert "undeclared" in check_record({**good, "step": 3})
        assert "unknown event kind" in check_record(
            {**good, "event": "epoch_begin"})
        assert "schema_version" in check_record(
            {**good, "schema_version": SCHEMA_VERSION + 1})
        assert check_record(["epoch_start"]) == "not a trace event"
        span = {"schema_version": SCHEMA_VERSION, "event": "span",
                "trace_id": "t", "span_id": "s", "parent_id": None,
                "name": "serve.request", "start_s": 0.0, "duration_ms": 1.0,
                "thread": "main"}
        assert check_record(span) is None
        assert check_record({**span, "attrs": {"k": 1}}) is None
        assert "missing" in check_record(
            {k: v for k, v in span.items() if k != "thread"})


# ---------------------------------------------------------------------------
# Registry capability helpers (used by `compare`)
# ---------------------------------------------------------------------------
class TestCapabilities:
    def test_supports_miss(self):
        assert not supports_miss("LR")
        assert supports_miss("DIN")
        assert supports_miss("DeepFM")
        with pytest.raises(KeyError):
            supports_miss("NotAModel")

    def test_model_class_matches_instance(self, data):
        model = create_model("DIN", data.schema, seed=0)
        assert isinstance(model, model_class("DIN"))
