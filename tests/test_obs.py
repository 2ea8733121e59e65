"""Tests for the observability subsystem: events, metrics, timers, sinks,
trace inspection, and its integration with the trainer and CLI."""

import json
import re
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core import MISSConfig, SimilarityTracker, attach_miss
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model, model_class, supports_miss
from repro.obs import (
    SCHEMA_VERSION,
    BaseObserver,
    BatchEndEvent,
    ConsoleReporter,
    EMAMeter,
    EpochStartEvent,
    FixedBucketHistogram,
    EvalEndEvent,
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    PhaseTimings,
    RunEndEvent,
    RunStartEvent,
    StreamingHistogram,
    active_timings,
    collect,
    phase,
    read_trace,
    render_summary,
    summarize_trace,
    timed,
)
from repro.obs.metrics import prometheus_name
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
        assert "model.ssl.infonce" in end.timings

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
            writer.on_epoch_start(EpochStartEvent(epoch=0))

    def test_inspect_run_cli_missing_file(self, tmp_path, capsys):
        assert main(["inspect-run", str(tmp_path / "nope.jsonl")]) == 1
        assert "inspect-run:" in capsys.readouterr().err


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
