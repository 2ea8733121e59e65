"""Tests for the streaming online-learning loop (repro.streaming).

Covers the stream source's determinism contracts, the window-invariant
corruption property, the drift-detector math and gating, the incremental
trainer's prequential semantics and checkpoint-resume bit-identity, and a
small end-to-end loop: drift -> alarm -> publish -> shadow -> promote, plus
the forced-bad-candidate rollback path — all through the live ModelRouter —
and the drift-detection latency of three scripted scenarios.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corruption import (
    flip_labels_stream,
    row_uniform,
)
from repro.data.processing import build_ctr_data
from repro.data.synthetic import InterestWorld, InterestWorldConfig
from repro.models import create_model
from repro.obs import JsonlTraceWriter, read_trace
from repro.serving.artifact import export_artifact
from repro.serving.batcher import ScoringEngine
from repro.serving.registry import ModelRegistry
from repro.serving.router import ModelRouter
from repro.serving.session import InferenceSession
from repro.streaming import (
    ClickStream,
    DriftMonitor,
    IncrementalConfig,
    IncrementalTrainer,
    OnlineLoop,
    PageHinkley,
    PromotionController,
    StreamConfig,
    psi,
    score_histogram,
)
from repro.streaming.drift import (
    COOLDOWN_WINDOWS,
    PH_THRESHOLD,
    PSI_CONSECUTIVE,
    REFERENCE_WINDOWS,
    SCORE_PSI_THRESHOLD,
)
from repro.streaming.stream import WINDOW_SECONDS
from repro.training.trainer import TrainConfig, Trainer


@pytest.fixture(scope="module")
def world_data():
    """World + processed splits shared by the streaming tests.

    The end-to-end tests and ``scripts/streaming_smoke.py`` ride the
    detection timeline that ``test_drift_detection_latency`` pins.
    """
    world = InterestWorld(InterestWorldConfig(
        num_users=120, num_items=160, num_topics=8, num_categories=4,
        min_interactions=3, seed=3))
    processed = build_ctr_data(world, max_seq_len=10, seed=4)
    return world, processed


@pytest.fixture(scope="module")
def artifact(world_data, tmp_path_factory):
    """A briefly-trained DIN exported as a warm-start artifact."""
    _, processed = world_data
    model = create_model("DIN", processed.schema, seed=1)
    trainer = Trainer(TrainConfig(epochs=10, batch_size=128, seed=1))
    trainer.fit(model, processed.train, processed.validation)
    path = tmp_path_factory.mktemp("artifact") / "din"
    export_artifact(model, path, model_name="DIN")
    return path


def collect(stream, start=0):
    return list(stream.windows(start=start))


class TestClickStream:
    SCENARIO = dict(num_windows=8, impressions_per_window=12, seed=3,
                    drift_window=4, drift_fraction=0.5,
                    cold_fraction=0.25, cold_start_window=2,
                    cold_users_per_window=2, cold_bootstrap_len=2,
                    noise_rate=0.05, noise_burst=(5, 7),
                    noise_burst_rate=0.4)

    def test_two_iterations_bit_identical(self, world_data):
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(**self.SCENARIO))
        first, second = collect(stream), collect(stream)
        assert len(first) == len(second) == 8
        for a, b in zip(first, second):
            assert a.index == b.index
            assert a.timestamp == b.timestamp
            assert a.start_row == b.start_row
            assert a.new_users == b.new_users
            assert a.injected == b.injected
            np.testing.assert_array_equal(a.data.categorical,
                                          b.data.categorical)
            np.testing.assert_array_equal(a.data.sequences, b.data.sequences)
            np.testing.assert_array_equal(a.data.mask, b.data.mask)
            np.testing.assert_array_equal(a.data.labels, b.data.labels)

    def test_replay_from_start_matches_full_run(self, world_data):
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(**self.SCENARIO))
        full = collect(stream)
        tail = collect(stream, start=5)
        assert [w.index for w in tail] == [5, 6, 7]
        for a, b in zip(full[5:], tail):
            np.testing.assert_array_equal(a.data.categorical,
                                          b.data.categorical)
            np.testing.assert_array_equal(a.data.labels, b.data.labels)

    def test_rows_timestamps_and_vocab(self, world_data):
        world, processed = world_data
        cfg = StreamConfig(num_windows=3, impressions_per_window=10, seed=0)
        windows = collect(ClickStream(world, processed, cfg))
        start_row = 0
        for i, window in enumerate(windows):
            assert len(window) == 20        # impression = positive + negative
            assert window.timestamp == i * WINDOW_SECONDS
            assert window.start_row == start_row
            start_row += len(window)
            assert set(np.unique(window.data.labels)) <= {0.0, 1.0}
            for col, spec in enumerate(window.data.schema.categorical):
                ids = window.data.categorical[:, col]
                assert ids.min() >= 0 and ids.max() < spec.vocab_size

    def test_cold_users_arrive_on_schedule(self, world_data):
        world, processed = world_data
        cfg = StreamConfig(num_windows=6, impressions_per_window=8, seed=2,
                           cold_fraction=0.3, cold_start_window=3,
                           cold_users_per_window=2)
        windows = collect(ClickStream(world, processed, cfg))
        assert all(not w.new_users for w in windows[:3])
        assert any(w.new_users for w in windows[3:])

    def test_noise_rate_schedule(self, world_data):
        world, processed = world_data
        cfg = StreamConfig(num_windows=4, impressions_per_window=4,
                           noise_rate=0.1, noise_burst=(1, 3),
                           noise_burst_rate=0.5)
        stream = ClickStream(world, processed, cfg)
        assert stream.noise_rate_at(0) == 0.1
        assert stream.noise_rate_at(1) == 0.5
        assert stream.noise_rate_at(2) == 0.5
        assert stream.noise_rate_at(3) == 0.1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(num_windows=0)
        with pytest.raises(ValueError):
            StreamConfig(drift_fraction=1.5)
        with pytest.raises(ValueError):
            StreamConfig(cold_activity=0.0)
        with pytest.raises(ValueError):
            StreamConfig(noise_burst=(5, 5))

    def test_negative_start_rejected(self, world_data):
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(num_windows=2))
        with pytest.raises(ValueError):
            next(stream.windows(start=-1))


class TestWindowInvariantCorruption:
    """Satellite property: corrupting window-by-window is bit-identical to
    corrupting the concatenated stream, for every cut-point layout."""

    @staticmethod
    def _windowed(dataset, cuts, apply):
        bounds = [0, *cuts, len(dataset)]
        pieces = []
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = dataset.subset(np.arange(lo, hi))
            pieces.append(apply(chunk, lo))
        return pieces

    @given(cuts=st.lists(st.integers(min_value=1, max_value=59),
                         max_size=6, unique=True).map(sorted),
           rate=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_flip_labels_stream_window_invariant(self, world_data, cuts, rate,
                                                 seed):
        _, processed = world_data
        dataset = processed.train.subset(np.arange(60))
        full = flip_labels_stream(dataset, rate, seed=seed, offset=0)
        pieces = self._windowed(
            dataset, cuts,
            lambda chunk, lo: flip_labels_stream(chunk, rate, seed=seed,
                                                 offset=lo))
        stitched = np.concatenate([p.labels for p in pieces])
        np.testing.assert_array_equal(stitched, full.labels)

    def test_row_uniform_is_stateless_and_uniform(self):
        indices = np.arange(0, 4096, dtype=np.uint64)
        values = row_uniform(123, indices)
        np.testing.assert_array_equal(values, row_uniform(123, indices))
        assert ((0.0 <= values) & (values < 1.0)).all()
        assert abs(values.mean() - 0.5) < 0.05
        # Different seeds decorrelate.
        other = row_uniform(124, indices)
        assert not np.array_equal(values, other)

    def test_stream_noise_is_window_invariant_end_to_end(self, world_data):
        """The same stream windowed differently flips the same rows."""
        world, processed = world_data
        base = dict(impressions_per_window=6, noise_rate=0.3, seed=9)
        coarse = ClickStream(world, processed,
                             StreamConfig(num_windows=2, **base))
        labels_coarse = np.concatenate(
            [w.data.labels for w in coarse.windows()])
        # Regenerate without noise, then corrupt the concatenation directly.
        clean = ClickStream(
            world, processed,
            StreamConfig(num_windows=2, impressions_per_window=6, seed=9))
        windows = list(clean.windows())
        stitched = np.concatenate([
            flip_labels_stream(w.data, 0.3, seed=9,
                               offset=w.start_row).labels
            for w in windows])
        np.testing.assert_array_equal(labels_coarse, stitched)


class TestDriftMath:
    def test_psi_zero_on_identical(self):
        hist = np.array([0.2, 0.3, 0.5])
        assert psi(hist, hist) == pytest.approx(0.0, abs=1e-9)

    def test_psi_grows_with_shift(self):
        ref = np.array([0.25, 0.25, 0.25, 0.25])
        mild = np.array([0.30, 0.25, 0.25, 0.20])
        wild = np.array([0.70, 0.10, 0.10, 0.10])
        assert 0 < psi(ref, mild) < psi(ref, wild)

    def test_psi_survives_empty_bins(self):
        ref = np.array([1.0, 0.0])
        act = np.array([0.0, 1.0])
        assert np.isfinite(psi(ref, act))

    def test_score_histogram_normalised(self):
        probs = np.array([0.05, 0.15, 0.5, 0.95])
        hist = score_histogram(probs)
        assert hist.sum() == pytest.approx(1.0)
        assert hist.size == 10
        # Empty input degrades to uniform instead of NaN.
        empty = score_histogram(np.array([]))
        np.testing.assert_allclose(empty, 0.1)

    def test_page_hinkley_detects_mean_shift(self):
        ph = PageHinkley()
        assert not any(ph.update(0.5) for _ in range(20))
        assert any(ph.update(0.8) for _ in range(10))

    def test_page_hinkley_min_observations_and_reset(self):
        # Alternating 0.1 / 0.9 beats the threshold by the second value,
        # but no alarm fires before REFERENCE_WINDOWS observations.
        ph = PageHinkley()
        fired = [ph.update(v) for v in (0.1, 0.9, 0.1, 0.9)]
        assert ph.statistic > PH_THRESHOLD
        assert not any(fired[:REFERENCE_WINDOWS - 1])
        ph = PageHinkley()
        for _ in range(5):
            ph.update(0.5)
        for _ in range(10):
            ph.update(0.9)
        assert ph.statistic > 0
        ph.reset()
        assert ph.statistic == 0.0

    def test_page_hinkley_validation(self):
        # The policy is module constants: PageHinkley takes no argument,
        # and each constant sits in the range the retired arguments
        # enforced.
        with pytest.raises(TypeError):
            PageHinkley(0.005)
        assert PH_THRESHOLD > 0
        assert REFERENCE_WINDOWS >= 1


class TestDriftMonitor:
    # A constant logloss keeps Page-Hinkley silent, so only the score_psi
    # path is under test; calm and shifted windows are far more than
    # SCORE_PSI_THRESHOLD apart.
    CALM = np.full(256, 0.5)
    SHIFTED = np.full(256, 0.9)

    @staticmethod
    def _update(monitor, window, probs, logloss=0.6):
        return monitor.update(window, probs, logloss)

    def _warm(self, monitor):
        """Feed the reference windows; returns the next window index."""
        for w in range(REFERENCE_WINDOWS):
            assert not monitor.has_reference
            assert self._update(monitor, w, self.CALM) == []
        assert monitor.has_reference
        return REFERENCE_WINDOWS

    def _quiet(self, monitor, first, count, probs):
        """Feed ``count`` windows that must not alarm; returns the next."""
        for w in range(first, first + count):
            assert self._update(monitor, w, probs) == [], f"window {w}"
        return first + count

    def test_reference_then_gated_alarm(self):
        monitor = DriftMonitor()
        w = self._warm(monitor)
        # Shifted windows short of the streak: no alarm yet.
        w = self._quiet(monitor, w, PSI_CONSECUTIVE - 1, self.SHIFTED)
        signals = self._update(monitor, w, self.SHIFTED)
        assert [s.detector for s in signals] == ["score_psi"]
        assert signals[0].value > SCORE_PSI_THRESHOLD

    def test_streak_resets_on_calm_window(self):
        monitor = DriftMonitor()
        w = self._warm(monitor)
        w = self._quiet(monitor, w, PSI_CONSECUTIVE - 1, self.SHIFTED)
        w = self._quiet(monitor, w, 1, self.CALM)       # streak broken
        w = self._quiet(monitor, w, PSI_CONSECUTIVE - 1, self.SHIFTED)
        assert self._update(monitor, w, self.SHIFTED) != []

    def test_cooldown_suppresses_follow_up_alarms(self):
        monitor = DriftMonitor()
        w = self._warm(monitor)
        w = self._quiet(monitor, w, PSI_CONSECUTIVE - 1, self.SHIFTED)
        assert self._update(monitor, w, self.SHIFTED) != []     # alarm
        w = self._quiet(monitor, w + 1, COOLDOWN_WINDOWS, self.SHIFTED)
        assert self._update(monitor, w, self.SHIFTED) != []     # re-alarms

    def test_rebase_rebuilds_reference(self):
        monitor = DriftMonitor()
        w = self._warm(monitor)
        monitor.rebase()
        assert not monitor.has_reference
        # The shifted regime becomes the new normal: no alarms.
        self._quiet(monitor, w, REFERENCE_WINDOWS + COOLDOWN_WINDOWS,
                    self.SHIFTED)

    def test_last_stats_exported(self):
        monitor = DriftMonitor()
        w = self._warm(monitor)
        self._update(monitor, w, np.full(64, 0.5))
        assert set(monitor.last_stats) == {"score_psi", "logloss_shift"}

    def test_config_validation(self):
        # The policy is module constants: the monitor takes no argument,
        # and each constant sits in the range the retired config enforced.
        with pytest.raises(TypeError):
            DriftMonitor(object())
        assert REFERENCE_WINDOWS >= 1
        assert PSI_CONSECUTIVE >= 1
        assert COOLDOWN_WINDOWS >= 0


class TestIncrementalTrainer:
    def _stream(self, world_data, windows=4):
        world, processed = world_data
        return ClickStream(world, processed, StreamConfig(
            num_windows=windows, impressions_per_window=10, seed=5))

    def test_prequential_is_evaluate_then_train(self, world_data, artifact):
        trainer = IncrementalTrainer.from_artifact(
            artifact, IncrementalConfig(seed=0))
        window = next(self._stream(world_data).windows())
        pre = trainer.prequential_eval(window.data)
        result = trainer.process_window(window.data, window.index)
        # The reported metrics are the PRE-training scores of the window.
        assert result.auc == pre.auc
        assert result.logloss == pre.logloss
        # ... and training actually moved the model afterwards.
        post = trainer.prequential_eval(window.data)
        assert post.logloss != pre.logloss

    def test_checkpoint_resume_is_bit_identical(self, world_data, artifact,
                                                tmp_path):
        def weights(trainer):
            return {k: v.copy()
                    for k, v in trainer.model.state_dict().items()}

        config = IncrementalConfig(seed=0)
        # Uninterrupted run over 4 windows.
        straight = IncrementalTrainer.from_artifact(artifact, config)
        for window in self._stream(world_data).windows():
            straight.process_window(window.data, window.index)

        # Interrupted run: 2 windows, crash, resume, finish.
        ckpt_dir = tmp_path / "ckpt"
        first = IncrementalTrainer.from_artifact(artifact, config,
                                                 checkpoint_dir=ckpt_dir)
        stream = self._stream(world_data)
        for window in stream.windows():
            if window.index >= 2:
                break
            first.process_window(window.data, window.index)

        resumed = IncrementalTrainer.from_artifact(artifact, config,
                                                   checkpoint_dir=ckpt_dir)
        next_window = resumed.resume()
        assert next_window == 2
        assert len(resumed.history) == 2
        for window in stream.windows(start=next_window):
            resumed.process_window(window.data, window.index)

        expected = weights(straight)
        actual = weights(resumed)
        assert expected.keys() == actual.keys()
        for key in expected:
            np.testing.assert_array_equal(actual[key], expected[key])
        assert [r.auc for r in resumed.history] == \
            [r.auc for r in straight.history]

    def test_resume_without_store_rejected(self, artifact):
        trainer = IncrementalTrainer.from_artifact(
            artifact, IncrementalConfig(seed=0))
        with pytest.raises(ValueError):
            trainer.resume()


def _engine_factory(session):
    return ScoringEngine(session, max_batch_size=32, max_wait_ms=0.2,
                         num_workers=1, cache_size=0)


def _serving_stack(registry_dir, artifact, export_dir):
    registry = ModelRegistry(registry_dir)
    version = registry.publish(artifact, promote=True)
    router = ModelRouter(_engine_factory)
    router.deploy_primary(InferenceSession.load(registry.path(version)),
                          version)
    trainer = IncrementalTrainer.from_artifact(
        artifact, IncrementalConfig(learning_rate=5e-3, seed=0))
    controller = PromotionController(
        registry, router, export_dir=export_dir, model_name="DIN",
        export_every=0)
    return registry, router, trainer, controller


@pytest.mark.slow
class TestOnlineLoopE2E:
    def test_drift_to_promotion_zero_drop(self, world_data, artifact, tmp_path):
        """Interest drift degrades production -> alarm -> recovery export ->
        shadow -> verdict, with every request served through the router."""
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(
            num_windows=20, impressions_per_window=100, seed=11,
            drift_window=10, drift_fraction=0.9, noise_rate=0.02))
        registry, router, trainer, controller = _serving_stack(
            tmp_path / "registry", artifact, tmp_path / "exports")
        loop = OnlineLoop(stream, trainer, router, controller,
                          DriftMonitor())
        try:
            result = loop.run()
        finally:
            router.close()

        assert result.dropped == 0
        assert result.completed == result.submitted == 20 * 200
        assert result.drift_signals, "drift burst went undetected"
        assert all(s["window"] >= 10 for s in result.drift_signals)
        actions = [p["action"] for p in result.promotions]
        assert "published" in actions, "no candidate was exported"
        # The candidate shadow record carries comparable metrics either way.
        verdicts = [p for p in result.promotions
                    if p["action"] in ("promoted", "rejected")]
        assert verdicts and verdicts[0].get("challenger_auc") is not None
        assert "promoted" in actions, "recovery candidate not promoted"
        assert result.final_production != "v1"
        assert registry.state().get("production") == \
            result.final_production

    def test_bad_challenger_rolls_back(self, world_data, artifact, tmp_path):
        """force_promote of an untrained model fails probation and the
        previous good version is redeployed."""
        world, processed = world_data
        registry, router, trainer, controller = _serving_stack(
            tmp_path / "registry", artifact, tmp_path / "exports")
        calm = ClickStream(world, processed, StreamConfig(
            num_windows=4, impressions_per_window=40, seed=13))
        monitor = DriftMonitor()
        try:
            loop = OnlineLoop(calm, trainer, router, controller, monitor)
            warmup = loop.run()
            assert warmup.dropped == 0

            bad = create_model("DIN", processed.schema, seed=321)
            bad_path = tmp_path / "bad"
            export_artifact(bad, bad_path, model_name="DIN")
            forced = controller.force_promote(bad_path, window=4,
                                              reason="test")
            assert registry.state().get("production") == forced.version

            probation = ClickStream(world, processed, StreamConfig(
                num_windows=4, impressions_per_window=40, seed=17))
            loop2 = OnlineLoop(probation, trainer, router, controller,
                               monitor)
            result = loop2.run()
        finally:
            router.close()

        assert result.dropped == 0
        rollbacks = [p for p in result.promotions
                     if p["action"] == "rollback"]
        assert rollbacks, "bad candidate survived probation"
        assert rollbacks[0]["version"] == forced.version
        assert result.final_production == "v1"
        assert registry.state().get("production") == "v1"


#: Window at which every detection scenario's disturbance begins.
ONSET_WINDOW = 10

#: Scenario -> (StreamConfig overrides, recorded windows from onset to the
#: first alarm, the detector that raises it).  Detection is deterministic for
#: these seeds; the gate allows ``DETECTION_SLACK`` windows of growth so
#: detector tuning may move it a little, but never lose it.  Each kept
#: detector is the first to catch at least one scenario.
DETECTION_SCENARIOS = {
    "interest_drift": (dict(drift_window=ONSET_WINDOW, drift_fraction=0.9,
                            noise_rate=0.02), 1, "logloss_shift"),
    "label_burst": (dict(noise_rate=0.02,
                         noise_burst=(ONSET_WINDOW, ONSET_WINDOW + 6),
                         noise_burst_rate=0.4), 0, "logloss_shift"),
    "cold_users": (dict(cold_fraction=0.5, cold_start_window=ONSET_WINDOW,
                        cold_users_per_window=12, cold_bootstrap_len=1,
                        cold_activity=4.0, noise_rate=0.02), 5, "score_psi"),
}
DETECTION_SLACK = 3


@pytest.mark.parametrize("scenario", list(DETECTION_SCENARIOS))
def test_drift_detection_latency(scenario, world_data, artifact, tmp_path):
    """Each scripted disturbance is detected within its recorded latency
    (+ slack) by its recorded detector, with no alarm before onset and no
    dropped request."""
    overrides, recorded, detector = DETECTION_SCENARIOS[scenario]
    world, processed = world_data
    stream = ClickStream(world, processed, StreamConfig(
        num_windows=26, impressions_per_window=100, seed=11, **overrides))
    _, router, trainer, controller = _serving_stack(
        tmp_path / "registry", artifact, tmp_path / "exports")
    trace = tmp_path / "stream.jsonl"
    writer = JsonlTraceWriter(str(trace))
    loop = OnlineLoop(stream, trainer, router, controller, DriftMonitor(),
                      observers=[writer])
    try:
        result = loop.run()
    finally:
        router.close()
        writer.close()

    # A window is recorded once: the result holds the traced payloads.
    traced = [{k: v for k, v in record.items()
               if k not in ("schema_version", "event")}
              for record in read_trace(str(trace))
              if record["event"] == "stream_window"]
    assert result.windows == traced
    windows = [s["window"] for s in result.drift_signals]
    assert windows, f"{scenario} went undetected"
    assert min(windows) >= ONSET_WINDOW, f"false alarm at {min(windows)}"
    assert result.dropped == 0
    assert min(windows) - ONSET_WINDOW <= recorded + DETECTION_SLACK
    assert result.drift_signals[0]["detector"] == detector
