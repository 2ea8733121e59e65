#!/usr/bin/env python
"""End-to-end smoke test of the streaming online-learning loop.

Exercises the full closed loop the CI ``streaming-smoke`` job guards:

1. train an offline DIN model and publish it as production ``v1``;
2. run a click stream with a scripted interest-drift burst through the
   live ModelRouter and assert the drift monitor raises an alarm at or
   after the onset window (and never before it), and that its
   ``stream.drift.*`` gauges are exactly its two detectors;
3. assert the promotion controller reacted: a candidate was exported and
   **published** to the registry, **shadow** prequential metrics were
   recorded for it, and it was **promoted** to production within
   guardrails;
4. force-promote a deliberately bad candidate (an untrained model,
   bypassing every guardrail via the chaos hook) and run more traffic,
   asserting probation **rolls it back** to the previous good version;
5. assert the zero-drop contract held across both runs — every submitted
   request resolved;
6. assert the JSONL trace captured the whole story (``stream_window``,
   ``drift_detected`` naming one of the two detectors, and ``promotion``
   events), that every record in it
   passes ``repro.obs.check_record``, and that ``repro inspect-run`` renders
   its streaming timeline — the trace file is uploaded as a CI artifact.

Scenario parameters mirror the ``interest_drift`` scenario of
``tests/test_streaming.py::test_drift_detection_latency`` (same seeds), so
the expected timeline is the one that test pins.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

from repro.data.processing import build_ctr_data                    # noqa: E402
from repro.data.synthetic import InterestWorld, InterestWorldConfig # noqa: E402
from repro.models import create_model                               # noqa: E402
from repro.obs import (                                             # noqa: E402
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    check_record,
)
from repro.serving.artifact import export_artifact                  # noqa: E402
from repro.serving.batcher import ScoringEngine                     # noqa: E402
from repro.serving.registry import ModelRegistry                    # noqa: E402
from repro.serving.router import ModelRouter                        # noqa: E402
from repro.serving.session import InferenceSession                  # noqa: E402
from repro.streaming import (                                       # noqa: E402
    ClickStream,
    DriftMonitor,
    IncrementalConfig,
    IncrementalTrainer,
    OnlineLoop,
    PromotionController,
    StreamConfig,
)
from repro.training.trainer import TrainConfig, Trainer             # noqa: E402

SEED = 0
ONSET_WINDOW = 10
WINDOWS = 26
IMPRESSIONS = 100
OFFLINE_EPOCHS = 10
#: The drift monitor's detectors: score PSI and Page-Hinkley on logloss.
DETECTORS = {"score_psi", "logloss_shift"}

_step_counter = 0


def step(message: str) -> None:
    global _step_counter
    _step_counter += 1
    print(f"[{_step_counter}] {message}", flush=True)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"  ok: {message}", flush=True)


def engine_factory(session):
    return ScoringEngine(session, max_batch_size=64, max_wait_ms=0.5,
                         num_workers=1, cache_size=0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path,
                        default=Path("stream_trace.jsonl"),
                        help="JSONL trace output path (CI artifact)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="streaming-smoke-") as raw_tmp:
        tmp = Path(raw_tmp)

        step("offline bootstrap: train DIN and publish production v1")
        world = InterestWorld(InterestWorldConfig(
            num_users=120, num_items=160, num_topics=8, num_categories=4,
            min_interactions=3, seed=SEED + 3))
        processed = build_ctr_data(world, max_seq_len=10, seed=SEED + 4)
        model = create_model("DIN", processed.schema, seed=SEED + 1)
        offline = Trainer(TrainConfig(epochs=OFFLINE_EPOCHS, batch_size=128,
                                      seed=SEED + 1))
        fit = offline.fit(model, processed.train, processed.validation)
        print(f"  offline validation auc {fit.validation.auc:.4f}")
        artifact = tmp / "artifact"
        export_artifact(model, artifact, model_name="DIN",
                        metadata={"dataset": processed.schema.name})
        registry = ModelRegistry(tmp / "registry")
        v1 = registry.publish(artifact, promote=True)
        check(v1 == "v1", "offline model published and promoted as v1")

        writer = JsonlTraceWriter(str(args.trace))
        observers = ObserverList([writer])
        metrics = MetricRegistry()
        router = ModelRouter(engine_factory, metrics=metrics)
        router.deploy_primary(InferenceSession.load(registry.path(v1)), v1)
        trainer = IncrementalTrainer.from_artifact(
            artifact, IncrementalConfig(learning_rate=5e-3, seed=SEED),
            checkpoint_dir=tmp / "ckpt")
        controller = PromotionController(
            registry, router, export_dir=tmp / "exports", model_name="DIN",
            export_every=0, observers=observers, metrics=metrics)
        monitor = DriftMonitor()

        try:
            step(f"drift run: {WINDOWS} windows, interest drift at "
                 f"window {ONSET_WINDOW}, served through the live router")
            stream = ClickStream(world, processed, StreamConfig(
                num_windows=WINDOWS, impressions_per_window=IMPRESSIONS,
                drift_window=ONSET_WINDOW, drift_fraction=0.9,
                noise_rate=0.02, seed=SEED + 11))
            loop = OnlineLoop(stream, trainer, router, controller, monitor,
                              observers=observers, metrics=metrics)
            res1 = loop.run()

            step("assert: drift detected, candidate published, shadowed, "
                 "promoted")
            check(bool(res1.drift_signals), "drift monitor raised an alarm")
            first = res1.drift_signals[0]
            check(first["window"] >= ONSET_WINDOW,
                  f"no false alarm before onset (first alarm at window "
                  f"{first['window']}, detector {first['detector']})")
            drift_gauges = {
                name.removeprefix("stream.drift.")
                for name, snap in metrics.snapshot().items()
                if name.startswith("stream.drift.")
                and snap["kind"] == "gauge"}
            check(drift_gauges == DETECTORS,
                  f"stream.drift.* gauges are exactly {sorted(DETECTORS)} "
                  f"(got {sorted(drift_gauges)})")
            actions = [p["action"] for p in res1.promotions]
            check("published" in actions,
                  "candidate exported and published to the registry")
            check(metrics.counter("stream.candidates.published").value >= 1,
                  "stream.candidates.published counter incremented")
            check(metrics.get("stream.candidate.auc") is not None,
                  "shadow prequential AUC recorded for the candidate")
            promoted = [p for p in res1.promotions
                        if p["action"] == "promoted"]
            check(bool(promoted), "candidate promoted to production")
            check(promoted[0].get("challenger_auc") is not None,
                  "promotion verdict carried shadow-vs-production metrics")
            good_version = res1.final_production
            check(good_version != v1,
                  f"production hot-swapped to {good_version}")
            check(res1.dropped == 0,
                  f"zero dropped requests over {res1.submitted} "
                  f"drift-run submissions")

            step("chaos: force-promote an untrained candidate, "
                 "bypassing guardrails")
            bad_model = create_model("DIN", processed.schema, seed=SEED + 999)
            bad_artifact = tmp / "bad-artifact"
            export_artifact(bad_model, bad_artifact, model_name="DIN",
                            metadata={"note": "untrained chaos candidate"})
            forced = controller.force_promote(
                bad_artifact, window=WINDOWS,
                reason="smoke: untrained candidate")
            check(registry.state().get("production") == forced.version,
                  f"bad candidate {forced.version} took production")

            step("probation run: clean traffic so the regression is "
                 "attributable to the bad model")
            probation_stream = ClickStream(world, processed, StreamConfig(
                num_windows=6, impressions_per_window=IMPRESSIONS,
                noise_rate=0.02, seed=SEED + 17))
            probation_loop = OnlineLoop(probation_stream, trainer, router,
                                        controller, monitor,
                                        observers=observers, metrics=metrics)
            res2 = probation_loop.run()

            step("assert: probation rolled the bad candidate back")
            rollbacks = [p for p in res2.promotions
                         if p["action"] == "rollback"]
            check(bool(rollbacks), "probation raised a rollback")
            check(rollbacks[0]["version"] == forced.version,
                  f"rollback names the bad candidate {forced.version}")
            check(res2.final_production == good_version,
                  f"production restored to {good_version}")
            check(res2.dropped == 0,
                  f"zero dropped requests over {res2.submitted} "
                  f"probation submissions (hot swaps included)")
        finally:
            router.close()
            writer.close()

        step(f"assert: JSONL trace at {args.trace} tells the whole story")
        kinds: dict[str, int] = {}
        trace_actions = set()
        trace_detectors = set()
        first_bad = None
        with open(args.trace, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                record = json.loads(line)
                problem = check_record(record)
                if problem is not None and first_bad is None:
                    first_bad = f"line {lineno}: {problem}"
                kind = record.get("event", record.get("kind"))
                kinds[kind] = kinds.get(kind, 0) + 1
                if kind == "promotion":
                    trace_actions.add(record.get("action"))
                elif kind == "drift_detected":
                    trace_detectors.add(record.get("detector"))
        check(kinds.get("stream_window", 0) == WINDOWS + 6,
              f"trace has every served window ({kinds.get('stream_window')})")
        check(kinds.get("drift_detected", 0) >= 1,
              "trace has the drift_detected event")
        check(trace_detectors <= DETECTORS,
              f"every drift_detected record names one of "
              f"{sorted(DETECTORS)} (got {sorted(trace_detectors)})")
        for action in ("published", "promoted", "rollback"):
            check(action in trace_actions,
                  f"trace has a promotion event with action={action!r}")
        check(first_bad is None,
              f"all {sum(kinds.values())} records match the event schema"
              + (f" — {first_bad}" if first_bad else ""))
        report = subprocess.run(
            [sys.executable, "-m", "repro", "inspect-run", str(args.trace)],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=REPO_ROOT,
            capture_output=True, text=True)
        check(report.returncode == 0,
              "inspect-run exits 0" + (f" — {report.stderr.strip()}"
                                       if report.returncode else ""))
        check("Streaming run:" in report.stdout,
              "inspect-run renders the streaming timeline")

        print("\nstreaming smoke: all invariants held "
              f"({res1.submitted + res2.submitted} requests, "
              f"{WINDOWS + 6} windows, trace: {args.trace})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
