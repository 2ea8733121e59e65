#!/usr/bin/env python
"""End-to-end smoke test of the streaming online-learning loop.

Exercises the full closed loop the CI ``streaming-smoke`` job guards:

1. train an offline DIN model and publish it as production ``v1``;
2. run a click stream with a scripted interest-drift burst through the
   live ModelRouter and assert the drift monitor raises an alarm at or
   after the onset window (and never before it);
3. assert the promotion controller reacted: a challenger was exported and
   **published** to the registry, **shadow** prequential metrics were
   recorded for it, and it was **promoted** to production within
   guardrails;
4. force-promote a deliberately bad challenger (an untrained model,
   bypassing every guardrail via the chaos hook) and run more traffic,
   asserting probation **rolls it back** to the previous good version;
5. assert the zero-drop contract held across both runs — every submitted
   request resolved;
6. assert the JSONL trace captured the whole story (``stream_window``,
   ``drift_detected`` and ``promotion`` events) and that every record in
   it passes ``repro.obs.check_record`` — the trace file is uploaded as a
   CI artifact and is what ``inspect-run --stream`` renders.

Scenario parameters mirror the ``interest_drift`` entry of
``repro bench-stream`` (same seeds), so the expected timeline is the one
pinned in ``BENCH_stream.json``.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import argparse
import json
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
    PromotionConfig,
    PromotionController,
    StreamConfig,
)
from repro.training.trainer import TrainConfig, Trainer             # noqa: E402

SEED = 0
ONSET_WINDOW = 10
WINDOWS = 26
IMPRESSIONS = 100
OFFLINE_EPOCHS = 10

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
            registry, router,
            PromotionConfig(export_every=0, recovery_windows=3,
                            shadow_windows=3, rollback_windows=3),
            export_dir=tmp / "exports", model_name="DIN",
            observers=observers, metrics=metrics)
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

            step("assert: drift detected, challenger published, shadowed, "
                 "promoted")
            check(bool(res1.drift_signals), "drift monitor raised an alarm")
            first = res1.drift_signals[0]
            check(first["window"] >= ONSET_WINDOW,
                  f"no false alarm before onset (first alarm at window "
                  f"{first['window']}, detector {first['detector']})")
            actions = [p["action"] for p in res1.promotions]
            check("published" in actions,
                  "challenger exported and published to the registry")
            check(metrics.counter("stream.candidates.published").value >= 1,
                  "stream.candidates.published counter incremented")
            check(metrics.get("stream.candidate.auc") is not None,
                  "shadow prequential AUC recorded for the candidate")
            promoted = [p for p in res1.promotions
                        if p["action"] == "promoted"]
            check(bool(promoted), "challenger promoted to production")
            check(promoted[0].get("challenger_auc") is not None,
                  "promotion verdict carried shadow-vs-production metrics")
            good_version = res1.final_production
            check(good_version != v1,
                  f"production hot-swapped to {good_version}")
            check(res1.dropped == 0,
                  f"zero dropped requests over {res1.submitted} "
                  f"drift-run submissions")

            step("chaos: force-promote an untrained challenger, "
                 "bypassing guardrails")
            bad_model = create_model("DIN", processed.schema, seed=SEED + 999)
            bad_artifact = tmp / "bad-artifact"
            export_artifact(bad_model, bad_artifact, model_name="DIN",
                            metadata={"note": "untrained chaos challenger"})
            forced = controller.force_promote(
                bad_artifact, window=WINDOWS,
                reason="smoke: untrained challenger")
            check(registry.state().get("production") == forced.version,
                  f"bad challenger {forced.version} took production")

            step("probation run: clean traffic so the regression is "
                 "attributable to the bad model")
            probation_stream = ClickStream(world, processed, StreamConfig(
                num_windows=6, impressions_per_window=IMPRESSIONS,
                noise_rate=0.02, seed=SEED + 17))
            probation_loop = OnlineLoop(probation_stream, trainer, router,
                                        controller, monitor,
                                        observers=observers, metrics=metrics)
            res2 = probation_loop.run()

            step("assert: probation rolled the bad challenger back")
            rollbacks = [p for p in res2.promotions
                         if p["action"] == "rollback"]
            check(bool(rollbacks), "probation raised a rollback")
            check(rollbacks[0]["version"] == forced.version,
                  f"rollback names the bad challenger {forced.version}")
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
        check(kinds.get("stream_window", 0) == WINDOWS + 6,
              f"trace has every served window ({kinds.get('stream_window')})")
        check(kinds.get("drift_detected", 0) >= 1,
              "trace has the drift_detected event")
        for action in ("published", "promoted", "rollback"):
            check(action in trace_actions,
                  f"trace has a promotion event with action={action!r}")
        check(first_bad is None,
              f"all {sum(kinds.values())} records match the event schema"
              + (f" — {first_bad}" if first_bad else ""))

        print("\nstreaming smoke: all invariants held "
              f"({res1.submitted + res2.submitted} requests, "
              f"{WINDOWS + 6} windows, trace: {args.trace})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
