"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table III-style statistics and structural diagnostics for the three
    simulated worlds.
``train``
    Train one model (optionally MISS-enhanced) on one dataset and report
    calibrated test AUC/Logloss.
``compare``
    Train a list of models on one dataset and print a ranked comparison.
``inspect-run``
    Summarise a JSONL run trace written via ``--log-jsonl``.
``export``
    Train a model and freeze it into a serving artifact directory
    (weights + digest-pinned manifest).
``serve``
    Load an artifact and serve ``POST /score`` with micro-batching, an LRU
    row cache, and graceful SIGTERM drain.
``predict``
    Offline scoring: run rows from a JSON file (or a dataset split) through
    the same :class:`~repro.serving.InferenceSession` the server uses.
``bench-serve``
    Drive the engine at a target QPS and print a latency/throughput report.
``bench-ops``
    Microbenchmark the fused array kernels against the reference backend and
    write ``BENCH_ops.json``.
``bench-pipeline``
    Benchmark batch assembly over the sharded on-disk format — sequential
    loader vs. ``PrefetchLoader`` at several worker counts — and write
    ``BENCH_pipeline.json``.
``stream-train``
    Online learning: replay a synthetic click stream through the live
    router, train incrementally with prequential validation, detect drift,
    and auto-promote recovered models into the registry.
``bench-stream``
    Benchmark the streaming loop (windows/sec) and its drift-detection
    latency across scripted scenarios; write ``BENCH_stream.json``.

Every command accepts ``--backend {reference,fused}`` to pick the array-math
backend (default: the ``REPRO_BACKEND`` environment variable, else
``reference``).

``train`` and ``compare`` accept ``--log-jsonl PATH`` (write a
schema-versioned JSONL run trace) and ``--verbose`` (throttled console
progress) — see the Observability section of README.md.

Observability extras:

* ``--trace-jsonl PATH`` (``train``/``serve``/``bench-serve``/
  ``bench-pipeline``) records per-request/per-window **spans**; head
  sampling via ``--trace-sample RATE``; render with
  ``repro inspect-run PATH --spans``.
* ``--profile PATH`` (``train`` and the ``bench-*`` verbs) runs a sampling
  profiler and writes flamegraph-ready collapsed stacks to PATH.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .bench.micro import render_report, run_micro
from .bench.pipeline import render_pipeline_report, run_pipeline_bench
from .bench.stream import SCENARIOS, render_stream_report, run_stream_bench
from .core import MISSConfig, attach_miss
from .data import (
    DATASET_NAMES,
    ShardCorruptError,
    ShardedCTRDataset,
    compute_stats,
    load_dataset,
    make_config,
    write_shards,
)
from .data.analysis import diagnose_world
from .data.synthetic import InterestWorld
from .models import MODEL_NAMES, create_model, supports_miss
from .obs import (
    ConsoleReporter,
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    SamplingProfiler,
    Tracer,
    read_trace,
    render_spans,
    render_stream,
    render_summary,
    set_tracer,
    summarize_spans,
    summarize_stream,
    summarize_trace,
)
from .nn.backend import BACKEND_NAMES, get_backend, set_backend
from .resilience import NumericalAnomalyError, TrainingInterrupted
from .serving import (
    AdmissionController,
    ArtifactError,
    CircuitBreaker,
    InferenceSession,
    ModelRegistry,
    RegistryError,
    RetryPolicy,
    ScoringEngine,
    ScoringServer,
    dataset_rows,
    export_artifact,
    run_http_load,
    run_load,
)
from .data.processing import build_ctr_data
from .serving.router import ModelRouter
from .streaming import (
    ClickStream,
    DriftMonitor,
    IncrementalConfig,
    IncrementalTrainer,
    OnlineLoop,
    PromotionConfig,
    PromotionController,
    StreamConfig,
)
from .training import TrainConfig, Trainer, calibrated_eval, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of MISS (ICDE 2022): multi-interest "
                    "self-supervised learning for CTR prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=list(BACKEND_NAMES), default=None,
                       help="array-math backend (default: $REPRO_BACKEND, "
                            "else 'reference')")

    def add_telemetry(p: argparse.ArgumentParser, *, log: str | None = None,
                      verbose: str | None = None, trace: bool = False,
                      profile: bool = False) -> None:
        """The telemetry flag group.  A verb opts into the parts it supports
        (``log``/``verbose`` are that verb's help texts); the rest are pinned
        to "off", so :func:`_telemetry` reads one namespace shape."""
        p.set_defaults(log_jsonl=None, verbose=False, trace_jsonl=None,
                       trace_sample=1.0, profile=None)
        if log:
            p.add_argument("--log-jsonl", metavar="PATH", default=None,
                           help=log)
        if verbose:
            p.add_argument("--verbose", action="store_true", help=verbose)
        if trace:
            p.add_argument("--trace-jsonl", metavar="PATH", default=None,
                           help="record spans (per-request / per-window "
                                "latency decomposition) to a JSONL trace; "
                                "view with `repro inspect-run PATH --spans`")
            p.add_argument("--trace-sample", type=float, default=1.0,
                           metavar="RATE",
                           help="head-sampling rate in [0, 1]: keep this "
                                "fraction of traces, whole (default 1.0)")
        if profile:
            p.add_argument("--profile", metavar="PATH", default=None,
                           help="sample all threads' stacks while running "
                                "and write flamegraph-ready collapsed stacks "
                                "to PATH")

    datasets = sub.add_parser("datasets", help="describe the simulated worlds")
    datasets.add_argument("--scale", type=float, default=0.3,
                          help="world size multiplier (default 0.3)")
    datasets.add_argument("--seed", type=int, default=0)

    def add_common(p: argparse.ArgumentParser, **telemetry: bool) -> None:
        add_backend(p)
        add_telemetry(p, log="write a JSONL run trace to PATH (inspect with "
                             "`repro inspect-run PATH`)",
                      verbose="print throttled per-step/per-epoch progress",
                      **telemetry)
        p.add_argument("--dataset", choices=DATASET_NAMES,
                       default="amazon-cds")
        p.add_argument("--scale", type=float, default=0.4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=12)
        p.add_argument("--learning-rate", type=float, default=1e-2)
        p.add_argument("--alpha", type=float, default=0.5,
                       help="SSL loss weight α1 = α2 for the MISS variant")
        p.add_argument("--temperature", type=float, default=0.1,
                       help="InfoNCE temperature τ for the MISS variant")
        p.add_argument("--batch-size", type=int, default=128, metavar="N",
                       help="training batch size (default 128, the paper's; "
                            "per-rank with --num-procs, so the global batch "
                            "scales with the worker count)")
        p.add_argument("--eval-batch-size", type=int, default=512,
                       metavar="N",
                       help="rows per evaluation forward (default 512; "
                            "metrics are bit-identical for any value)")
        p.add_argument("--num-workers", type=int, default=0, metavar="N",
                       help="background batch-assembly threads (0 = "
                            "in-line; epoch order and resume stay "
                            "bit-identical for any value)")
        p.add_argument("--prefetch-depth", type=int, default=2, metavar="D",
                       help="batches per worker window when --num-workers "
                            "> 0 (default 2)")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="on-disk preprocessing cache: reuse processed "
                            "splits keyed by raw-data/config digests")

    train = sub.add_parser("train", help="train one model")
    add_common(train, trace=True, profile=True)
    train.add_argument("--model", choices=MODEL_NAMES, default="DIN")
    train.add_argument("--miss", action="store_true",
                       help="attach the MISS SSL component")
    train.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="write atomic, checksummed run checkpoints to "
                            "DIR (every --checkpoint-every steps and each "
                            "epoch end); SIGINT/SIGTERM then checkpoint and "
                            "exit cleanly")
    train.add_argument("--resume", action="store_true",
                       help="continue from the latest valid checkpoint in "
                            "--checkpoint-dir (bit-identical to an "
                            "uninterrupted run)")
    train.add_argument("--checkpoint-every", type=int, metavar="N",
                       default=200,
                       help="steps between mid-epoch checkpoints "
                            "(default 200; epoch ends always checkpoint)")
    train.add_argument("--keep-checkpoints", type=int, metavar="K", default=3,
                       help="retention: keep the last K checkpoints plus the "
                            "best one (default 3)")
    train.add_argument("--anomaly-guard", action="store_true",
                       help="detect NaN/Inf loss or gradients and loss "
                            "spikes; roll back to the last good checkpoint "
                            "with learning-rate backoff before giving up")
    train.add_argument("--shard-dir", metavar="DIR", default=None,
                       help="train from a sharded on-disk dataset in DIR "
                            "(written on first use; verified by checksum "
                            "on every load)")
    train.add_argument("--num-procs", type=int, metavar="N", default=1,
                       help="data-parallel worker processes (default 1 = "
                            "the plain in-process trainer); each rank owns "
                            "a disjoint shard partition and --batch-size "
                            "is per-rank, so the global batch scales N-fold")
    train.add_argument("--dist-emulate", action="store_true",
                       help="run the --num-procs rank schedule inside one "
                            "process (the bit-identity comparator; no "
                            "checkpointing)")

    compare = sub.add_parser("compare", help="train several models")
    add_common(compare)
    compare.add_argument("--models", nargs="+", default=["DIN", "DeepFM"],
                         choices=list(MODEL_NAMES),
                         help="baselines to run; MISS is attached to the "
                              "first embedding-based one")
    compare.add_argument("--shard-dir", metavar="DIR", default=None,
                         help="train every model from the same sharded "
                              "on-disk dataset in DIR")

    inspect = sub.add_parser("inspect-run",
                             help="summarise a JSONL run trace")
    inspect.add_argument("trace", help="path written via --log-jsonl")
    inspect.add_argument("--spans", action="store_true",
                         help="render span timelines and critical paths "
                              "(traces recorded via --trace-jsonl)")
    inspect.add_argument("--stream", action="store_true",
                         help="render a streaming run: prequential AUC per "
                              "window, drift markers, promotion/rollback "
                              "timeline (traces from `stream-train "
                              "--log-jsonl`)")

    export = sub.add_parser(
        "export", help="train a model and freeze it as a serving artifact")
    add_common(export)
    export.add_argument("--model", choices=MODEL_NAMES, default="DIN")
    export.add_argument("--miss", action="store_true",
                        help="attach the MISS SSL component before training")
    export.add_argument("--out", metavar="DIR", required=True,
                        help="artifact directory to create (manifest.json + "
                             "weights.npz)")

    def add_engine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-batch-size", type=int, default=64, metavar="N",
                       help="micro-batch flush size (default 64)")
        p.add_argument("--max-wait-ms", type=float, default=2.0, metavar="MS",
                       help="max time a request waits for batch-mates "
                            "(default 2ms)")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="scoring worker threads (default 1)")
        p.add_argument("--cache-size", type=int, default=4096, metavar="N",
                       help="LRU row-cache capacity; 0 disables (default "
                            "4096)")

    serve = sub.add_parser(
        "serve", help="serve POST /score from an exported artifact or a "
                      "model registry")
    add_backend(serve)
    serve.add_argument("--artifact", metavar="DIR", default=None,
                       help="exported artifact directory (or use --registry)")
    serve.add_argument("--registry", metavar="DIR", default=None,
                       help="model registry: serve its production version "
                            "and honour its shadow/challenger roles; "
                            "enables POST /admin/reload by version")
    serve.add_argument("--shadow", metavar="VERSION", default=None,
                       help="score this registry version off the critical "
                            "path for every request (requires --registry)")
    serve.add_argument("--ab", metavar="VERSION:FRACTION", default=None,
                       help="A/B-route FRACTION of requests to this "
                            "registry version (requires --registry)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (0 picks a free one; default 8321)")
    add_engine_options(serve)
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="admission control: shed (429 + Retry-After) "
                            "when more than N rows are in flight "
                            "(default: unbounded)")
    serve.add_argument("--request-timeout-s", type=float, default=30.0,
                       metavar="S",
                       help="server-side cap on one request's end-to-end "
                            "budget; X-Deadline-Ms can only shorten it "
                            "(default 30)")
    serve.add_argument("--breaker-threshold", type=float, default=None,
                       metavar="F",
                       help="enable the circuit breaker: trip to a "
                            "degraded 503 /healthz when the failure "
                            "fraction over the window reaches F")
    serve.add_argument("--breaker-window-s", type=float, default=10.0,
                       metavar="S", help="breaker sliding window "
                                         "(default 10s)")
    serve.add_argument("--breaker-cooldown-s", type=float, default=5.0,
                       metavar="S", help="breaker open-state cooldown "
                                         "before a probe (default 5s)")
    serve.add_argument("--breaker-min-requests", type=int, default=10,
                       metavar="N", help="minimum outcomes in the window "
                                         "before the breaker may trip "
                                         "(default 10)")
    add_telemetry(serve, log="write serving events (request/batch/"
                             "completion) as a JSONL trace",
                  verbose="print per-flush progress lines", trace=True)

    registry = sub.add_parser(
        "registry", help="manage a versioned model registry "
                         "(publish/promote/shadow/ab/list)")
    registry.add_argument("--registry", metavar="DIR", required=True,
                          help="registry root directory (created on first "
                               "publish)")
    registry_sub = registry.add_subparsers(dest="registry_command",
                                           required=True)
    reg_publish = registry_sub.add_parser(
        "publish", help="copy + verify an exported artifact into the "
                        "registry as an immutable version")
    reg_publish.add_argument("--artifact", metavar="DIR", required=True)
    reg_publish.add_argument("--version", metavar="V", default=None,
                             help="version name (default: next vN)")
    reg_publish.add_argument("--promote", action="store_true",
                             help="also make it the production version")
    reg_promote = registry_sub.add_parser(
        "promote", help="make a published version the production model")
    reg_promote.add_argument("--version", metavar="V", required=True)
    reg_shadow = registry_sub.add_parser(
        "shadow", help="set (or clear) the shadow version")
    reg_shadow.add_argument("--version", metavar="V", default=None,
                            help="omit to clear the shadow role")
    reg_ab = registry_sub.add_parser(
        "ab", help="set (or clear) the A/B challenger and its traffic "
                   "fraction")
    reg_ab.add_argument("--version", metavar="V", default=None,
                        help="omit to clear the challenger role")
    reg_ab.add_argument("--fraction", type=float, default=0.1,
                        help="fraction of requests routed to the "
                             "challenger (default 0.1)")
    registry_sub.add_parser("list", help="print versions and role state")

    predict = sub.add_parser(
        "predict", help="score rows offline through the serving session")
    add_backend(predict)
    predict.add_argument("--artifact", metavar="DIR", required=True)
    source = predict.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE",
                        help="JSON file: {\"rows\": [...]} or a bare list "
                             "of row objects")
    source.add_argument("--dataset", choices=DATASET_NAMES,
                        help="score a simulated dataset split instead of a "
                             "file")
    predict.add_argument("--split", choices=["train", "validation", "test"],
                         default="test")
    predict.add_argument("--scale", type=float, default=0.4)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument("--limit", type=int, default=None, metavar="N",
                         help="score only the first N rows")
    predict.add_argument("--output", metavar="FILE", default=None,
                         help="write the JSON result here instead of stdout")

    bench_serve = sub.add_parser(
        "bench-serve", help="load-test the scoring engine at a target QPS")
    add_backend(bench_serve)
    bench_serve.add_argument("--artifact", metavar="DIR", required=True)
    bench_serve.add_argument("--dataset", choices=DATASET_NAMES,
                             default="amazon-cds",
                             help="source of request rows")
    bench_serve.add_argument("--split",
                             choices=["train", "validation", "test"],
                             default="test")
    bench_serve.add_argument("--scale", type=float, default=0.4)
    bench_serve.add_argument("--seed", type=int, default=0)
    bench_serve.add_argument("--qps", type=float, default=200.0,
                             help="target request rate (default 200)")
    bench_serve.add_argument("--requests", type=int, default=1000,
                             help="total requests to send (default 1000)")
    bench_serve.add_argument("--repeat-fraction", type=float, default=0.2,
                             help="fraction of re-sent rows, to exercise "
                                  "the cache (default 0.2)")
    bench_serve.add_argument("--reload-under-load", action="store_true",
                             help="fleet scenario: drive a live HTTP server "
                                  "and hot-swap the model --swaps times "
                                  "mid-run; the report must show zero "
                                  "dropped and zero 5xx responses")
    bench_serve.add_argument("--swaps", type=int, default=3, metavar="N",
                             help="hot-swap reloads during "
                                  "--reload-under-load (default 3)")
    add_engine_options(bench_serve)
    add_telemetry(bench_serve, trace=True, profile=True)

    bench_ops = sub.add_parser(
        "bench-ops",
        help="microbenchmark fused kernels vs. the reference backend")
    bench_ops.add_argument("--repeats", type=int, default=20, metavar="N",
                           help="timing repetitions per kernel/backend "
                                "(best-of-N; default 20)")
    bench_ops.add_argument("--seed", type=int, default=0)
    bench_ops.add_argument("--out", metavar="FILE", default="BENCH_ops.json",
                           help="JSON report path (default BENCH_ops.json)")
    add_telemetry(bench_ops, profile=True)

    bench_pipe = sub.add_parser(
        "bench-pipeline",
        help="benchmark sequential vs. prefetching batch assembly over the "
             "sharded on-disk format")
    bench_pipe.add_argument("--dataset", choices=DATASET_NAMES,
                            default="amazon-cds")
    bench_pipe.add_argument("--scale", type=float, default=0.4)
    bench_pipe.add_argument("--seed", type=int, default=0)
    bench_pipe.add_argument("--rows", type=int, default=16384, metavar="N",
                            help="train split is tiled to ~N rows so the "
                                 "shard set exceeds any cache (default "
                                 "16384)")
    bench_pipe.add_argument("--batch-size", type=int, default=256,
                            metavar="B")
    bench_pipe.add_argument("--shard-size", type=int, default=512,
                            metavar="R", help="rows per shard (default 512)")
    bench_pipe.add_argument("--prefetch-depth", type=int, default=8,
                            metavar="D",
                            help="batches per worker window (default 8)")
    bench_pipe.add_argument("--workers", type=int, nargs="+",
                            default=[1, 2, 4], metavar="N",
                            help="prefetch worker counts to time "
                                 "(default 1 2 4)")
    bench_pipe.add_argument("--repeats", type=int, default=3, metavar="N",
                            help="epochs per configuration, best-of-N "
                                 "(default 3)")
    bench_pipe.add_argument("--out", metavar="FILE",
                            default="BENCH_pipeline.json",
                            help="JSON report path "
                                 "(default BENCH_pipeline.json)")
    add_telemetry(bench_pipe, trace=True, profile=True)

    bench_dist = sub.add_parser(
        "bench-distributed",
        help="benchmark data-parallel training throughput at several "
             "worker counts and assert process-vs-emulation bit-identity")
    bench_dist.add_argument("--dataset", choices=DATASET_NAMES,
                            default="amazon-cds")
    bench_dist.add_argument("--scale", type=float, default=0.4)
    bench_dist.add_argument("--seed", type=int, default=0)
    bench_dist.add_argument("--rows", type=int, default=8192, metavar="N",
                            help="train split is tiled to ~N rows "
                                 "(default 8192)")
    bench_dist.add_argument("--num-shards", type=int, default=8, metavar="S",
                            help="training shard count; partitions must "
                                 "cover it (default 8)")
    bench_dist.add_argument("--batch-size", type=int, default=64,
                            metavar="B", help="per-rank micro-batch "
                                              "(default 64)")
    bench_dist.add_argument("--epochs", type=int, default=2,
                            help="epochs per configuration; the best "
                                 "epoch's step loop is scored (default 2)")
    bench_dist.add_argument("--procs", type=int, nargs="+",
                            default=[1, 2, 4], metavar="N",
                            help="worker counts to time (default 1 2 4; "
                                 "must include 1)")
    bench_dist.add_argument("--out", metavar="FILE",
                            default="BENCH_distributed.json",
                            help="JSON report path "
                                 "(default BENCH_distributed.json)")

    stream = sub.add_parser(
        "stream-train",
        help="online learning over a synthetic click stream: serve through "
             "the live router, train incrementally, detect drift, "
             "auto-promote")
    add_backend(stream)
    stream.add_argument("--registry", metavar="DIR", required=True,
                        help="model registry: warm-start from its "
                             "production version and publish candidates "
                             "back into it")
    stream.add_argument("--bootstrap-epochs", type=int, default=0,
                        metavar="N",
                        help="when the registry has no production model, "
                             "train one offline for N epochs, publish and "
                             "promote it first (0 = require an existing "
                             "production version)")
    stream.add_argument("--model", choices=MODEL_NAMES, default="DIN",
                        help="model for --bootstrap-epochs (default DIN)")
    stream.add_argument("--dataset", choices=DATASET_NAMES,
                        default="amazon-cds")
    stream.add_argument("--scale", type=float, default=0.2)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--windows", type=int, default=30, metavar="N",
                        help="stream length in micro-batch windows "
                             "(default 30)")
    stream.add_argument("--impressions", type=int, default=64, metavar="N",
                        help="impressions per window; rows = 2x (default 64)")
    stream.add_argument("--stream-seed", type=int, default=11)
    stream.add_argument("--drift-window", type=int, default=None,
                        metavar="W",
                        help="resample interests for --drift-fraction of "
                             "users at window W")
    stream.add_argument("--drift-fraction", type=float, default=0.5)
    stream.add_argument("--cold-fraction", type=float, default=0.0,
                        help="hold out this fraction of users to arrive "
                             "cold during the stream")
    stream.add_argument("--cold-start-window", type=int, default=0)
    stream.add_argument("--cold-per-window", type=int, default=2)
    stream.add_argument("--cold-activity", type=float, default=1.0,
                        help="impression weight of a newly arrived user vs. "
                             "a warm one (default 1.0)")
    stream.add_argument("--noise-rate", type=float, default=0.0,
                        help="base label flip rate")
    stream.add_argument("--noise-burst", metavar="START:END", default=None,
                        help="window interval with the flip rate raised to "
                             "--noise-burst-rate")
    stream.add_argument("--noise-burst-rate", type=float, default=0.35)
    stream.add_argument("--learning-rate", type=float, default=5e-3)
    stream.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="checkpoint the incremental trainer after "
                             "every window")
    stream.add_argument("--resume", action="store_true",
                        help="continue from the latest window checkpoint in "
                             "--checkpoint-dir")
    stream.add_argument("--export-every", type=int, default=10, metavar="K",
                        help="publish a challenger every K windows; 0 "
                             "disables scheduled exports (drift recovery "
                             "still exports; default 10)")
    stream.add_argument("--export-dir", metavar="DIR", default=None,
                        help="where candidate artifacts are exported "
                             "(default: a temporary directory)")
    add_telemetry(stream, log="write stream_window/drift_detected/promotion "
                              "events; view with `repro inspect-run PATH "
                              "--stream`",
                  verbose="print per-window progress lines", trace=True,
                  profile=True)

    bench_stream = sub.add_parser(
        "bench-stream",
        help="benchmark the streaming loop: throughput and drift-detection "
             "latency per scenario")
    bench_stream.add_argument("--scenarios", nargs="+",
                              default=list(SCENARIOS),
                              choices=list(SCENARIOS),
                              help="scenarios to run (default: all)")
    bench_stream.add_argument("--seed", type=int, default=0)
    bench_stream.add_argument("--windows", type=int, default=26, metavar="N")
    bench_stream.add_argument("--impressions", type=int, default=100,
                              metavar="N")
    bench_stream.add_argument("--epochs", type=int, default=10, metavar="N",
                              help="offline bootstrap epochs (default 10)")
    bench_stream.add_argument("--out", metavar="FILE",
                              default="BENCH_stream.json",
                              help="JSON report path "
                                   "(default BENCH_stream.json)")
    add_telemetry(bench_stream, profile=True)
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'Dataset':<14}{'#Users':>8}{'#Items':>8}{'#Fields':>9}"
          f"{'closeness':>11}{'recurrence':>12}{'med.freq':>10}")
    for name in DATASET_NAMES:
        data = load_dataset(name, scale=args.scale, seed=args.seed)
        stats = compute_stats(data)
        world = InterestWorld(make_config(name, scale=args.scale,
                                          seed=args.seed))
        diag = diagnose_world(world)
        print(f"{name:<14}{stats.num_users:>8}{stats.num_items:>8}"
              f"{stats.num_fields:>9}{diag.closeness:>11.3f}"
              f"{diag.recurrence:>12.3f}{diag.item_frequency_median:>10.1f}")
    return 0


@contextmanager
def _telemetry(args: argparse.Namespace):
    """One scope for a verb's telemetry; yields ``(observers, tracer)``.

    ``--log-jsonl``/``--verbose`` become the observer list (empty disables
    event telemetry); ``--trace-jsonl`` becomes a :class:`Tracer`, installed
    process-wide for the scope (``PrefetchLoader`` picks it up via
    ``get_tracer()``) and sharing the run-trace writer when both flags name
    one path (spans are additive events in the same schema);
    ``--profile`` samples stacks for the scope and writes them on exit.
    Whatever was opened is closed on the way out — including when a later
    flag is rejected during set-up.
    """
    with ExitStack() as stack:
        writers: dict[str, JsonlTraceWriter] = {}

        def writer(flag: str, path: str) -> JsonlTraceWriter:
            if path not in writers:
                try:
                    writers[path] = stack.enter_context(JsonlTraceWriter(path))
                except OSError as exc:
                    raise SystemExit(f"{flag}: cannot open {path}: "
                                     f"{exc.strerror or exc}")
            return writers[path]

        observers = ObserverList()
        if args.log_jsonl:
            observers.append(writer("--log-jsonl", args.log_jsonl))
        if args.verbose:
            observers.append(ConsoleReporter())
        tracer = None
        if args.trace_jsonl:
            try:
                tracer = Tracer(writer("--trace-jsonl", args.trace_jsonl),
                                sample_rate=args.trace_sample)
            except ValueError as exc:
                raise SystemExit(f"--trace-sample: {exc}")
            set_tracer(tracer)
            stack.callback(set_tracer, None)
        if args.profile:
            stack.enter_context(_profile(args.profile))
        yield observers, tracer


@contextmanager
def _profile(path: str):
    """Sample all threads' stacks for the block; write collapsed stacks to
    ``path`` on exit."""
    profiler = SamplingProfiler()
    profiler.start()
    try:
        yield
    finally:
        profiler.stop()
        profiler.write_collapsed(path)
        print(f"profile: {profiler.summary()}", file=sys.stderr)
        print(f"collapsed stacks written to {path} "
              f"(flamegraph.pl-compatible)", file=sys.stderr)


def _configs(args: argparse.Namespace,
             miss: bool) -> tuple[TrainConfig, MISSConfig | None]:
    """The one place training flags become config fields, shared by every
    verb that trains (in-process, ``export``, and the distributed spec)."""
    train = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                        weight_decay=1e-5, patience=4, seed=args.seed,
                        batch_size=args.batch_size,
                        eval_batch_size=args.eval_batch_size,
                        num_workers=args.num_workers,
                        prefetch_depth=args.prefetch_depth)
    miss_config = MISSConfig(alpha_interest=args.alpha,
                             alpha_feature=args.alpha,
                             temperature=args.temperature,
                             seed=args.seed + 2) if miss else None
    return train, miss_config


def _build_model(model_name: str, args: argparse.Namespace, data,
                 miss_config: MISSConfig | None):
    """(model, display label) for one training run."""
    model = create_model(model_name, data.schema, seed=args.seed + 1)
    if miss_config is None:
        return model, model_name
    return attach_miss(model, miss_config), f"{model_name}-MISS"


def _prepare_shards(args: argparse.Namespace, data):
    """Open (or first write) the sharded training split for ``--shard-dir``.

    Returns ``None`` when sharding is not requested, else a
    checksum-verified :class:`ShardedCTRDataset` whose schema must match the
    freshly processed data — a stale directory from another dataset/scale
    fails loudly instead of training on the wrong rows.
    """
    if not getattr(args, "shard_dir", None):
        return None
    directory = Path(args.shard_dir)
    if not (directory / "index.json").exists():
        write_shards(data.train, directory)
        print(f"wrote training shards to {directory}")
    try:
        sharded = ShardedCTRDataset(directory, cache_shards=8)
    except ShardCorruptError as exc:
        raise SystemExit(f"--shard-dir: {exc}")
    if sharded.schema != data.schema:
        raise SystemExit(
            f"--shard-dir: {directory} holds shards for schema "
            f"{sharded.schema.name!r}, which does not match the requested "
            f"dataset; point at an empty directory to (re)shard")
    if len(sharded) != len(data.train):
        raise SystemExit(
            f"--shard-dir: {directory} holds {len(sharded)} rows but the "
            f"processed train split has {len(data.train)}; point at an "
            f"empty directory to (re)shard")
    return sharded


def _train_one(model_name: str, args: argparse.Namespace, data,
               miss: bool = False, observers: ObserverList | None = None,
               train=None):
    config, miss_config = _configs(args, miss)
    model, label = _build_model(model_name, args, data, miss_config)
    # Resilience flags exist on the `train` subcommand only; `compare` runs
    # several models into one directory-less session.
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    result = run_experiment(model, data, config, model_name=label,
                            train=train,
                            observers=observers,
                            checkpoint_dir=checkpoint_dir,
                            resume=getattr(args, "resume", False),
                            checkpoint_every=(getattr(args,
                                                      "checkpoint_every",
                                                      None)
                                              if checkpoint_dir else None),
                            keep_checkpoints=getattr(args,
                                                     "keep_checkpoints", 3),
                            anomaly_guard=getattr(args, "anomaly_guard",
                                                  False))
    return result


def _train_distributed(args: argparse.Namespace, data) -> int:
    from dataclasses import asdict

    from .distributed import DistSpec, DistributedRunError, \
        prepare_dist_data, run_distributed

    if args.num_procs < 1:
        raise SystemExit("--num-procs must be >= 1")
    if args.anomaly_guard:
        raise SystemExit("--anomaly-guard is not supported with --num-procs "
                         "> 1 (the guard's rollback protocol is "
                         "single-process)")
    if args.num_workers > 0:
        raise SystemExit("--num-workers prefetching and --num-procs are "
                         "mutually exclusive; ranks already overlap I/O")
    if args.dist_emulate and (args.resume or args.checkpoint_dir):
        raise SystemExit("--dist-emulate runs start-to-finish without "
                         "checkpoints; drop --resume/--checkpoint-dir or "
                         "use process mode")
    for flag, value in (("--verbose", args.verbose),
                        ("--trace-jsonl", args.trace_jsonl),
                        ("--profile", args.profile)):
        if value:
            raise SystemExit(f"{flag} is not supported with --num-procs > 1 "
                             f"or --dist-emulate (ranks run headless; "
                             f"--log-jsonl writes one trace per rank)")
    base = Path(args.shard_dir) if args.shard_dir else \
        Path(tempfile.mkdtemp(prefix="repro-dist-data-"))
    # Size shards so every rank owns several (partition granularity AND the
    # cache-locality win need shard count >= a few multiples of world size).
    target_shards = max(8, args.num_procs * 4)
    shard_size = max(1, -(-len(data.train) // target_shards))
    train_dir, val_dir = prepare_dist_data(data.train, data.validation, base,
                                           shard_size=shard_size)
    config, miss_config = _configs(args, args.miss)
    spec = DistSpec(
        model_name=args.model,
        miss=asdict(miss_config) if miss_config is not None else None,
        model_seed=args.seed + 1,
        backend=get_backend().name,
        train_dir=str(train_dir), val_dir=str(val_dir),
        config=asdict(config),
        world_size=args.num_procs,
        cache_shards=8,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=(args.checkpoint_every if args.checkpoint_dir
                          else None),
        keep_checkpoints=args.keep_checkpoints,
        log_jsonl=args.log_jsonl)
    try:
        result = run_distributed(spec, resume=args.resume,
                                 emulate=args.dist_emulate)
    except DistributedRunError as exc:
        print(f"train: {exc}", file=sys.stderr)
        if args.checkpoint_dir:
            print("train: rerun with --resume to continue bit-identically",
                  file=sys.stderr)
        return 1
    # Load the selected weights into a fresh model for the calibrated
    # test-split evaluation every training entry point reports.
    from .distributed import build_model
    model = build_model(spec, data.schema)
    model.load_state_dict(result.final_state)
    model.eval()
    validation, test = calibrated_eval(model, data,
                                       batch_size=args.eval_batch_size)
    label = f"{args.model}-MISS" if args.miss else args.model
    mode = result.mode if result.mode != "process" else \
        f"{result.world_size} procs"
    print(f"{label} on {args.dataset} [{mode}]: best epoch "
          f"{result.best_epoch}, {result.steps} steps, "
          f"wall {result.wall_time_s:.1f}s")
    print(f"{label} on {args.dataset}: test {test}")
    if args.log_jsonl:
        print(f"per-rank traces written to {args.log_jsonl}.rank<r>")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                        cache_dir=args.cache_dir)
    if args.num_procs > 1 or args.dist_emulate:
        return _train_distributed(args, data)
    try:
        with _telemetry(args) as (observers, _):
            result = _train_one(args.model, args, data, miss=args.miss,
                                observers=observers,
                                train=_prepare_shards(args, data))
    except TrainingInterrupted as exc:
        print(f"train: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            print("train: rerun with --resume to continue bit-identically",
                  file=sys.stderr)
        return exc.exit_code
    except NumericalAnomalyError as exc:
        print(f"train: numerical anomaly not recoverable: {exc}",
              file=sys.stderr)
        return 1
    print(f"{result.model_name} on {args.dataset}: test {result.test}")
    if args.log_jsonl:
        print(f"run trace written to {args.log_jsonl}")
    if args.trace_jsonl:
        print(f"span trace written to {args.trace_jsonl} "
              f"(view: repro inspect-run {args.trace_jsonl} --spans)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                        cache_dir=args.cache_dir)
    with _telemetry(args) as (observers, _):
        shards = _prepare_shards(args, data)
        results = [_train_one(name, args, data, observers=observers,
                              train=shards)
                   for name in args.models]
        # Add the MISS-enhanced variant of the first model that can host the
        # plug-in (explicit capability check: MISS needs a shared embedder).
        for name in args.models:
            if supports_miss(name):
                results.append(_train_one(name, args, data, miss=True,
                                          observers=observers, train=shards))
                break
    results.sort(key=lambda r: r.auc, reverse=True)
    print(f"{'Model':<16}{'AUC':>9}{'Logloss':>10}")
    for result in results:
        print(f"{result.model_name:<16}{result.auc:>9.4f}"
              f"{result.logloss:>10.4f}")
    return 0


def _cmd_inspect_run(args: argparse.Namespace) -> int:
    try:
        if args.stream:
            print(render_stream(summarize_stream(read_trace(args.trace))))
        elif args.spans:
            trees = summarize_spans(read_trace(args.trace))
            print(render_spans(trees))
        else:
            print(render_summary(summarize_trace(args.trace)))
    except (OSError, ValueError) as exc:
        print(f"inspect-run: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                        cache_dir=args.cache_dir)
    config, miss_config = _configs(args, args.miss)
    model, label = _build_model(args.model, args, data, miss_config)
    with _telemetry(args) as (observers, _):
        result = run_experiment(model, data, config, model_name=label,
                                observers=observers)
    # ``run_experiment`` leaves the best-epoch weights loaded in ``model``;
    # that is exactly the state worth freezing.
    path = export_artifact(model, args.out, model_name=args.model,
                           miss_config=miss_config, metadata={
                               "label": label,
                               "dataset": args.dataset,
                               "scale": args.scale,
                               "seed": args.seed,
                               "epochs": args.epochs,
                               "test_auc": result.test.auc,
                               "test_logloss": result.test.logloss,
                           })
    print(f"{label} on {args.dataset}: test {result.test}")
    print(f"artifact written to {path}")
    return 0


def _load_session(artifact: str) -> InferenceSession:
    try:
        return InferenceSession.load(artifact)
    except (ArtifactError, OSError) as exc:
        raise SystemExit(f"cannot load artifact {artifact}: {exc}")


def _parse_ab(value: str) -> tuple[str, float]:
    version, sep, fraction = value.partition(":")
    if not sep or not version:
        raise SystemExit("--ab expects VERSION:FRACTION, e.g. v2:0.1")
    try:
        return version, float(fraction)
    except ValueError:
        raise SystemExit(f"--ab fraction {fraction!r} is not a number")


def _cmd_serve(args: argparse.Namespace) -> int:
    if (args.artifact is None) == (args.registry is None):
        raise SystemExit("serve: pass exactly one of --artifact or "
                         "--registry")
    if (args.shadow or args.ab) and not args.registry:
        raise SystemExit("serve: --shadow/--ab need --registry (roles name "
                         "registry versions)")
    model_registry = None
    version = "v0"
    if args.registry:
        model_registry = ModelRegistry(args.registry)
        try:
            version = model_registry.production()
            session = _load_session(model_registry.path(version))
        except RegistryError as exc:
            raise SystemExit(f"serve: {exc}")
    else:
        session = _load_session(args.artifact)
    admission = (AdmissionController(args.max_inflight)
                 if args.max_inflight else None)
    breaker = None
    if args.breaker_threshold is not None:
        breaker = CircuitBreaker(failure_threshold=args.breaker_threshold,
                                 min_requests=args.breaker_min_requests,
                                 window_s=args.breaker_window_s,
                                 cooldown_s=args.breaker_cooldown_s)
    with _telemetry(args) as (observers, tracer):
        server = ScoringServer(
            session, host=args.host, port=args.port,
            max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
            num_workers=args.workers, cache_size=args.cache_size,
            registry=MetricRegistry(), observers=observers.observers,
            tracer=tracer, version=version, admission=admission,
            breaker=breaker, model_registry=model_registry,
            request_timeout_s=args.request_timeout_s)
        if model_registry is not None:
            state = model_registry.state()
            shadow = args.shadow or state.get("shadow")
            if shadow:
                server.router.set_shadow(
                    _load_session(model_registry.path(shadow)), shadow)
            if args.ab:
                challenger, fraction = _parse_ab(args.ab)
            else:
                challenger = state.get("challenger")
                fraction = state.get("challenger_fraction", 0.0)
            if challenger:
                server.router.set_challenger(
                    _load_session(model_registry.path(challenger)), challenger,
                    fraction)
        stop = threading.Event()

        def request_stop(signum, frame) -> None:
            stop.set()

        previous = {sig: signal.signal(sig, request_stop)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        server.start()
        print(f"serving {session.model_name} at {server.url} "
              f"(batch<= {args.max_batch_size}, wait<= {args.max_wait_ms}ms, "
              f"workers={args.workers}, cache={args.cache_size})")
        sys.stdout.flush()
        try:
            stop.wait()
            print("shutdown requested; draining in-flight requests...",
                  file=sys.stderr)
            server.close(drain=True)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
    print("drained; bye", file=sys.stderr)
    return 0


def _read_rows_file(path: str) -> list:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"predict: cannot read {path}: {exc}")
    rows = payload.get("rows") if isinstance(payload, dict) else payload
    if not isinstance(rows, list) or not rows:
        raise SystemExit(
            'predict: input must be {"rows": [...]} or a non-empty list')
    return rows


def _cmd_predict(args: argparse.Namespace) -> int:
    session = _load_session(args.artifact)
    if args.input:
        rows = _read_rows_file(args.input)
        if args.limit is not None:
            rows = rows[:args.limit]
        try:
            logits = session.score_rows(rows)
        except ValueError as exc:
            raise SystemExit(f"predict: {exc}")
    else:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        split = data.splits[args.split]
        if args.limit is not None and args.limit < len(split):
            split = split.subset(np.arange(args.limit))
        logits = session.score_batch(split.as_single_batch())
    probs = session.probabilities(logits)
    payload = json.dumps({
        "model": session.model_name,
        "artifact": str(args.artifact),
        "rows": int(logits.shape[0]),
        "logits": [float(v) for v in logits],
        "probabilities": [float(p) for p in probs],
    }, indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {logits.shape[0]} scores to {args.output}")
    else:
        print(payload)
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    try:
        if args.registry_command == "publish":
            version = registry.publish(args.artifact, version=args.version,
                                       promote=args.promote)
            role = " (promoted to production)" if args.promote else ""
            print(f"published {args.artifact} as {version}{role}")
        elif args.registry_command == "promote":
            registry.promote(args.version)
            print(f"production is now {args.version}")
        elif args.registry_command == "shadow":
            registry.set_shadow(args.version)
            print(f"shadow is now {args.version or 'cleared'}")
        elif args.registry_command == "ab":
            registry.set_challenger(args.version, args.fraction)
            if args.version:
                print(f"challenger {args.version} takes "
                      f"{args.fraction:.0%} of traffic")
            else:
                print("challenger cleared")
        else:  # list
            state = registry.state()
            print(f"registry {registry.root}")
            print(f"  production: {state.get('production')}")
            print(f"  shadow:     {state.get('shadow')}")
            challenger = state.get("challenger")
            if challenger:
                print(f"  challenger: {challenger} "
                      f"({state.get('challenger_fraction', 0.0):.0%})")
            else:
                print("  challenger: None")
            for version in registry.versions():
                info = registry.describe(version)
                print(f"  {version}: {info['model']} "
                      f"digest={info['digest'][:12]}… "
                      f"dataset={info['dataset']}")
    except (RegistryError, ArtifactError, OSError) as exc:
        print(f"registry: {exc}", file=sys.stderr)
        return 1
    return 0


def _bench_reload_under_load(args: argparse.Namespace, session, rows) -> int:
    """Hot-swap scenario: live HTTP server + open-loop load + N reloads.

    The pass criterion is printed in the report: zero dropped requests and
    zero 5xx responses across every swap — a reload is only a reload if no
    caller can tell when it happened.
    """
    results: dict = {}
    with ScoringServer(session, port=0,
                       max_batch_size=args.max_batch_size,
                       max_wait_ms=args.max_wait_ms,
                       num_workers=args.workers,
                       cache_size=args.cache_size) as server:
        load_report: dict = {}

        def drive() -> None:
            load_report.update(run_http_load(
                server.url, rows, target_qps=args.qps,
                num_requests=args.requests,
                repeat_fraction=args.repeat_fraction, seed=args.seed,
                retry=RetryPolicy(seed=args.seed)))

        loader = threading.Thread(target=drive, name="bench-http-load")
        loader.start()
        duration_s = args.requests / args.qps
        interval_s = duration_s / (args.swaps + 1)
        swaps = []
        for i in range(args.swaps):
            loader.join(timeout=interval_s)
            if not loader.is_alive():
                break
            swap = server.reload(artifact=args.artifact)
            swaps.append(swap)
        loader.join()
        results = {
            "scenario": "reload-under-load",
            "swaps_requested": args.swaps,
            "swaps_completed": len(swaps),
            "swaps": swaps,
            "load": load_report,
            "pass": (len(swaps) >= args.swaps
                     and load_report.get("ok", 0) > 0
                     and load_report.get("dropped") == 0
                     and load_report.get("http_5xx") == 0),
        }
    print(json.dumps(results, indent=2))
    return 0 if results["pass"] else 1


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    session = _load_session(args.artifact)
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    rows = dataset_rows(data.splits[args.split])
    if args.reload_under_load:
        return _bench_reload_under_load(args, session, rows)
    with _telemetry(args) as (_, tracer):
        engine = ScoringEngine(
            session, max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms, num_workers=args.workers,
            cache_size=args.cache_size, tracer=tracer)
        try:
            report = run_load(engine, rows, target_qps=args.qps,
                              num_requests=args.requests,
                              repeat_fraction=args.repeat_fraction,
                              seed=args.seed)
        finally:
            engine.close(drain=True)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_bench_ops(args: argparse.Namespace) -> int:
    with _telemetry(args):
        payload = run_micro(repeats=args.repeats, seed=args.seed,
                            out_path=args.out)
    print(render_report(payload))
    print(f"report written to {args.out}")
    return 0


def _cmd_bench_pipeline(args: argparse.Namespace) -> int:
    with _telemetry(args):  # PrefetchLoader workers emit pipeline.window
        payload = run_pipeline_bench(
            dataset=args.dataset, scale=args.scale, seed=args.seed,
            rows=args.rows, batch_size=args.batch_size,
            shard_size=args.shard_size,
            prefetch_depth=args.prefetch_depth,
            worker_counts=tuple(args.workers), repeats=args.repeats,
            out_path=args.out)
    print(render_pipeline_report(payload))
    print(f"report written to {args.out}")
    return 0


def _cmd_bench_distributed(args: argparse.Namespace) -> int:
    from .bench.distributed import (
        render_distributed_report,
        run_distributed_bench,
    )
    payload = run_distributed_bench(
        dataset=args.dataset, scale=args.scale, seed=args.seed,
        rows=args.rows, num_shards=args.num_shards,
        batch_size=args.batch_size, epochs=args.epochs,
        proc_counts=tuple(args.procs), out_path=args.out)
    print(render_distributed_report(payload))
    print(f"report written to {args.out}")
    return 0


def _parse_noise_burst(value: str | None) -> tuple[int, int] | None:
    if value is None:
        return None
    start, sep, end = value.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(start), int(end)
    except ValueError:
        raise SystemExit("--noise-burst expects START:END window indices, "
                         "e.g. 10:16")


def _stream_bootstrap(args: argparse.Namespace, registry: ModelRegistry,
                      processed) -> str:
    """Ensure the registry has a production version; returns its name."""
    try:
        return registry.production()
    except RegistryError:
        if args.bootstrap_epochs < 1:
            raise SystemExit(
                f"stream-train: registry {args.registry} has no production "
                f"version; publish one or pass --bootstrap-epochs N")
    model = create_model(args.model, processed.schema, seed=args.seed + 1)
    trainer = Trainer(TrainConfig(epochs=args.bootstrap_epochs,
                                  batch_size=128, seed=args.seed + 1))
    result = trainer.fit(model, processed.train, processed.validation)
    print(f"bootstrap: {args.model} offline validation {result.validation}")
    with tempfile.TemporaryDirectory(prefix="stream-bootstrap-") as tmp:
        artifact = export_artifact(
            model, Path(tmp) / "artifact", model_name=args.model,
            metadata={"dataset": processed.schema.name,
                      "val_auc": result.validation.auc})
        version = registry.publish(artifact, promote=True)
    print(f"bootstrap: published {version} (production)")
    return version


def _cmd_stream_train(args: argparse.Namespace) -> int:
    # Flags are validated before any work: the bootstrap below trains,
    # publishes and promotes a model into the registry.
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("stream-train: --resume requires --checkpoint-dir")
    world = InterestWorld(make_config(args.dataset, scale=args.scale,
                                      seed=args.seed))
    processed = build_ctr_data(world, seed=args.seed + 1)
    try:
        stream_config = StreamConfig(
            num_windows=args.windows,
            impressions_per_window=args.impressions,
            seed=args.stream_seed,
            drift_window=args.drift_window,
            drift_fraction=args.drift_fraction,
            cold_fraction=args.cold_fraction,
            cold_start_window=args.cold_start_window,
            cold_users_per_window=args.cold_per_window,
            cold_activity=args.cold_activity,
            noise_rate=args.noise_rate,
            noise_burst=_parse_noise_burst(args.noise_burst),
            noise_burst_rate=args.noise_burst_rate)
    except ValueError as exc:
        raise SystemExit(f"stream-train: {exc}")
    stream = ClickStream(world, processed, stream_config)
    registry = ModelRegistry(args.registry)
    version = _stream_bootstrap(args, registry, processed)

    def factory(session):
        return ScoringEngine(session, max_batch_size=64, max_wait_ms=0.5,
                             num_workers=1, cache_size=0)

    with _telemetry(args) as (observers, _):
        router = ModelRouter(factory)
        router.deploy_primary(_load_session(registry.path(version)), version)
        trainer = IncrementalTrainer.from_artifact(
            registry.path(version),
            IncrementalConfig(learning_rate=args.learning_rate,
                              seed=args.seed),
            checkpoint_dir=args.checkpoint_dir)
        start_window = 0
        if args.resume:
            start_window = trainer.resume()
            if start_window:
                print(f"resuming from window {start_window}")
        export_tmp = None
        if args.export_dir is None:
            export_tmp = tempfile.TemporaryDirectory(prefix="stream-exports-")
            export_dir = export_tmp.name
        else:
            export_dir = args.export_dir
        controller = PromotionController(
            registry, router, PromotionConfig(export_every=args.export_every),
            export_dir=export_dir, model_name=args.model,
            observers=observers)
        loop = OnlineLoop(stream, trainer, router, controller,
                          DriftMonitor(), observers=observers)
        try:
            result = loop.run(start_window=start_window)
        except NumericalAnomalyError as exc:
            print(f"stream-train: numerical anomaly not recoverable: {exc}",
                  file=sys.stderr)
            return 1
        finally:
            router.close()
            if export_tmp is not None:
                export_tmp.cleanup()
    print(json.dumps(result.summary(), indent=2))
    if args.log_jsonl:
        print(f"stream trace written to {args.log_jsonl} "
              f"(view: repro inspect-run {args.log_jsonl} --stream)")
    return 0 if result.dropped == 0 else 1


def _cmd_bench_stream(args: argparse.Namespace) -> int:
    with _telemetry(args):
        payload = run_stream_bench(
            scenarios=tuple(args.scenarios), seed=args.seed,
            windows=args.windows, impressions=args.impressions,
            epochs=args.epochs, out_path=args.out)
    print(render_stream_report(payload))
    print(f"report written to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        set_backend(args.backend)
    handlers = {"datasets": _cmd_datasets, "train": _cmd_train,
                "compare": _cmd_compare, "inspect-run": _cmd_inspect_run,
                "export": _cmd_export, "serve": _cmd_serve,
                "predict": _cmd_predict, "registry": _cmd_registry,
                "bench-serve": _cmd_bench_serve,
                "bench-ops": _cmd_bench_ops,
                "bench-pipeline": _cmd_bench_pipeline,
                "bench-distributed": _cmd_bench_distributed,
                "stream-train": _cmd_stream_train,
                "bench-stream": _cmd_bench_stream}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
