"""Online inference: frozen artifacts, micro-batched scoring, HTTP serving,
and fleet operations (hot-swap registry, admission control, A/B routing).

The subsystem turns a trained model into production traffic-ready scores
(see DESIGN.md §"Serving" and §"Fleet operations"):

* :mod:`~repro.serving.artifact` — ``export_artifact`` freezes weights +
  manifest (schema, config, per-array SHA-256) to a directory;
  ``load_artifact`` verifies and rebuilds.
* :mod:`~repro.serving.session` — :class:`InferenceSession` scores rows
  strictly in eval mode under ``no_grad`` through the deterministic tiled
  forward, bit-identical to offline ``training.evaluate``.
* :mod:`~repro.serving.batcher` — :class:`ScoringEngine` coalesces
  single-row requests into micro-batches (``max_batch_size`` /
  ``max_wait_ms``) with an LRU row cache, per-request deadlines, and N
  worker threads.
* :mod:`~repro.serving.registry` — :class:`ModelRegistry` stores immutable
  versioned artifacts plus the production/shadow roles.
* :mod:`~repro.serving.router` — :class:`ModelRouter` hot-swaps the
  production engine with zero dropped requests and copies every request to
  the shadow, with per-model metrics.
* :mod:`~repro.serving.admission` — bounded in-flight budget (429 + ``Retry-
  After``), deadline propagation, and a circuit breaker that degrades
  ``/healthz`` under sustained failure.
* :mod:`~repro.serving.server` — :class:`ScoringServer` exposes
  ``POST /score`` + health/metrics/OpenAPI + ``/admin/reload`` with
  graceful SIGTERM drain.
* :mod:`~repro.serving.loadgen` — ``dataset_rows`` / ``build_request_stream``
  turn a split into request rows for load tests (``perfbench/``).
* :mod:`~repro.serving.openapi` — the HTTP contract as an OpenAPI 3.0
  document, derived from the live schema; ground truth for the no-500s
  fuzz harness.
"""

from .admission import (
    AdmissionController,
    CircuitBreaker,
    DeadlineExceededError,
    ShedError,
    parse_deadline_ms,
)
from .artifact import (
    ArtifactError,
    export_artifact,
    load_artifact,
    load_manifest,
)
from .batcher import EngineClosedError, LRUCache, ScoringEngine, row_key
from .forward import PARITY_BLOCK, forward_logits
from .loadgen import build_request_stream, dataset_rows
from .openapi import build_openapi
from .registry import ModelRegistry, RegistryError
from .router import ModelRouter
from .server import ScoringServer
from .session import InferenceSession, rows_to_batch

__all__ = [
    "ArtifactError", "export_artifact", "load_artifact", "load_manifest",
    "EngineClosedError", "LRUCache", "ScoringEngine", "row_key",
    "PARITY_BLOCK", "forward_logits",
    "build_request_stream", "dataset_rows",
    "AdmissionController", "CircuitBreaker",
    "DeadlineExceededError", "ShedError", "parse_deadline_ms",
    "ModelRegistry", "RegistryError", "ModelRouter",
    "build_openapi",
    "ScoringServer",
    "InferenceSession", "rows_to_batch",
]
