"""Stdlib HTTP scoring endpoint over the micro-batched engine fleet.

Routes:

``POST /score``
    Body ``{"rows": [{"categorical": [...], "sequences": [[...]], "mask":
    [...]}]}`` (or a single row object), validated against the artifact's
    schema; answer ``{"logits": [...], "probabilities": [...]}`` in request
    order.  An ``X-Deadline-Ms`` header caps the request's budget
    end-to-end.  Every way the request can end — status, breaker verdict,
    admission release, shed counter — is one row of the table in DESIGN.md
    §13, computed by ``Handler._score`` and acted on in one place,
    ``Handler._handle_score``.
``GET /healthz``
    Readiness JSON: ``"ok"`` (200) while accepting work, ``"degraded"``
    (503) while the circuit breaker is open, ``"draining"`` (503) once
    shutdown began — plus the artifact digest, fleet roles (primary /
    shadow versions), backend name, queue depth, admission and
    breaker snapshots.
``GET /metrics``
    Prometheus text exposition v0.0.4, or the JSON snapshot when the
    ``Accept`` header asks for ``application/json``.
``GET /openapi.json``
    The server's contract as an OpenAPI 3.0 document, derived from the live
    schema (see :mod:`repro.serving.openapi`).
``POST /admin/reload``
    Atomic hot-swap: load + digest-verify a new artifact (by path, or by
    version when a model registry is attached), then drain-and-switch the
    primary engine with zero dropped requests.

The no-500s contract: malformed input — invalid JSON, wrong shapes, bad
headers, unknown fields, any parse-time surprise — is always answered with
a 4xx.  A 5xx can only mean the *server* failed (model error, shutdown
race), and the fuzz harness (tests/test_serving_fuzz.py) holds the line.

Shutdown is graceful by construction: :meth:`ScoringServer.close` stops the
accept loop, ends keep-alive connections idle between requests, waits for
in-flight handler threads (their replies carry ``Connection: close``), and
drains every engine so each accepted request is answered before the
process exits.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..obs import (
    MetricRegistry,
    ModelSwappedEvent,
    ObserverList,
    RequestShedEvent,
)
from ..obs.trace import Tracer
from . import admission as _admission
from .admission import (
    AdmissionController,
    CircuitBreaker,
    DeadlineExceededError,
    ShedError,
    parse_deadline_ms,
)
from .artifact import ArtifactError
from .batcher import EngineClosedError, ScoringEngine
from .openapi import build_openapi
from .registry import ModelRegistry, RegistryError
from .router import ModelRouter
from .session import InferenceSession, rows_to_batch

__all__ = ["ScoringServer"]

_MAX_BODY_BYTES = 32 * 1024 * 1024
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _GracefulHTTPServer(ThreadingHTTPServer):
    # Wait for in-flight handler threads at server_close so a drain never
    # abandons a request that already reached a handler.  A keep-alive
    # connection idle between requests is not in flight: server_close ends
    # it instead of waiting for its client to hang up.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.draining = False
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()

    def get_request(self):
        conn, address = super().get_request()
        # A reply is one send (Handler._send); without this, a reply larger
        # than a segment still waits on Nagle for the client's delayed ACK.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn, address

    def mark_idle(self, conn: socket.socket, idle: bool) -> None:
        """``conn`` now waits for its next request (``idle``) or has one.

        A connection that goes idle once draining began gets its read side
        shut at once: its handler's ``readline`` sees EOF, while bytes
        already received are still read and answered.
        """
        with self._idle_lock:
            if not idle:
                self._idle.discard(conn)
            elif self.draining:
                _shut_read(conn)
            else:
                self._idle.add(conn)

    def shutdown_request(self, request) -> None:
        self.mark_idle(request, False)
        super().shutdown_request(request)

    def server_close(self) -> None:
        with self._idle_lock:
            self.draining = True
            for conn in self._idle:
                _shut_read(conn)
            self._idle.clear()
        super().server_close()


def _shut_read(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:     # the client already hung up
        pass


class ScoringServer:
    """Own a model router plus an HTTP front end; start/close from any thread.

    ``admission`` (bounded in-flight budget → 429s) and ``breaker``
    (failure-rate circuit → degraded 503s) are optional; without them the
    server behaves like the pre-fleet single-model endpoint.  ``registry``
    (a :class:`ModelRegistry`) enables ``/admin/reload`` by version name.
    """

    def __init__(self, session: InferenceSession, *, host: str = "127.0.0.1",
                 port: int = 0, max_batch_size: int = 64,
                 max_wait_ms: float = 2.0, num_workers: int = 1,
                 cache_size: int = 4096,
                 registry: MetricRegistry | None = None,
                 observers=None, request_timeout_s: float = 30.0,
                 tracer: Tracer | None = None,
                 version: str = "v0",
                 admission: AdmissionController | None = None,
                 breaker: CircuitBreaker | None = None,
                 model_registry: ModelRegistry | None = None):
        self.tracer = tracer
        self.metrics = registry if registry is not None else MetricRegistry()
        self._engine_observers = list(observers or [])
        self._observers = ObserverList.build(self._engine_observers)
        self._engine_knobs = {
            "max_batch_size": max_batch_size, "max_wait_ms": max_wait_ms,
            "num_workers": num_workers, "cache_size": cache_size,
        }
        self.router = ModelRouter(self._build_engine, metrics=self.metrics)
        self.router.deploy_primary(session, version)
        self.admission = admission
        self.breaker = breaker
        self.model_registry = model_registry
        self.request_timeout_s = request_timeout_s
        self._reload_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._httpd = _GracefulHTTPServer((host, port), _make_handler(self))
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None
        self._closed = False

    def _build_engine(self, session: InferenceSession) -> ScoringEngine:
        return ScoringEngine(
            session, registry=self.metrics,
            observers=self._engine_observers, tracer=self.tracer,
            **self._engine_knobs)

    # Back-compat accessors: pre-fleet callers see the primary deployment.
    @property
    def session(self) -> InferenceSession:
        return self.router.primary_session

    @property
    def engine(self) -> ScoringEngine:
        return self.router.primary_engine

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ScoringServer":
        """Run the accept loop in a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="scoring-http", daemon=True)
        self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting, end idle keep-alive connections, finish in-flight
        handlers, drain every engine."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()          # stop the accept loop
        self._httpd.server_close()      # ends idle connections, waits for
                                        # the handlers of the others
        self.router.close(drain=drain)  # then flush whatever they queued
        if self._thread is not None:
            self._thread.join()

    # ------------------------------------------------------------------
    # Fleet operations
    # ------------------------------------------------------------------
    def reload(self, *, artifact: str | Path | None = None,
               version: str | None = None) -> dict[str, Any]:
        """Hot-swap the primary model with zero dropped requests.

        Pass ``artifact`` (a path to an exported artifact directory) or
        ``version`` (requires an attached model registry).  The incoming
        artifact is fully digest-verified at load and must have the same
        feature schema as the current primary — requests validated against
        one schema must stay scorable after the swap.
        """
        if (artifact is None) == (version is None):
            raise ValueError("pass exactly one of artifact= or version=")
        if version is not None:
            if self.model_registry is None:
                raise RegistryError(
                    "no model registry attached; reload by artifact path")
            artifact = self.model_registry.path(version)
        with self._reload_lock:
            incoming = InferenceSession.load(artifact)
            digest = incoming.artifact_digest()
            # A path reload is labelled by what it loaded, so two artifacts
            # never share a version (nor its serve.model.<version>.* counters).
            label = version if version is not None else f"swap-{digest[:12]}"
            current = self.session
            if incoming.schema != current.schema:
                raise ArtifactError(
                    f"incoming artifact's schema {incoming.schema.name!r} "
                    f"differs from the serving schema "
                    f"{current.schema.name!r}; hot swap requires "
                    f"schema-compatible artifacts")
            swap = self.router.deploy_primary(incoming, label)
        swap["digest"] = digest
        self._observers.emit(ModelSwappedEvent(
            old_version=swap["old_version"], new_version=label,
            digest=swap["digest"], swap_ms=swap["swap_ms"]))
        return swap

    def shed(self, reason: str, retry_after_s: float | None = None) -> None:
        """Count + narrate one shed decision (429/503 fast-fail)."""
        self.metrics.counter("serve.shed").inc()
        self.metrics.counter(f"serve.shed.{reason}").inc()
        self._observers.emit(RequestShedEvent(
            reason=reason, queue_depth=self.engine.queue_depth(),
            retry_after_s=retry_after_s))

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def health(self) -> tuple[int, dict[str, Any]]:
        """(status_code, payload) for ``GET /healthz``.

        Draining (shutdown in progress) and degraded (circuit breaker
        open) both report 503 so load balancers stop routing; everything
        else is 200.
        """
        draining = self.engine.closed
        degraded = (self.breaker is not None
                    and self.breaker.state != CircuitBreaker.CLOSED)
        if draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        payload: dict[str, Any] = {
            "status": status,
            "ready": status == "ok",
            "draining": draining,
            "queue_depth": self.engine.queue_depth(),
            "uptime_s": self.uptime_s(),
            "artifact_digest": self.session.artifact_digest(),
            "fleet": self.router.describe(),
            **self.session.describe(),
        }
        if self.breaker is not None:
            payload["breaker"] = self.breaker.snapshot()
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        return (503 if status != "ok" else 200), payload

    def _update_scrape_gauges(self) -> None:
        """Refresh point-in-time gauges so both exposition formats carry
        current queue/cache/uptime state at scrape time."""
        registry = self.metrics
        registry.gauge("serve.uptime_seconds").set(self.uptime_s())
        registry.gauge("serve.queue_depth_current").set(
            self.engine.queue_depth())
        registry.gauge("serve.cache_size").set(len(self.engine.cache))
        registry.gauge("serve.cache_capacity").set(
            self.engine.cache.capacity)
        if self.admission is not None:
            registry.gauge("serve.admission_inflight").set(
                self.admission.inflight)
        if self.breaker is not None:
            registry.gauge("serve.breaker_open").set(
                0.0 if self.breaker.state == CircuitBreaker.CLOSED else 1.0)

    def metrics_json(self) -> dict[str, Any]:
        self._update_scrape_gauges()
        stats = self.engine.stats()
        stats["uptime_s"] = self.uptime_s()
        stats["fleet"] = self.router.describe()
        return stats

    def metrics_prometheus(self) -> str:
        self._update_scrape_gauges()
        return self.metrics.render_prometheus()

    def openapi(self) -> dict[str, Any]:
        return build_openapi(self.session, server_url=self.url)

    def __enter__(self) -> "ScoringServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)


def _make_handler(server: ScoringServer):
    registry = server.metrics

    def count_request(endpoint: str, status: int) -> None:
        registry.counter(f"serve.http.{endpoint}.requests").inc()
        if status >= 400:
            registry.counter(f"serve.http.{endpoint}.errors").inc()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The serving engine has its own telemetry; per-request stderr lines
        # from the stdlib handler would just interleave across threads.
        def log_message(self, format: str, *args) -> None:
            pass

        def handle_one_request(self) -> None:
            self.server.mark_idle(self.connection, True)
            super().handle_one_request()

        def parse_request(self) -> bool:
            # Called once a request line has arrived: no longer idle.
            self.server.mark_idle(self.connection, False)
            return super().parse_request()

        def _send(self, status: int, body: bytes, content_type: str,
                  extra_headers: dict[str, str] | None = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            if self.server.draining:
                self.send_header("Connection", "close")
            # Status line, headers and body leave in one send: as two small
            # writes on a keep-alive socket, the body waited on Nagle for
            # the client's delayed ACK of the headers, 40 ms a reply.
            if self.request_version == "HTTP/0.9":  # a bare body, no head
                self.wfile.write(body)
            else:
                self._headers_buffer.extend((b"\r\n", body))
                self.flush_headers()

        def _reply(self, status: int, payload: dict[str, Any],
                   endpoint: str | None = None,
                   extra_headers: dict[str, str] | None = None) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._send(status, body, "application/json",
                       extra_headers=extra_headers)
            if endpoint is not None:
                count_request(endpoint, status)

        def _wants_json(self) -> bool:
            return "application/json" in self.headers.get("Accept", "")

        def _dispatch(self, route) -> None:
            try:
                route()
            except (BrokenPipeError, ConnectionError):
                raise
            except Exception as exc:  # no-500s: an unparseable request
                self._reply(400, {"error": f"unprocessable request: "
                                           f"{exc!r}"}, endpoint="unknown")

        def do_GET(self) -> None:
            self._dispatch(self._route_get)

        def do_POST(self) -> None:
            self._dispatch(self._route_post)

        def _route_get(self) -> None:
            if self.path == "/healthz":
                status, payload = server.health()
                self._reply(status, payload, endpoint="healthz")
            elif self.path == "/metrics" and self._wants_json():
                self._reply(200, server.metrics_json(), endpoint="metrics")
            elif self.path == "/metrics":
                body = server.metrics_prometheus().encode("utf-8")
                self._send(200, body, _PROMETHEUS_CONTENT_TYPE)
                count_request("metrics", 200)
            elif self.path == "/openapi.json":
                self._reply(200, server.openapi(), endpoint="openapi")
            else:
                self._reply(404, {"error": f"no route {self.path}"},
                            endpoint="unknown")

        def _route_post(self) -> None:
            if self.path == "/admin/reload":
                self._handle_reload()
            elif self.path == "/score":
                self._handle_score()
            else:
                self._reply(404, {"error": f"no route {self.path}"},
                            endpoint="unknown")

        def _read_json_body(self, endpoint: str
                            ) -> tuple[Any | None, int | None]:
            """(payload, None) on success, (None, status-already-sent)."""
            def reply(status: int, payload: dict[str, Any]) -> int:
                self._reply(status, payload, endpoint=endpoint)
                return status

            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                return None, reply(411, {"error": "invalid Content-Length"})
            if length <= 0:
                return None, reply(411, {"error": "Content-Length required"})
            if length > _MAX_BODY_BYTES:
                return None, reply(413, {"error": "request body too large"})
            try:
                payload = json.loads(self.rfile.read(length))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return None, reply(400, {"error": f"invalid JSON: {exc}"})
            return payload, None

        def _handle_reload(self) -> None:
            payload, sent = self._read_json_body("reload")
            if sent is not None:
                return
            if not isinstance(payload, dict) or not (
                    isinstance(payload.get("artifact"), str)
                    ^ isinstance(payload.get("version"), str)):
                status, body = 400, {"error": "body must set exactly one of "
                                              '"artifact" (path) or "version" '
                                              "(registry name), as a string"}
            else:
                try:
                    swap = server.reload(artifact=payload.get("artifact"),
                                         version=payload.get("version"))
                    status, body = 200, {"status": "swapped", **swap}
                except (ArtifactError, RegistryError, OSError) as exc:
                    status, body = 409, {"error": f"reload rejected: {exc}"}
            self._reply(status, body, endpoint="reload")

        def _handle_score(self) -> None:
            """The one place a ``POST /score`` ends (table in DESIGN.md §13).

            :meth:`_score` only computes the ending; the breaker probe is
            settled, the admission budget given back, the reply sent and
            the ingress span stamped here, so no ending can skip one.
            """
            tracer = server.tracer
            ingress = tracer.make_context() if tracer is not None else None
            start = time.monotonic()
            # _score annotates attrs in place (model_version once the
            # router picks the scoring deployment).
            span_attrs: dict[str, Any] = {"endpoint": "score"}
            # Body first, even when about to shed: leaving unread bytes on
            # the socket would desync a keep-alive connection.
            payload, status = self._read_json_body("score")
            if status is None:
                breaker = server.breaker
                if breaker is not None and not breaker.allow():
                    server.shed("breaker_open")
                    status, body = 503, {"error": "circuit breaker open: "
                                         "the model is failing; retry later"}
                    headers = {"Retry-After":
                               f"{_admission.COOLDOWN_S:.1f}"}
                else:
                    verdict, held = None, 0
                    try:
                        status, body, headers, verdict, held = self._score(
                            payload, start, ingress, span_attrs)
                    finally:
                        if breaker is not None:
                            breaker.record(verdict)
                        if held:
                            server.admission.release(held)
                self._reply(status, body, endpoint="score",
                            extra_headers=headers)
            if ingress is not None:
                span_attrs["status"] = status
                tracer.record_span(
                    "http.request", ingress, start, time.monotonic(),
                    span_id=ingress.span_id, parent_id=None,
                    attrs=span_attrs)

        def _score(self, payload, start: float, ingress,
                   span_attrs: dict[str, Any]) -> tuple[
                       int, dict[str, Any], dict[str, str] | None,
                       bool | None, int]:
            """``(status, body, headers, verdict, held)``: how this request
            ends, what that says about model health (``None``: nothing —
            the request ended on its own input, load or deadline), and the
            admission rows still to give back.  Sends nothing.
            """
            try:
                deadline_ms = parse_deadline_ms(
                    self.headers.get("X-Deadline-Ms"))
                rows = (payload.get("rows") if isinstance(payload, dict)
                        else None)
                if rows is None and isinstance(payload, dict):
                    rows = [payload]        # single-row shorthand
                if not isinstance(rows, list) or not rows:
                    raise ValueError("body must be a row object or "
                                     '{"rows": [...]} with >= 1 row')
                batch = rows_to_batch(server.session.schema, rows)
            except (ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}, None, None, 0
            # One end-to-end budget for the whole request: the server cap,
            # shortened by the client's X-Deadline-Ms when present.  The
            # deadline rides into the batcher (expired rows are rejected
            # unscored) and bounds the shared wait below.
            budget_s = server.request_timeout_s
            if deadline_ms is not None:
                budget_s = min(budget_s, deadline_ms / 1000.0)
            deadline = start + budget_s
            held = 0
            if server.admission is not None:
                try:
                    server.admission.acquire(len(batch))
                except ShedError as exc:
                    server.shed("queue_full", exc.retry_after_s)
                    return 429, {"error": str(exc)}, {
                        "Retry-After": f"{exc.retry_after_s:.1f}"}, None, 0
                held = len(batch)
            session = server.session
            futures = []
            verdict = None
            try:
                for i in range(len(batch)):
                    future, version = server.router.submit(
                        batch.categorical[i], batch.sequences[i],
                        batch.mask[i], trace_parent=ingress,
                        deadline=deadline)
                    futures.append(future)
                span_attrs["model_version"] = version
                logits = ScoringEngine.gather(futures, deadline)
            except EngineClosedError:
                status, body = 503, {"error": "server is shutting down"}
            except DeadlineExceededError:
                server.metrics.counter("serve.deadline_504").inc()
                status, body = 504, {"error": "deadline exceeded before "
                                              "scoring finished"}
            except (TimeoutError, FutureTimeoutError):
                # concurrent.futures.TimeoutError only aliases the builtin
                # from Python 3.11; catch both for the 3.10 CI lane.
                status, body, verdict = 504, {"error": "scoring timed "
                                                       "out"}, False
            except Exception as exc:  # model failure surfaced via futures
                status, body, verdict = 500, {"error": f"scoring failed: "
                                                       f"{exc!r}"}, False
            else:
                probs = session.probabilities(logits)
                status, verdict = 200, True
                body = {"model": session.model_name,
                        "model_version": version,
                        "logits": [float(v) for v in logits],
                        "probabilities": [float(p) for p in probs]}
            if status != 200:
                # gather abandons on a failed wait; this covers a submit
                # that raised with earlier rows already queued.
                ScoringEngine.abandon(futures)
            return status, body, None, verdict, held

    return Handler
