"""Fleet hardening tests: the versioned model registry, the hot-swap router
with shadow traffic, admission control and circuit breaking on the HTTP
path, and graceful drain under concurrent load.

The non-negotiable properties: a hot swap drops zero requests, a shadow
model's failures never touch production traffic, an overloaded server sheds
with 429 instead of queueing without bound, and a request's timeout bounds
the whole request (never N × timeout for N rows).
"""

import json
import shutil
import signal
import threading
import time
import urllib.error
import urllib.request
import zlib
from concurrent.futures import Future

import numpy as np
import pytest

from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.serving import (
    AdmissionController,
    ArtifactError,
    CircuitBreaker,
    DeadlineExceededError,
    InferenceSession,
    ModelRegistry,
    ModelRouter,
    RegistryError,
    ScoringEngine,
    ScoringServer,
    dataset_rows,
    export_artifact,
)
from repro.serving import admission
from repro.serving.artifact import WEIGHTS_NAME
from repro.serving.registry import STATE_NAME, manifest_digest

from .helpers import bit_rot, edit_record


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=3)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=4)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("artifacts") / "din"
    model = create_model("DIN", data.schema, seed=1)
    export_artifact(model, path, model_name="DIN",
                    metadata={"dataset": data.schema.name})
    return path


@pytest.fixture(scope="module")
def artifact_b(tmp_path_factory, data):
    """Same schema, different weights — a legitimate hot-swap candidate."""
    path = tmp_path_factory.mktemp("artifacts") / "din-b"
    model = create_model("DIN", data.schema, seed=7)
    export_artifact(model, path, model_name="DIN",
                    metadata={"dataset": data.schema.name})
    return path


@pytest.fixture(scope="module")
def session(artifact):
    return InferenceSession.load(artifact)


def _get(url, accept_json=False):
    headers = {"Accept": "application/json"} if accept_json else {}
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read())
        headers = dict(exc.headers)
        exc.close()
        return exc.code, body, headers


def _post(url, payload, headers=None, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    all_headers = {"Content-Type": "application/json", **(headers or {})}
    request = urllib.request.Request(url, data=body, headers=all_headers,
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read())
        headers = dict(exc.headers)
        exc.close()
        return exc.code, body, headers


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestModelRegistry:
    def test_fresh_registry_has_empty_roles(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.versions() == []
        state = registry.state()
        assert state["production"] is None
        assert state["shadow"] is None
        assert set(state) == {"format_version", "production", "shadow",
                              "record_digest"}
        with pytest.raises(RegistryError):
            registry.production()

    def test_publish_auto_versions_and_describe(self, tmp_path, artifact):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.publish(artifact) == "v1"
        assert registry.publish(artifact) == "v2"
        assert registry.versions() == ["v1", "v2"]
        info = registry.describe("v1")
        assert info["model"] == "DIN"
        assert len(info["digest"]) == 64

    def test_versions_are_immutable(self, tmp_path, artifact):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(artifact, version="stable")
        with pytest.raises(RegistryError, match="immutable"):
            registry.publish(artifact, version="stable")

    def test_bad_version_names_rejected(self, tmp_path, artifact):
        registry = ModelRegistry(tmp_path / "reg")
        # "v1." / "a..b" would publish fine and then break every metric
        # name built from them (serve.model.<version>.requests).
        for bad in ("", ".hidden", "a/b", "x" * 65, "sp ace", "v1.", "a..b"):
            with pytest.raises(RegistryError):
                registry.publish(artifact, version=bad)
        assert registry.publish(artifact, version="rel-1.2_rc") == "rel-1.2_rc"

    def test_tampered_artifact_never_becomes_a_version(self, tmp_path,
                                                       artifact):
        corrupt = tmp_path / "corrupt"
        shutil.copytree(artifact, corrupt)
        blob = bytearray((corrupt / WEIGHTS_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (corrupt / WEIGHTS_NAME).write_bytes(bytes(blob))
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ArtifactError):
            registry.publish(corrupt, version="evil")
        assert registry.versions() == []
        leftovers = [p.name for p in registry.models_dir.iterdir()]
        assert leftovers == []  # staging directory cleaned up

    def test_bit_rot_is_refused_in_one_line(self, tmp_path, artifact,
                                            capsys):
        # A flip that surfaces as zlib.error used to escape every handler:
        # a traceback from the CLI, and a staging dir only cleaned by luck.
        from repro.cli import main
        rotten = tmp_path / "rotten"
        shutil.copytree(artifact, rotten)
        bit_rot(rotten / WEIGHTS_NAME, zlib.error)
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ArtifactError, match="unreadable archive"):
            registry.publish(rotten, version="evil")
        assert list(registry.models_dir.iterdir()) == []
        assert main(["registry", "--registry", str(tmp_path / "reg"),
                     "publish", "--artifact", str(rotten)]) == 1
        assert capsys.readouterr().err.startswith("registry: ")
        assert list(registry.models_dir.iterdir()) == []
        with pytest.raises(SystemExit, match="cannot load artifact"):
            main(["serve", "--artifact", str(rotten), "--port", "0"])

    def test_registry_verb_sets_and_lists_the_two_roles(self, tmp_path,
                                                       artifact, artifact_b,
                                                       capsys):
        from repro.cli import main
        registry = ["registry", "--registry", str(tmp_path / "reg")]
        assert main([*registry, "publish", "--artifact", str(artifact),
                     "--promote"]) == 0
        assert main([*registry, "publish", "--artifact",
                     str(artifact_b)]) == 0
        assert main([*registry, "shadow", "--version", "v2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"published {artifact} as v1 (promoted to production)",
                       f"published {artifact_b} as v2",
                       "shadow is now v2"]
        assert main([*registry, "list"]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert listing[1:3] == ["  production: v1", "  shadow:     v2"]
        assert [line.split(":")[0] for line in listing[3:]] == ["  v1", "  v2"]
        assert not any("challenger" in line for line in listing)
        assert main([*registry, "shadow"]) == 0
        assert capsys.readouterr().out == "shadow is now cleared\n"
        assert ModelRegistry(tmp_path / "reg").state()["shadow"] is None

    def test_stale_staging_dir_is_invisible_and_swept(self, tmp_path,
                                                      artifact):
        """A crash-left ``.incoming-<v>`` dir must never appear in
        ``versions()`` nor steal the next auto version name."""
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(artifact)  # v1
        # Simulate a publisher that died mid-copy: staging dir left behind.
        stale = registry.models_dir / ".incoming-v2"
        stale.mkdir()
        (stale / WEIGHTS_NAME).write_bytes(b"half-copied")
        assert registry.versions() == ["v1"]
        assert registry.publish(artifact) == "v2"
        assert registry.versions() == ["v1", "v2"]
        # Re-opening the registry sweeps the leftover from disk.
        stale2 = registry.models_dir / ".incoming-v9"
        stale2.mkdir()
        reopened = ModelRegistry(tmp_path / "reg")
        assert not stale2.exists()
        assert reopened.versions() == ["v1", "v2"]

    def test_promote_clears_conflicting_roles(self, tmp_path, artifact):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(artifact, version="v1", promote=True)
        registry.publish(artifact, version="v2")
        registry.set_shadow("v2")
        state = registry.promote("v2")
        assert state["production"] == "v2"
        assert state["shadow"] is None  # a model cannot shadow itself

    def test_roles_require_published_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError):
            registry.promote("ghost")
        with pytest.raises(RegistryError):
            registry.set_shadow("ghost")

    def test_unsupported_state_format_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        (registry.root / STATE_NAME).write_text(
            json.dumps({"format_version": 99, "production": None}))
        with pytest.raises(RegistryError, match="format_version"):
            registry.state()

    def test_manifest_digest_matches_session(self, tmp_path, artifact,
                                             session):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(artifact, version="v1")
        assert registry.describe("v1")["digest"] == session.artifact_digest()
        assert manifest_digest({"arrays": {}}) != ""


# ---------------------------------------------------------------------------
# Router (stub engines — fast, deterministic)
# ---------------------------------------------------------------------------
class StubSession:
    """Minimal scorer: logit = first categorical id + offset."""

    def __init__(self, offset=0.0, delay_s=0.0, fail=False):
        self.offset = offset
        self.delay_s = delay_s
        self.fail = fail
        self.scored_ids = []
        self._lock = threading.Lock()

    def score_batch(self, batch):
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("stub model failure")
        with self._lock:
            self.scored_ids.extend(int(v) for v in batch.categorical[:, 0])
        return batch.categorical[:, 0].astype(np.float64) + self.offset


def _row(i):
    return (np.array([i, i + 1], dtype=np.int64),
            np.full((2, 4), i, dtype=np.int64),
            np.ones((2, 4), dtype=np.bool_))


def _factory(session):
    return ScoringEngine(session, max_batch_size=8, max_wait_ms=1.0,
                         num_workers=1, cache_size=0)


class TestModelRouter:
    def test_primary_required(self):
        router = ModelRouter(_factory)
        with pytest.raises(RuntimeError, match="no primary"):
            router.submit(*_row(1))
        router.close()

    def test_shadow_scores_every_request_off_the_critical_path(self):
        shadow_session = StubSession()
        router = ModelRouter(_factory)
        router.deploy_primary(StubSession(), "prod")
        router.set_shadow(shadow_session, "shadow")
        try:
            for i in range(5):
                future, version = router.submit(*_row(i))
                assert version == "prod"
                future.result(timeout=5)
            deadline = time.monotonic() + 5.0
            while len(shadow_session.scored_ids) < 5 and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert sorted(shadow_session.scored_ids) == list(range(5))
            snap = router.metrics.snapshot()
            assert snap["serve.shadow.requests"]["value"] == 5
            assert snap["serve.model.shadow.requests"]["value"] == 5
        finally:
            router.close()

    def test_broken_shadow_never_hurts_production(self):
        router = ModelRouter(_factory)
        router.deploy_primary(StubSession(), "prod")
        router.set_shadow(StubSession(fail=True), "bad-shadow")
        try:
            results = []
            for i in range(6):
                future, _ = router.submit(*_row(i))
                results.append(future.result(timeout=5))
            assert results == [float(i) for i in range(6)]
            deadline = time.monotonic() + 5.0
            snap = router.metrics.snapshot()
            while snap.get("serve.shadow.errors", {}).get("value", 0) < 6 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
                snap = router.metrics.snapshot()
            assert snap["serve.shadow.errors"]["value"] == 6
            assert snap["serve.model.bad-shadow.errors"]["value"] == 6
        finally:
            router.close()

    def test_hot_swap_under_concurrent_load_drops_nothing(self):
        router = ModelRouter(_factory)
        router.deploy_primary(StubSession(delay_s=0.002), "gen-0")
        stop = threading.Event()
        outcomes = []
        outcomes_lock = threading.Lock()

        def pound(worker: int):
            i = 0
            while not stop.is_set():
                future, version = router.submit(*_row(worker * 10_000 + i))
                try:
                    value = future.result(timeout=10)
                    ok = value == float(worker * 10_000 + i)
                except Exception:
                    ok = False
                with outcomes_lock:
                    outcomes.append(ok)
                i += 1

        threads = [threading.Thread(target=pound, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        try:
            for generation in range(1, 6):
                time.sleep(0.05)
                swap = router.deploy_primary(StubSession(delay_s=0.002),
                                             f"gen-{generation}")
                assert swap["old_version"] == f"gen-{generation - 1}"
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) > 0
        assert all(outcomes)  # zero dropped, zero wrong answers
        assert router.describe()["swaps"] == 6
        router.close()

    def test_unusable_version_label_fails_the_deploy_for_every_role(self):
        # The label lands in serve.model.<version>.requests; one the metric
        # registry refuses must fail here, not turn every submit into an
        # error after the row is already enqueued.
        router = ModelRouter(_factory)
        router.deploy_primary(StubSession(), "v1")
        for bad in ("v1.", "a..b", ""):
            with pytest.raises(RegistryError):
                router.deploy_primary(StubSession(), bad)
            with pytest.raises(RegistryError):
                router.set_shadow(StubSession(), bad)
        assert router.describe() == {
            "primary": "v1", "shadow": None, "swaps": 1}
        future, version = router.submit(*_row(1))
        assert (future.result(timeout=5), version) == (1.0, "v1")
        router.close()

    def test_close_is_idempotent_and_final(self):
        router = ModelRouter(_factory)
        router.deploy_primary(StubSession(), "v1")
        router.close()
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.deploy_primary(StubSession(), "v2")


@pytest.mark.serving
class TestReloadByPath:
    def test_distinct_artifacts_never_share_a_version(self, monkeypatch,
                                                      session, artifact,
                                                      artifact_b):
        # Two path reloads within one wall-clock second once deployed under
        # one label; the label now names the loaded artifact's digest.
        import repro.serving.server
        monkeypatch.setattr(repro.serving.server.time, "time", lambda: 1e9)
        with ScoringServer(session) as server:
            first = server.reload(artifact=artifact_b)
            second = server.reload(artifact=artifact)
            again = server.reload(artifact=artifact)
            primary = server.health()[1]["fleet"]["primary"]
        assert first["new_version"] != second["new_version"]
        assert second["new_version"] == again["new_version"] == primary
        assert first["new_version"] == f"swap-{first['digest'][:12]}"
        assert first["digest"] == manifest_digest(
            InferenceSession.load(artifact_b).manifest)


# ---------------------------------------------------------------------------
# Batcher satellites: shared deadline + orphaned-future reclamation
# ---------------------------------------------------------------------------
class TestSharedDeadline:
    def test_score_timeout_bounds_the_whole_call(self):
        # One flush takes ~0.15s and max_batch_size=1 serialises rows, so
        # 6 rows need ~0.9s of model time.  A 0.3s budget must fail after
        # ~0.3s — the old per-future bug would have allowed 6 × 0.3s.
        engine = ScoringEngine(StubSession(delay_s=0.15), max_batch_size=1,
                               max_wait_ms=0.0, num_workers=1, cache_size=0)
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                engine.score([_row(i) for i in range(6)], timeout=0.3)
            elapsed = time.monotonic() - start
            assert elapsed < 1.0
        finally:
            engine.close(drain=True)

    def test_timed_out_rows_are_not_scored(self):
        stub = StubSession(delay_s=0.15)
        engine = ScoringEngine(stub, max_batch_size=1, max_wait_ms=0.0,
                               num_workers=1, cache_size=0)
        try:
            with pytest.raises(TimeoutError):
                engine.score([_row(i) for i in range(6)], timeout=0.2)
        finally:
            engine.close(drain=True)
        # The tail of the queue was cancelled before its forward ran.
        assert len(stub.scored_ids) < 6
        abandoned = engine.registry.snapshot().get(
            "serve.abandoned", {}).get("value", 0)
        assert abandoned > 0

    def test_score_without_timeout_still_completes(self):
        engine = ScoringEngine(StubSession(), max_batch_size=4,
                               max_wait_ms=1.0, num_workers=1, cache_size=0)
        try:
            logits = engine.score([_row(i) for i in range(4)])
            assert logits.tolist() == [0.0, 1.0, 2.0, 3.0]
        finally:
            engine.close(drain=True)


class TestOrphanedFutures:
    def test_abandoned_rows_skip_the_forward(self):
        stub = StubSession(delay_s=0.1)
        engine = ScoringEngine(stub, max_batch_size=1, max_wait_ms=0.0,
                               num_workers=1, cache_size=0)
        try:
            futures = [engine.submit_row(*_row(i)) for i in range(3)]
            # Row 0 is (probably) already being scored; rows 1-2 are queued.
            ScoringEngine.abandon(futures[1:])
            assert futures[0].result(timeout=5) == 0.0
        finally:
            engine.close(drain=True)
        assert 1 not in stub.scored_ids
        assert 2 not in stub.scored_ids
        counters = engine.registry.snapshot()
        assert counters["serve.abandoned"]["value"] == 2

    def test_abandon_consumes_errors_of_resolved_futures(self):
        engine = ScoringEngine(StubSession(fail=True), max_batch_size=4,
                               max_wait_ms=0.0, num_workers=1, cache_size=0)
        try:
            future = engine.submit_row(*_row(1))
            deadline = time.monotonic() + 5.0
            while not future.done() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert future.done()
            ScoringEngine.abandon([future])  # must not raise
            assert isinstance(future.exception(), RuntimeError)
        finally:
            engine.close(drain=True)

    def test_expired_deadline_rejected_not_scored(self):
        stub = StubSession()
        engine = ScoringEngine(stub, max_batch_size=4, max_wait_ms=50.0,
                               num_workers=1, cache_size=0)
        try:
            past = time.monotonic() - 0.001
            future = engine.submit_row(*_row(9), deadline=past)
            with pytest.raises(TimeoutError):
                future.result(timeout=5)
        finally:
            engine.close(drain=True)
        assert 9 not in stub.scored_ids
        counters = engine.registry.snapshot()
        assert counters["serve.deadline_expired"]["value"] == 1


# ---------------------------------------------------------------------------
# HTTP end-to-end fleet behaviour
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.serving
class TestFleetHTTP:
    def test_admin_reload_swaps_with_zero_downtime(self, data, session,
                                                   artifact_b):
        rows = dataset_rows(data.splits["test"], limit=4)
        body = {"rows": [{"categorical": c.tolist(),
                          "sequences": s.tolist(),
                          "mask": m.tolist()} for c, s, m in rows]}
        with ScoringServer(session, max_wait_ms=1.0) as server:
            status, before, _ = _post(server.url + "/score", body)
            assert status == 200
            status, swap, _ = _post(server.url + "/admin/reload",
                                    {"artifact": str(artifact_b)})
            assert status == 200
            assert swap["status"] == "swapped"
            assert swap["old_version"] == "v0"
            status, after, _ = _post(server.url + "/score", body)
            assert status == 200
            # Different weights actually serve now.
            assert after["logits"] != before["logits"]
            status, health, _ = _get(server.url + "/healthz")
            assert health["fleet"]["swaps"] == 2  # initial deploy + reload

    def test_admin_reload_by_registry_version(self, tmp_path, data, session,
                                              artifact, artifact_b):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(artifact, version="v1", promote=True)
        registry.publish(artifact_b, version="v2")
        with ScoringServer(session, model_registry=registry) as server:
            status, swap, _ = _post(server.url + "/admin/reload",
                                    {"version": "v2"})
            assert status == 200
            assert swap["new_version"] == "v2"
            assert swap["digest"] == registry.describe("v2")["digest"]
            status, health, _ = _get(server.url + "/healthz")
            assert health["fleet"]["primary"] == "v2"

    def test_admin_reload_input_validation(self, tmp_path, session,
                                           artifact):
        with ScoringServer(session) as server:
            url = server.url + "/admin/reload"
            for bad in ({}, {"artifact": str(artifact), "version": "v1"},
                        {"artifact": 7}, [1, 2], "nope"):
                status, body, _ = _post(url, bad)
                assert status == 400, bad
            # Well-formed but unsatisfiable asks are conflicts, not 4xx-on-
            # the-client: no registry attached / path does not exist.
            status, body, _ = _post(url, {"version": "v1"})
            assert status == 409
            status, body, _ = _post(url, {"artifact": str(tmp_path / "no")})
            assert status == 409

    def test_admin_reload_rejects_bad_miss_block(self, tmp_path, data,
                                                 session, artifact_b):
        # An artifact that fails verification is a 409 and the deployment
        # is untouched (this used to be a 400 "unprocessable request").
        bad = tmp_path / "bad"
        shutil.copytree(artifact_b, bad)
        edit_record(bad / "manifest.json",
                    lambda m: m.update(miss={"warmup_steps": 3}))
        rows = dataset_rows(data.splits["test"], limit=2)
        body = {"rows": [{"categorical": c.tolist(),
                          "sequences": s.tolist(),
                          "mask": m.tolist()} for c, s, m in rows]}
        with ScoringServer(session) as server:
            _, before, _ = _post(server.url + "/score", body)
            status, reply, _ = _post(server.url + "/admin/reload",
                                     {"artifact": str(bad)})
            assert status == 409
            assert reply["error"].startswith("reload rejected")
            assert "warmup_steps" in reply["error"]
            status, after, _ = _post(server.url + "/score", body)
            assert status == 200 and after["logits"] == before["logits"]
            _, health, _ = _get(server.url + "/healthz")
            assert health["fleet"]["swaps"] == 1      # only the first deploy

    def test_admin_reload_takes_either_exported_backend_only(
            self, tmp_path, session, artifact_b):
        # An export from the two-backend days ("fused") swaps in and is
        # scored on the one implementation; a name no export ever wrote
        # is a 409 and the deployment is untouched.
        legacy, unknown = tmp_path / "legacy", tmp_path / "unknown"
        for path, name in ((legacy, "fused"), (unknown, "tpu")):
            shutil.copytree(artifact_b, path)
            edit_record(path / "manifest.json",
                        lambda m, name=name: m.update(backend=name))
        with ScoringServer(session) as server:
            url = server.url + "/admin/reload"
            status, reply, _ = _post(url, {"artifact": str(unknown)})
            assert status == 409
            assert "unknown backend 'tpu'" in reply["error"]
            status, swap, _ = _post(url, {"artifact": str(legacy)})
            assert status == 200 and swap["status"] == "swapped"
            _, health, _ = _get(server.url + "/healthz")
            assert health["fleet"]["swaps"] == 2      # first deploy + legacy
            assert health["backend"] == "reference"

    def test_admin_reload_rejects_bit_rot(self, tmp_path, data, session,
                                          artifact_b):
        # Used to be a 400 "unprocessable request" counted under endpoint
        # "unknown": zlib.error was nobody's idea of a load failure.
        rotten = tmp_path / "rotten"
        shutil.copytree(artifact_b, rotten)
        bit_rot(rotten / WEIGHTS_NAME, zlib.error)
        with ScoringServer(session) as server:
            status, reply, _ = _post(server.url + "/admin/reload",
                                     {"artifact": str(rotten)})
            assert status == 409
            assert reply["error"].startswith("reload rejected")
            assert WEIGHTS_NAME in reply["error"]
            _, health, _ = _get(server.url + "/healthz")
            assert health["fleet"]["swaps"] == 1      # only the first deploy
        # Counted after the reply is written: read once handlers are done.
        snap = server.metrics.snapshot()
        assert snap["serve.http.reload.errors"]["value"] == 1
        assert "serve.http.unknown.requests" not in snap

    def test_admin_reload_refuses_schema_change(self, tmp_path, session):
        config = InterestWorldConfig(num_users=30, num_items=80,
                                     num_topics=6, num_categories=3,
                                     min_interactions=2, seed=3)
        # Same world, shorter history window → a different feature schema.
        other = build_ctr_data(InterestWorld(config), max_seq_len=4, seed=9)
        other_artifact = tmp_path / "other"
        export_artifact(create_model("DIN", other.schema, seed=2),
                        other_artifact, model_name="DIN")
        with ScoringServer(session) as server:
            status, body, _ = _post(server.url + "/admin/reload",
                                    {"artifact": str(other_artifact)})
            assert status == 409
            assert "schema" in body["error"]

    def test_overload_sheds_429_with_retry_after(self, data, session):
        rows = dataset_rows(data.splits["test"], limit=1)
        body = {"rows": [{"categorical": c.tolist(),
                          "sequences": s.tolist(),
                          "mask": m.tolist()} for c, s, m in rows]}
        admission = AdmissionController(1, retry_after_s=0.7)
        # A wide batching window keeps each admitted request in flight long
        # enough that concurrent arrivals must overlap with it.
        with ScoringServer(session, max_wait_ms=150.0, admission=admission,
                           max_batch_size=64) as server:
            statuses, retry_afters = [], []
            lock = threading.Lock()

            def fire():
                status, _, headers = _post(server.url + "/score", body)
                with lock:
                    statuses.append(status)
                    if status == 429:
                        retry_afters.append(headers.get("Retry-After"))

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert set(statuses) <= {200, 429}
            assert 200 in statuses            # accepted work still completes
            assert 429 in statuses            # and the excess was shed
            assert all(r == "0.7" for r in retry_afters)
            snap = admission.snapshot()
            assert snap["shed"] == statuses.count(429)
            assert snap["inflight"] == 0      # every admit was released

    def test_expired_deadline_is_504_not_scored(self, data, session):
        rows = dataset_rows(data.splits["test"], limit=1)
        body = {"rows": [{"categorical": c.tolist(),
                          "sequences": s.tolist(),
                          "mask": m.tolist()} for c, s, m in rows]}
        with ScoringServer(session, max_wait_ms=300.0,
                           max_batch_size=64) as server:
            start = time.monotonic()
            status, payload, _ = _post(server.url + "/score", body,
                                       headers={"X-Deadline-Ms": "10"})
            elapsed = time.monotonic() - start
            assert status == 504
            assert elapsed < 5.0
            status, _, _ = _post(server.url + "/score", body,
                                 headers={"X-Deadline-Ms": "oops"})
            assert status == 400

    def test_breaker_degrades_health_and_fast_fails(self, data, session,
                                                    monkeypatch):
        # The policy is read at call time: the breaker's cooldown and the
        # 503's Retry-After both follow the module constant.
        monkeypatch.setattr(admission, "COOLDOWN_S", 7.5)
        rows = dataset_rows(data.splits["test"], limit=1)
        body = {"rows": [{"categorical": c.tolist(),
                          "sequences": s.tolist(),
                          "mask": m.tolist()} for c, s, m in rows]}
        # A stopped clock: the cooldown never ends while the test runs.
        breaker = CircuitBreaker(clock=lambda: 1000.0)
        with ScoringServer(session, breaker=breaker) as server:
            status, health, _ = _get(server.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            for _ in range(admission.MIN_REQUESTS):
                breaker.record(False)  # as if the model started failing
            assert breaker.state == CircuitBreaker.OPEN
            status, health, _ = _get(server.url + "/healthz")
            assert status == 503
            assert health["status"] == "degraded"
            assert health["breaker"]["state"] == "open"
            status, payload, headers = _post(server.url + "/score", body)
            assert status == 503
            assert headers["Retry-After"] == "7.5"
            assert health["breaker"]["cooldown_remaining_s"] == 7.5
            snap = server.metrics.snapshot()
            assert snap["serve.shed.breaker_open"]["value"] >= 1

    @pytest.mark.parametrize("ending,status", [
        ("bad_deadline_header", 400), ("empty_rows", 400), ("bad_row", 400),
        ("shed", 429), ("closing", 503), ("deadline", 504)])
    def test_probe_ending_without_a_verdict_is_released(
            self, ending, status, data, session, monkeypatch):
        # Regression: breaker.allow() admits the half-open probe before the
        # request is validated; an ending that never reached
        # breaker.record() left the probe slot taken and every later
        # request got 503 forever.
        rows = dataset_rows(data.splits["test"], limit=2)
        body = {"rows": [{"categorical": c.tolist(),
                          "sequences": s.tolist(),
                          "mask": m.tolist()} for c, s, m in rows]}
        one_row = {"rows": body["rows"][:1]}
        now = [1000.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        with ScoringServer(session, breaker=breaker, max_wait_ms=1.0,
                           admission=AdmissionController(1)) as server:
            url = server.url + "/score"
            for _ in range(admission.MIN_REQUESTS):
                breaker.record(False)
            assert breaker.state == CircuitBreaker.OPEN
            now[0] += admission.COOLDOWN_S + 1.0  # cooldown over: next probes
            if ending == "bad_deadline_header":
                got = _post(url, one_row, headers={"X-Deadline-Ms": "oops"})
            elif ending == "empty_rows":
                got = _post(url, {"rows": []})
            elif ending == "bad_row":
                got = _post(url, {"rows": [{"categorical": 1}]})
            elif ending == "shed":             # 2 rows into a 1-row budget
                got = _post(url, body)
            elif ending == "closing":
                server.engine.close(drain=True)
                got = _post(url, one_row)
                server.router.deploy_primary(session, "v1")
            else:
                def expired(*args, **kwargs):
                    future = Future()
                    future.set_exception(DeadlineExceededError("expired"))
                    return future, "v0"
                with monkeypatch.context() as patch:
                    patch.setattr(server.router, "submit", expired)
                    got = _post(url, one_row)
            assert got[0] == status
            assert breaker.state == CircuitBreaker.HALF_OPEN
            assert breaker.snapshot()["trips"] == 1
            assert server.admission.inflight == 0
            # The next valid request is the probe, and closes the circuit.
            assert _post(url, one_row)[0] == 200
            assert breaker.state == CircuitBreaker.CLOSED

    def test_unusable_version_label_never_reaches_a_request(self, session):
        # Parent behaviour: the server started, and every /score was a
        # "500 scoring failed" (ValueError: invalid metric name).
        with pytest.raises(RegistryError):
            ScoringServer(session, version="v1.")
        with ScoringServer(session) as server:
            with pytest.raises(RegistryError):
                server.router.set_shadow(session, "a..b")

    def test_bad_reload_body_is_counted_as_reload(self, session):
        with ScoringServer(session) as server:
            status, _, _ = _post(server.url + "/admin/reload", None,
                                 raw=b"{not json")
            assert status == 400
        # Counted after the reply is written: read once handlers are done.
        snap = server.metrics.snapshot()
        assert snap["serve.http.reload.errors"]["value"] == 1
        assert "serve.http.score.requests" not in snap

    def test_graceful_drain_under_concurrent_load(self, data, session):
        """SIGTERM mid-flight: every accepted request gets a terminal
        response — a score or an orderly 503 — and nothing hangs."""
        rows = dataset_rows(data.splits["test"], limit=8)
        bodies = [{"rows": [{"categorical": c.tolist(),
                             "sequences": s.tolist(),
                             "mask": m.tolist()}]} for c, s, m in rows]
        server = ScoringServer(session, max_wait_ms=5.0).start()
        stop = threading.Event()
        outcomes = []
        lock = threading.Lock()

        def pound(worker: int):
            i = 0
            while not stop.is_set():
                try:
                    status, _, _ = _post(server.url + "/score",
                                         bodies[(worker + i) % len(bodies)])
                    with lock:
                        outcomes.append(status)
                except (urllib.error.URLError, ConnectionError, OSError):
                    # Connection refused/reset after the listener stopped:
                    # the request was never accepted, which is fine.
                    with lock:
                        outcomes.append(None)
                i += 1

        threads = [threading.Thread(target=pound, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.3)                 # traffic is flowing
        server.close(drain=True)        # the SIGTERM path
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        accepted = [s for s in outcomes if s is not None]
        assert len(accepted) > 0
        # Terminal responses only: scored, or an orderly refusal.
        assert set(accepted) <= {200, 503}
        assert 200 in accepted

    def test_healthz_reports_fleet_roles(self, data, session, artifact_b):
        shadow_session = InferenceSession.load(artifact_b)
        with ScoringServer(session, version="prod-1") as server:
            server.router.set_shadow(shadow_session, "shadow-1")
            status, health, _ = _get(server.url + "/healthz")
            assert status == 200
            assert health["fleet"] == {"primary": "prod-1",
                                       "shadow": "shadow-1", "swaps": 1}
            rows = dataset_rows(data.splits["test"], limit=2)
            body = {"rows": [{"categorical": c.tolist(),
                              "sequences": s.tolist(),
                              "mask": m.tolist()} for c, s, m in rows]}
            status, payload, _ = _post(server.url + "/score", body)
            assert status == 200
            assert payload["model_version"] == "prod-1"


# ---------------------------------------------------------------------------
# A registry.json written before the A/B split was deleted
# ---------------------------------------------------------------------------
def _parent_registry(root, artifact, artifact_b):
    """v1 in production and v2 named as an A/B challenger taking half the
    traffic, in the state file layout the A/B-era writer left behind."""
    registry = ModelRegistry(root)
    registry.publish(artifact, version="v1")
    registry.publish(artifact_b, version="v2")
    (root / STATE_NAME).write_text(json.dumps({
        "format_version": 1, "production": "v1", "shadow": None,
        "challenger": "v2", "challenger_fraction": 0.5}))
    return registry


class TestParentRegistryFile:
    @pytest.mark.parametrize("write", ["set_shadow", "promote"])
    def test_next_role_write_drops_the_challenger_keys(self, tmp_path,
                                                       artifact, artifact_b,
                                                       write):
        registry = _parent_registry(tmp_path / "reg", artifact, artifact_b)
        assert registry.production() == "v1"
        state = getattr(registry, write)("v2")
        assert set(state) == {"format_version", "production", "shadow",
                              "record_digest"}
        assert state == registry.state()

    @pytest.mark.serving
    def test_serve_scores_every_row_on_production(self, tmp_path, monkeypatch,
                                                  capsys, data, session,
                                                  artifact, artifact_b):
        import repro.cli
        from repro.cli import main
        _parent_registry(tmp_path / "reg", artifact, artifact_b)
        rows = [{"categorical": c.tolist(), "sequences": s.tolist(),
                 "mask": m.tolist()}
                for c, s, m in dataset_rows(data.splits["test"], limit=40)]
        replies = []
        health = []

        class Driven(ScoringServer):
            """Scores the rows once up, then asks the CLI to drain."""

            def start(self):
                super().start()
                health.append(_get(self.url + "/healthz")[1])
                for row in rows:
                    status, payload, _ = _post(self.url + "/score",
                                               {"rows": [row]})
                    replies.append((status, payload))
                # The CLI's own SIGTERM handler: drain, then return 0.
                signal.raise_signal(signal.SIGTERM)

        monkeypatch.setattr(repro.cli, "ScoringServer", Driven)
        assert main(["serve", "--registry", str(tmp_path / "reg"),
                     "--port", "0"]) == 0
        assert len(replies) == len(rows) >= 20
        # `serve` always arms the circuit breaker.
        assert health[0]["breaker"]["state"] == "closed"
        assert [status for status, _ in replies] == [200] * len(rows)
        assert {payload["model_version"] for _, payload in replies} == {"v1"}
        np.testing.assert_allclose(
            [payload["logits"][0] for _, payload in replies],
            session.score_rows(rows), rtol=1e-6)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "challenger" in line]
        assert len(warnings) == 1 and "'v2'" in warnings[0]
