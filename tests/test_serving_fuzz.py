"""The no-500s fuzz harness for the HTTP scoring server.

Contract under test (stated in the OpenAPI document the server publishes):
malformed input — invalid JSON, wrong shapes, bad headers, hostile bytes —
is always answered with a 4xx status.  A 5xx may only ever mean the server
itself failed.

Three layers hold the line:

* OpenAPI sanity — the published contract is structurally valid and derived
  from the live schema, so generated corpora target the real row shape.
* Regression corpus — ``tests/data/fuzz_corpus/score_corpus.jsonl`` is a
  committed list of raw requests (including non-UTF-8 bodies) that ever
  looked suspicious; CI replays every line on every run.
* Hypothesis — schema-derived strategies generate fresh malformed and
  boundary payloads each run.  ``REPRO_FUZZ_EXAMPLES`` scales the budget
  (CI keeps it short; leave it unset locally for the default).
"""

import base64
import http.client
import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.serving import (
    InferenceSession,
    ScoringServer,
    build_openapi,
    export_artifact,
)

CORPUS_PATH = Path(__file__).parent / "data" / "fuzz_corpus" / \
    "score_corpus.jsonl"

FUZZ_SETTINGS = settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "30")),
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=3)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=4)


@pytest.fixture(scope="module")
def session(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("artifacts") / "din"
    export_artifact(create_model("DIN", data.schema, seed=1), path,
                    model_name="DIN",
                    metadata={"dataset": data.schema.name})
    return InferenceSession.load(path)


@pytest.fixture(scope="module")
def server(session):
    with ScoringServer(session, max_wait_ms=1.0) as srv:
        yield srv


def _raw_request(server, method: str, path: str, body: bytes | None = None,
                 headers: dict | None = None) -> int:
    """Send one request over a fresh connection; return the status code.

    ``http.client`` (not urllib) so arbitrary header values and non-UTF-8
    bodies go out exactly as written.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        all_headers = {"Content-Type": "application/json", **(headers or {})}
        conn.request(method, path, body=body, headers=all_headers)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _corpus_entries():
    entries = []
    for line in CORPUS_PATH.read_text(encoding="utf-8").splitlines():
        if line.strip():
            entries.append(json.loads(line))
    return entries


def _entry_body(entry) -> bytes | None:
    if "body_b64" in entry:
        return base64.b64decode(entry["body_b64"])
    if "body" in entry:
        return entry["body"].encode("utf-8")
    return None


# ---------------------------------------------------------------------------
# The contract document itself
# ---------------------------------------------------------------------------
class TestOpenAPIDocument:
    def test_document_structure(self, session):
        doc = build_openapi(session)
        assert doc["openapi"].startswith("3.0")
        assert set(doc["paths"]) == {"/score", "/healthz", "/metrics",
                                     "/openapi.json", "/admin/reload"}

    def test_row_schema_matches_live_dataset_schema(self, session):
        doc = build_openapi(session)
        row = doc["paths"]["/score"]["post"]["requestBody"]["content"][
            "application/json"]["schema"]["oneOf"][1]
        schema = session.schema
        cat = row["properties"]["categorical"]
        assert cat["minItems"] == cat["maxItems"] == schema.num_categorical
        seq = row["properties"]["sequences"]
        assert seq["minItems"] == seq["maxItems"] == schema.num_sequential
        assert seq["items"]["minItems"] == schema.max_seq_len
        mask = row["properties"]["mask"]
        assert mask["minItems"] == mask["maxItems"] == schema.max_seq_len

    def test_score_declares_no_5xx_for_client_errors(self, session):
        responses = build_openapi(session)["paths"]["/score"]["post"][
            "responses"]
        declared = {int(code) for code in responses}
        assert {400, 404, 411, 413, 429} <= declared
        assert 500 not in declared  # the contract: bad input is never a 500

    @pytest.mark.slow
    @pytest.mark.serving
    def test_document_is_json_serialisable_and_served(self, server):
        status = _raw_request(server, "GET", "/openapi.json")
        assert status == 200


# ---------------------------------------------------------------------------
# Committed regression corpus — replayed on every CI run
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.serving
class TestRegressionCorpus:
    def test_corpus_is_nonempty_and_well_formed(self):
        entries = _corpus_entries()
        assert len(entries) >= 30
        for entry in entries:
            assert entry["method"] in {"GET", "POST"}
            assert entry["path"].startswith("/")

    @pytest.mark.parametrize(
        "entry", _corpus_entries(),
        ids=[e["note"].replace(" ", "-") for e in _corpus_entries()])
    def test_corpus_entry_never_5xx(self, server, entry):
        status = _raw_request(server, entry["method"], entry["path"],
                              body=_entry_body(entry),
                              headers=entry.get("headers"))
        assert status < 500, f"{entry['note']}: got {status}"

    def test_server_survives_the_whole_corpus_back_to_back(self, server):
        for entry in _corpus_entries():
            _raw_request(server, entry["method"], entry["path"],
                         body=_entry_body(entry),
                         headers=entry.get("headers"))
        assert _raw_request(server, "GET", "/healthz") == 200

    def test_invalid_content_length_is_411(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/score")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "not-a-number")
            conn.endheaders()
            status = conn.getresponse().status
        finally:
            conn.close()
        assert status == 411


# ---------------------------------------------------------------------------
# Hypothesis: schema-derived malformed and boundary corpora
# ---------------------------------------------------------------------------
def _valid_row(schema) -> dict:
    return {
        "categorical": [0] * schema.num_categorical,
        "sequences": [[0] * schema.max_seq_len] * schema.num_sequential,
        "mask": [True] * schema.max_seq_len,
    }


_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=20))

_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5)),
    max_leaves=20)


def _mutated_rows(schema):
    """A /score body that is *near* valid: one field broken at a time."""
    field = st.sampled_from(["categorical", "sequences", "mask"])
    breakage = st.one_of(
        _JSON_VALUES,                                   # wrong type entirely
        st.lists(st.integers(-10, 10), max_size=3),     # wrong length
        st.lists(st.floats(allow_nan=True), min_size=1, max_size=3),
    )

    def build(picked, broken, drop):
        row = _valid_row(schema)
        if drop:
            del row[picked]
        else:
            row[picked] = broken
        return {"rows": [row]}

    return st.builds(build, field, breakage, st.booleans())


@pytest.mark.slow
@pytest.mark.serving
class TestHypothesisFuzz:
    @FUZZ_SETTINGS
    @given(raw=st.binary(max_size=512))
    def test_arbitrary_bytes_never_5xx(self, server, raw):
        status = _raw_request(server, "POST", "/score", body=raw)
        assert status < 500

    @FUZZ_SETTINGS
    @given(payload=_JSON_VALUES)
    def test_arbitrary_json_never_5xx(self, server, payload):
        body = json.dumps(payload).encode("utf-8")
        status = _raw_request(server, "POST", "/score", body=body)
        assert status < 500

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_near_valid_rows_never_5xx(self, server, session, data):
        payload = data.draw(_mutated_rows(session.schema))
        body = json.dumps(payload).encode("utf-8")
        status = _raw_request(server, "POST", "/score", body=body)
        assert status < 500

    @FUZZ_SETTINGS
    @given(header=st.text(max_size=30))
    def test_arbitrary_deadline_header_never_5xx(self, server, session,
                                                 header):
        body = json.dumps({"rows": [_valid_row(session.schema)]})
        try:
            status = _raw_request(
                server, "POST", "/score", body=body.encode("utf-8"),
                headers={"X-Deadline-Ms": header})
        except ValueError:
            return  # http.client refuses headers with \r\n — never sent
        assert status < 500

    @FUZZ_SETTINGS
    @given(payload=_JSON_VALUES)
    def test_admin_reload_never_5xx(self, server, payload):
        body = json.dumps(payload).encode("utf-8")
        status = _raw_request(server, "POST", "/admin/reload", body=body)
        assert status < 500

    def test_boundary_ids_score_or_400_cleanly(self, server, session):
        """Vocab-edge ids: either a clean score or a clean 4xx."""
        schema = session.schema
        for offset in (-1, 0, 1):
            row = _valid_row(schema)
            row["categorical"] = [
                max(0, spec.vocab_size + offset)
                for spec in schema.categorical]
            body = json.dumps({"rows": [row]}).encode("utf-8")
            status = _raw_request(server, "POST", "/score", body=body)
            assert status in {200, 400}, (offset, status)

    def test_server_still_healthy_after_fuzzing(self, server, session):
        body = json.dumps({"rows": [_valid_row(session.schema)]})
        status = _raw_request(server, "POST", "/score",
                              body=body.encode("utf-8"))
        assert status == 200
        assert _raw_request(server, "GET", "/healthz") == 200
