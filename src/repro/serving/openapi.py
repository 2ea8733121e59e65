"""OpenAPI 3.0 description of the scoring server's HTTP surface.

The document is *derived from the live session's schema* — array lengths
and vocabulary bounds come from the artifact's :class:`DatasetSchema`, so
the published contract is exactly what ``rows_to_batch`` enforces.  It is
served at ``GET /openapi.json`` and is the ground truth the fuzz harness
(tests/test_serving_fuzz.py) derives its invalid/boundary corpora from, in
the spirit of schemathesis: generate requests the schema forbids, assert
the server answers every one with a 4xx — never a 5xx.
"""

from __future__ import annotations

from typing import Any

__all__ = ["build_openapi"]

OPENAPI_VERSION = "3.0.3"


def _row_schema(schema) -> dict[str, Any]:
    """JSON schema for one feature row under dataset ``schema``."""
    cat_vocab = [spec.vocab_size for spec in schema.categorical]
    seq_vocab = [spec.vocab_size for spec in schema.sequential]
    return {
        "type": "object",
        "required": ["categorical", "sequences", "mask"],
        "additionalProperties": False,
        "properties": {
            "categorical": {
                "type": "array",
                "minItems": schema.num_categorical,
                "maxItems": schema.num_categorical,
                "items": {"type": "integer", "minimum": 0},
                "description": (
                    "One id per categorical field, in schema order; "
                    f"per-field vocab sizes {cat_vocab}."),
            },
            "sequences": {
                "type": "array",
                "minItems": schema.num_sequential,
                "maxItems": schema.num_sequential,
                "items": {
                    "type": "array",
                    "minItems": schema.max_seq_len,
                    "maxItems": schema.max_seq_len,
                    "items": {"type": "integer", "minimum": 0},
                },
                "description": (
                    f"{schema.num_sequential} behaviour sequences of "
                    f"exactly {schema.max_seq_len} ids (front-padded with "
                    f"0); per-field vocab sizes {seq_vocab}."),
            },
            "mask": {
                "type": "array",
                "minItems": schema.max_seq_len,
                "maxItems": schema.max_seq_len,
                "items": {"type": "boolean"},
            },
        },
    }


def _error_response(description: str) -> dict[str, Any]:
    return {"description": description,
            "content": {"application/json": {"schema": {
                "type": "object",
                "required": ["error"],
                "properties": {"error": {"type": "string"}}}}}}


def build_openapi(session, *, server_url: str | None = None) -> dict[str, Any]:
    """The server's contract as an OpenAPI 3.0 document (JSON-safe dict)."""
    row = _row_schema(session.schema)
    score_request = {
        "oneOf": [
            {"type": "object", "required": ["rows"],
             "properties": {"rows": {"type": "array", "minItems": 1,
                                     "items": row}}},
            row,
        ],
    }
    score_ok = {
        "type": "object",
        "required": ["model", "logits", "probabilities"],
        "properties": {
            "model": {"type": "string"},
            "model_version": {"type": "string"},
            "logits": {"type": "array", "items": {"type": "number"}},
            "probabilities": {"type": "array",
                              "items": {"type": "number",
                                        "minimum": 0.0, "maximum": 1.0}},
        },
    }
    document: dict[str, Any] = {
        "openapi": OPENAPI_VERSION,
        "info": {
            "title": "repro scoring server",
            "version": "1",
            "description": (
                f"CTR scoring for model {session.model_name!r} under "
                f"dataset schema {session.schema.name!r}.  Contract: "
                "malformed input is always answered with a 4xx status — "
                "the server never 5xxs on bad requests."),
        },
        "paths": {
            "/score": {
                "post": {
                    "summary": "Score feature rows",
                    "parameters": [{
                        "name": "X-Deadline-Ms",
                        "in": "header",
                        "required": False,
                        "schema": {"type": "number",
                                   "exclusiveMinimum": 0},
                        "description": (
                            "Remaining client budget in milliseconds; "
                            "requests that cannot be scored within it are "
                            "rejected (504), not scored late."),
                    }],
                    "requestBody": {
                        "required": True,
                        "content": {"application/json": {
                            "schema": score_request}},
                    },
                    "responses": {
                        "200": {"description": "Scores in request order",
                                "content": {"application/json": {
                                    "schema": score_ok}}},
                        "400": _error_response(
                            "Malformed body, row, or header"),
                        "404": _error_response("Unknown route"),
                        "411": _error_response(
                            "Missing or invalid Content-Length"),
                        "413": _error_response("Body too large"),
                        "429": _error_response(
                            "Load shed; Retry-After header set"),
                        "503": _error_response(
                            "Draining or circuit breaker open"),
                        "504": _error_response("Deadline exceeded"),
                    },
                },
            },
            "/healthz": {
                "get": {
                    "summary": "Readiness and fleet-state probe",
                    "responses": {
                        "200": {"description": "Ready"},
                        "503": {"description": "Draining or degraded"},
                    },
                },
            },
            "/metrics": {
                "get": {
                    "summary": "Prometheus text exposition (v0.0.4); the "
                               "JSON snapshot with Accept: application/json",
                    "responses": {"200": {"description": "Metrics"}},
                },
            },
            "/openapi.json": {
                "get": {
                    "summary": "This document",
                    "responses": {"200": {"description": "OpenAPI 3.0"}},
                },
            },
            "/admin/reload": {
                "post": {
                    "summary": "Hot-swap the production artifact",
                    "requestBody": {
                        "required": True,
                        "content": {"application/json": {"schema": {
                            "type": "object",
                            "properties": {
                                "artifact": {"type": "string"},
                                "version": {"type": "string"},
                            }}}},
                    },
                    "responses": {
                        "200": {"description": "Swap completed"},
                        "400": _error_response("Bad reload request"),
                        "409": _error_response(
                            "Artifact failed verification or is "
                            "schema-incompatible"),
                    },
                },
            },
        },
    }
    if server_url:
        document["servers"] = [{"url": server_url}]
    return document
