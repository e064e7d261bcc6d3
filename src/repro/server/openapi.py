"""The OpenAPI contract for the HTTP edge — generated, never hand-edited.

The Python :data:`SPEC` dict is the single source of truth.  It is
rendered to ``docs/openapi.yaml`` by :func:`spec_yaml` (a small
deterministic YAML emitter — the repo takes no YAML dependency), served
live at ``GET /openapi.yaml``, and *kept in sync by tests*:

* ``tests/test_openapi.py`` regenerates the YAML and compares it to the
  committed ``docs/openapi.yaml`` byte-for-byte;
* the same test checks every route registered in the app's router appears
  in :data:`SPEC` (and vice versa), and validates live endpoint responses
  against the declared schemas via :func:`validate`.

Regenerate after editing :data:`SPEC`::

    PYTHONPATH=src python -m repro.server.openapi docs/openapi.yaml
"""

from __future__ import annotations

import json
import re

__all__ = ["SPEC", "spec_yaml", "validate"]

_POINTS = {"$ref": "#/components/schemas/Points"}
_ERROR_RESPONSE = {
    "description": "Error",
    "content": {
        "application/json": {
            "schema": {"$ref": "#/components/schemas/Error"}
        }
    },
}

#: Every data-plane endpoint honours an end-to-end request budget.
_XDEADLINE_PARAM = {
    "name": "X-Deadline",
    "in": "header",
    "required": False,
    "schema": {"type": "number"},
    "description": (
        "End-to-end budget in seconds (positive, finite). The request "
        "is abandoned with 504 the moment the budget runs out; a fleet "
        "proxy forwards the *remaining* budget to replicas it tries."
    ),
}
_SHED_RESPONSE = {
    "description": (
        "Shed by admission control (max in-flight reached); back off "
        "for Retry-After seconds and retry"
    ),
    "headers": {
        "Retry-After": {
            "schema": {"type": "integer"},
            "description": "Seconds to wait before retrying",
        }
    },
    "content": {
        "application/json": {
            "schema": {"$ref": "#/components/schemas/Error"}
        }
    },
}
_DEADLINE_RESPONSE = {
    "description": "The request's X-Deadline budget ran out mid-flight",
    "content": {
        "application/json": {
            "schema": {"$ref": "#/components/schemas/Error"}
        }
    },
}


def _json_response(description: str, schema_name: str, status_ok: str = "200"):
    return {
        status_ok: {
            "description": description,
            "content": {
                "application/json": {
                    "schema": {"$ref": f"#/components/schemas/{schema_name}"}
                }
            },
        }
    }


#: The OpenAPI 3.0 document (plain literals only — rendered to YAML).
SPEC = {
    "openapi": "3.0.3",
    "info": {
        "title": "rnnhm serving edge",
        "description": (
            "HTTP tile/query serving for reverse nearest neighbor heat maps "
            "(Sun et al., ICDE 2016). Slippy-map raster tiles with ETag "
            "revalidation, JSON batch queries, fingerprint-addressed builds "
            "and dynamic update batches over the asyncio coalescing core. "
            "Data-plane requests may carry an X-Deadline budget (504 when "
            "it runs out); overloaded servers shed load with 503 + "
            "Retry-After. See docs/resilience.md."
        ),
        "version": "1.0.0",
    },
    "paths": {
        "/healthz": {
            "get": {
                "summary": "Liveness probe and registry counts",
                "description": (
                    "Plain GET /healthz answers 200 whenever the process is "
                    "up (liveness). With ?ready=1 it becomes a readiness "
                    "probe: 503 status=starting until the service layer is "
                    "attached, 503 status=draining once graceful shutdown "
                    "began. A fleet proxy serves the same contract with "
                    "role=fleet-proxy."
                ),
                "operationId": "healthz",
                "parameters": [
                    {
                        "name": "ready",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "string"},
                        "description": "any truthy value asks for readiness",
                    }
                ],
                "responses": {
                    **_json_response("Server is up", "Health"),
                    "503": {
                        "description": (
                            "ready=1 only: not (yet, or any more) serving"
                        ),
                        "content": {
                            "application/json": {
                                "schema": {"$ref": "#/components/schemas/Health"}
                            }
                        },
                    },
                },
            }
        },
        "/stats": {
            "get": {
                "summary": "Service, HTTP and latency counters",
                "operationId": "stats",
                "responses": _json_response("Observability snapshot", "Stats"),
            }
        },
        "/openapi.yaml": {
            "get": {
                "summary": "This document",
                "operationId": "openapi",
                "responses": {
                    "200": {
                        "description": "The OpenAPI contract as YAML",
                        "content": {"application/yaml": {}},
                    }
                },
            }
        },
        "/datasets": {
            "post": {
                "summary": "Register client/facility coordinate arrays",
                "description": (
                    "Dataset ids are content-addressed: re-posting identical "
                    "arrays returns the same id (201 first time, 200 after)."
                ),
                "operationId": "createDataset",
                "parameters": [_XDEADLINE_PARAM],
                "requestBody": {
                    "required": True,
                    "content": {
                        "application/json": {
                            "schema": {"$ref": "#/components/schemas/DatasetRequest"}
                        }
                    },
                },
                "responses": {
                    **_json_response("Dataset registered", "Dataset", "201"),
                    "400": _ERROR_RESPONSE,
                    "503": _SHED_RESPONSE,
                    "504": _DEADLINE_RESPONSE,
                },
            }
        },
        "/build": {
            "post": {
                "summary": "Kick (or recall) a heat-map build",
                "description": (
                    "Static builds are keyed by input fingerprint. The "
                    "request waits up to 50 ms for the build, then answers "
                    "its state: 200 ready (resident, or finished within the "
                    "wait) or failed (with the error a poll would give), else "
                    "202 + poll URL. A size-measure build is the NN radii "
                    "plus a circle index, so a small one answers ready and "
                    "needs no poll, and no later request sweeps it. "
                    "Concurrent identical requests coalesce onto "
                    "one build; a client hanging up during the wait leaves "
                    "the build running. dynamic=true attaches a DynamicHeatMap "
                    "(unique dyn-N handle) that accepts /update batches."
                ),
                "operationId": "build",
                "parameters": [_XDEADLINE_PARAM],
                "requestBody": {
                    "required": True,
                    "content": {
                        "application/json": {
                            "schema": {"$ref": "#/components/schemas/BuildRequest"}
                        }
                    },
                },
                "responses": {
                    "200": {
                        "description": (
                            "Resident or finished within the wait (ready), "
                            "or failed within it (with its error)"
                        ),
                        "content": {
                            "application/json": {
                                "schema": {"$ref": "#/components/schemas/BuildStatus"}
                            }
                        },
                    },
                    "202": {
                        "description": (
                            "Still building after the wait; poll the "
                            "Location URL"
                        ),
                        "content": {
                            "application/json": {
                                "schema": {"$ref": "#/components/schemas/BuildStatus"}
                            }
                        },
                    },
                    "400": _ERROR_RESPONSE,
                    "404": _ERROR_RESPONSE,
                    "503": _SHED_RESPONSE,
                    "504": _DEADLINE_RESPONSE,
                },
            }
        },
        "/build/{handle}": {
            "get": {
                "summary": "Poll a build kicked by POST /build",
                "description": (
                    "A running build is waited for up to 50 ms, as POST "
                    "/build waits, before the answer."
                ),
                "operationId": "buildStatus",
                "parameters": [
                    {
                        "name": "handle",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                    },
                    _XDEADLINE_PARAM,
                ],
                "responses": {
                    "200": {
                        "description": (
                            "Terminal status (ready, failed or evicted), "
                            "reached before or within the wait"
                        ),
                        "content": {
                            "application/json": {
                                "schema": {"$ref": "#/components/schemas/BuildStatus"}
                            }
                        },
                    },
                    "202": {
                        "description": (
                            "Still building after the wait; poll the "
                            "Location URL again"
                        ),
                        "content": {
                            "application/json": {
                                "schema": {"$ref": "#/components/schemas/BuildStatus"}
                            }
                        },
                    },
                    "404": _ERROR_RESPONSE,
                    "503": _SHED_RESPONSE,
                    "504": _DEADLINE_RESPONSE,
                },
            }
        },
        "/query/{handle}": {
            "post": {
                "summary": "Batch heat / RNN / top-k queries",
                "description": (
                    "kind=top-k lists the k largest distinct heats of the "
                    "map's regions, largest first, ending with 0 (outside "
                    "every circle); no query sweeps."
                ),
                "operationId": "query",
                "parameters": [
                    {
                        "name": "handle",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                    },
                    _XDEADLINE_PARAM,
                ],
                "requestBody": {
                    "required": True,
                    "content": {
                        "application/json": {
                            "schema": {"$ref": "#/components/schemas/QueryRequest"}
                        }
                    },
                },
                "responses": {
                    **_json_response("Query answers", "QueryResponse"),
                    "400": _ERROR_RESPONSE,
                    "404": _ERROR_RESPONSE,
                    "503": _SHED_RESPONSE,
                    "504": _DEADLINE_RESPONSE,
                },
            }
        },
        "/update/{handle}": {
            "post": {
                "summary": "Apply a dynamic update batch",
                "description": (
                    "Only handles built with dynamic=true accept updates "
                    "(409 for static handles). Rebuilds stay lazy: the next "
                    "query or tile fetch rebuilds the map's NN-circle surface "
                    "and drops only intersecting tiles."
                ),
                "operationId": "update",
                "parameters": [
                    {
                        "name": "handle",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                    },
                    _XDEADLINE_PARAM,
                ],
                "requestBody": {
                    "required": True,
                    "content": {
                        "application/json": {
                            "schema": {"$ref": "#/components/schemas/UpdateRequest"}
                        }
                    },
                },
                "responses": {
                    **_json_response("Updates applied", "UpdateResponse"),
                    "400": _ERROR_RESPONSE,
                    "404": _ERROR_RESPONSE,
                    "409": _ERROR_RESPONSE,
                    "503": _SHED_RESPONSE,
                    "504": _DEADLINE_RESPONSE,
                },
            }
        },
        "/tiles/{handle}/{z}/{tx}/{ty}.png": {
            "get": {
                "summary": "One raster heat tile as PNG",
                "description": (
                    "Slippy-map quadtree addressing from the lower-left "
                    "corner. The ETag carries a per-tile generation: a "
                    "partial invalidation bumps only the tiles it touched, "
                    "so clean tiles keep revalidating 304 across localized "
                    "updates. Every pixel is the heat POST /query answers "
                    "at the pixel's centre. Concurrent cold requests for "
                    "one tile coalesce onto a single render."
                ),
                "operationId": "tile",
                "parameters": [
                    {
                        "name": "handle",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                    },
                    {
                        "name": "z",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "integer", "minimum": 0},
                    },
                    {
                        "name": "tx",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "integer", "minimum": 0},
                    },
                    {
                        "name": "ty",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "integer", "minimum": 0},
                    },
                    {
                        "name": "size",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "integer", "minimum": 1, "maximum": 2048},
                    },
                    {
                        "name": "cmap",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "string", "enum": ["heat", "gray_dark"]},
                    },
                    {
                        "name": "vmax",
                        "in": "query",
                        "required": False,
                        "description": (
                            "Heat at the top of the colour scale; defaults "
                            "to the map's exact maximum heat (for every "
                            "engine, approximate ones included), shared by "
                            "every tile."
                        ),
                        "schema": {"type": "number"},
                    },
                    _XDEADLINE_PARAM,
                ],
                "responses": {
                    "200": {
                        "description": "The rendered tile",
                        "headers": {
                            "ETag": {
                                "description": "Strong per-tile validator.",
                                "schema": {"type": "string"},
                            },
                        },
                        "content": {"image/png": {}},
                    },
                    "304": {
                        "description": "Client's cached tile is current",
                        "headers": {
                            "ETag": {
                                "description": "The validator that matched.",
                                "schema": {"type": "string"},
                            },
                        },
                    },
                    "400": _ERROR_RESPONSE,
                    "404": _ERROR_RESPONSE,
                    "503": _SHED_RESPONSE,
                    "504": _DEADLINE_RESPONSE,
                },
            }
        },
        "/events/{handle}": {
            "get": {
                "summary": "Per-handle push-invalidation event stream (SSE)",
                "description": (
                    "A Server-Sent Events stream: one 'hello' event with the "
                    "handle's current version/generation, then one 'update' "
                    "event per applied POST /update batch — viewers drop "
                    "stale tiles on push instead of polling ETags. The "
                    "stream is Connection: close framed (no Content-Length) "
                    "and ends cleanly when the server drains. Behind a "
                    "fleet proxy, N viewers share one upstream replica "
                    "subscription per handle."
                ),
                "operationId": "events",
                "parameters": [
                    {
                        "name": "handle",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                    }
                ],
                "responses": {
                    "200": {
                        "description": (
                            "The event stream (id/event/data frames; data is "
                            "JSON)"
                        ),
                        "content": {"text/event-stream": {}},
                    },
                    "404": _ERROR_RESPONSE,
                },
            }
        },
        "/fleet/stats": {
            "get": {
                "summary": "Fleet-wide aggregated observability (proxy only)",
                "description": (
                    "Served by a --fleet-proxy coordinator: per-replica "
                    "/stats snapshots, their numeric service counters "
                    "summed (so fleet.builds is the number of actual builds "
                    "performed fleet-wide), the proxy's own routing "
                    "counters, and the consistent-hash ring layout. A "
                    "single-process server does not mount this path."
                ),
                "operationId": "fleetStats",
                "responses": _json_response(
                    "Aggregated fleet snapshot", "FleetStats"
                ),
            }
        },
    },
    "components": {
        "schemas": {
            "Points": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "Health": {
                "type": "object",
                "required": ["status"],
                "properties": {
                    "status": {
                        "type": "string",
                        "enum": ["ok", "starting", "draining"],
                    },
                    "handles": {"type": "integer"},
                    "datasets": {"type": "integer"},
                    "builds_in_progress": {"type": "integer"},
                    "role": {"type": "string", "enum": ["fleet-proxy"]},
                    "replicas": {"type": "integer"},
                },
            },
            "Stats": {
                "type": "object",
                "required": ["service", "http", "latency"],
                "properties": {
                    "service": {
                        "type": "object",
                        "description": (
                            "HeatMapService.stats_snapshot(): builds, cache "
                            "hit/miss/eviction, coalesced_builds/"
                            "coalesced_tiles, inflight_peak, ..."
                        ),
                    },
                    "http": {
                        "type": "object",
                        "description": (
                            "Edge counters: requests, response classes, "
                            "not_modified, cancelled_requests"
                        ),
                    },
                    "latency": {
                        "type": "object",
                        "description": "Per-endpoint latency percentile records",
                    },
                    "tiles": {
                        "type": "object",
                        "description": (
                            "Encoded-PNG cache counters: png_purged, "
                            "png_cache_entries"
                        ),
                        "properties": {
                            "png_purged": {"type": "integer"},
                            "png_cache_entries": {"type": "integer"},
                        },
                    },
                },
            },
            "DatasetRequest": {
                "type": "object",
                "required": ["clients"],
                "properties": {
                    "clients": _POINTS,
                    "facilities": _POINTS,
                },
            },
            "Dataset": {
                "type": "object",
                "required": ["dataset", "n_clients", "n_facilities"],
                "properties": {
                    "dataset": {"type": "string"},
                    "n_clients": {"type": "integer"},
                    "n_facilities": {"type": "integer"},
                },
            },
            "BuildRequest": {
                "type": "object",
                "required": ["dataset"],
                "properties": {
                    "dataset": {"type": "string"},
                    "metric": {"type": "string", "enum": ["l1", "l2", "linf"]},
                    "algorithm": {"type": "string"},
                    "k": {"type": "integer", "minimum": 1},
                    "monochromatic": {"type": "boolean"},
                    "dynamic": {"type": "boolean"},
                    "recall": {
                        "type": "number",
                        "exclusiveMinimum": 0,
                        "maximum": 1,
                        "description": (
                            "approximate-engine recall knob (engines "
                            "without knobs reject it)"
                        ),
                    },
                    "seed": {
                        "type": "integer",
                        "description": (
                            "approximate-engine random seed — identical "
                            "(dataset, knobs, seed) builds are "
                            "byte-identical"
                        ),
                    },
                },
            },
            "BuildStatus": {
                "type": "object",
                "required": ["handle", "status"],
                "properties": {
                    "handle": {"type": "string"},
                    "status": {
                        "type": "string",
                        "enum": ["building", "ready", "failed", "evicted"],
                        "description": (
                            "evicted: the build finished but was since "
                            "LRU-evicted from the service — re-POST /build "
                            "(a store promotion or re-sweep, same handle)"
                        ),
                    },
                    "poll": {"type": "string"},
                    "error": {"type": "string"},
                },
            },
            "QueryRequest": {
                "type": "object",
                "properties": {
                    "kind": {
                        "type": "string",
                        "enum": ["heat", "rnn", "top-k"],
                    },
                    "points": _POINTS,
                    "k": {"type": "integer", "minimum": 1},
                },
            },
            "QueryResponse": {
                "type": "object",
                "required": ["handle", "kind"],
                "properties": {
                    "handle": {"type": "string"},
                    "kind": {"type": "string"},
                    "n": {"type": "integer"},
                    "heats": {"type": "array", "items": {"type": "number"}},
                    "rnn": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "integer"},
                        },
                    },
                },
            },
            "UpdateOp": {
                "type": "object",
                "required": ["op"],
                "properties": {
                    "op": {
                        "type": "string",
                        "enum": [
                            "add_client", "move_client", "remove_client",
                            "add_facility", "move_facility", "remove_facility",
                        ],
                    },
                    "handle": {"type": "integer"},
                    "x": {"type": "number"},
                    "y": {"type": "number"},
                },
            },
            "UpdateRequest": {
                "type": "object",
                "required": ["updates"],
                "properties": {
                    "updates": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"$ref": "#/components/schemas/UpdateOp"},
                    }
                },
            },
            "UpdateResponse": {
                "type": "object",
                "required": ["handle", "applied", "results", "version", "stale"],
                "properties": {
                    "handle": {"type": "string"},
                    "applied": {"type": "integer"},
                    "results": {
                        "type": "array",
                        "items": {"type": ["integer", "null"]},
                    },
                    "version": {"type": "integer"},
                    "stale": {"type": "boolean"},
                },
            },
            "FleetStats": {
                "type": "object",
                "required": ["fleet", "replicas", "proxy", "ring"],
                "properties": {
                    "fleet": {
                        "type": "object",
                        "description": (
                            "Numeric service counters summed across "
                            "reachable replicas (builds = actual builds "
                            "fleet-wide)"
                        ),
                    },
                    "replicas": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["replica", "reachable"],
                            "properties": {
                                "replica": {"type": "string"},
                                "reachable": {"type": "boolean"},
                                "stats": {"type": "object"},
                                "error": {"type": "string"},
                            },
                        },
                    },
                    "proxy": {
                        "type": "object",
                        "description": (
                            "The coordinator's own HTTP + routing counters "
                            "(routed, fanouts, failovers, replica_errors, "
                            "events_relayed)"
                        ),
                    },
                    "ring": {
                        "type": "object",
                        "required": ["nodes", "vnodes"],
                        "properties": {
                            "nodes": {
                                "type": "array",
                                "items": {"type": "string"},
                            },
                            "vnodes": {"type": "integer"},
                            "sticky_handles": {"type": "integer"},
                        },
                    },
                },
            },
            "Error": {
                "type": "object",
                "required": ["error"],
                "properties": {
                    "error": {
                        "type": "object",
                        "required": ["status", "message"],
                        "properties": {
                            "status": {"type": "integer"},
                            "message": {"type": "string"},
                        },
                    }
                },
            },
        }
    },
}

# ----------------------------------------------------------------------
# YAML rendering (deterministic; the repo takes no YAML dependency)
# ----------------------------------------------------------------------
_BARE_KEY = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")

_HEADER = (
    "# Generated from repro.server.openapi.SPEC — do not edit by hand.\n"
    "# Regenerate: PYTHONPATH=src python -m repro.server.openapi docs/openapi.yaml\n"
)


def _scalar(value) -> str:
    """One YAML scalar; strings are JSON-quoted (valid YAML double-quote)."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return json.dumps(str(value))


def _key(name) -> str:
    name = str(name)
    # All-digit keys (status codes) must be quoted or YAML reads ints.
    if name.isdigit() or not _BARE_KEY.match(name):
        return json.dumps(name)
    return name


def _emit(value, indent: int, lines: "list[str]") -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            lines[-1] += " {}"
            return
        for k, v in value.items():
            lines.append(f"{pad}{_key(k)}:")
            if isinstance(v, (dict, list)):
                _emit(v, indent + 1, lines)
            else:
                lines[-1] += f" {_scalar(v)}"
    elif isinstance(value, list):
        if not value:
            lines[-1] += " []"
            return
        for item in value:
            lines.append(f"{pad}-")
            if isinstance(item, (dict, list)):
                # Nest the structure under the dash marker.
                sub: "list[str]" = [lines[-1]]
                _emit(item, indent + 1, sub)
                if len(sub) > 1 and not sub[0].endswith((" {}", " []")):
                    # Fold the first child onto the dash line.
                    first = sub[1].strip()
                    sub[1] = f"{pad}- {first}"
                    del sub[0]
                lines[-1:] = sub
            else:
                lines[-1] += f" {_scalar(item)}"
    else:  # pragma: no cover - callers always pass containers
        lines.append(f"{pad}{_scalar(value)}")


def spec_yaml(spec: "dict | None" = None) -> str:
    """Render :data:`SPEC` (or another document) as deterministic YAML."""
    lines: "list[str]" = []
    _emit(spec if spec is not None else SPEC, 0, lines)
    return _HEADER + "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Schema validation (the JSON-Schema subset the spec uses)
# ----------------------------------------------------------------------
def _resolve(schema: dict, root: dict) -> dict:
    ref = schema.get("$ref")
    if ref is None:
        return schema
    node = root
    for part in ref.lstrip("#/").split("/"):
        node = node[part]
    return node


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(instance, type_name: str) -> bool:
    if type_name == "number":
        return isinstance(instance, (int, float)) and not isinstance(instance, bool)
    if type_name == "integer":
        return isinstance(instance, int) and not isinstance(instance, bool)
    return isinstance(instance, _TYPES[type_name])


def validate(instance, schema: dict, *, root: "dict | None" = None,
             path: str = "$") -> "list[str]":
    """Check ``instance`` against the spec's JSON-Schema subset.

    Supports ``$ref`` into components, ``type`` (including type lists),
    ``properties``/``required``, ``items``/``minItems``/``maxItems``,
    ``enum``, ``minimum``/``maximum``.  Returns a list of human-readable
    violations — empty means valid.  This is what lets the test suite (and
    CI's docs job) validate live HTTP responses against
    ``docs/openapi.yaml`` without a jsonschema dependency.
    """
    root = root if root is not None else SPEC
    schema = _resolve(schema, root)
    errors: "list[str]" = []
    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, t) for t in types):
            return [f"{path}: expected {declared}, got {type(instance).__name__}"]
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        for name, sub in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(
                    validate(instance[name], sub, root=root, path=f"{path}.{name}")
                )
    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            errors.append(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            errors.append(f"{path}: more than {schema['maxItems']} items")
        items = schema.get("items")
        if items:
            for i, element in enumerate(instance):
                errors.extend(
                    validate(element, items, root=root, path=f"{path}[{i}]")
                )
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            errors.append(f"{path}: {instance} below minimum {schema['minimum']}")
        if "maximum" in schema and instance > schema["maximum"]:
            errors.append(f"{path}: {instance} above maximum {schema['maximum']}")
    return errors


def main(argv: "list[str] | None" = None) -> int:
    """Write the rendered YAML to the given path (or stdout)."""
    import sys

    args = sys.argv[1:] if argv is None else argv
    text = spec_yaml()
    if args:
        with open(args[0], "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stderr.write(f"wrote {args[0]} ({len(text.splitlines())} lines)\n")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
