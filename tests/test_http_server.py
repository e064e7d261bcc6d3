"""The HTTP serving edge, end to end over real sockets.

Covers the tentpole guarantees:

* golden wire formats — tile PNG bytes are a deterministic function of the
  build inputs (byte-stable across fetches and equal to an independently
  rendered PNG of the synchronous service's grid), JSON responses validate
  against the schemas in ``docs/openapi.yaml``;
* coalescing through HTTP — a cold tile requested by 8 concurrent clients
  renders exactly once (``coalesced_tiles == 7`` observable via
  ``/stats``);
* cancellation propagation — a client that disconnects mid-request gets
  its handler task cancelled without killing the server or a shared
  render;
* protocol behavior — ETag/304 revalidation, keep-alive, error mapping
  (404/405/400/409/413).
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.render.png import decode_png, encode_png
from repro.errors import InvalidInputError
from repro.server import HTTPError, Router, ThreadedHTTPServer
from repro.server.openapi import SPEC, validate
from repro.server.wire import (
    decode_points,
    decode_updates,
    handle_vmax,
    render_tile_png,
)
from repro.service import HeatMapService

N_CLIENTS, N_FACILITIES, SEED = 90, 14, 7
TILE_SIZE = 32


def _instance():
    rng = np.random.default_rng(SEED)
    return rng.random((N_CLIENTS, 2)), rng.random((N_FACILITIES, 2))


def _get(url, headers=None):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read(), dict(resp.headers)


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post_with_headers(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read()), dict(resp.headers)


def _poll_ready(base, handle, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        _status, body, _ = _get(f"{base}/build/{handle}")
        state = json.loads(body)
        if state["status"] != "building":
            return state
        time.sleep(0.02)
    raise AssertionError(f"build {handle} did not finish")


@pytest.fixture(scope="module")
def server():
    with ThreadedHTTPServer(tile_size=TILE_SIZE, max_tiles=1024) as srv:
        yield srv


@pytest.fixture(scope="module")
def handle(server):
    """A built static handle over the module's fixed instance."""
    clients, facilities = _instance()
    _s, ds = _post(server.url + "/datasets", {
        "clients": clients.tolist(), "facilities": facilities.tolist(),
    })
    status, body = _post(server.url + "/build", {
        "dataset": ds["dataset"], "metric": "l2",
    })
    assert status in (200, 202)
    state = _poll_ready(server.url, body["handle"])
    assert state["status"] == "ready"
    return body["handle"]


# ----------------------------------------------------------------------
# Unit layers: router, PNG codec, request decoding
# ----------------------------------------------------------------------
def test_router_patterns_and_conversion():
    router = Router()
    router.add("GET", "/tiles/{handle}/{z:int}/{tx:int}/{ty:int}.png", "tile")
    router.add("POST", "/query/{handle}", "query")
    handler, params = router.match("GET", "/tiles/abc/2/1/3.png")
    assert handler == "tile"
    assert params == {"handle": "abc", "z": 2, "tx": 1, "ty": 3}
    assert params["z"] == 2 and isinstance(params["z"], int)
    with pytest.raises(HTTPError) as exc:
        router.match("GET", "/query/abc")
    assert exc.value.status == 405
    assert exc.value.headers["Allow"] == "POST"
    with pytest.raises(HTTPError) as exc:
        router.match("GET", "/tiles/abc/x/1/3.png")
    assert exc.value.status == 404
    assert [r.openapi_path for r in router.routes()] == [
        "/tiles/{handle}/{z}/{tx}/{ty}.png", "/query/{handle}",
    ]


def test_png_round_trip_gray_and_rgb():
    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, (17, 23), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(gray)), gray)
    rgb = rng.integers(0, 256, (9, 5, 3), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(rgb)), rgb)
    # Deterministic bytes for identical input.
    assert encode_png(rgb) == encode_png(rgb.copy())
    with pytest.raises(InvalidInputError):
        encode_png(gray.astype(float))
    with pytest.raises(InvalidInputError):
        decode_png(b"not a png")


def test_decode_points_rejects_bad_batches():
    good = decode_points({"points": [[0.1, 0.2], [1, 2]]}, max_points=10)
    assert good.shape == (2, 2)
    for bad in (
        {"points": []},
        {"points": "nope"},
        {"points": [[1, 2, 3]]},
        {"points": [[1, float("nan")]]},
        {"nope": 1},
    ):
        with pytest.raises(HTTPError) as exc:
            decode_points(bad, max_points=10)
        assert exc.value.status == 400
    with pytest.raises(HTTPError) as exc:
        decode_points({"points": [[0, 0]] * 11}, max_points=10)
    assert exc.value.status == 413


def test_decode_updates_validates_ops():
    ops = decode_updates({"updates": [
        {"op": "add_client", "x": 0.5, "y": 0.5},
        {"op": "move_facility", "handle": 3, "x": 0.1, "y": 0.9},
    ]})
    assert ops[0] == ("add_client", {"x": 0.5, "y": 0.5})
    assert ops[1][1]["handle"] == 3
    for bad in (
        {"updates": []},
        {"updates": [{"op": "teleport", "x": 0, "y": 0}]},
        {"updates": [{"op": "move_client", "x": 0, "y": 0}]},  # no handle
        {"updates": [{"op": "add_client", "x": "a", "y": 0}]},
        # NaN coords would wedge the map on the next deferred rebuild.
        {"updates": [{"op": "add_client", "x": float("nan"), "y": 0}]},
        {"updates": [{"op": "move_client", "handle": 0, "x": 0,
                      "y": float("inf")}]},
    ):
        with pytest.raises(HTTPError) as exc:
            decode_updates(bad)
        assert exc.value.status == 400


# ----------------------------------------------------------------------
# Golden wire formats
# ----------------------------------------------------------------------
def test_tile_bytes_are_stable_and_match_sync_render(server, handle):
    url = f"{server.url}/tiles/{handle}/1/0/1.png"
    _s, png1, headers = _get(url)
    _s, png2, _ = _get(url)
    assert png1 == png2, "tile bytes must be deterministic"
    assert png1.startswith(b"\x89PNG\r\n\x1a\n")
    assert headers["Content-Type"] == "image/png"
    # Independently build the same instance through the synchronous
    # service and render the same tile: the wire bytes must agree.
    clients, facilities = _instance()
    sync = HeatMapService(tile_size=TILE_SIZE)
    sync_handle = sync.build(clients, facilities, metric="l2")
    assert sync_handle == handle, "fingerprint must be input-addressed"
    grid, _bounds = sync.tile(sync_handle, 1, 0, 1)
    vmax = handle_vmax(sync.result(sync_handle).max_heat)
    assert render_tile_png(grid, "heat", vmax) == png1
    # And the decoded image equals the colormapped grid.
    image = decode_png(png1)
    assert image.shape == (TILE_SIZE, TILE_SIZE, 3)


def test_tile_query_params_change_bytes(server, handle):
    _s, default_png, _ = _get(f"{server.url}/tiles/{handle}/0/0/0.png")
    _s, gray_png, _ = _get(f"{server.url}/tiles/{handle}/0/0/0.png?cmap=gray_dark")
    _s, small_png, _ = _get(f"{server.url}/tiles/{handle}/0/0/0.png?size=16")
    assert default_png != gray_png
    assert decode_png(gray_png).shape == (TILE_SIZE, TILE_SIZE)
    assert decode_png(small_png).shape[:2] == (16, 16)


def test_vmax_participates_in_etag(server, handle):
    """Strong ETags name exact bytes: different vmax, different ETag —
    a vmax=10 tag must never validate a vmax=20 representation."""
    _s, png10, h10 = _get(f"{server.url}/tiles/{handle}/0/0/0.png?vmax=10")
    _s, png20, h20 = _get(f"{server.url}/tiles/{handle}/0/0/0.png?vmax=20")
    assert h10["ETag"] != h20["ETag"]
    assert png10 != png20
    status, body, _ = _get(
        f"{server.url}/tiles/{handle}/0/0/0.png?vmax=20",
        headers={"If-None-Match": h10["ETag"]},
    )
    assert status == 200 and body == png20


def test_default_colour_scale_is_per_handle(server, handle):
    """Without ``vmax`` every tile is scaled by the handle's maximum heat,
    so a region straddling a tile seam gets one colour on both sides —
    even where the two tiles' own maxima differ."""
    clients, facilities = _instance()
    sync = HeatMapService(tile_size=TILE_SIZE)
    h = sync.build(clients, facilities, metric="l2")
    left, _ = sync.tile(h, 2, 0, 1)
    right, _ = sync.tile(h, 2, 1, 1)
    assert left.max() != right.max(), "per-tile scaling would differ here"
    # Rows whose pixel pair across the seam carries the same nonzero heat.
    rows = (left[:, -1] == right[:, 0]) & (left[:, -1] > 0)
    assert rows.any()
    # PNGs are top-down; flip back to raster rows (row 0 = bottom).
    base = f"{server.url}/tiles/{handle}/2"
    _s, png_l, h_l = _get(f"{base}/0/1.png")
    _s, png_r, _ = _get(f"{base}/1/1.png")
    img_l, img_r = decode_png(png_l)[::-1], decode_png(png_r)[::-1]
    np.testing.assert_array_equal(img_l[rows, -1], img_r[rows, 0])
    # The resolved scale names the bytes: it is the one in the ETag.
    assert f".v{handle_vmax(sync.result(h).max_heat)!r}." in h_l["ETag"]


def test_json_responses_validate_against_openapi(server, handle):
    schemas = SPEC["components"]["schemas"]
    _s, body, _ = _get(server.url + "/healthz")
    assert validate(json.loads(body), schemas["Health"]) == []
    _s, body, _ = _get(server.url + "/stats")
    assert validate(json.loads(body), schemas["Stats"]) == []
    _s, state = _post(server.url + "/query/" + handle, {
        "points": [[0.5, 0.5], [0.25, 0.75]],
    })
    assert validate(state, schemas["QueryResponse"]) == []
    assert state["n"] == 2 and len(state["heats"]) == 2
    _s, state = _post(server.url + "/query/" + handle, {
        "kind": "rnn", "points": [[0.5, 0.5]],
    })
    assert validate(state, schemas["QueryResponse"]) == []
    _s, body, _ = _get(f"{server.url}/build/{handle}")
    assert validate(json.loads(body), schemas["BuildStatus"]) == []


def test_query_answers_match_library(server, handle):
    clients, facilities = _instance()
    sync = HeatMapService()
    h = sync.build(clients, facilities, metric="l2")
    pts = np.random.default_rng(11).random((50, 2))
    _s, got = _post(server.url + "/query/" + handle, {"points": pts.tolist()})
    assert np.allclose(got["heats"], sync.heat_at_many(h, pts))
    _s, got = _post(server.url + "/query/" + handle, {
        "kind": "rnn", "points": pts[:10].tolist(),
    })
    assert got["rnn"] == [sorted(s) for s in sync.rnn_at_many(h, pts[:10])]
    _s, got = _post(server.url + "/query/" + handle, {"kind": "top-k", "k": 4})
    assert got["heats"] == sync.top_k_heats(h, 4)


# ----------------------------------------------------------------------
# Protocol behavior
# ----------------------------------------------------------------------
def test_etag_revalidation_304(server, handle):
    url = f"{server.url}/tiles/{handle}/1/1/1.png"
    _s, png, headers = _get(url)
    etag = headers["ETag"]
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(url, headers={"If-None-Match": etag})
    assert exc.value.code == 304
    assert exc.value.headers["ETag"] == etag
    # A different (stale) ETag still gets the full tile.
    status, body, _ = _get(url, headers={"If-None-Match": '"other"'})
    assert status == 200 and body == png


def test_head_serves_headers_without_body(server, handle):
    """``curl -sI`` (HEAD) must expose the ETag without transferring the
    tile — and that ETag must revalidate a subsequent conditional GET."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("HEAD", f"/tiles/{handle}/1/0/0.png")
        resp = conn.getresponse()
        body = resp.read()
        assert resp.status == 200
        assert body == b""
        assert int(resp.headers["Content-Length"]) > 0
        etag = resp.headers["ETag"]
        conn.request("GET", f"/tiles/{handle}/1/0/0.png",
                     headers={"If-None-Match": etag})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 304
    finally:
        conn.close()


def test_keep_alive_serves_multiple_requests_per_connection(server, handle):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        for _ in range(3):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
        conn.request("POST", f"/query/{handle}",
                     body=json.dumps({"points": [[0.5, 0.5]]}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 200
    finally:
        conn.close()


def test_error_mapping(server, handle):
    def status_of(fn):
        try:
            fn()
        except urllib.error.HTTPError as exc:
            payload = json.loads(exc.read() or b"{}")
            if payload:
                assert payload["error"]["status"] == exc.code
            return exc.code
        raise AssertionError("expected an HTTP error")

    base = server.url
    assert status_of(lambda: _get(base + "/no/such/route")) == 404
    assert status_of(lambda: _get(base + "/datasets")) == 405
    assert status_of(lambda: _post(base + "/query/unknown-handle",
                                   {"points": [[0, 0]]})) == 404
    assert status_of(lambda: _post(base + "/query/" + handle,
                                   {"kind": "sideways"})) == 400
    assert status_of(lambda: _post(base + "/build", {"dataset": "missing"})) == 404
    # Stringly-typed booleans must 400, never silently enable the flag.
    _s, ds = _post(base + "/datasets", {"clients": [[0.1, 0.2], [0.3, 0.4]]})
    assert status_of(lambda: _post(base + "/build", {
        "dataset": ds["dataset"], "dynamic": "false"})) == 400
    assert status_of(lambda: _post(base + "/build", {
        "dataset": ds["dataset"], "monochromatic": "false"})) == 400
    # d in [2, 64] is legal (approximate engines); d = 1 and d > 64 are not.
    assert status_of(lambda: _post(base + "/datasets",
                                   {"clients": [[1]]})) == 400
    assert status_of(lambda: _post(base + "/datasets",
                                   {"clients": [list(range(65))]})) == 400
    assert status_of(lambda: _post(base + "/update/" + handle,
                                   {"updates": [{"op": "add_client",
                                                 "x": 0, "y": 0}]})) == 409
    # Invalid tile addresses map to 400 (InvalidInputError).
    assert status_of(lambda: _get(
        f"{base}/tiles/{handle}/1/9/9.png")) == 400
    assert status_of(lambda: _get(
        f"{base}/tiles/{handle}/1/0/0.png?cmap=neon")) == 400
    # Malformed query parameters must never 500: non-finite vmax and
    # absurd zoom levels are client errors.
    assert status_of(lambda: _get(
        f"{base}/tiles/{handle}/1/0/0.png?vmax=nan")) == 400
    assert status_of(lambda: _get(
        f"{base}/tiles/{handle}/1/0/0.png?vmax=inf")) == 400
    assert status_of(lambda: _get(
        f"{base}/tiles/{handle}/99999/0/0.png")) == 400
    assert status_of(lambda: _get(
        f"{base}/tiles/{handle}/9999999999/0/0.png")) == 400


@pytest.mark.parametrize("k", [True, 2.9, "3"], ids=["true", "2.9", "string"])
@pytest.mark.parametrize("endpoint", ["build", "query"])
def test_k_must_be_a_json_integer(server, handle, endpoint, k):
    """``k`` is a JSON integer that is not a boolean: ``true``, ``2.9`` and
    ``"3"`` answer 400 instead of passing as 1, 2 and 3."""
    if endpoint == "build":
        _s, ds = _post(server.url + "/datasets", {"clients": [[0.1, 0.2], [0.3, 0.4]]})
        url, body = server.url + "/build", {"dataset": ds["dataset"], "k": k}
    else:
        url, body = f"{server.url}/query/{handle}", {"kind": "top-k", "k": k}
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(url, body)
    assert exc.value.code == 400
    assert "JSON integer" in json.loads(exc.value.read())["error"]["message"]


def test_payload_too_large_is_413():
    with ThreadedHTTPServer(max_body_bytes=256) as srv:
        big = {"clients": [[0.1, 0.2]] * 500}
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(srv.url + "/datasets", big)
        assert exc.value.code == 413


def test_update_batch_is_atomic(server):
    """A batch with a bad op at position i applies nothing at all."""
    clients, facilities = _instance()
    _s, ds = _post(server.url + "/datasets", {
        "clients": clients.tolist(), "facilities": facilities.tolist(),
    })
    _s, kicked = _post(server.url + "/build", {
        "dataset": ds["dataset"], "dynamic": True,
    })
    dyn_handle = kicked["handle"]
    _poll_ready(server.url, dyn_handle)
    dyn = server.app._dynamic[dyn_handle]
    n_before = dyn.assignment.n_clients
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(server.url + f"/update/{dyn_handle}", {"updates": [
            {"op": "add_client", "x": 0.5, "y": 0.5},
            {"op": "move_client", "handle": 999_999, "x": 0.1, "y": 0.1},
        ]})
    assert exc.value.code == 400
    payload = json.loads(exc.value.read())
    assert "update #1" in payload["error"]["message"]
    assert dyn.assignment.n_clients == n_before, \
        "the valid prefix must not have been applied"
    # The same batch without the bad op applies cleanly.
    _s, upd = _post(server.url + f"/update/{dyn_handle}", {"updates": [
        {"op": "add_client", "x": 0.5, "y": 0.5},
    ]})
    assert upd["applied"] == 1
    assert dyn.assignment.n_clients == n_before + 1


def test_partial_update_preserves_clean_tile_etags(server):
    """The warm-viewer contract: after a localized one-client move, clean
    tiles still revalidate 304; only the dirty tiles re-fetch as 200."""
    gx, gy = np.meshgrid(np.linspace(0.1, 0.9, 6), np.linspace(0.1, 0.9, 6))
    fx, fy = np.meshgrid(np.linspace(0.15, 0.85, 5), np.linspace(0.15, 0.85, 5))
    _s, ds = _post(server.url + "/datasets", {
        "clients": np.column_stack([gx.ravel(), gy.ravel()]).tolist(),
        "facilities": np.column_stack([fx.ravel(), fy.ravel()]).tolist(),
    })
    _s, kicked = _post(server.url + "/build", {
        "dataset": ds["dataset"], "dynamic": True, "metric": "linf",
    })
    handle = kicked["handle"]
    _poll_ready(server.url, handle)
    # Warm the whole level-2 pyramid and remember every strong ETag.
    etags = {}
    for tx in range(4):
        for ty in range(4):
            _s, _png, headers = _get(
                f"{server.url}/tiles/{handle}/2/{tx}/{ty}.png")
            etags[(tx, ty)] = headers["ETag"]
    # A viewer panning past the world edge asks for tiles that do not
    # exist: each is a 400 and must leave the next invalidation intact.
    for tx, ty in ((99, 99), (-1, 0), (0, 4)):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(f"{server.url}/tiles/{handle}/2/{tx}/{ty}.png")
        assert exc.value.code == 400
    _s, body, _ = _get(server.url + "/stats")
    renders_before = json.loads(body)["service"]["tile_renders"]
    # Nudge one interior client: the world bbox is unchanged, so the
    # invalidation is partial and stays far from the corners.
    _post(server.url + f"/update/{handle}", {"updates": [
        {"op": "move_client", "handle": 14, "x": 0.43, "y": 0.43},
    ]})
    statuses = {}
    for (tx, ty), etag in etags.items():
        try:
            status, _b, headers = _get(
                f"{server.url}/tiles/{handle}/2/{tx}/{ty}.png",
                headers={"If-None-Match": etag})
            assert status == 304 or headers["ETag"] != etag
        except urllib.error.HTTPError as exc:
            status = exc.code
        statuses[(tx, ty)] = status
    n200 = sum(1 for s in statuses.values() if s == 200)
    n304 = sum(1 for s in statuses.values() if s == 304)
    assert n200 + n304 == 16
    assert 1 <= n200 < 16, f"only tiles near the move may re-fetch: {statuses}"
    for corner in ((0, 0), (3, 3), (0, 3), (3, 0)):
        assert statuses[corner] == 304, f"corner {corner} must stay clean"
    # The encoded-PNG cache was purged in lockstep with the tile drop —
    # the dirty tiles' stale bytes can never be served again — and each
    # re-fetched dirty tile rendered afresh.
    _s, body, _ = _get(server.url + "/stats")
    stats = json.loads(body)
    assert stats["tiles"]["png_purged"] >= n200
    assert stats["service"]["tile_renders"] == renders_before + n200


def test_dynamic_serving_never_sweeps(monkeypatch):
    """A dynamic handle serves tiles, updates and heat/RNN/top-k queries
    from its NN-circle surface: no sweep runs throughout.  ``rebuild`` is
    an ignored build field, so any value is accepted."""
    from repro.core.surface import NNCircleSurface
    from repro.nn.rnn import NaiveRNN

    def no_sweep(*_args, **_kwargs):
        raise AssertionError("a serving request swept")

    monkeypatch.setattr(NNCircleSurface, "sweep", no_sweep)
    rng = np.random.default_rng(SEED + 6)
    clients, facilities = rng.random((60, 2)), rng.random((10, 2))
    probes = rng.random((200, 2))
    with ThreadedHTTPServer(tile_size=16) as srv:
        def fetch_tiles():
            for tx in range(2):
                for ty in range(2):
                    assert _get(f"{srv.url}/tiles/{handle}/1/{tx}/{ty}.png")[0] == 200

        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        status, kicked = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "dynamic": True, "rebuild": "sometimes",
        })
        assert (status, kicked["status"]) == (200, "ready")
        handle = kicked["handle"]
        fetch_tiles()
        for step in range(3):
            x, y = rng.random(2)
            clients[step] = (x, y)
            _post(f"{srv.url}/update/{handle}", {"updates": [
                {"op": "move_client", "handle": step, "x": x, "y": y},
            ]})
            fetch_tiles()
            _s, heat = _post(f"{srv.url}/query/{handle}", {"points": probes.tolist()})
            _s, rnn = _post(f"{srv.url}/query/{handle}", {
                "kind": "rnn", "points": probes.tolist(),
            })
            _s, top = _post(f"{srv.url}/query/{handle}", {"kind": "top-k", "k": 1})
            want = NaiveRNN(clients, facilities, metric="l2").query_many(probes)
            assert heat["heats"] == [len(s) for s in want]
            assert rnn["rnn"] == [sorted(s) for s in want]
            assert top["heats"][0] >= max(heat["heats"])


def test_default_tile_fetch_is_the_real_render():
    """Every tile response is the real render: with the root warm, each
    cold z=1 and z=2 tile answers 200 under a strong ETag with the same
    bytes a fresh server renders for it.  ``?placeholder=0``, which
    older clients send, is ignored like any other unknown parameter."""
    clients, facilities = _instance()
    dataset = {"clients": clients.tolist(), "facilities": facilities.tolist()}
    tiles = [(z, tx, ty) for z in (1, 2)
             for tx in range(2 ** z) for ty in range(2 ** z)]

    def build(url):
        _s, ds = _post(url + "/datasets", dataset)
        _s, kicked = _post(url + "/build", {"dataset": ds["dataset"]})
        _poll_ready(url, kicked["handle"])
        return f"{url}/tiles/{kicked['handle']}"

    # The reference: each tile fetched cold, finest level first, so no
    # tile is ever requested while a coarser one over it is cached.
    reference = {}
    with ThreadedHTTPServer(tile_size=16) as fresh:
        base = build(fresh.url)
        for z, tx, ty in reversed(tiles):
            _s, png, headers = _get(f"{base}/{z}/{tx}/{ty}.png")
            reference[(z, tx, ty)] = png, headers["ETag"]

    with ThreadedHTTPServer(tile_size=16) as srv:
        base = build(srv.url)
        status, _png, _h = _get(base + "/0/0/0.png")
        assert status == 200
        for z, tx, ty in tiles:
            url = f"{base}/{z}/{tx}/{ty}.png"
            status, png, headers = _get(url)
            assert status == 200
            assert "X-Tile-Placeholder" not in headers
            etag = headers["ETag"]
            assert etag.startswith('"') and etag.endswith('"')
            assert (png, etag) == reference[(z, tx, ty)], f"{z}/{tx}/{ty}"
            _s, opted, h_opted = _get(url + "?placeholder=0")
            assert (opted, h_opted["ETag"]) == (png, etag)
        _s, body, _ = _get(srv.url + "/stats")
        tiles_block = json.loads(body)["tiles"]
        assert set(tiles_block) == {"png_purged", "png_cache_entries"}


def test_build_body_cannot_set_worker_processes():
    """``workers`` is an ignored build field: a request carrying one
    sweeps in-process, so no client can make the server start processes."""
    import multiprocessing

    rng = np.random.default_rng(SEED + 5)
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": rng.random((60, 2)).tolist(),
            "facilities": rng.random((10, 2)).tolist(),
        })
        _s, kicked = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "workers": 3,
        })
        handle = kicked["handle"]
        assert _poll_ready(srv.url, handle)["status"] == "ready"
        _s, got = _post(f"{srv.url}/query/{handle}", {"kind": "top-k", "k": 3})
        assert len(got["heats"]) == 3
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", [
    "l2-batched", "linf-batched", "l2-parallel", "linf-parallel",
])
def test_retired_engine_names_answer_400(server, name):
    rng = np.random.default_rng(SEED + 6)
    _s, ds = _post(server.url + "/datasets", {
        "clients": rng.random((20, 2)).tolist(),
        "facilities": rng.random((4, 2)).tolist(),
    })
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(server.url + "/build", {"dataset": ds["dataset"], "algorithm": name})
    assert exc.value.code == 400


def test_evicted_build_reports_evicted_not_ready():
    """After LRU eviction, polling must not claim 'ready' while queries 404."""
    rng = np.random.default_rng(21)
    with ThreadedHTTPServer(max_results=1, tile_size=16) as srv:
        handles, datasets = [], []
        for i in range(2):
            _s, ds = _post(srv.url + "/datasets", {
                "clients": rng.random((40 + i, 2)).tolist(),
                "facilities": rng.random((8, 2)).tolist(),
            })
            _s, kicked = _post(srv.url + "/build", {"dataset": ds["dataset"]})
            _poll_ready(srv.url, kicked["handle"])
            handles.append(kicked["handle"])
            datasets.append(ds["dataset"])
        # The second build evicted the first (max_results=1).
        _status, body, _ = _get(f"{srv.url}/build/{handles[0]}")
        assert json.loads(body)["status"] == "evicted"
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(srv.url + f"/query/{handles[0]}", {"points": [[0.5, 0.5]]})
        assert exc.value.code == 404
        # Re-POSTing the identical build restores the very same handle.
        _s, again = _post(srv.url + "/build", {"dataset": datasets[0]})
        assert again["handle"] == handles[0]
        state = _poll_ready(srv.url, handles[0])
        assert state["status"] == "ready"
        _s, answer = _post(srv.url + f"/query/{handles[0]}",
                           {"points": [[0.5, 0.5]]})
        assert answer["n"] == 1


def test_dataset_registry_is_lru_bounded():
    rng = np.random.default_rng(33)
    with ThreadedHTTPServer(max_datasets=2, tile_size=16) as srv:
        ids = []
        for i in range(3):
            _s, ds = _post(srv.url + "/datasets", {
                "clients": rng.random((10 + i, 2)).tolist(),
            })
            ids.append(ds["dataset"])
        # The first dataset was evicted by the third.
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(srv.url + "/build", {"dataset": ids[0]})
        assert exc.value.code == 404
        assert "evicted" in json.loads(exc.value.read())["error"]["message"]
        # The newest two still build fine (monochromatic: they hold
        # clients only, so a bichromatic build fails within the wait).
        for dataset in ids[1:]:
            _s, kicked = _post(srv.url + "/build", {
                "dataset": dataset, "monochromatic": True,
            })
            assert kicked["status"] == "ready"


def test_update_batch_simulates_adds_during_validation(server):
    """add_facility before remove_facility of the only old facility is a
    legal sequential batch and must not be rejected by pre-validation."""
    clients, _facilities = _instance()
    _s, ds = _post(server.url + "/datasets", {
        "clients": clients.tolist(), "facilities": [[0.5, 0.5]],
    })
    _s, kicked = _post(server.url + "/build", {
        "dataset": ds["dataset"], "dynamic": True,
    })
    dyn_handle = kicked["handle"]
    _poll_ready(server.url, dyn_handle)
    dyn = server.app._dynamic[dyn_handle]
    only = dyn.assignment.facility_handles()[0]
    _s, upd = _post(server.url + f"/update/{dyn_handle}", {"updates": [
        {"op": "add_facility", "x": 0.2, "y": 0.8},
        {"op": "remove_facility", "handle": only},
    ]})
    assert upd["applied"] == 2
    assert dyn.assignment.n_facilities == 1
    # And removing the now-only facility is still rejected with nothing applied.
    remaining = dyn.assignment.facility_handles()[0]
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(server.url + f"/update/{dyn_handle}", {"updates": [
            {"op": "remove_facility", "handle": remaining},
        ]})
    assert exc.value.code == 400
    assert dyn.assignment.n_facilities == 1


def test_dynamic_registry_is_bounded():
    """Past max_dynamic, the oldest dynamic map is invalidated (evicted)."""
    rng = np.random.default_rng(55)
    with ThreadedHTTPServer(max_dynamic=1, tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": rng.random((30, 2)).tolist(),
            "facilities": rng.random((6, 2)).tolist(),
        })
        dyn_handles = []
        for _ in range(2):
            _s, kicked = _post(srv.url + "/build", {
                "dataset": ds["dataset"], "dynamic": True,
            })
            _poll_ready(srv.url, kicked["handle"])
            dyn_handles.append(kicked["handle"])
        _status, body, _ = _get(f"{srv.url}/build/{dyn_handles[0]}")
        assert json.loads(body)["status"] == "evicted"
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(srv.url + f"/update/{dyn_handles[0]}",
                  {"updates": [{"op": "add_client", "x": 0.5, "y": 0.5}]})
        assert exc.value.code == 404
        # The survivor still works.
        _s, upd = _post(srv.url + f"/update/{dyn_handles[1]}",
                        {"updates": [{"op": "add_client", "x": 0.5, "y": 0.5}]})
        assert upd["applied"] == 1


def test_rst_disconnect_cancels_request():
    """An abrupt RST close (not a clean FIN) must also fire the
    cancellation path rather than erroring the connection handler."""
    import struct

    clients, facilities = _instance()
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        _s, kicked = _post(srv.url + "/build", {"dataset": ds["dataset"]})
        handle = kicked["handle"]
        _poll_ready(srv.url, handle)
        started = threading.Event()
        release = threading.Event()
        srv.app.service.service.on_tile_render = \
            lambda key: (started.set(), release.wait(15))
        try:
            sock = socket.create_connection((srv.host, srv.port), timeout=10)
            sock.sendall(
                f"GET /tiles/{handle}/2/0/1.png HTTP/1.1\r\n"
                f"Host: {srv.host}\r\n\r\n".encode()
            )
            assert started.wait(timeout=15)
            # SO_LINGER with zero timeout turns close() into a TCP RST.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            deadline = time.time() + 10
            while srv.app.http_stats.cancelled_requests < 1:
                assert time.time() < deadline, "RST never cancelled the request"
                time.sleep(0.01)
        finally:
            release.set()
            srv.app.service.service.on_tile_render = None
        status, _body, _ = _get(srv.url + "/healthz")
        assert status == 200


def test_build_failure_is_reported_via_poll(server):
    clients, facilities = _instance()
    _s, ds = _post(server.url + "/datasets", {
        "clients": clients.tolist(), "facilities": facilities.tolist(),
    })
    # 'baseline' cannot run under L2: the build task fails, the poll says so.
    _s, kicked = _post(server.url + "/build", {
        "dataset": ds["dataset"], "metric": "l2", "algorithm": "baseline",
    })
    state = _poll_ready(server.url, kicked["handle"])
    assert state["status"] == "failed"
    assert "L2" in state["error"] or "l2" in state["error"]


@pytest.mark.parametrize("build", [
    {"metric": "l2"}, {"metric": "l1"}, {"metric": "linf"}, {"dynamic": True},
], ids=["l2", "l1", "linf", "dynamic"])
def test_small_build_answers_ready_on_the_post(server, build):
    """A build that finishes within the wait answers 200 ready on its own
    POST, and its tile is served straight after, with no poll."""
    rng = np.random.default_rng(SEED + 11)
    _s, ds = _post(server.url + "/datasets", {
        "clients": rng.random((40, 2)).tolist(),
        "facilities": rng.random((8, 2)).tolist(),
    })
    status, kicked = _post(server.url + "/build", dict(build, dataset=ds["dataset"]))
    assert (status, kicked["status"]) == (200, "ready")
    status, png, _h = _get(f"{server.url}/tiles/{kicked['handle']}/0/0/0.png")
    assert status == 200 and decode_png(png).shape == (TILE_SIZE, TILE_SIZE, 3)


def test_build_held_past_the_wait_answers_202_then_ready():
    """A build still running when the wait ends answers 202 with its poll
    URL in ``Location``; a poll of it waits and answers 202 as well, and
    once the build is let go a poll answers ready."""
    clients, facilities = _instance()
    release = threading.Event()
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        srv.app.service.service.on_build = lambda _handle: release.wait(15)
        try:
            status, kicked, headers = _post_with_headers(
                srv.url + "/build", {"dataset": ds["dataset"]}
            )
            handle = kicked["handle"]
            assert (status, kicked["status"]) == (202, "building")
            assert headers["Location"] == kicked["poll"] == f"/build/{handle}"
            status, body, headers = _get(srv.url + kicked["poll"])
            assert status == 202 and json.loads(body)["status"] == "building"
            assert headers["Location"] == f"/build/{handle}"
        finally:
            release.set()
        assert _poll_ready(srv.url, handle)["status"] == "ready"
        assert _get(f"{srv.url}/tiles/{handle}/0/0/0.png")[0] == 200


def test_hung_up_build_post_leaves_the_build_running():
    """A client that hangs up while its POST waits cancels the request,
    not the build: a later poll answers ready."""
    clients, facilities = _instance()
    started, release = threading.Event(), threading.Event()
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        srv.app.service.service.on_build = \
            lambda _handle: (started.set(), release.wait(15))
        try:
            body = json.dumps({"dataset": ds["dataset"]}).encode()
            sock = socket.create_connection((srv.host, srv.port), timeout=10)
            sock.sendall(
                f"POST /build HTTP/1.1\r\nHost: {srv.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            assert started.wait(timeout=15)
            sock.close()
            deadline = time.time() + 10
            while srv.app.http_stats.cancelled_requests < 1:
                assert time.time() < deadline, "the hang-up never cancelled the POST"
                time.sleep(0.01)
        finally:
            release.set()
        [handle] = srv.app._builds
        assert _poll_ready(srv.url, handle)["status"] == "ready"


def test_build_failure_answers_on_the_post(server):
    """A build that fails within the wait answers the failed body a poll
    gives."""
    rng = np.random.default_rng(SEED + 12)
    _s, ds = _post(server.url + "/datasets", {
        "clients": rng.random((30, 2)).tolist(),
        "facilities": rng.random((6, 2)).tolist(),
    })
    status, kicked = _post(server.url + "/build", {
        "dataset": ds["dataset"], "metric": "l2", "algorithm": "baseline",
    })
    assert (status, kicked["status"]) == (200, "failed")
    _s, body, _h = _get(f"{server.url}/build/{kicked['handle']}")
    assert json.loads(body) == kicked


# ----------------------------------------------------------------------
# Coalescing and cancellation through the wire
# ----------------------------------------------------------------------
def test_eight_concurrent_cold_fetches_render_once():
    """The acceptance gate: 8 clients, 1 render, coalesced_tiles == 7."""
    clients, facilities = _instance()
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        _s, kicked = _post(srv.url + "/build", {"dataset": ds["dataset"]})
        handle = kicked["handle"]
        _poll_ready(srv.url, handle)

        stats = srv.app.service.stats
        renders = []

        def gate_render(key):
            renders.append(key)
            # Hold the one render until every other client has attached to
            # the in-flight future (or a generous deadline passes).
            deadline = time.time() + 10
            while stats.coalesced_tiles < 7 and time.time() < deadline:
                time.sleep(0.002)

        srv.app.service.service.on_tile_render = gate_render
        try:
            url = f"{srv.url}/tiles/{handle}/2/1/2.png"
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _i: _get(url), range(8)))
        finally:
            srv.app.service.service.on_tile_render = None
        bodies = {body for _s, body, _h in results}
        assert len(bodies) == 1, "all 8 clients must receive identical bytes"
        assert len(renders) == 1, "a cold tile must render exactly once"
        _s, body, _ = _get(srv.url + "/stats")
        snapshot = json.loads(body)["service"]
        assert snapshot["coalesced_tiles"] == 7
        assert snapshot["tile_renders"] == 1


def test_client_disconnect_cancels_request_without_killing_server():
    """Dropping the socket mid-render cancels the handler task; the server
    stays healthy and the tile remains servable afterwards."""
    clients, facilities = _instance()
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        _s, kicked = _post(srv.url + "/build", {"dataset": ds["dataset"]})
        handle = kicked["handle"]
        _poll_ready(srv.url, handle)

        started = threading.Event()
        release = threading.Event()

        def gate_render(key):
            started.set()
            release.wait(timeout=15)

        srv.app.service.service.on_tile_render = gate_render
        try:
            sock = socket.create_connection((srv.host, srv.port), timeout=10)
            sock.sendall(
                f"GET /tiles/{handle}/2/3/3.png HTTP/1.1\r\n"
                f"Host: {srv.host}\r\n\r\n".encode()
            )
            assert started.wait(timeout=15), "render never started"
            sock.close()  # the client walks away mid-render
            deadline = time.time() + 10
            while srv.app.http_stats.cancelled_requests < 1:
                assert time.time() < deadline, "disconnect never cancelled"
                time.sleep(0.01)
        finally:
            release.set()
            srv.app.service.service.on_tile_render = None
        # The server survived and serves the same tile to the next client.
        status, png, _ = _get(f"{srv.url}/tiles/{handle}/2/3/3.png")
        assert status == 200 and png.startswith(b"\x89PNG")
        _s, body, _ = _get(srv.url + "/healthz")
        assert json.loads(body)["status"] == "ok"
