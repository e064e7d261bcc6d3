"""Serving heat maps over HTTP: the full client lifecycle, self-checked.

Starts the stdlib asyncio HTTP edge in-process (on an ephemeral port),
then walks the REST surface exactly as a map client would — register a
dataset, build by fingerprint (polling only a build the POST did not
see finish), batch-query,
fetch PNG tiles with ETag revalidation, apply a dynamic update batch,
and read the coalescing/cache counters — asserting every response along
the way.  The same flow is shown with ``curl`` in ``docs/http-api.md``.

Run::

    PYTHONPATH=src python examples/http_serving.py
"""

import json
import urllib.error
import urllib.request

import numpy as np

from repro.server import ThreadedHTTPServer


def get(url, headers=None):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read(), dict(resp.headers)


def post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def until_ready(base, kicked):
    """The handle of a build once it is ready.  A build that finishes
    within the server's short wait answers ready on its POST; a longer
    one answers 202, and each poll of it waits again on the server, so
    polls follow one another at once."""
    state = kicked
    for _ in range(600):
        if state["status"] == "ready":
            return state["handle"]
        assert state["status"] == "building", state
        _status, body, _headers = get(f"{base}/build/{state['handle']}")
        state = json.loads(body)
    raise AssertionError("build did not finish")


def main():
    rng = np.random.default_rng(42)
    clients = rng.random((400, 2))
    facilities = rng.random((60, 2))

    with ThreadedHTTPServer(tile_size=64, max_tiles=512) as server:
        base = server.url
        print(f"serving on {base}")

        status, body, _ = get(base + "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        print("healthz: ok")

        # -- dataset registration (content-addressed) -------------------
        status, ds = post(base + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        assert status == 201, status
        status2, ds2 = post(base + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        assert status2 == 200 and ds2["dataset"] == ds["dataset"]
        print(f"dataset {ds['dataset']}: {ds['n_clients']} clients, "
              f"{ds['n_facilities']} facilities (re-post was idempotent)")

        # -- build by fingerprint: ready on the POST, or 202 + poll -----
        status, kicked = post(base + "/build", {
            "dataset": ds["dataset"], "metric": "l2",
        })
        assert status in (200, 202)
        handle = until_ready(base, kicked)
        print(f"build answered {kicked['status']} on the POST")
        status, again = post(base + "/build", {
            "dataset": ds["dataset"], "metric": "l2",
        })
        assert status == 200 and again["status"] == "ready"
        print(f"build {handle[:12]}...: ready (identical re-request hit)")

        # -- batch queries ---------------------------------------------
        probes = rng.random((5000, 2)).tolist()
        _status, answer = post(base + f"/query/{handle}", {"points": probes})
        assert answer["n"] == 5000
        print(f"heat query: {answer['n']} probes, "
              f"max heat {max(answer['heats']):g}")
        _status, answer = post(base + f"/query/{handle}", {
            "kind": "top-k", "k": 5,
        })
        print(f"top-5 heats: {answer['heats']}")

        # -- tiles with ETag revalidation ------------------------------
        tile_url = base + f"/tiles/{handle}/2/1/2.png"
        _status, png, headers = get(tile_url)
        assert png.startswith(b"\x89PNG\r\n\x1a\n")
        etag = headers["ETag"]
        try:
            get(tile_url, headers={"If-None-Match": etag})
            raise AssertionError("expected 304")
        except urllib.error.HTTPError as exc:
            assert exc.code == 304
        print(f"tile 2/1/2: {len(png)} bytes PNG, revalidation -> 304")

        # -- dynamic updates: lazy, sweep-free rebuilds -----------------
        _status, kicked = post(base + "/build", {
            "dataset": ds["dataset"], "dynamic": True,
        })
        dyn_handle = until_ready(base, kicked)
        _status, before, _ = get(base + f"/tiles/{dyn_handle}/0/0/0.png")
        _status, upd = post(base + f"/update/{dyn_handle}", {
            "updates": [
                {"op": "move_client", "handle": 0, "x": 0.95, "y": 0.95},
                {"op": "add_client", "x": 0.05, "y": 0.05},
            ],
        })
        assert upd["applied"] == 2 and upd["results"][1] is not None
        _status, answer = post(base + f"/query/{dyn_handle}", {
            "kind": "rnn", "points": [[0.95, 0.95]],
        })
        assert 0 in answer["rnn"][0], "moved client must appear in its RNN set"
        print(f"dynamic {dyn_handle}: applied {upd['applied']} updates "
              f"(new client handle {upd['results'][1]}), rebuild was lazy")

        # -- observability ---------------------------------------------
        _status, body, _ = get(base + "/stats")
        stats = json.loads(body)
        svc = stats["service"]
        print(f"stats: builds={svc['builds']} tile_renders={svc['tile_renders']} "
              f"tile_cache_hits={svc['tile_cache_hits']} "
              f"not_modified={stats['http']['not_modified']}")
        assert svc["builds"] >= 1 and stats["http"]["not_modified"] >= 1

    print("http serving example: all assertions passed")


if __name__ == "__main__":
    main()
