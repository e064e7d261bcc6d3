"""Benchmark: the HTTP tile/query edge under concurrent simulated viewers.

Starts the real server (stdlib asyncio, ephemeral port) in-process and
drives it over real sockets with N keep-alive viewer connections:

1. **build storm** — every viewer POSTs the identical build at once; the
   edge deduplicates onto one background build (one kick, N-1 joiners,
   each POST waiting briefly for it) and everyone polls to readiness;
2. **cold pan** — every viewer fetches the full tile level in shuffled
   order; concurrent cold requests for one tile coalesce onto a single
   render (the coalescing hit rate is the headline number);
3. **probe batches** — every viewer POSTs a vectorized heat query;
4. **revalidation pass** — every viewer re-fetches its tiles with
   ``If-None-Match`` and must get 304s (free tiles);
5. **dynamic update** — a fresh dynamic handle over a grid world: a
   cold pan of real renders (time-to-first-tile measured against a hard
   budget), then one localized client move, after which clean tiles
   must keep revalidating 304, each dirty tile must refresh with exactly
   one render, and every refreshed tile must be byte-identical to a
   from-scratch build of the moved world.

Latency percentiles come from the shared ``repro.service.latency``
module, so the numbers are directly comparable with
``bench_async_serving.py`` and a live deployment's ``/stats``.

Self-checks (non-zero exit on failure): exactly one sweep for the one
fingerprint, renders <= distinct tiles, all viewers receive identical
tile bytes, every revalidation hits 304, every phase-5 cold tile carries
a strong ETag and no marker header, cold-tile TTFT under budget, clean
tiles stay 304 after a partial update, renders match the dirty-tile
count, and the refreshed tiles are byte-identical to a from-scratch
render. ``--tile-p99-budget-ms`` /
``--query-p99-budget-ms`` turn the latency percentiles into gates too.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_http_serving.py
    PYTHONPATH=src python benchmarks/bench_http_serving.py \\
        --smoke --json BENCH_http.json                         # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.server import ThreadedHTTPServer
from repro.service.latency import LatencyRecorder, format_percentiles


def _request(conn, method, path, payload=None, headers=None):
    """One request on a persistent connection; returns (status, body, headers)."""
    body = None
    send_headers = dict(headers or {})
    if payload is not None:
        body = json.dumps(payload).encode()
        send_headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=send_headers)
    resp = conn.getresponse()
    data = resp.read()
    return resp.status, data, dict(resp.getheaders())


def _poll_ready(conn, handle, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, body, _ = _request(conn, "GET", f"/build/{handle}")
        state = json.loads(body)
        if state["status"] == "ready":
            return
        if state["status"] == "failed":
            raise RuntimeError(f"build failed: {state.get('error')}")
        time.sleep(0.02)
    raise RuntimeError("build did not become ready in time")


def _grid_instance():
    """A deterministic grid world whose bbox survives interior moves, so
    a one-client nudge invalidates partially instead of fully."""
    gx, gy = np.meshgrid(np.linspace(0.1, 0.9, 6), np.linspace(0.1, 0.9, 6))
    fx, fy = np.meshgrid(np.linspace(0.15, 0.85, 5), np.linspace(0.15, 0.85, 5))
    return (
        np.column_stack([gx.ravel(), gy.ravel()]),
        np.column_stack([fx.ravel(), fy.ravel()]),
    )


def _dynamic_update_phase(server, recorder, checks, args) -> dict:
    """Phase 5 — a cold pan + dirty-tile re-renders under one localized
    dynamic update (see the module docstring)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    try:
        clients, facilities = _grid_instance()
        _s, body, _ = _request(conn, "POST", "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        dataset = json.loads(body)["dataset"]
        _s, kicked, _ = _request(conn, "POST", "/build", {
            "dataset": dataset, "dynamic": True, "metric": "linf",
        })
        handle = json.loads(kicked)["handle"]
        _poll_ready(conn, handle)

        z = args.tile_zoom
        n = 1 << z
        addresses = [(tx, ty) for ty in range(n) for tx in range(n)]

        # Cold pan at level z: every tile is the real render, answered
        # under a strong ETag with no marker header.
        ttfts = []
        etags, tiles = {}, {}
        all_strong = True
        for tx, ty in addresses:
            path = f"/tiles/{handle}/{z}/{tx}/{ty}.png"
            t0 = time.perf_counter()
            with recorder.timing("cold_tile"):
                _s, png, headers = _request(conn, "GET", path)
            ttfts.append((time.perf_counter() - t0) * 1e3)
            etags[(tx, ty)] = headers["ETag"]
            tiles[(tx, ty)] = png
            all_strong &= (
                "X-Tile-Placeholder" not in headers
                and headers["ETag"].startswith('"')
            )
        checks["cold_tiles_strong_etag"] = all_strong
        checks["cold_tile_ttft_under_budget"] = (
            float(np.percentile(ttfts, 99)) < args.cold_tile_ttft_budget_ms
        )
        _s, body, _ = _request(conn, "GET", "/stats")
        before = json.loads(body)["service"]

        # One localized interior move, then a warm-viewer revalidation
        # sweep: clean tiles must stay 304, dirty ones refresh as 200.
        _request(conn, "POST", f"/update/{handle}", {"updates": [
            {"op": "move_client", "handle": 14, "x": 0.43, "y": 0.43},
        ]})
        n200 = n304 = 0
        for (tx, ty), etag in etags.items():
            path = f"/tiles/{handle}/{z}/{tx}/{ty}.png"
            with recorder.timing("dirty_revalidate"):
                s, png, headers = _request(
                    conn, "GET", path, headers={"If-None-Match": etag}
                )
            if s == 200:
                n200 += 1
                tiles[(tx, ty)] = png
            elif s == 304:
                n304 += 1
        _s, body, _ = _request(conn, "GET", "/stats")
        after = json.loads(body)["service"]

        checks["partial_invalidation_counted"] = (
            after["partial_invalidations"] - before["partial_invalidations"] == 1
        )
        checks["clean_tiles_stay_304"] = (
            n200 + n304 == len(addresses) and 1 <= n200 < len(addresses)
        )
        checks["renders_match_dirty_tiles"] = (
            after["tile_renders"] - before["tile_renders"] == n200
        )

        # Differential gate: a from-scratch static build of the moved
        # world must produce byte-identical tiles.
        moved = clients.copy()
        moved[14] = (0.43, 0.43)
        _s, body, _ = _request(conn, "POST", "/datasets", {
            "clients": moved.tolist(), "facilities": facilities.tolist(),
        })
        _s, kicked, _ = _request(conn, "POST", "/build", {
            "dataset": json.loads(body)["dataset"], "metric": "linf",
        })
        scratch = json.loads(kicked)["handle"]
        _poll_ready(conn, scratch)
        identical = True
        for tx, ty in addresses:
            path = f"/tiles/{scratch}/{z}/{tx}/{ty}.png"
            _s, png, _h = _request(conn, "GET", path)
            identical &= png == tiles[(tx, ty)]
        checks["incremental_tiles_match_scratch"] = identical

        return {
            "tiles": len(addresses),
            "dirty_tiles": n200,
            "cold_tile_ttft_p99_ms": float(np.percentile(ttfts, 99)),
            "cold_tile_ttft_max_ms": max(ttfts),
        }
    finally:
        conn.close()


def run(args) -> dict:
    """Drive the workload; returns the measured record."""
    rng = np.random.default_rng(args.seed)
    clients = rng.random((args.clients, 2))
    facilities = rng.random((args.facilities, 2))
    recorder = LatencyRecorder()
    checks: "dict[str, bool]" = {}

    with ThreadedHTTPServer(
        tile_size=args.tile_size, max_tiles=8192,
        max_workers=args.executor_workers,
    ) as server:
        setup = http.client.HTTPConnection(server.host, server.port, timeout=60)
        _status, body, _ = _request(setup, "POST", "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        dataset = json.loads(body)["dataset"]

        n = 1 << args.tile_zoom
        addresses = [(tx, ty) for ty in range(n) for tx in range(n)]
        per_viewer = max(1, args.probes // args.viewers)
        tile_digests: "list[str]" = []

        def viewer(i: int) -> None:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=120
            )
            try:
                # Phase 1 — the build storm.
                with recorder.timing("build_kick"):
                    _s, kicked, _ = _request(conn, "POST", "/build", {
                        "dataset": dataset, "metric": args.metric,
                    })
                handle = json.loads(kicked)["handle"]
                _poll_ready(conn, handle)
                # Phase 2 — cold pan over the full level.
                vr = np.random.default_rng(args.seed + 100 + i)
                order = list(addresses)
                vr.shuffle(order)
                etags = {}
                tiles = {}
                for tx, ty in order:
                    path = f"/tiles/{handle}/{args.tile_zoom}/{tx}/{ty}.png"
                    with recorder.timing("tile"):
                        _s, png, headers = _request(conn, "GET", path)
                    etags[(tx, ty)] = headers["ETag"]
                    tiles[(tx, ty)] = png
                tile_digests.append(hashlib.sha256(
                    b"".join(tiles[a] for a in sorted(addresses))
                ).hexdigest())
                # Phase 3 — a probe batch.
                pts = vr.random((per_viewer, 2)).tolist()
                with recorder.timing("query"):
                    _s, answer, _ = _request(
                        conn, "POST", f"/query/{handle}", {"points": pts}
                    )
                assert json.loads(answer)["n"] == per_viewer
                # Phase 4 — revalidation must be free.
                all_304 = True
                for (tx, ty), etag in etags.items():
                    path = f"/tiles/{handle}/{args.tile_zoom}/{tx}/{ty}.png"
                    with recorder.timing("revalidate"):
                        s, _b, _h = _request(
                            conn, "GET", path, headers={"If-None-Match": etag}
                        )
                    all_304 &= s == 304
                if not all_304:
                    checks["revalidation_all_304"] = False
            finally:
                conn.close()

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.viewers) as pool:
            list(pool.map(viewer, range(args.viewers)))
        wall = time.perf_counter() - t0

        _s, body, _ = _request(setup, "GET", "/stats")
        stats = json.loads(body)

        # Phase 5 — the cold-pan + incremental-update gate
        # (after the main stats snapshot so phases 1-4's self-checks stay
        # on their own counters).
        dynamic_update = _dynamic_update_phase(server, recorder, checks, args)
        setup.close()

    svc = stats["service"]
    tile_requests = (
        svc["tile_renders"] + svc["tile_cache_hits"] + svc["coalesced_tiles"]
    )
    checks.setdefault("revalidation_all_304", True)
    checks["one_sweep_per_fingerprint"] = svc["builds"] + svc["promotions"] == 1
    checks["renders_at_most_distinct_tiles"] = (
        svc["tile_renders"] <= len(addresses)
    )
    checks["identical_tile_bytes_across_viewers"] = len(set(tile_digests)) == 1
    checks["no_server_errors"] = stats["http"]["responses_5xx"] == 0

    record = {
        "benchmark": "http_serving",
        "viewers": args.viewers,
        "clients": args.clients,
        "facilities": args.facilities,
        "metric": args.metric,
        "tile_zoom": args.tile_zoom,
        "tile_size": args.tile_size,
        "probes_per_viewer": per_viewer,
        "wall_s": wall,
        "latency": recorder.snapshot(),
        "coalescing": {
            "tile_requests": tile_requests,
            "tile_renders": svc["tile_renders"],
            "coalesced_tiles": svc["coalesced_tiles"],
            "tile_cache_hits": svc["tile_cache_hits"],
            "hit_rate": (
                (svc["coalesced_tiles"] + svc["tile_cache_hits"]) / tile_requests
                if tile_requests else 0.0
            ),
            "builds": svc["builds"],
            "inflight_peak": svc["inflight_peak"],
        },
        "http": stats["http"],
        "dynamic_update": dynamic_update,
        "checks": checks,
    }
    if args.tile_p99_budget_ms is not None:
        p99 = record["latency"].get("tile", {}).get("p99_ms")
        checks["tile_p99_within_budget"] = (
            p99 is not None and p99 <= args.tile_p99_budget_ms
        )
    if args.query_p99_budget_ms is not None:
        p99 = record["latency"].get("query", {}).get("p99_ms")
        checks["query_p99_within_budget"] = (
            p99 is not None and p99 <= args.query_p99_budget_ms
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--viewers", type=int, default=12)
    parser.add_argument("--clients", type=int, default=1500)
    parser.add_argument("--facilities", type=int, default=300)
    parser.add_argument("--metric", default="l2", choices=("l1", "l2", "linf"))
    parser.add_argument("--tile-zoom", type=int, default=3)
    parser.add_argument("--tile-size", type=int, default=128)
    parser.add_argument("--probes", type=int, default=60_000)
    parser.add_argument("--executor-workers", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cold-tile-ttft-budget-ms", type=float,
                        default=100.0,
                        help="hard ceiling on phase-5 cold-tile p99 TTFT")
    parser.add_argument("--tile-p99-budget-ms", type=float, default=None,
                        help="fail the run if tile p99 exceeds this")
    parser.add_argument("--query-p99-budget-ms", type=float, default=None,
                        help="fail the run if query p99 exceeds this")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small instance, few viewers)")
    parser.add_argument("--json", type=str, default=None,
                        help="write the measured record to this path")
    args = parser.parse_args(argv)
    if args.smoke:
        args.viewers = min(args.viewers, 8)
        args.clients = min(args.clients, 250)
        args.facilities = min(args.facilities, 50)
        args.tile_zoom = min(args.tile_zoom, 2)
        args.tile_size = min(args.tile_size, 64)
        args.probes = min(args.probes, 8000)

    record = run(args)

    co = record["coalescing"]
    print(
        f"http serve: {record['viewers']} viewers over "
        f"{record['clients']}/{record['facilities']} ({record['metric']}), "
        f"level-{record['tile_zoom']} pan + {record['probes_per_viewer']} "
        f"probes/viewer in {record['wall_s']:.2f}s"
    )
    print(
        f"coalescing: {co['tile_renders']} renders served "
        f"{co['tile_requests']} tile requests "
        f"(coalesced {co['coalesced_tiles']}, cache hits "
        f"{co['tile_cache_hits']}, hit rate {co['hit_rate']:.1%}, "
        f"builds swept {co['builds']}, inflight peak {co['inflight_peak']})"
    )
    for kind, pcts in record["latency"].items():
        print("  " + format_percentiles(kind, pcts))
    du = record["dynamic_update"]
    print(
        f"cold pan: {du['tiles']} tiles rendered "
        f"(ttft p99 {du['cold_tile_ttft_p99_ms']:.2f}ms, max "
        f"{du['cold_tile_ttft_max_ms']:.2f}ms); one localized move "
        f"dirtied {du['dirty_tiles']} tiles"
    )
    print(
        f"http: {record['http']['requests']} requests, "
        f"{record['http']['not_modified']} not-modified, "
        f"{record['http']['cancelled_requests']} cancelled"
    )
    failed = [name for name, ok in record["checks"].items() if not ok]
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAIL'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
