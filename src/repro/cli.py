"""Command-line interface.

    rnnhm heatmap --dataset nyc --clients 2000 --facilities 600 \\
        --metric l2 --out nyc.pgm
    rnnhm query --dataset nyc --probes 100000 --tile-zoom 2
    rnnhm update --clients 2000 --updates 50 --check-every 10
    rnnhm figure 16 --scale small
    rnnhm info

Also runnable as ``python -m repro ...``.  Algorithm choices everywhere are
derived from the algorithm registry (``repro.core.registry.REGISTRY``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.registry import REGISTRY

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnnhm",
        description="Reverse Nearest Neighbor heat maps (CREST) — "
        "reproduction of Sun et al., ICDE 2016",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hm = sub.add_parser("heatmap", help="build and render a heat map")
    hm.add_argument("--dataset", default="nyc",
                    choices=("nyc", "la", "uniform", "zipfian"))
    hm.add_argument("--clients", type=int, default=2000)
    hm.add_argument("--facilities", type=int, default=600)
    hm.add_argument("--metric", default="l2", choices=("l1", "l2", "linf"))
    hm.add_argument("--algorithm", "--engine", default="crest",
                    choices=REGISTRY.names())
    hm.add_argument("--k", type=int, default=1,
                    help="RkNN order (approximate engines serve up to their "
                         "registered max_k; exact sweeps any k)")
    hm.add_argument("--recall", type=float, default=None,
                    help="approximate-engine recall knob in (0, 1] "
                         "(engines without knobs reject it)")
    hm.add_argument("--resolution", type=int, default=400)
    hm.add_argument("--out", type=Path, default=None,
                    help="output PGM path (default: ASCII to stdout)")
    hm.add_argument("--seed", type=int, default=0)
    hm.add_argument("--top-k", type=int, default=5,
                    help="report the top-k heat values")

    fig = sub.add_parser("figure", help="regenerate a paper figure's series")
    fig.add_argument("number", choices=("16", "17", "18", "19", "1", "15"))
    fig.add_argument("--scale", default="small", choices=("small", "medium"),
                     help="small: seconds-to-minutes; medium: larger sweeps")
    fig.add_argument("--datasets", nargs="*", default=None)
    fig.add_argument("--csv", type=Path, default=None, help="save table as CSV")
    fig.add_argument("--svg", type=Path, default=None,
                     help="also render the figure as an SVG line chart")
    fig.add_argument("--out-dir", type=Path, default=None,
                     help="figure 1/15: directory for rendered PGMs")

    qr = sub.add_parser(
        "query", aliases=["serve-queries"],
        help="serve batched point probes and tiles through HeatMapService",
    )
    qr.add_argument("--dataset", default="uniform",
                    choices=("nyc", "la", "uniform", "zipfian"))
    qr.add_argument("--clients", type=int, default=2000)
    qr.add_argument("--facilities", type=int, default=600)
    qr.add_argument("--metric", default="l2", choices=("l1", "l2", "linf"))
    qr.add_argument("--algorithm", "--engine", default="crest",
                    choices=REGISTRY.names())
    qr.add_argument("--k", type=int, default=1,
                    help="reverse k-NN order (approximate engines allow "
                         "k up to their registry max_k)")
    qr.add_argument("--recall", type=float, default=None,
                    help="approximate-engine recall knob in (0, 1] "
                         "(engines without knobs reject it)")
    qr.add_argument("--probes", type=int, default=100_000,
                    help="random point probes to answer in one batch")
    qr.add_argument("--top-k", type=int, default=5)
    qr.add_argument("--tile-zoom", type=int, default=2,
                    help="warm the full tile pyramid level (pass -1 to skip)")
    qr.add_argument("--tile-size", type=int, default=128)
    qr.add_argument("--seed", type=int, default=0)
    qr.add_argument("--store-dir", type=Path, default=None,
                    help="persistent result store directory: evicted builds "
                         "demote to disk and identical re-builds promote "
                         "back instead of re-sweeping")
    qr.add_argument("--async", dest="use_async", action="store_true",
                    help="serve through the asyncio front end "
                         "(AsyncHeatMapService): concurrent simulated "
                         "viewers, request coalescing, latency percentiles")
    qr.add_argument("--concurrency", type=int, default=16,
                    help="--async: number of concurrent simulated viewers "
                         "(each replays builds, tile pans and probe batches)")

    sh = sub.add_parser(
        "serve-http",
        help="serve heat maps over HTTP: slippy-map raster tiles, JSON "
             "batch queries, fingerprint-addressed builds and dynamic "
             "updates (stdlib asyncio, no framework)",
    )
    sh.add_argument("--host", default="127.0.0.1")
    sh.add_argument("--port", type=int, default=8080,
                    help="TCP port to bind (0 picks a free port)")
    sh.add_argument("--workers", type=int, default=8,
                    help="executor threads serving blocking work "
                         "(sweeps, renders, probe batches)")
    sh.add_argument("--tile-size", type=int, default=256)
    sh.add_argument("--max-tiles", type=int, default=2048,
                    help="tile LRU capacity")
    sh.add_argument("--max-results", type=int, default=8,
                    help="built heat-map LRU capacity")
    sh.add_argument("--store-dir", type=Path, default=None,
                    help="persistent result store directory (evicted builds "
                         "demote to disk, identical re-builds promote back)")
    sh.add_argument("--cmap", default="heat", choices=("heat", "gray_dark"),
                    help="default tile colormap (?cmap= overrides per tile)")
    sh.add_argument("--fleet-proxy", metavar="REPLICAS", default=None,
                    help="run as a fleet coordinator instead of a replica: "
                         "comma-separated host:port replica addresses; "
                         "tiles/queries route to ring owners, builds fan "
                         "out, /fleet/stats aggregates (see docs/fleet.md)")
    sh.add_argument("--replica", action="store_true",
                    help="run as a fleet replica: the shared --store-dir "
                         "becomes the build write-through + cross-process "
                         "sweep-lease layer (exactly one sweep per "
                         "fingerprint fleet-wide)")
    sh.add_argument("--ring-vnodes", type=int, default=128,
                    help="--fleet-proxy: virtual nodes per replica on the "
                         "consistent-hash ring")
    sh.add_argument("--drain-grace", type=float, default=10.0,
                    help="seconds to wait for in-flight requests on "
                         "SIGTERM/SIGINT before force-closing connections")
    sh.add_argument("--max-inflight", type=int, default=None,
                    help="admission control: shed requests 503+Retry-After "
                         "past this many in flight (default: unbounded; "
                         "/healthz is always exempt)")
    sh.add_argument("--health-interval", type=float, default=0.5,
                    help="--fleet-proxy: seconds between replica health "
                         "probes driving ring ejection/re-admission "
                         "(0 disables the monitor)")

    up = sub.add_parser(
        "update",
        help="replay a random update workload against a DynamicHeatMap, "
             "checking its answers against brute force",
    )
    up.add_argument("--dataset", default="uniform",
                    choices=("nyc", "la", "uniform", "zipfian"))
    up.add_argument("--clients", type=int, default=2000)
    up.add_argument("--facilities", type=int, default=400)
    up.add_argument("--metric", default="l2", choices=("l1", "l2", "linf"))
    up.add_argument("--updates", type=int, default=20,
                    help="number of updates to replay (client moves/adds/"
                         "removes and facility moves)")
    up.add_argument("--check-every", type=int, default=0,
                    help="every N updates, verify answers against brute "
                         "force over the current points (0: never)")
    up.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="build a heat map and self-verify it "
                         "against the brute-force RNN definition")
    ver.add_argument("--dataset", default="uniform",
                     choices=("nyc", "la", "uniform", "zipfian"))
    ver.add_argument("--clients", type=int, default=300)
    ver.add_argument("--facilities", type=int, default=60)
    ver.add_argument("--metric", default="l2", choices=("l1", "l2", "linf"))
    ver.add_argument("--algorithm", default="crest",
                     choices=("crest", "crest-a", "baseline"))
    ver.add_argument("--probes", type=int, default=500)
    ver.add_argument("--seed", type=int, default=0)

    mx = sub.add_parser("maxregion", help="find the maximum-influence region "
                        "(the optimal-location query)")
    mx.add_argument("--dataset", default="uniform",
                    choices=("nyc", "la", "uniform", "zipfian"))
    mx.add_argument("--clients", type=int, default=200)
    mx.add_argument("--facilities", type=int, default=40)
    mx.add_argument("--metric", default="l2", choices=("l1", "l2", "linf"))
    mx.add_argument("--algorithm", default="crest", choices=("crest", "pruning"))
    mx.add_argument("--seed", type=int, default=0)

    sub.add_parser("claims", help="check the paper's qualitative claims "
                   "(Section VIII shapes) at laptop scale")

    sub.add_parser("info", help="print package and experiment inventory")
    return parser


def _engine_options(args) -> "dict | None":
    """Engine knobs from CLI flags (None when no knob flag was passed, so
    knob-less engines never see an options dict to reject)."""
    opts = {}
    if getattr(args, "recall", None) is not None:
        opts["recall"] = args.recall
    return opts or None


def _cmd_heatmap(args) -> int:
    from .core.heatmap import RNNHeatMap
    from .data.datasets import get_dataset
    from .data.sampling import sample_clients_facilities
    from .render.ascii_art import ascii_heat_map
    from .render.colormap import apply_colormap
    from .render.image import write_pgm

    pool = get_dataset(
        args.dataset, n=4 * (args.clients + args.facilities), seed=args.seed
    )
    clients, facilities = sample_clients_facilities(
        pool, args.clients, args.facilities, seed=args.seed + 1
    )
    spec = REGISTRY.get(args.algorithm)
    if spec.builder is not None:
        result = spec.builder(
            clients, facilities, metric=args.metric, k=args.k,
            options=spec.normalized_options(_engine_options(args)),
        )
    else:
        hm = RNNHeatMap(clients, facilities, metric=args.metric, k=args.k)
        result = hm.build(args.algorithm)
    grid, bounds = result.rasterize(args.resolution, args.resolution)
    print(
        f"dataset={args.dataset} |O|={args.clients} |F|={args.facilities} "
        f"metric={args.metric} algorithm={result.stats.algorithm}"
    )
    print(
        f"labels(k)={result.stats.labels} fragments={result.stats.n_fragments} "
        f"max_heat={result.stats.max_heat:g}"
    )
    print(f"top-{args.top_k} heats: "
          + ", ".join(f"{h:g}" for h in result.region_set.top_k_heats(args.top_k)))
    if args.out is not None:
        write_pgm(args.out, apply_colormap(grid, "gray_dark"))
        print(f"wrote {args.out}")
    else:
        print(ascii_heat_map(grid))
    return 0


def _cmd_query(args) -> int:
    import time

    import numpy as np

    from .service import HeatMapService

    if args.use_async:
        return _cmd_query_async(args)

    clients, facilities = _instance(args)
    service = HeatMapService(tile_size=args.tile_size, store_dir=args.store_dir)

    t0 = time.perf_counter()
    handle = service.build(
        clients, facilities, metric=args.metric, algorithm=args.algorithm,
        k=args.k, engine_options=_engine_options(args),
    )
    build_s = time.perf_counter() - t0
    world = service.world(handle)
    print(
        f"built {args.dataset} |O|={args.clients} |F|={args.facilities} "
        f"metric={args.metric} in {build_s:.2f}s (handle {handle[:12]}...)"
    )

    rng = np.random.default_rng(args.seed + 2)
    pts = np.column_stack([
        rng.uniform(world.x_lo, world.x_hi, args.probes),
        rng.uniform(world.y_lo, world.y_hi, args.probes),
    ])
    t0 = time.perf_counter()
    heats = service.heat_at_many(handle, pts)
    batch_s = time.perf_counter() - t0
    rate = args.probes / batch_s if batch_s > 0 else float("inf")
    probe_stats = (
        f"; mean heat {heats.mean():.3f}, max {heats.max():g}"
        if len(heats) else ""
    )
    print(
        f"answered {args.probes:,} point probes in {batch_s*1e3:.1f} ms "
        f"({rate:,.0f} probes/s)" + probe_stats
    )
    print(f"top-{args.top_k} heats: "
          + ", ".join(f"{h:g}" for h in service.top_k_heats(handle, args.top_k)))

    if args.tile_zoom > 8:
        print(f"--tile-zoom {args.tile_zoom} would render "
              f"{4 ** args.tile_zoom:,} tiles; capped at 8 for the CLI "
              "(use HeatMapService.viewport for windowed deep zooms)")
        return 1
    if args.tile_zoom >= 0:
        t0 = time.perf_counter()
        tiles = service.viewport(handle, args.tile_zoom, world)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        service.viewport(handle, args.tile_zoom, world)  # warm pass
        warm_s = time.perf_counter() - t0
        print(
            f"tile level {args.tile_zoom}: {len(tiles)} tiles of "
            f"{args.tile_size}px — cold {cold_s*1e3:.1f} ms, "
            f"warm {warm_s*1e3:.1f} ms (cache)"
        )
    print("service stats: " + ", ".join(
        f"{k}={v}" for k, v in service.stats_snapshot().items()))
    return 0


def _cmd_query_async(args) -> int:
    """serve-queries --async: concurrent viewers against the asyncio front
    end, with request coalescing and per-request latency percentiles."""
    import asyncio
    import time

    import numpy as np

    from .service import AsyncHeatMapService
    from .service.latency import LatencyRecorder
    from .service.tiles import tiles_in_window

    clients, facilities = _instance(args)
    n_viewers = max(1, args.concurrency)
    if args.tile_zoom > 8:
        print(f"--tile-zoom {args.tile_zoom} would render "
              f"{4 ** args.tile_zoom:,} tiles; capped at 8 for the CLI")
        return 1

    async def serve() -> int:
        svc = AsyncHeatMapService(
            max_workers=min(32, n_viewers + 4), tile_size=args.tile_size,
            store_dir=args.store_dir,
        )
        recorder = LatencyRecorder()
        timed = recorder.timed

        try:
            t_all = time.perf_counter()
            # Every viewer asks for the same build at once: single-flight
            # coalescing sweeps exactly once.
            handles = await asyncio.gather(*(
                timed("build", svc.build(
                    clients, facilities, metric=args.metric,
                    algorithm=args.algorithm, k=args.k,
                    engine_options=_engine_options(args),
                ))
                for _ in range(n_viewers)
            ))
            handle = handles[0]
            world = await svc.world(handle)
            per_viewer = max(1, args.probes // n_viewers)

            async def viewer(i: int) -> None:
                vr = np.random.default_rng(args.seed + 10 + i)
                if args.tile_zoom >= 0:
                    addresses = tiles_in_window(world, args.tile_zoom, world)
                    vr.shuffle(addresses)
                    for tx, ty in addresses:
                        await timed("tile", svc.tile(
                            handle, args.tile_zoom, tx, ty,
                            tile_size=args.tile_size,
                        ))
                pts = np.column_stack([
                    vr.uniform(world.x_lo, world.x_hi, per_viewer),
                    vr.uniform(world.y_lo, world.y_hi, per_viewer),
                ])
                await timed("probe", svc.heat_at_many(handle, pts))

            await asyncio.gather(*(viewer(i) for i in range(n_viewers)))
            wall = time.perf_counter() - t_all
        finally:
            await svc.aclose()

        stats = svc.stats
        tile_requests = stats.tile_renders + stats.tile_cache_hits \
            + stats.coalesced_tiles
        print(
            f"async serve: {n_viewers} viewers, {recorder.count('tile')} tile "
            f"requests + {n_viewers} probe batches of {per_viewer} in "
            f"{wall:.2f}s (executor bound {min(32, n_viewers + 4)})"
        )
        print(
            f"coalescing: builds swept {stats.builds} "
            f"(coalesced {stats.coalesced_builds}/{n_viewers - 1}); tiles "
            f"rendered {stats.tile_renders}/{tile_requests} requests "
            f"(coalesced {stats.coalesced_tiles}, cache hits "
            f"{stats.tile_cache_hits}, inflight peak {stats.inflight_peak})"
        )
        for line in recorder.report():
            print(line)
        print("service stats: " + ", ".join(
            f"{k}={v}" for k, v in svc.stats_snapshot().items()))
        # Self-check: a single fingerprint must never sweep twice.
        if stats.builds + stats.promotions > 1:
            print("FAIL: duplicate build for one fingerprint")
            return 1
        return 0

    return asyncio.run(serve())


def _cmd_serve_http(args) -> int:
    """serve-http: the HTTP tile/query edge — replica or fleet proxy."""
    import asyncio

    from .server import serve

    if args.fleet_proxy:
        from .fleet import FleetProxy

        replicas = [r for r in args.fleet_proxy.split(",") if r.strip()]
        app = FleetProxy(
            replicas,
            vnodes=args.ring_vnodes,
            max_inflight=args.max_inflight,
            health_interval=args.health_interval,
        )

        def announce_proxy(port: int) -> None:
            print(f"fleet proxy on http://{args.host}:{port} routing "
                  f"{len(replicas)} replicas (GET /fleet/stats)", flush=True)

        try:
            asyncio.run(serve(
                host=args.host,
                port=args.port,
                on_bound=announce_proxy,
                app=app,
                drain_grace=args.drain_grace,
            ))
        except KeyboardInterrupt:
            print("shutting down")
        return 0

    if args.replica and args.store_dir is None:
        print("--replica needs a shared --store-dir "
              "(the fleet-wide build dedupe layer)")
        return 2

    def announce(port: int) -> None:
        role = "fleet replica" if args.replica else "heat maps"
        print(f"serving {role} on http://{args.host}:{port} "
              f"(GET /healthz, /stats, /openapi.yaml)", flush=True)

    try:
        asyncio.run(serve(
            host=args.host,
            port=args.port,
            on_bound=announce,
            drain_grace=args.drain_grace,
            max_workers=max(1, args.workers),
            tile_size=args.tile_size,
            max_tiles=args.max_tiles,
            max_results=args.max_results,
            store_dir=args.store_dir,
            default_cmap=args.cmap,
            shared_store=args.replica,
            max_inflight=args.max_inflight,
        ))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_update(args) -> int:
    import time

    import numpy as np

    from .dynamic import DynamicHeatMap
    from .nn.rnn import NaiveRNN

    clients, facilities = _instance(args)
    dyn = DynamicHeatMap(clients, facilities, metric=args.metric)
    t0 = time.perf_counter()
    dyn.result()
    build_s = time.perf_counter() - t0
    print(
        f"initial build: {args.dataset} |O|={args.clients} "
        f"|F|={args.facilities} metric={args.metric} in {build_s:.2f}s"
    )

    rng = np.random.default_rng(args.seed + 3)
    probes = np.column_stack([rng.random(500), rng.random(500)])
    total_s = 0.0
    mismatches = 0
    for step in range(1, args.updates + 1):
        op = int(rng.integers(0, 4))
        handles = dyn.assignment.client_handles()
        if op == 0 or len(handles) <= 2:
            dyn.move_client(int(rng.choice(handles)), *rng.random(2))
        elif op == 1:
            dyn.add_client(*rng.random(2))
        elif op == 2:
            dyn.remove_client(int(rng.choice(handles)))
        else:
            fh = dyn.assignment.facility_handles()
            dyn.move_facility(int(rng.choice(fh)), *rng.random(2))
        t0 = time.perf_counter()
        result = dyn.result()
        total_s += time.perf_counter() - t0
        if args.check_every and step % args.check_every == 0:
            handles, now_clients, now_facilities = dyn.points()
            oracle = NaiveRNN(now_clients, now_facilities, metric=args.metric)
            want = [frozenset(handles[i] for i in s) for s in oracle.query_many(probes)]
            if result.rnn_at_many(probes) != want or not np.array_equal(
                result.heat_at_many(probes), [len(s) for s in want]
            ):
                mismatches += 1
                print(f"  update {step}: MISMATCH vs brute force")
    n = max(1, args.updates)
    rebuilt = dyn.rebuilds - 1
    print(
        f"replayed {args.updates} updates in {total_s:.2f}s "
        f"({total_s / n * 1e3:.1f} ms/update, initial build {build_s:.2f}s)"
    )
    print(f"rebuilds: {rebuilt}, no-op updates: {args.updates - rebuilt}")
    if args.check_every:
        verdict = "all checks passed" if not mismatches else (
            f"{mismatches} CHECK FAILURES")
        print(f"brute-force checks every {args.check_every} updates: {verdict}")
    return 1 if mismatches else 0


def _cmd_figure(args) -> int:
    from .experiments import figures

    datasets = tuple(args.datasets) if args.datasets else figures.DEFAULT_DATASETS
    medium = args.scale == "medium"
    if args.number == "16":
        table = figures.figure16(
            ratios=(2, 4, 8, 16, 32, 64, 128) if medium else (2, 4, 8, 16, 32, 64),
            n_clients=512 if medium else 256,
            datasets=datasets,
        )
    elif args.number == "17":
        table = figures.figure17(
            sizes=(128, 256, 512, 1024, 2048, 4096) if medium else (128, 256, 512, 1024, 2048),
            datasets=datasets,
        )
    elif args.number == "18":
        table = figures.figure18(
            ratios=(2, 4, 8, 16, 32, 64) if medium else (2, 4, 8, 16, 32),
            n_clients=256 if medium else 128,
            datasets=datasets,
        )
    elif args.number == "19":
        table = figures.figure19(
            sizes=(128, 256, 512, 1024, 2048) if medium else (128, 256, 512, 1024),
            datasets=datasets,
        )
    else:  # 1 / 15: the city heat maps
        table = figures.table2_city_heatmaps(
            n_clients=20000 if medium else 2000,
            n_facilities=6000 if medium else 600,
            out_dir=args.out_dir,
        )
    table.print()
    if args.csv is not None:
        table.save_csv(args.csv)
        print(f"saved {args.csv}")
    if args.svg is not None and args.number in ("16", "17", "18", "19"):
        from .render.svg_charts import chart_from_result_table

        x_from = "ratio" if args.number in ("16", "18") else "n_clients"
        x_label = "|O|/|F|" if x_from == "ratio" else "|O|"
        chart = chart_from_result_table(
            table, f"Figure {args.number} (scaled reproduction)",
            x_label, x_from=x_from, dataset=datasets[0],
        )
        chart.save(args.svg)
        print(f"saved {args.svg}")
    return 0


def _cmd_info() -> int:
    from . import __version__
    from .core.heatmap import ALGORITHMS
    from .data.datasets import DATASET_FULL_SIZES

    print(f"rnnhm {__version__} — RNN heat maps (Sun et al., ICDE 2016)")
    print(f"algorithms: {', '.join(ALGORITHMS)}; under L2 also crest-l2 "
          "(the loop arc sweep) and pruning (max region only)")
    print("datasets:  " + ", ".join(
        f"{k} ({v:,})" for k, v in DATASET_FULL_SIZES.items()))
    print("figures:   16, 17 (L1 sweeps); 18, 19 (L2 sweeps); 1/15 (city maps)")
    return 0


def _instance(args):
    from .data.datasets import get_dataset
    from .data.sampling import sample_clients_facilities

    pool = get_dataset(
        args.dataset, n=4 * (args.clients + args.facilities), seed=args.seed
    )
    return sample_clients_facilities(
        pool, args.clients, args.facilities, seed=args.seed + 1
    )


def _cmd_verify(args) -> int:
    from .core.heatmap import RNNHeatMap
    from .core.verify import verify_region_set

    clients, facilities = _instance(args)
    hm = RNNHeatMap(clients, facilities, metric=args.metric)
    result = hm.build(args.algorithm)
    report = verify_region_set(hm.circles, result.region_set,
                               n_probes=args.probes)
    print(report.summary())
    for kind, point, got, expected in report.examples:
        print(f"  {kind} at {point}: got {sorted(got)} expected {sorted(expected)}")
    return 0 if report.ok else 1


def _cmd_maxregion(args) -> int:
    from .core.heatmap import RNNHeatMap

    clients, facilities = _instance(args)
    hm = RNNHeatMap(clients, facilities, metric=args.metric)
    result = hm.max_region(args.algorithm)
    print(f"max influence = {result.max_heat:g} "
          f"(serves {len(result.max_rnn)} clients)")
    if result.max_point is not None:
        print(f"at ({result.max_point[0]:.5f}, {result.max_point[1]:.5f})")
    return 0


def _cmd_claims() -> int:
    from .experiments.shapes import check_all_claims

    results = check_all_claims(verbose=True)
    return 0 if all(r.holds for r in results) else 1


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "heatmap":
        return _cmd_heatmap(args)
    if args.command in ("query", "serve-queries"):
        return _cmd_query(args)
    if args.command == "serve-http":
        return _cmd_serve_http(args)
    if args.command == "update":
        return _cmd_update(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "maxregion":
        return _cmd_maxregion(args)
    if args.command == "claims":
        return _cmd_claims()
    return _cmd_info()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
