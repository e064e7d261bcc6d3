"""Serving a heat map to many probes: the batch-query service layer.

The paper positions heat maps as an *interactive* influence-exploration
tool — build once, then probe cheaply while panning and zooming.  This
example stands up a ``HeatMapService``, answers a 50k-point probe batch in
one vectorized call, renders a tile pyramid level (then re-renders it for
free from the tile cache), and attaches a dynamic heat map to show that an
update invalidates only that tenant's cache entries.

Run:  python examples/batch_serving.py
"""

import time

import numpy as np

from repro import DynamicHeatMap, HeatMapService
from repro.data import uniform_points


def main() -> None:
    rng = np.random.default_rng(5)
    shops = uniform_points(400, seed=1)       # facilities
    customers = uniform_points(1500, seed=2)  # clients

    service = HeatMapService(max_results=4, max_tiles=256, tile_size=64)
    handle = service.build(customers, shops, metric="linf")
    result = service.result(handle)
    print(f"built a surface of {len(result.region_set)} NN-circles "
          f"(handle {handle[:12]}...); the arrangement is swept on demand")

    # Identical build requests are content-addressed cache hits.
    assert service.build(customers, shops, metric="linf") == handle
    print(f"re-build was a cache hit "
          f"(hits={service.stats.build_cache_hits})")

    # One vectorized call answers the whole probe batch.
    probes = rng.random((50_000, 2))
    t0 = time.perf_counter()
    heats = service.heat_at_many(handle, probes)
    dt = time.perf_counter() - t0
    print(f"50,000 probes in {dt * 1e3:.1f} ms "
          f"({len(probes) / dt:,.0f} probes/s); "
          f"hottest probe {heats.max():g}, top-3 {service.top_k_heats(handle, 3)}")

    # Tiles: a pan/zoom client renders only what it has never seen.
    world = service.world(handle)
    t0 = time.perf_counter()
    tiles = service.viewport(handle, 2, world)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    service.viewport(handle, 2, world)
    warm = time.perf_counter() - t0
    print(f"level-2 pyramid: {len(tiles)} tiles cold in {cold * 1e3:.0f} ms, "
          f"warm in {warm * 1e3:.1f} ms")

    # A dynamic tenant: its updates invalidate only its own entries.
    fleet = DynamicHeatMap(customers[:200], shops[:40], metric="linf")
    dyn_handle = service.attach_dynamic(fleet, name="fleet")
    service.tile(dyn_handle, 0, 0, 0)
    renders_before = service.stats.tile_renders
    fleet.add_facility(0.5, 0.5)
    service.tile(dyn_handle, 0, 0, 0)       # re-rendered (version changed)
    service.viewport(handle, 2, world)      # static tenant: still all warm
    print(f"after fleet update: {service.stats.tile_renders - renders_before} "
          f"tile re-rendered, static tenant untouched "
          f"(invalidations={service.stats.invalidations})")


if __name__ == "__main__":
    main()
