"""Concurrency stress: threads hammer one service; counters must add up.

The thread-safety gate for the serving layer: mixed cold tiles, probe
batches, cache-hit builds and dynamic updates from many threads must
produce no lost invalidations, no duplicate sweeps for one fingerprint,
no duplicate renders for one cold tile, and stats counters that account
for every single request.  Also the regression test for the
``ResultStore`` promotion/demotion race (concurrent evict+rebuild of one
fingerprint).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import DynamicHeatMap, HeatMapService, RNNHeatMap, UnknownHandleError
from repro.service import ResultStore
from helpers import dynamic_brute_force, pixel_centres


def _run_threads(n: int, target) -> "list":
    """Run ``target(i)`` on n threads; re-raise the first failure."""
    with ThreadPoolExecutor(max_workers=n) as pool:
        return [f.result() for f in [pool.submit(target, i) for i in range(n)]]


class TestSyncSingleFlight:
    """The sync layer's per-key flights: one compute per cold key."""

    def test_same_cold_tile_renders_once(self, rng):
        O, F = rng.random((50, 2)), rng.random((10, 2))
        service = HeatMapService(max_results=4, max_tiles=64, tile_size=16)
        h = service.build(O, F, metric="linf")
        n = 6
        barrier = threading.Barrier(n)

        def go(_i):
            barrier.wait(timeout=20)
            return service.tile(h, 1, 1, 1)

        results = _run_threads(n, go)
        assert service.stats.tile_renders == 1
        assert service.stats.tile_cache_hits == n - 1
        grid0, bounds0 = results[0]
        for grid, bounds in results[1:]:
            np.testing.assert_array_equal(grid, grid0)
            assert bounds == bounds0

    def test_same_cold_fingerprint_sweeps_once(self, rng):
        O, F = rng.random((50, 2)), rng.random((10, 2))
        service = HeatMapService(max_results=4)
        n = 6
        barrier = threading.Barrier(n)

        def go(_i):
            barrier.wait(timeout=20)
            return service.build(O, F, metric="linf")

        handles = _run_threads(n, go)
        assert len(set(handles)) == 1
        assert service.stats.builds == 1
        assert service.stats.build_cache_hits == n - 1


class TestGenerationGuard:
    def test_reattach_between_entry_fetch_and_render_is_not_cached(self, rng):
        """Regression: a re-attach landing right after the renderer fetched
        its entry (but before it captured the generation) must not let the
        old-world raster into the tile cache.  The generation is captured
        *before* the entry fetch used for rendering, so an unchanged
        generation at admission time proves the entry stayed current."""
        O1, F1 = rng.random((20, 2)), rng.random((5, 2))
        O2, F2 = rng.random((20, 2)) + 5.0, rng.random((5, 2)) + 5.0
        dyn2 = DynamicHeatMap(O2, F2, metric="linf")
        dyn2.result()

        service = HeatMapService(max_results=4, max_tiles=64, tile_size=16)
        service.attach_dynamic(DynamicHeatMap(O1, F1, metric="linf"), name="x")

        started, release = threading.Event(), threading.Event()
        armed = threading.Event()
        armed.set()
        orig_entry = service._entry

        def entry_gate(handle):
            entry = orig_entry(handle)
            if armed.is_set():  # gate only the racing thread's first fetch
                armed.clear()
                started.set()
                assert release.wait(20.0)
            return entry

        service._entry = entry_gate
        racer = threading.Thread(target=lambda: service.tile("x", 0, 0, 0))
        racer.start()
        assert started.wait(20.0)
        service.attach_dynamic(dyn2, name="x")  # lands inside the window
        release.set()
        racer.join(timeout=20.0)
        assert not racer.is_alive()

        service._entry = orig_entry
        grid, bounds = service.tile("x", 0, 0, 0)
        assert bounds.x_lo >= 4.0, "the stale raster was cached"


class TestThreadedMixedWorkload:
    def test_counters_add_up_and_no_lost_invalidations(self, rng):
        instances = [
            (rng.random((40 + 10 * i, 2)), rng.random((8, 2)))
            for i in range(3)
        ]
        service = HeatMapService(max_results=8, max_tiles=256, tile_size=16)
        static = [
            service.build(O, F, metric="linf") for O, F in instances
        ]
        dyn = DynamicHeatMap(
            rng.random((30, 2)), rng.random((8, 2)), metric="linf"
        )
        hd = service.attach_dynamic(dyn, name="dyn")
        ch0 = sorted(dyn.assignment.client_handles())[0]
        fh0 = sorted(dyn.assignment.facility_handles())[0]
        baseline = service.stats.as_dict()
        probes = rng.random((40, 2))

        n_threads, iters = 8, 30
        tallies = []

        def worker(i: int) -> dict:
            r = np.random.default_rng(1000 + i)
            t = {"build": 0, "tile": 0, "batch": 0}
            for _ in range(iters):
                op = int(r.integers(0, 6))
                if op == 0:
                    j = int(r.integers(0, 3))
                    O, F = instances[j]
                    assert service.build(O, F, metric="linf") == static[j]
                    t["build"] += 1
                elif op == 1:
                    handle = (static + [hd])[int(r.integers(0, 4))]
                    z = int(r.integers(0, 2))
                    tx, ty = (int(r.integers(0, 2 ** z)) for _ in range(2))
                    service.tile(handle, z, tx, ty)
                    t["tile"] += 1
                elif op in (2, 3):
                    handle = (static + [hd])[int(r.integers(0, 4))]
                    if op == 2:
                        service.heat_at_many(handle, probes)
                    else:
                        service.rnn_at_many(handle, probes)
                    t["batch"] += 1
                elif op == 4:
                    # Move two fixed handles only: no handle enumeration,
                    # so updates never race the handle book-keeping.
                    dyn.move_client(ch0, *r.random(2))
                    dyn.move_facility(fh0, *r.random(2))
                else:
                    service.top_k_heats(hd, 3)
            return t

        tallies = _run_threads(n_threads, worker)
        total = {k: sum(t[k] for t in tallies) for k in tallies[0]}
        stats = service.stats

        # No duplicate sweeps: the three fingerprints were each swept once,
        # in the setup; every threaded build() call was a cache hit.
        assert stats.builds == 3
        assert stats.build_cache_hits == (
            baseline["build_cache_hits"] + total["build"]
        )
        # Every tile request is exactly one render or one cache hit.
        assert (stats.tile_renders + stats.tile_cache_hits) - (
            baseline["tile_renders"] + baseline["tile_cache_hits"]
        ) == total["tile"]
        # Every probe batch was counted.
        assert stats.batch_queries - baseline["batch_queries"] == total["batch"]
        # The dynamic handle was updated and refreshed at least once.
        assert stats.invalidations >= 1

        # No lost invalidations: the serving state converged on the final
        # world — answers match brute force over the current points.
        heat, rnn = dynamic_brute_force(dyn, probes)
        np.testing.assert_array_equal(service.heat_at_many(hd, probes), heat)
        assert service.rnn_at_many(hd, probes) == rnn
        # And the tile cache holds no pre-update raster.
        grid, bounds = service.tile(hd, 0, 0, 0)
        heat, _rnn = dynamic_brute_force(dyn, pixel_centres(bounds, 16))
        np.testing.assert_array_equal(grid.ravel(), heat)

    def test_concurrent_updates_and_probes_stay_consistent(self, rng):
        """An updater thread races probe threads on one dynamic handle;
        every answer served must correspond to *some* consistent version,
        and the final state must equal brute force."""
        dyn = DynamicHeatMap(
            rng.random((40, 2)), rng.random((10, 2)), metric="l2"
        )
        service = HeatMapService(max_results=4, max_tiles=64, tile_size=16)
        hd = service.attach_dynamic(dyn, name="fleet")
        handles = sorted(dyn.assignment.client_handles())[:5]
        probes = rng.random((30, 2))
        stop = threading.Event()

        def updater() -> int:
            r = np.random.default_rng(42)
            for step in range(25):
                dyn.move_client(handles[step % 5], *r.random(2))
                service.heat_at_many(hd, probes)  # force refresh cycles
            stop.set()
            return 25

        def prober(i: int) -> int:
            n = 0
            while not stop.is_set():
                heats = service.heat_at_many(hd, probes)
                assert heats.shape == (30,)
                assert np.all(heats >= 0)
                service.tile(hd, 0, 0, 0)
                n += 1
            return n

        with ThreadPoolExecutor(max_workers=5) as pool:
            futs = [pool.submit(prober, i) for i in range(4)]
            pool.submit(updater).result()
            for f in futs:
                f.result()

        heat, _rnn = dynamic_brute_force(dyn, probes)
        np.testing.assert_array_equal(service.heat_at_many(hd, probes), heat)


class TestResultStoreRace:
    """Regression: concurrent evict+rebuild of one fingerprint used to be
    able to rename away another writer's in-flight temp file (a
    FileNotFoundError crash, or a torn pair of files on disk)."""

    def test_concurrent_save_load_delete_one_fingerprint(self, tmp_path, rng):
        O, F = rng.random((30, 2)), rng.random((6, 2))
        result = RNNHeatMap(O, F, metric="linf").build("crest")
        n_frag = len(result.region_set)
        store = ResultStore(tmp_path)
        handle = "deadbeef" * 8

        def worker(i: int) -> None:
            r = np.random.default_rng(2000 + i)
            for _ in range(20):
                op = int(r.integers(0, 4))
                if op <= 1:
                    store.save(handle, result)
                elif op == 2:
                    loaded = store.load(handle)
                    # Either absent or fully intact — never torn.
                    if loaded is not None:
                        assert len(loaded.region_set) == n_frag
                        assert loaded.stats.algorithm != ""
                else:
                    store.delete(handle)

        _run_threads(6, worker)
        # No in-flight temp litter survives the storm.
        assert not list(tmp_path.glob(".tmp-*"))
        # The store still round-trips cleanly afterwards.
        store.save(handle, result)
        reloaded = store.load(handle)
        assert reloaded is not None
        assert len(reloaded.region_set) == n_frag
        assert store.handles() == [handle]

    def test_concurrent_demote_promote_through_service(self, tmp_path, rng):
        """Threads bounce two fingerprints in and out of a capacity-1 LRU
        with a store attached: every build must come back intact."""
        O, F = rng.random((35, 2)), rng.random((7, 2))
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        pts = rng.random((50, 2))
        expected = {}
        for n in (25, 35):  # pre-compute the two truths
            h = service.build(O[:n], F, metric="linf")
            expected[n] = (h, service.heat_at_many(h, pts))

        def worker(i: int) -> None:
            r = np.random.default_rng(3000 + i)
            for _ in range(8):
                n = (25, 35)[int(r.integers(0, 2))]
                h = service.build(O[:n], F, metric="linf")
                assert h == expected[n][0]
                try:
                    np.testing.assert_array_equal(
                        service.heat_at_many(h, pts), expected[n][1]
                    )
                except UnknownHandleError:
                    pass  # a racing build evicted h first — that's legal

        _run_threads(4, worker)
        snap = service.stats_snapshot()
        assert snap["demotions"] >= 1
        assert snap["promotions"] >= 1
        assert not list(tmp_path.glob(".tmp-*"))
