"""HeatMapService: cached builds, batch serving, tiles, dynamic invalidation."""

import json

import numpy as np
import pytest

from repro import DynamicHeatMap, HeatMapService, UnknownHandleError
from repro.geometry.rect import Rect
from repro.errors import InvalidInputError
from repro.service.cache import LRUCache
from repro.service.fingerprint import fingerprint_build
from repro.service.tiles import tile_bounds, tiles_in_window, world_bounds


@pytest.fixture
def instance(rng):
    return rng.random((50, 2)), rng.random((10, 2))


@pytest.fixture
def service():
    return HeatMapService(max_results=3, max_tiles=32, tile_size=16)


class TestBuildCache:
    def test_identical_build_is_a_hit(self, service, instance):
        O, F = instance
        h1 = service.build(O, F, metric="linf")
        h2 = service.build(O, F, metric="linf")
        assert h1 == h2
        assert service.stats.builds == 1
        assert service.stats.build_cache_hits == 1

    def test_fingerprint_sensitivity(self, instance):
        O, F = instance
        base = dict(metric="linf", algorithm="crest")
        fp = fingerprint_build(O, F, **base)
        assert fingerprint_build(O, F, **base) == fp
        assert fingerprint_build(O, F, metric="l2", algorithm="crest") != fp
        assert fingerprint_build(O, F, metric="linf", algorithm="crest-a") != fp
        assert fingerprint_build(O[:-1], F, **base) != fp
        assert fingerprint_build(O, F, k=2, **base) != fp

    def test_unknown_handle(self, service):
        with pytest.raises(UnknownHandleError):
            service.result("deadbeef")

    def test_eviction_forgets_result_and_tiles(self, service, instance):
        O, F = instance
        h = service.build(O, F, metric="linf")
        service.tile(h, 0, 0, 0)
        # capacity 3: three more builds evict h
        for n in (20, 25, 30):
            service.build(O[:n], F, metric="linf")
        with pytest.raises(UnknownHandleError):
            service.heat_at_many(h, np.zeros((1, 2)))
        assert all(key[0] != h for key in service._tiles.keys())


class TestQueries:
    def test_heat_batch_matches_direct(self, service, instance, rng):
        O, F = instance
        h = service.build(O, F, metric="l2")
        pts = rng.random((300, 2))
        np.testing.assert_array_equal(
            service.heat_at_many(h, pts),
            service.result(h).region_set.heat_at_many(pts),
        )
        assert service.stats.points_queried == 300

    def test_rnn_and_topk_and_threshold(self, service, instance, rng):
        O, F = instance
        h = service.build(O, F, metric="linf")
        pts = rng.random((50, 2))
        rnns = service.rnn_at_many(h, pts)
        assert len(rnns) == 50
        top = service.top_k_heats(h, 3)
        assert top == sorted(top, reverse=True)
        view = service.threshold(h, top[-1])
        assert all(f.heat >= top[-1] for f in view.fragments)


class TestTiles:
    def test_level0_tile_equals_full_raster(self, service, instance):
        O, F = instance
        h = service.build(O, F, metric="linf")
        grid, bounds = service.tile(h, 0, 0, 0)
        full, fbounds = service.result(h).rasterize(16, 16, service.world(h))
        np.testing.assert_array_equal(grid, full)
        assert bounds == fbounds

    def test_tile_cache_hit_returns_same_grid(self, service, instance):
        O, F = instance
        h = service.build(O, F, metric="l2")
        g1, _ = service.tile(h, 1, 0, 1)
        g2, _ = service.tile(h, 1, 0, 1)
        assert g1 is g2
        assert service.stats.tile_renders == 1
        assert service.stats.tile_cache_hits == 1

    def test_tile_validation(self, service, instance):
        O, F = instance
        h = service.build(O, F, metric="linf")
        with pytest.raises(InvalidInputError):
            service.tile(h, 1, 2, 0)
        with pytest.raises(InvalidInputError):
            service.tile(h, -1, 0, 0)

    def test_tile_bounds_partition_world(self):
        world = Rect(0.0, 8.0, 0.0, 4.0)
        b00 = tile_bounds(world, 1, 0, 0)
        b11 = tile_bounds(world, 1, 1, 1)
        assert b00 == Rect(0.0, 4.0, 0.0, 2.0)
        assert b11 == Rect(4.0, 8.0, 2.0, 4.0)

    def test_tiles_in_window(self):
        world = Rect(0.0, 1.0, 0.0, 1.0)
        all_tiles = tiles_in_window(world, 2, world)
        assert len(all_tiles) == 16
        corner = tiles_in_window(world, 2, Rect(0.0, 0.2, 0.0, 0.2))
        assert corner == [(0, 0)]

    def test_tiles_in_window_disjoint_window(self):
        """A viewport panned fully off-map must request no tiles."""
        world = Rect(0.0, 1.0, 0.0, 1.0)
        assert tiles_in_window(world, 0, Rect(-0.5, -0.1, 0.2, 0.8)) == []
        assert tiles_in_window(world, 2, Rect(-2.0, -1.0, -2.0, -1.0)) == []
        assert tiles_in_window(world, 2, Rect(1.5, 2.0, 0.0, 1.0)) == []

    def test_tiles_in_window_seam_edge_not_double_counted(self):
        """A window whose high edge sits exactly on a tile seam overlaps
        the next tile only along a zero-width line — requesting it would
        double the tile traffic for seam-aligned pans."""
        world = Rect(0.0, 1.0, 0.0, 1.0)
        assert tiles_in_window(world, 2, Rect(0.0, 0.25, 0.0, 0.25)) == [(0, 0)]
        assert tiles_in_window(world, 2, Rect(0.25, 0.5, 0.5, 0.75)) == [(1, 2)]
        # A degenerate seam-line window still resolves to one tile column.
        assert tiles_in_window(world, 1, Rect(0.5, 0.5, 0.0, 0.5)) == [(1, 0)]

    def test_tiles_in_window_outside_world_both_sides(self):
        """Windows strictly beyond either world edge on each axis are
        empty — no clamping back onto the boundary tiles."""
        world = Rect(0.0, 1.0, 0.0, 1.0)
        assert tiles_in_window(world, 3, Rect(-3.0, -2.0, 0.1, 0.2)) == []
        assert tiles_in_window(world, 3, Rect(2.0, 3.0, 0.1, 0.2)) == []
        assert tiles_in_window(world, 3, Rect(0.1, 0.2, -3.0, -2.0)) == []
        assert tiles_in_window(world, 3, Rect(0.1, 0.2, 2.0, 3.0)) == []

    def test_tiles_in_window_zero_area_world(self):
        """A degenerate (zero-span) world yields no tiles rather than a
        division-by-zero."""
        flat_x = Rect(0.5, 0.5, 0.0, 1.0)
        flat_y = Rect(0.0, 1.0, 0.5, 0.5)
        point = Rect(0.5, 0.5, 0.5, 0.5)
        for world in (flat_x, flat_y, point):
            assert tiles_in_window(world, 2, Rect(0.0, 1.0, 0.0, 1.0)) == []

    def test_tile_bounds_seam_exact_at_high_zoom(self):
        """Adjacent tiles share bit-identical seams even at deep zoom
        where naive ``lo + (i+1) * span`` accumulates float error."""
        world = Rect(0.1, 0.9, 0.2, 0.7)
        z = 12
        n = 1 << z
        for tx in (0, 1, n // 3, n - 2):
            left = tile_bounds(world, z, tx, 0)
            right = tile_bounds(world, z, tx + 1, 0)
            assert left.x_hi == right.x_lo
        # Outermost tiles snap exactly to the world edges.
        assert tile_bounds(world, z, n - 1, n - 1).x_hi == world.x_hi
        assert tile_bounds(world, z, n - 1, n - 1).y_hi == world.y_hi
        assert tile_bounds(world, z, 0, 0).x_lo == world.x_lo
        assert tile_bounds(world, z, 0, 0).y_lo == world.y_lo

    def test_viewport_warms_cache(self, service, instance):
        O, F = instance
        h = service.build(O, F, metric="linf")
        tiles = service.viewport(h, 1, service.world(h))
        assert len(tiles) == 4
        renders = service.stats.tile_renders
        service.viewport(h, 1, service.world(h))
        assert service.stats.tile_renders == renders

    def test_world_bounds_l1_original_frame(self, rng):
        """For L1 the world is in original coordinates, not the rotated
        internal frame — tiles must be requestable in user space."""
        O, F = rng.random((30, 2)), rng.random((6, 2))
        from repro import RNNHeatMap

        result = RNNHeatMap(O, F, metric="l1").build("crest")
        world = world_bounds(result.region_set)
        # NN-circles cover the clients, so the world contains them.
        assert world.x_lo <= O[:, 0].min() and world.x_hi >= O[:, 0].max()


class TestDynamic:
    def test_update_invalidates_only_that_handle(self, service, instance, rng):
        O, F = instance
        h_static = service.build(O, F, metric="linf")
        static_tile, _ = service.tile(h_static, 0, 0, 0)

        dyn = DynamicHeatMap(O, F, metric="linf")
        hd = service.attach_dynamic(dyn)
        service.tile(hd, 0, 0, 0)
        renders = service.stats.tile_renders

        dyn.add_client(0.5, 0.5)
        # Dynamic handle re-renders; answers reflect the update.
        service.tile(hd, 0, 0, 0)
        assert service.stats.tile_renders == renders + 1
        assert service.stats.invalidations == 1
        # Static handle's tile survived untouched.
        again, _ = service.tile(h_static, 0, 0, 0)
        assert again is static_tile

    def test_dynamic_results_follow_updates(self, service, rng):
        O, F = rng.random((30, 2)), rng.random((8, 2))
        dyn = DynamicHeatMap(O, F, metric="l2")
        h = service.attach_dynamic(dyn, name="fleet")
        before = service.heat_at_many(h, np.array([[0.5, 0.5]]))[0]
        handle = dyn.add_facility(0.5, 0.5)
        after = service.heat_at_many(h, np.array([[0.5, 0.5]]))[0]
        assert after == dyn.heat_at(0.5, 0.5)
        dyn.remove_facility(handle)
        restored = service.heat_at_many(h, np.array([[0.5, 0.5]]))[0]
        assert restored == before

    def test_reattach_same_name_drops_stale_tiles(self, service, rng):
        """Overwriting a handle must not serve the previous map's tiles."""
        O1, F1 = rng.random((20, 2)), rng.random((5, 2))
        O2, F2 = rng.random((20, 2)) + 5.0, rng.random((5, 2)) + 5.0
        service.attach_dynamic(DynamicHeatMap(O1, F1, metric="linf"), name="x")
        old_grid, old_bounds = service.tile("x", 0, 0, 0)
        service.attach_dynamic(DynamicHeatMap(O2, F2, metric="linf"), name="x")
        new_grid, new_bounds = service.tile("x", 0, 0, 0)
        assert new_grid is not old_grid
        assert new_bounds.x_lo >= 4.0  # the new world, not the old one

    def test_version_counter(self, instance):
        """Updates mark the map dirty but defer the version bump to the
        next ``result()`` — so update/undo sequences that change nothing
        leave downstream tile caches warm."""
        O, F = instance
        dyn = DynamicHeatMap(O, F, metric="linf")
        dyn.result()
        v0 = dyn.version
        dyn.move_client(0, 0.3, 0.3)
        assert dyn.version == v0  # deferred: no query happened yet
        assert dyn.dirty
        dyn.result()
        assert dyn.version == v0 + 1
        assert not dyn.dirty


class TestPersistentStore:
    """Eviction demotes to disk; identical re-builds promote back."""

    def test_eviction_demotes_and_rebuild_promotes(self, instance, tmp_path, rng):
        O, F = instance
        service = HeatMapService(max_results=2, store_dir=tmp_path / "store")
        h = service.build(O, F, metric="linf")
        pts = rng.random((100, 2))
        original = service.heat_at_many(h, pts)
        for n in (20, 30):  # capacity 2: these evict h
            service.build(O[:n], F, metric="linf")
        assert service.stats.demotions == 1
        assert h in service.store
        with pytest.raises(UnknownHandleError):
            service.result(h)  # demoted, not resident

        rebuilt = service.build(O, F, metric="linf")
        assert rebuilt == h
        assert service.stats.promotions == 1
        assert service.stats.builds == 3  # the promotion did not re-sweep
        np.testing.assert_array_equal(service.heat_at_many(h, pts), original)

    def test_promoted_result_keeps_sweep_stats(self, instance, tmp_path):
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        h = service.build(O, F, metric="l2")
        labels = service.result(h).stats.labels
        service.build(O[:20], F, metric="l2")  # evict + demote
        service.build(O, F, metric="l2")  # promote
        restored = service.result(h).stats
        assert restored.labels == labels > 0
        assert restored.algorithm == "crest-l2-batched"

    def test_sidecar_with_retired_stats_keys_still_promotes(
        self, instance, tmp_path
    ):
        """A store written by an older version can carry counters this
        one no longer has (``n_slabs``, ``n_workers``, ``transport_s``,
        ``n_dirty_bands``); the loader drops the unknown keys and the
        entry promotes unswept."""
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        h = service.build(O, F, metric="l2")
        labels = service.result(h).stats.labels
        service.build(O[:20], F, metric="l2")  # evict + demote
        sidecar_path = tmp_path / f"{h}.stats.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar.update(n_slabs=2, n_workers=2, transport_s=0.25, n_dirty_bands=3)
        sidecar_path.write_text(json.dumps(sidecar))
        builds = service.stats.builds

        assert service.build(O, F, metric="l2") == h
        assert service.stats.promotions == 1
        assert service.result(h).stats.labels == labels > 0
        assert service.stats.builds == builds
        assert not service.result(h).region_set.swept

    def test_without_store_eviction_still_forgets(self, instance):
        O, F = instance
        service = HeatMapService(max_results=1)
        h = service.build(O, F, metric="linf")
        service.build(O[:20], F, metric="linf")
        assert service.stats.demotions == 0
        with pytest.raises(UnknownHandleError):
            service.result(h)

    def test_dynamic_handles_are_not_spilled(self, instance, tmp_path):
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        service.attach_dynamic(DynamicHeatMap(O, F, metric="linf"), name="dyn")
        service.build(O, F, metric="linf")  # evicts the dynamic entry
        assert service.stats.demotions == 0
        assert "dyn" not in service.store

    def test_invalidate_deletes_stored_copy(self, instance, tmp_path):
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        h = service.build(O, F, metric="linf")
        service.build(O[:20], F, metric="linf")  # demote h
        assert h in service.store
        service.invalidate(h)
        assert h not in service.store
        service.build(O, F, metric="linf")
        assert service.stats.promotions == 0  # really forgotten: re-swept

    def test_store_survives_service_restart(self, instance, tmp_path):
        O, F = instance
        first = HeatMapService(max_results=1, store_dir=tmp_path)
        h = first.build(O, F, metric="linf")
        first.build(O[:20], F, metric="linf")  # demote h

        second = HeatMapService(max_results=4, store_dir=tmp_path)
        assert second.build(O, F, metric="linf") == h
        assert second.stats.promotions == 1
        assert second.stats.builds == 0

    def test_crest_l2_alias_shares_cache_key_with_crest(self, instance):
        O, F = instance
        service = HeatMapService()
        h = service.build(O, F, metric="l2")
        assert service.build(O, F, metric="l2", algorithm="crest-l2") == h
        assert service.stats.builds == 1
        assert service.stats.build_cache_hits == 1

    def test_off_metric_alias_still_raises(self, instance):
        """'crest-l2' under L-infinity must not be silently served from a
        cached 'crest' entry — the historical capability error stands."""
        from repro.errors import UnknownAlgorithmError

        O, F = instance
        service = HeatMapService()
        service.build(O, F, metric="linf")
        with pytest.raises(UnknownAlgorithmError):
            service.build(O, F, metric="linf", algorithm="crest-l2")

    def test_corrupt_store_entry_degrades_to_resweep(self, instance, tmp_path):
        """A torn/corrupt spill file is a cache miss, not a poison pill."""
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        h = service.build(O, F, metric="linf")
        service.build(O[:20], F, metric="linf")  # demote h
        (tmp_path / f"{h}.npz").write_bytes(b"not an npz")
        rebuilt = service.build(O, F, metric="linf")
        assert rebuilt == h
        assert service.stats.promotions == 0
        assert service.stats.builds == 3  # re-swept
        assert service.result(h).stats.labels > 0

    def test_lost_stats_sidecar_still_promotes(self, instance, tmp_path):
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        h = service.build(O, F, metric="linf")
        service.build(O[:20], F, metric="linf")  # demote h
        (tmp_path / f"{h}.stats.json").unlink()
        assert service.build(O, F, metric="linf") == h
        assert service.stats.promotions == 1
        assert service.result(h).stats.algorithm == "restored"

    def test_stats_snapshot_flattens_everything(self, instance, tmp_path):
        O, F = instance
        service = HeatMapService(max_results=1, store_dir=tmp_path)
        service.build(O, F, metric="linf")
        service.build(O[:20], F, metric="linf")
        snap = service.stats_snapshot()
        assert snap["demotions"] == 1
        assert snap["stored_results"] == 1
        for key in ("result_lru_hits", "result_lru_misses",
                    "result_lru_evictions", "tile_lru_hits"):
            assert key in snap


class TestLRUCache:
    def test_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh a
        evicted = c.put("c", 3)  # b is LRU now
        assert evicted == [("b", 2)]
        assert c.get("b") is None
        assert c.hits == 1 and c.misses == 1 and c.evictions == 1

    def test_purge(self):
        c = LRUCache(10)
        for i in range(6):
            c.put(("h1" if i % 2 else "h2", i), i)
        assert c.purge(lambda k: k[0] == "h1") == 3
        assert len(c) == 3
        assert all(k[0] == "h2" for k in c.keys())

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)
