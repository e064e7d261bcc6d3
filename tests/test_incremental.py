"""Dynamic-map rebuilds: the brute-force gate, dirty-rect edge cases,
deferred version bumps, partial tile invalidation."""

import numpy as np
import pytest

from repro.dynamic import DynamicHeatMap
from repro.errors import InvalidInputError
from repro.service import HeatMapService
from helpers import assert_matches_brute_force, assert_top_k_exact


def random_update(dyn: DynamicHeatMap, rng) -> None:
    """One random add/remove/move of a client or facility."""
    op = int(rng.integers(0, 5))
    handles = dyn.assignment.client_handles()
    if op == 0 or len(handles) <= 5:
        dyn.move_client(int(rng.choice(handles)), *rng.random(2))
    elif op == 1:
        dyn.add_client(*rng.random(2))
    elif op == 2:
        dyn.remove_client(int(rng.choice(handles)))
    elif op == 3:
        fh = dyn.assignment.facility_handles()
        dyn.move_facility(int(rng.choice(fh)), *rng.random(2))
    else:
        dyn.move_client(int(rng.choice(handles)),
                        *(rng.random(2) * 0.05 + 0.4))  # clustered hot spot


class TestEquivalenceGate:
    """After *every* update in a 50-update random workload, heat and RNN
    answers equal brute force over the current points — under L2, L1
    (served in the rotated L-inf frame) and L-inf.  Top-k is checked
    once, at the last step, against brute force over the current points."""

    @pytest.mark.parametrize("metric", ["l2", "l1", "linf"])
    def test_fifty_update_workload(self, metric):
        rng = np.random.default_rng(42)
        O, F = rng.random((120, 2)), rng.random((25, 2))
        dyn = DynamicHeatMap(O, F, metric=metric)
        dyn.result()
        probes = rng.random((1500, 2)) * 1.2 - 0.1
        for step in range(50):
            random_update(dyn, rng)
            assert_matches_brute_force(dyn, dyn.result(), probes, f"step {step}")
        _handles, clients, facilities = dyn.points()
        assert_top_k_exact(dyn.result(), clients, facilities, metric)
        assert dyn.rebuilds > 1
        # Retired counters, still read by perfbench's live-update replay.
        assert dyn.full_rebuilds == dyn.rebuilds
        assert dyn.incremental_rebuilds == 0


class TestSpliceEdgeCases:
    """Degenerate update shapes — a circle ending exactly on its
    neighbours' extremes, one covering every other circle: answers equal
    brute force and the dirty rects are still reported."""

    def _line_world(self):
        """Three unit NN-circles whose extents touch at event abscissae."""
        clients = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        facilities = np.array([[1.0, 0.0], [3.0, 0.0]])
        return clients, facilities

    def test_update_on_event_abscissa(self, rng):
        """The moved circle's extent lands exactly on neighbors' events."""
        clients, facilities = self._line_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        dyn.result()
        v0 = dyn.version
        # New position keeps the L-inf radius at exactly 1: the moved
        # circle spans x in [1, 3], both ends event abscissae of the
        # unchanged neighbors.
        dyn.move_client(1, 2.0, 0.5)
        result = dyn.result()
        probes = np.column_stack([
            rng.uniform(-1.5, 5.5, 800), rng.uniform(-1.5, 2.0, 800)
        ])
        assert_matches_brute_force(dyn, result, probes)
        assert dyn.dirty_rects_since(v0)

    def test_whole_plane_dirty_degrades_to_full(self, rng):
        """A change whose box covers every circle still reports it."""
        clients, facilities = self._line_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        dyn.result()
        v0, rebuilds = dyn.version, dyn.rebuilds
        # Far away in y: the new NN-circle's radius (~100) makes its
        # x-extent span every event abscissa, its own included.
        dyn.move_client(1, 2.0, 100.0)
        result = dyn.result()
        assert dyn.rebuilds == rebuilds + 1
        rects = dyn.dirty_rects_since(v0)
        assert rects and any(r.contains_closed(2.0, 100.0) for r in rects)
        # Retired: always 1.0, still read by perfbench's live-update replay.
        assert result.stats.dirty_fraction == 1.0
        probes = np.column_stack([
            rng.uniform(-100, 104, 500), rng.uniform(-3, 202, 500)
        ])
        assert_matches_brute_force(dyn, result, probes)

    def test_noop_update_keeps_cache_and_version(self, rng):
        O, F = rng.random((40, 2)), rng.random((8, 2))
        dyn = DynamicHeatMap(O, F, metric="l2")
        r0 = dyn.result()
        v0 = dyn.version
        x, y = dyn.assignment._clients[3]
        dyn.move_client(3, x, y)  # move to the identical position
        assert dyn.dirty
        assert dyn.result() is r0
        assert dyn.version == v0 and not dyn.dirty
        # Undo sequence: away and back without an intervening query.
        dyn.move_client(3, 0.95, 0.95)
        dyn.move_client(3, x, y)
        assert dyn.result() is r0
        assert dyn.version == v0
        assert dyn.rebuilds == 1  # only the initial build ever ran

    def test_forced_full_still_tracks_dirty_rects(self, rng):
        O, F = rng.random((30, 2)), rng.random((6, 2))
        dyn = DynamicHeatMap(O, F, metric="linf")
        dyn.result()
        v0 = dyn.version
        dyn.move_client(0, 0.5, 0.5)
        result = dyn.result()
        rects = dyn.dirty_rects_since(v0)
        assert rects  # every rebuild is from scratch, yet the region is known
        probes = rng.random((500, 2))
        assert_matches_brute_force(dyn, result, probes)


class TestDeferredVersion:
    def test_updates_do_not_bump_version(self, rng):
        O, F = rng.random((25, 2)), rng.random((5, 2))
        dyn = DynamicHeatMap(O, F, metric="linf")
        dyn.result()
        v0 = dyn.version
        dyn.move_client(0, 0.7, 0.7)
        dyn.add_client(0.2, 0.2)
        assert dyn.version == v0  # deferred until the next result()
        assert dyn.dirty
        dyn.result()
        assert dyn.version == v0 + 1  # one bump for the whole batch
        assert not dyn.dirty

    def test_dirty_rects_since(self, rng):
        O, F = rng.random((25, 2)), rng.random((5, 2))
        dyn = DynamicHeatMap(O, F, metric="linf")
        dyn.result()
        v0 = dyn.version
        assert dyn.dirty_rects_since(v0) == []
        assert dyn.dirty_rects_since(v0 - 1) is None  # first build: unknown
        old = np.asarray(dyn.assignment._clients[0])
        dyn.move_client(0, *(old + 0.02))
        dyn.result()
        rects = dyn.dirty_rects_since(v0)
        assert rects and all(r.width < 2.0 for r in rects)
        # The moved client's old and new positions fall in the dirty region.
        assert any(r.contains_closed(*old) for r in rects)
        assert any(r.contains_closed(*(old + 0.02)) for r in rects)


def _grid_world():
    """A deterministic world whose bbox extremes survive interior moves."""
    gx, gy = np.meshgrid(np.linspace(0.1, 0.9, 6), np.linspace(0.1, 0.9, 6))
    clients = np.column_stack([gx.ravel(), gy.ravel()])
    fx, fy = np.meshgrid(np.linspace(0.15, 0.85, 5), np.linspace(0.15, 0.85, 5))
    facilities = np.column_stack([fx.ravel(), fy.ravel()])
    return clients, facilities


class TestPartialInvalidation:
    def test_localized_update_drops_only_intersecting_tiles(self):
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(max_tiles=128, tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        world = service.world(h)
        service.viewport(h, 2, world)  # warm all 16 level-2 tiles
        renders = service.stats.tile_renders
        assert renders == 16
        corner_before, _ = service.tile(h, 2, 0, 0)
        hits_before = service.stats.tile_cache_hits

        # Nudge the center client: the dirty region stays far from the
        # world's corners, and the world rectangle itself is unchanged.
        center = 14  # row 2, col 2 of the 6x6 grid: (0.42, 0.42)-ish
        x, y = dyn.assignment._clients[center]
        dyn.move_client(center, x + 0.01, y + 0.01)

        # The corner tile survives the partial invalidation: same object.
        corner_after, _ = service.tile(h, 2, 0, 0)
        assert corner_after is corner_before
        assert service.stats.tile_cache_hits == hits_before + 1
        assert service.stats.partial_invalidations == 1
        assert 1 <= service.stats.tiles_dropped_partial < 16
        dropped = service.stats.tiles_dropped_partial

        # Re-warming the viewport re-renders exactly the dropped tiles.
        service.viewport(h, 2, world)
        assert service.stats.tile_renders == renders + dropped

    def test_clean_tiles_keep_their_generation(self):
        """Per-tile generations: a partial invalidation bumps only the
        dirty tiles' generations (their ETags), never the clean ones'."""
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(max_tiles=128, tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        world = service.world(h)
        service.viewport(h, 2, world)
        addresses = [(tx, ty) for tx in range(4) for ty in range(4)]
        before = {a: service.tile_generation(h, 2, *a) for a in addresses}

        x, y = dyn.assignment._clients[14]
        dyn.move_client(14, x + 0.01, y + 0.01)
        service.result(h)  # settle the refresh (partial invalidation)
        assert service.stats.partial_invalidations == 1
        dropped = service.stats.tiles_dropped_partial

        changed = [
            a for a in addresses
            if service.tile_generation(h, 2, *a) != before[a]
        ]
        # Exactly the dropped (dirty) tiles changed generation; the
        # handle-wide race guard bumped, but the far corner tiles keep
        # their validator.
        assert len(changed) == dropped
        assert 1 <= len(changed) < 16
        assert service.generation(h) == 1
        for corner in ((0, 0), (3, 3), (0, 3), (3, 0)):
            assert service.tile_generation(h, 2, *corner) == before[corner]

        # Re-attaching under the same name is a full drop: every tile's
        # generation jumps past every partial event.
        service.attach_dynamic(dyn, name="fleet")
        gen = service.generation(h)
        assert gen == 2
        assert all(
            service.tile_generation(h, 2, *a) == gen for a in addresses
        )

    def test_invalid_tile_address_is_never_tracked(self):
        """An out-of-range address is rejected before it is tracked, so
        the next partial invalidation still raises and drops exactly the
        dirty tiles."""
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(max_tiles=128, tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        world = service.world(h)
        service.viewport(h, 2, world)
        addresses = [(tx, ty) for tx in range(4) for ty in range(4)]
        before = {a: service.tile_generation(h, 2, *a) for a in addresses}
        for bad in ((2, 99, 99), (2, -1, 0), (2, 0, 4), (-1, 0, 0)):
            with pytest.raises(InvalidInputError):
                service.tile_generation(h, *bad)

        x, y = dyn.assignment._clients[14]
        dyn.move_client(14, x + 0.01, y + 0.01)
        service.result(h)
        assert service.stats.partial_invalidations == 1
        dropped = service.stats.tiles_dropped_partial
        changed = [
            a for a in addresses
            if service.tile_generation(h, 2, *a) != before[a]
        ]
        assert 1 <= len(changed) == dropped < 16
        service.viewport(h, 2, world)
        assert service.stats.tile_renders == 16 + dropped

    def test_incremental_rerender_matches_scratch(self):
        """Dirty tiles are dropped, and their next fetch renders from
        scratch: the re-fetched tiles equal a full render of the updated
        map, and each dropped tile costs exactly one render."""
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(max_tiles=128, tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        world = service.world(h)
        service.viewport(h, 2, world)

        x, y = dyn.assignment._clients[14]
        dyn.move_client(14, x + 0.01, y + 0.01)
        result = service.result(h)  # settle the partial invalidation
        dropped = service.stats.tiles_dropped_partial
        assert dropped >= 1

        service.viewport(h, 2, world)  # re-fetch everything
        assert service.stats.tile_renders == 16 + dropped
        assert service.stats.tile_rerenders_partial == 0  # retired counter

        from repro.service.tiles import tile_bounds

        for tx in range(4):
            for ty in range(4):
                grid, bounds = service.tile(h, 2, tx, ty)
                expected, _ = result.rasterize(16, 16, bounds)
                np.testing.assert_array_equal(grid, expected)
                assert bounds == tile_bounds(world, 2, tx, ty)

    def test_refetched_dirty_tile_is_cached(self):
        """A dirty tile renders once on its next fetch; a second fetch is
        a plain cache hit."""
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(max_tiles=128, tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        world = service.world(h)
        service.viewport(h, 2, world)
        x, y = dyn.assignment._clients[14]
        dyn.move_client(14, x + 0.01, y + 0.01)
        service.result(h)
        service.viewport(h, 2, world)
        renders = service.stats.tile_renders
        hits = service.stats.tile_cache_hits
        service.viewport(h, 2, world)
        assert service.stats.tile_renders == renders
        assert service.stats.tile_cache_hits == hits + 16

    def test_generations_exact_over_many_partial_updates(self):
        """Per-tile generations stay exact however many localized updates
        land: after each one, exactly the tiles its dirty rects touch
        change generation, including far past any event-log horizon."""
        from repro.service.tiles import tile_bounds

        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(max_tiles=128, tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        world = service.world(h)
        addresses = [(tx, ty) for tx in range(4) for ty in range(4)]
        gens = {a: service.tile_generation(h, 2, *a) for a in addresses}
        # Two interior clients in opposite quadrants take turns moving,
        # so the union of two consecutive events' boxes spans tiles that
        # neither event touches.
        homes = {c: tuple(dyn.assignment._clients[c]) for c in (7, 28)}
        for i in range(100):
            c = (7, 28)[i % 2]
            x, y = homes[c]
            step = 0.01 if (i // 2) % 2 == 0 else 0.0
            v0 = dyn.version
            dyn.move_client(c, x + step, y + step)
            service.result(h)
            rects = dyn.dirty_rects_since(v0)
            assert rects, "every move must report its dirty region"
            dirty = {
                a for a in addresses
                if any(tile_bounds(world, 2, *a).intersects(r) for r in rects)
            }
            now = {a: service.tile_generation(h, 2, *a) for a in addresses}
            changed = {a for a in addresses if now[a] != gens[a]}
            assert changed == dirty, f"update {i + 1}"
            assert 1 <= len(dirty) < 16
            gens = now
        assert service.stats.partial_invalidations == 100

    def test_noop_update_drops_nothing(self):
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        tile_before, _ = service.tile(h, 1, 0, 0)
        x, y = dyn.assignment._clients[0]
        dyn.move_client(0, 0.5, 0.5)
        dyn.move_client(0, x, y)  # undo before any query
        tile_after, _ = service.tile(h, 1, 0, 0)
        assert tile_after is tile_before
        assert service.stats.invalidations == 0
        assert service.stats.partial_invalidations == 0

    def test_unknown_span_falls_back_to_full_drop(self):
        """A service that last synced before the dirty log's horizon (or a
        source without dirty reporting) must drop all the handle's tiles."""
        clients, facilities = _grid_world()
        dyn = DynamicHeatMap(clients, facilities, metric="linf")
        service = HeatMapService(tile_size=16)
        h = service.attach_dynamic(dyn, name="fleet")
        service.tile(h, 0, 0, 0)
        # Push the change past the log horizon by many tiny rebuilds.
        for _ in range(70):
            x, y = dyn.assignment._clients[14]
            dyn.move_client(14, x + 1e-4, y)
            dyn.result()
        assert dyn.dirty_rects_since(1) is None
        renders = service.stats.tile_renders
        service.tile(h, 0, 0, 0)
        assert service.stats.tile_renders == renders + 1  # re-rendered
        assert service.stats.partial_invalidations == 0
