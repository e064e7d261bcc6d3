"""Count rasters: circle surfaces rasterize to small unsigned integer grids.

The contract: every pixel of ``NNCircleSurface.rasterize`` equals
``heat_at_many`` at its centre, the grid's dtype is
``np.min_scalar_type(len(circles))``, the raster's memory stays bounded,
and a served tile's PNG bytes are exactly what colouring the float heats
at the pixel centres gives.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pixel_centres
from repro import RNNHeatMap
from repro.core.surface import NNCircleSurface
from repro.dynamic import DynamicHeatMap
from repro.geometry.circle import NNCircleSet
from repro.geometry.rect import Rect
from repro.render.colormap import apply_colormap
from repro.render.png import encode_png
from repro.server.wire import render_tile_png
from repro.service import HeatMapService
from repro.service.tiles import tile_bounds, world_bounds

KINDS = ("uniform", "shared-x", "shared-y", "duplicates", "rounded", "on-boundary")


def _points(kind: str, seed: int):
    """Clients and facilities with the coincidences the sweeps trip on."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(5, 80)), int(rng.integers(1, 12))
    clients, facilities = rng.random((n, 2)), rng.random((m, 2))
    if kind == "shared-x":
        # Many points at x = 0, around (0.1, 0.1).
        clients = np.clip(rng.normal(0.1, 0.15, (n, 2)), 0.0, None)
        clients[:, 1] = np.abs(clients[:, 1])
        facilities = np.clip(rng.normal(0.1, 0.15, (m, 2)), 0.0, None)
    elif kind == "shared-y":
        clients[: n // 2, 1] = 0.25
        facilities[0, 1] = 0.25
    elif kind == "duplicates":
        clients[n // 2:] = clients[: n - n // 2]
    elif kind == "rounded":
        clients, facilities = clients.round(2), facilities.round(2)
    elif kind == "on-boundary":
        # Dyadic coordinates keep the arithmetic exact: a facility placed
        # at a client's nearest facility turned 90 degrees about the client
        # is just as near, so it lies on that client's NN-circle.
        clients, facilities = np.round(clients * 64) / 64, np.round(facilities * 64) / 64
        c = clients[0]
        f = facilities[np.argmin(np.abs(facilities - c).sum(axis=1))]
        turned = c + np.array([-(f[1] - c[1]), f[0] - c[0]])
        facilities = np.vstack([facilities, turned])
    return clients, facilities


def _assert_pixels_are_heats(surface, size: int, bounds: Rect) -> None:
    grid, got = surface.rasterize(size, size, bounds)
    assert got == bounds
    assert grid.dtype == np.min_scalar_type(len(surface))
    assert grid.shape == (size, size)
    want = surface.heat_at_many(pixel_centres(bounds, size)).reshape(size, size)
    np.testing.assert_array_equal(grid, want)


class TestRasterEqualsPointQueries:
    @settings(max_examples=60, derandomize=True)
    @given(
        metric=st.sampled_from(["l2", "linf", "l1"]),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 10_000),
        z=st.integers(0, 6),
        address=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
        size=st.sampled_from([1, 64, 97, 256]),
        unit=st.booleans(),
    )
    def test_span_raster_fuzz(self, metric, kind, seed, z, address, size, unit):
        """Every surface counts runs of rows per column, L1 squares in the
        rotated frame; every pixel still equals the point query at its
        centre.  Tiles of the unit square have dyadic pixel centres, which
        the dyadic circles of "on-boundary" inputs touch exactly."""
        clients, facilities = _points(kind, seed)
        surface = RNNHeatMap(clients, facilities, metric=metric).surface().region_set
        world = Rect(0.0, 1.0, 0.0, 1.0) if unit else world_bounds(surface)
        n = 1 << z
        tx, ty = int(address[0] * n), int(address[1] * n)
        _assert_pixels_are_heats(surface, size, tile_bounds(world, z, tx, ty))

    @settings(max_examples=30, derandomize=True)
    @given(
        metric=st.sampled_from(["l2", "linf", "l1"]),
        seed=st.integers(0, 10_000),
        z=st.integers(0, 4),
        address=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
        size=st.sampled_from([7, 64, 256]),
    )
    def test_points_on_pixel_centres(self, metric, seed, z, address, size):
        """Clients and facilities on the dyadic lattice of a unit-square
        tile's pixel centres.  A client's nearest facility lies on its
        circle, so pixel centres land exactly on circle edges, and in the
        rotated L1 frame on square edges too: the pixel and the facility
        round alike there, and so, for nearby coordinates, does
        ``client + radius``."""
        n = 1 << z
        tx, ty = int(address[0] * n), int(address[1] * n)
        bounds = tile_bounds(Rect(0.0, 1.0, 0.0, 1.0), z, tx, ty)
        centres = pixel_centres(bounds, size)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 10))
        pick = rng.permutation(len(centres))[: min(len(centres), 70)]
        clients, facilities = centres[pick[m:]], centres[pick[:m]]
        surface = RNNHeatMap(clients, facilities, metric=metric).surface().region_set
        _assert_pixels_are_heats(surface, size, bounds)

    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    def test_window_past_the_world(self, metric):
        clients, facilities = _points("rounded", 3)
        surface = RNNHeatMap(clients, facilities, metric=metric).surface().region_set
        w = world_bounds(surface)
        past = Rect(w.x_lo - 0.7, w.x_hi + 0.3, w.y_lo - 0.2, w.y_hi + 1.1)
        _assert_pixels_are_heats(surface, 97, past)
        _assert_pixels_are_heats(surface, 31, Rect(w.x_hi + 1, w.x_hi + 2, 0.0, 1.0))

    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_empty_surface(self, metric):
        none = np.zeros(0)
        surface = NNCircleSurface(NNCircleSet(none, none, none, metric))
        grid, _ = surface.rasterize(7, 5, Rect(0.0, 1.0, 0.0, 1.0))
        assert grid.dtype == np.uint8 and grid.shape == (5, 7) and not grid.any()

    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    def test_no_pixel_is_tested_alone(self, metric, monkeypatch):
        """Rasters count runs of rows: no metric looks pixels up one by one."""
        clients, facilities = _points("rounded", 5)
        surface = RNNHeatMap(clients, facilities, metric=metric).surface().region_set
        want = surface.heat_at_many(pixel_centres(world_bounds(surface), 64))

        def per_pixel(*_args):
            raise AssertionError("the raster tested pixels one by one")

        monkeypatch.setattr(NNCircleSurface, "_count", per_pixel)
        grid, _ = surface.rasterize(64, 64, world_bounds(surface))
        np.testing.assert_array_equal(grid.ravel(), want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_l1_counts_each_pixel_in_the_same_dtype(self, kind):
        clients, facilities = _points(kind, 11)
        surface = RNNHeatMap(clients, facilities, metric="l1").surface().region_set
        assert not surface.transform.is_identity
        world = world_bounds(surface)
        for z, tx, ty in ((0, 0, 0), (3, 2, 5)):
            _assert_pixels_are_heats(surface, 97, tile_bounds(world, z, tx, ty))

    @pytest.mark.parametrize("n,dtype", [(255, np.uint8), (256, np.uint16), (70_000, np.uint32)])
    def test_dtype_follows_the_circle_count(self, n, dtype):
        rng = np.random.default_rng(n)
        c = rng.random((n, 2))
        surface = NNCircleSurface(NNCircleSet(c[:, 0], c[:, 1], np.full(n, 0.01), "l2"))
        grid, _ = surface.rasterize(16, 16, Rect(0.4, 0.6, 0.4, 0.6))
        assert grid.dtype == dtype


def test_raster_memory_is_bounded():
    """Circle-column pairs are expanded in blocks: one 256-px z=0 raster
    over 5000 large disks peaks well below the unblocked expansion."""
    rng = np.random.default_rng(0)
    c = rng.random((5000, 2))
    surface = NNCircleSurface(NNCircleSet(c[:, 0], c[:, 1], rng.random(5000) * 0.5, "l2"))
    bounds = tile_bounds(world_bounds(surface), 0, 0, 0)
    surface.rasterize(256, 256, bounds)
    tracemalloc.start()
    try:
        surface.rasterize(256, 256, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"raster peaked at {peak / 2**20:.1f} MiB"


def _handles(service):
    rng = np.random.default_rng(5)
    clients, facilities = rng.random((120, 2)), rng.random((20, 2))
    handles = {
        metric: service.build(clients, facilities, metric=metric)
        for metric in ("l2", "l1", "linf")
    }
    handles["knn-graph"] = service.build(clients, facilities, algorithm="knn-graph")
    dyn = DynamicHeatMap(clients, facilities, metric="l2")
    dyn.move_client(3, 0.4, 0.6)
    handles["dynamic"] = service.attach_dynamic(dyn)
    return handles


class TestTileBytesUnchanged:
    """Served tiles are the bytes the float pipeline renders: heats at the
    pixel centres, coloured per pixel, flipped and PNG-encoded."""

    SIZE = 64

    @pytest.fixture(scope="class")
    def served(self):
        service = HeatMapService(tile_size=self.SIZE)
        return service, _handles(service)

    @pytest.mark.parametrize("name", ["l2", "l1", "linf", "knn-graph", "dynamic"])
    def test_png_equals_the_float_render(self, served, name):
        service, handles = served
        h = handles[name]
        for z, tx, ty in ((0, 0, 0), (2, 1, 2), (5, 17, 9)):
            grid, bounds = service.tile(h, z, tx, ty)
            assert grid.dtype.kind == "u"
            heats = service.heat_at_many(h, pixel_centres(bounds, self.SIZE))
            heats = heats.reshape(self.SIZE, self.SIZE)
            assert heats.dtype == np.float64
            for cmap in ("heat", "gray_dark"):
                for vmax in (None, 8, 3.5, 0, 1e9):
                    want = encode_png(apply_colormap(heats, cmap, vmax)[::-1])
                    assert render_tile_png(grid, cmap, vmax) == want, (z, tx, ty, cmap, vmax)

    @pytest.mark.parametrize("name", ["l2", "knn-graph", "dynamic"])
    def test_lookup_table_is_the_float_colormap(self, served, name):
        """The per-value table equals the float colormap at every count up
        to the handle's maximum (perfbench colours float heats to check
        tile pixels)."""
        service, handles = served
        top = int(service.max_heat(handles[name]))
        counts = np.arange(top + 1)
        for dtype in (np.uint8, np.uint16):
            for cmap in ("heat", "gray_dark"):
                for vmax in (None, 8, 3.5, 0, 1e9):
                    np.testing.assert_array_equal(
                        apply_colormap(counts.astype(dtype)[None, :], cmap, vmax),
                        apply_colormap(counts.astype(float)[None, :], cmap, vmax),
                    )
