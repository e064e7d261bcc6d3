"""Rendering: rasterization correctness, colormaps, image IO, ASCII."""

import numpy as np
import pytest

from repro import RNNHeatMap
from repro.core.registry import REGISTRY
from repro.geometry.rect import Rect
from repro.render.ascii_art import ascii_heat_map
from repro.render.colormap import apply_colormap, grayscale_dark, heat_colors, normalize
from repro.render.image import read_pgm, read_ppm, write_pgm, write_ppm
from repro.service import HeatMapService


class TestRasterAgainstPointQueries:
    @pytest.mark.parametrize("metric", ["linf", "l2", "l1"])
    def test_pixels_match_heat_at(self, metric, rng):
        """Each raster pixel center must carry the heat of that point."""
        O = rng.random((30, 2))
        F = rng.random((6, 2))
        result = RNNHeatMap(O, F, metric=metric).build("crest")
        bounds = Rect(-0.2, 1.2, -0.2, 1.2)
        W = H = 48
        grid, got_bounds = result.rasterize(W, H, bounds)
        assert got_bounds == bounds
        for _ in range(250):
            c = int(rng.integers(0, W))
            r = int(rng.integers(0, H))
            x = bounds.x_lo + (c + 0.5) * bounds.width / W
            y = bounds.y_lo + (r + 0.5) * bounds.height / H
            assert grid[r, c] == result.heat_at(x, y)

    def test_default_bounds_cover_fragments(self, rng):
        O = rng.random((20, 2))
        F = rng.random((5, 2))
        result = RNNHeatMap(O, F, metric="linf").build()
        grid, bounds = result.rasterize(32, 32)
        assert grid.shape == (32, 32)
        assert bounds.area > 0

    def test_invalid_dims(self, rng):
        O = rng.random((10, 2))
        F = rng.random((3, 2))
        result = RNNHeatMap(O, F, metric="linf").build()
        from repro.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            result.rasterize(0, 10)


def _engine_metrics():
    """Every registered engine with every request metric it serves."""
    pairs = []
    for spec in REGISTRY:
        metrics = set(spec.builder_metrics)
        if "linf" in spec.runners:
            metrics |= {"linf", "l1"}  # L1 runs rotated under the L-inf sweep
        if "l2" in spec.runners:
            metrics.add("l2")
        pairs += [(spec.name, m) for m in sorted(metrics)]
    return pairs


class TestTilePixelsEqualPointQueries:
    """The raster contract end to end: every pixel of a served tile is
    the heat a point query answers at that pixel's centre."""

    SIZE = 32

    @pytest.mark.parametrize("engine,metric", _engine_metrics())
    def test_tile_pixel_is_heat_at_pixel_centre(self, engine, metric):
        rng = np.random.default_rng(7)
        service = HeatMapService(tile_size=self.SIZE)
        h = service.build(rng.random((40, 2)), rng.random((8, 2)),
                          metric=metric, algorithm=engine)
        n = self.SIZE
        for z, tx, ty in ((0, 0, 0), (4, 7, 8)):
            grid, b = service.tile(h, z, tx, ty)
            xs = b.x_lo + (np.arange(n) + 0.5) * (b.x_hi - b.x_lo) / n
            ys = b.y_lo + (np.arange(n) + 0.5) * (b.y_hi - b.y_lo) / n
            gx, gy = np.meshgrid(xs, ys)
            centres = np.column_stack([gx.ravel(), gy.ravel()])
            heats = service.heat_at_many(h, centres).reshape(n, n)
            np.testing.assert_array_equal(grid, heats)
            assert grid.max() > grid.min(), "tile shows no structure"


class TestColormaps:
    def test_normalize(self):
        g = np.array([[0.0, 2.0], [4.0, 1.0]])
        n = normalize(g)
        assert n.max() == 1.0 and n.min() == 0.0

    def test_normalize_all_zero(self):
        assert normalize(np.zeros((3, 3))).max() == 0.0

    def test_normalize_vmax(self):
        n = normalize(np.array([[5.0]]), vmax=10.0)
        assert n[0, 0] == 0.5

    def test_gray_dark_inverts(self):
        img = grayscale_dark(np.array([[0.0, 1.0]]))
        assert img[0, 0] == 255  # cold = white
        assert img[0, 1] == 0    # hot = dark (paper's convention)

    def test_heat_colors_shape_and_range(self):
        img = heat_colors(np.linspace(0, 1, 16).reshape(4, 4))
        assert img.shape == (4, 4, 3)
        assert img.dtype == np.uint8

    def test_apply_colormap_dispatch(self):
        g = np.ones((2, 2))
        assert apply_colormap(g, "gray_dark").ndim == 2
        assert apply_colormap(g, "heat").ndim == 3
        from repro.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            apply_colormap(g, "viridis")


class TestImageIO:
    def test_pgm_roundtrip(self, tmp_path):
        img = (np.arange(12, dtype=np.uint8)).reshape(3, 4)
        p = write_pgm(tmp_path / "x.pgm", img, flip=False)
        back = read_pgm(p)
        np.testing.assert_array_equal(back, img)

    def test_ppm_roundtrip(self, tmp_path):
        img = (np.arange(24, dtype=np.uint8)).reshape(2, 4, 3)
        p = write_ppm(tmp_path / "x.ppm", img, flip=False)
        back = read_ppm(p)
        np.testing.assert_array_equal(back, img)

    def test_flip_behavior(self, tmp_path):
        img = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        p = write_pgm(tmp_path / "y.pgm", img)  # flip=True default
        back = read_pgm(p)
        np.testing.assert_array_equal(back[0], [255, 255])  # bottom row on top

    def test_type_checks(self, tmp_path):
        from repro.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            write_pgm(tmp_path / "z.pgm", np.zeros((2, 2)))  # float rejected
        with pytest.raises(InvalidInputError):
            write_ppm(tmp_path / "z.ppm", np.zeros((2, 2), dtype=np.uint8))


class TestAscii:
    def test_renders_hot_and_cold(self):
        grid = np.zeros((10, 10))
        grid[5:, 5:] = 9.0
        art = ascii_heat_map(grid, width=20)
        assert "@" in art   # hottest glyph present
        assert " " in art   # cold background present

    def test_shape_control(self):
        art = ascii_heat_map(np.random.default_rng(0).random((40, 40)), width=30)
        lines = art.split("\n")
        assert all(len(line) <= 30 for line in lines)
