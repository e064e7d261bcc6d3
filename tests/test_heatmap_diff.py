"""Heat-map differencing: the before/after-a-facility view."""

import numpy as np
import pytest

from repro import RNNHeatMap
from repro.errors import InvalidInputError
from repro.geometry.rect import Rect
from repro.post.diff import diff_heat_maps


def _swept(O, F):
    return RNNHeatMap(O, F, metric="linf").build().region_set


def _surface(O, F):
    """Unswept: rasterizes to unsigned counts, which must not wrap."""
    return RNNHeatMap(O, F, metric="linf").surface().region_set


MAPS = pytest.mark.parametrize("heat_map", [_swept, _surface], ids=["build", "surface"])


class TestDiff:
    @MAPS
    def test_new_facility_only_loses_influence(self, rng, heat_map):
        """Adding a competitor shrinks NN-circles: candidate locations can
        only lose potential clients, never gain them."""
        O = rng.random((60, 2))
        F = rng.random((8, 2))
        before = heat_map(O, F)
        F2 = np.vstack([F, [[0.5, 0.5]]])
        after = heat_map(O, F2)
        diff = diff_heat_maps(before, after, resolution=120)
        assert diff.max_gain == 0.0
        assert diff.max_loss > 0.0
        assert diff.lost_area > 0.0
        assert diff.hotspots() == []  # nothing gained anywhere

    @MAPS
    def test_removed_facility_only_gains(self, rng, heat_map):
        O = rng.random((60, 2))
        F = rng.random((8, 2))
        before = heat_map(O, F)
        after = heat_map(O, F[:-1])
        diff = diff_heat_maps(before, after, resolution=120)
        assert diff.max_loss == 0.0
        assert diff.max_gain > 0.0
        spots = diff.hotspots(3)
        assert spots and all(d > 0 for _x, _y, d in spots)

    def test_identical_maps_zero_diff(self, rng):
        O = rng.random((30, 2))
        F = rng.random((5, 2))
        rs = RNNHeatMap(O, F, metric="l2").build().region_set
        diff = diff_heat_maps(rs, rs, resolution=80)
        assert np.all(diff.grid == 0)
        assert diff.gained_area == 0.0 and diff.lost_area == 0.0

    def test_explicit_bounds(self, rng):
        O = rng.random((20, 2))
        F = rng.random((4, 2))
        rs = RNNHeatMap(O, F, metric="l2").build().region_set
        window = Rect(0.2, 0.8, 0.2, 0.8)
        diff = diff_heat_maps(rs, rs, resolution=50, bounds=window)
        assert diff.bounds == window

    def test_validation(self, rng):
        O = rng.random((10, 2))
        F = rng.random((3, 2))
        rs = RNNHeatMap(O, F, metric="l2").build().region_set
        with pytest.raises(InvalidInputError):
            diff_heat_maps(rs, rs, resolution=0)

    def test_hotspot_coordinates_in_bounds(self, rng):
        O = rng.random((40, 2))
        F = rng.random((6, 2))
        before = RNNHeatMap(O, F, metric="linf").build().region_set
        after = RNNHeatMap(O, F[:-2], metric="linf").build().region_set
        diff = diff_heat_maps(before, after, resolution=100)
        for (x, y, _d) in diff.hotspots(5):
            assert diff.bounds.contains_closed(x, y)
