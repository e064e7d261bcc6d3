"""Comparing two heat maps: what did a change to F do to the landscape?

Opening/closing/moving a facility reshapes every nearby NN-circle.  The
natural question — *where* did influence rise or fall, and by how much —
is answered by differencing the two labeled subdivisions on a common
raster: positive cells are opportunity that appeared, negative cells are
opportunity the change destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.regionset import RegionSet
from ..errors import InvalidInputError
from ..geometry.rect import Rect

__all__ = ["HeatMapDiff", "diff_heat_maps"]


@dataclass
class HeatMapDiff:
    """A rasterized heat difference (after - before) over shared bounds."""

    grid: np.ndarray           # (h, w), after minus before
    bounds: Rect
    gained_area: float         # area where heat increased
    lost_area: float           # area where heat decreased
    max_gain: float
    max_loss: float            # reported as a non-negative magnitude

    def hotspots(self, top: int = 5) -> "list[tuple[float, float, float]]":
        """The ``top`` largest-gain pixel centers as (x, y, delta)."""
        h, w = self.grid.shape
        flat = np.argsort(self.grid.ravel())[::-1][:top]
        out = []
        for idx in flat:
            r, c = divmod(int(idx), w)
            delta = float(self.grid[r, c])
            if delta <= 0:
                break
            x = self.bounds.x_lo + (c + 0.5) * self.bounds.width / w
            y = self.bounds.y_lo + (r + 0.5) * self.bounds.height / h
            out.append((x, y, delta))
        return out


def diff_heat_maps(
    before: RegionSet,
    after: RegionSet,
    resolution: int = 200,
    bounds: "Rect | None" = None,
) -> HeatMapDiff:
    """Difference two heat maps on a common raster.

    Args:
        before, after: labeled subdivisions built from the same client
            world (typically before/after a facility change).
        bounds: common original-space window; defaults to the union of the
            two maps' extents (mapped through their transforms).

    Returns:
        A ``HeatMapDiff`` with the (after - before) grid and summary
        statistics in area units of the chosen bounds.
    """
    if resolution <= 0:
        raise InvalidInputError("resolution must be positive")
    if bounds is None:
        boxes = []
        for rs in (before, after):
            b = rs.bounds()
            if b is None:
                continue
            corners = [
                rs.transform.inverse(x, y)
                for x in (b.x_lo, b.x_hi)
                for y in (b.y_lo, b.y_hi)
            ]
            boxes.append(Rect(
                min(c[0] for c in corners), max(c[0] for c in corners),
                min(c[1] for c in corners), max(c[1] for c in corners),
            ))
        if not boxes:
            raise InvalidInputError("both region sets are empty")
        bounds = boxes[0]
        for b in boxes[1:]:
            bounds = bounds.union_bounds(b)

    grid_before, _ = before.rasterize(resolution, resolution, bounds)
    grid_after, _ = after.rasterize(resolution, resolution, bounds)
    # Subtract in float: count rasters are unsigned and would wrap.
    delta = grid_after.astype(float) - grid_before
    cell_area = (bounds.width / resolution) * (bounds.height / resolution)
    return HeatMapDiff(
        grid=delta,
        bounds=bounds,
        gained_area=float((delta > 0).sum() * cell_area),
        lost_area=float((delta < 0).sum() * cell_area),
        max_gain=float(max(delta.max(), 0.0)),
        max_loss=float(max(-delta.min(), 0.0)),
    )
