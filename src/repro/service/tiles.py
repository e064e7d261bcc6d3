"""Quadtree tile addressing over a heat map's original-space bounds.

Zoom level ``z`` splits the world into ``2**z x 2**z`` axis-aligned tiles;
``(tx, ty)`` counts from the lower-left corner (x right, y up), matching
the raster convention of ``repro.render.raster`` where row 0 is the bottom
row.  A pan re-uses every tile that stays in view and a zoom-out re-uses
the coarser level's tiles — which is what makes the service's tile cache
effective across interactions.
"""

from __future__ import annotations

import math

from ..errors import InvalidInputError
from ..geometry.rect import Rect
from ..render.raster import world_bounds

__all__ = ["check_tile_address", "tile_bounds", "world_bounds", "tiles_in_window"]


def check_tile_address(z: int, tx: int, ty: int) -> None:
    """Raise :class:`InvalidInputError` unless ``(z, tx, ty)`` names a tile."""
    if z < 0:
        raise InvalidInputError("zoom level must be >= 0")
    n = 1 << z
    if not (0 <= tx < n and 0 <= ty < n):
        raise InvalidInputError(
            f"tile ({tx}, {ty}) outside level-{z} range [0, {n})"
        )


def tile_bounds(world: Rect, z: int, tx: int, ty: int) -> Rect:
    """The original-space rectangle of tile ``(z, tx, ty)``."""
    check_tile_address(z, tx, ty)
    n = 1 << z
    wx = (world.x_hi - world.x_lo) / n
    wy = (world.y_hi - world.y_lo) / n
    # Outermost tiles snap to the exact world edges so the level-0 tile is
    # bit-identical to the world and adjacent tiles share exact seams.
    x_lo = world.x_lo + tx * wx
    y_lo = world.y_lo + ty * wy
    x_hi = world.x_hi if tx == n - 1 else world.x_lo + (tx + 1) * wx
    y_hi = world.y_hi if ty == n - 1 else world.y_lo + (ty + 1) * wy
    return Rect(x_lo, x_hi, y_lo, y_hi)


def tiles_in_window(world: Rect, z: int, window: Rect) -> "list[tuple[int, int]]":
    """Tile coordinates at level ``z`` intersecting a view window.

    The pan/zoom helper: a client renders a viewport by requesting exactly
    these tiles, hitting the cache for every one already rendered.
    """
    if z < 0:
        raise InvalidInputError("zoom level must be >= 0")
    n = 1 << z
    wx = (world.x_hi - world.x_lo) / n
    wy = (world.y_hi - world.y_lo) / n
    if wx <= 0 or wy <= 0:
        return []
    # floor, not int(): truncation toward zero would pull windows that lie
    # entirely outside the world back onto the edge tiles.
    tx0 = max(math.floor((window.x_lo - world.x_lo) / wx), 0)
    tx1 = min(math.floor((window.x_hi - world.x_lo) / wx), n - 1)
    ty0 = max(math.floor((window.y_lo - world.y_lo) / wy), 0)
    ty1 = min(math.floor((window.y_hi - world.y_lo) / wy), n - 1)
    # A window whose high edge lands exactly on a tile seam overlaps the
    # next tile only along a zero-width line; don't include it.  The
    # ``>`` guard keeps degenerate line/point windows non-empty.
    if tx1 > tx0 and world.x_lo + tx1 * wx >= window.x_hi:
        tx1 -= 1
    if ty1 > ty0 and world.y_lo + ty1 * wy >= window.y_hi:
        ty1 -= 1
    return [
        (tx, ty)
        for ty in range(ty0, ty1 + 1)
        for tx in range(tx0, tx1 + 1)
    ]
