"""Rasterizing a heat surface into a heat grid.

CREST's output is a region colouring: every point takes the heat of the
region containing it.  A raster is therefore that heat at each pixel
centre, so every pixel equals what a point query at its centre answers,
for every metric and every surface.  :func:`rasterize_regionset` reads
it with one batched ``heat_at_many`` call — the float grid a fragment
table (``RegionSet``) serves under any measure.  The NN-circle surface
(``repro.core.surface``) rasterizes itself into an unsigned integer count
grid: it counts the circles' runs of rows down each pixel column rather
than testing every pixel, under every metric (L1 squares in their frame
rotated by pi/4).  Both take their window and pixel centres from
:func:`pixel_axes`.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..geometry.rect import Rect

__all__ = ["pixel_axes", "pixel_centres", "rasterize_regionset", "world_bounds"]


def world_bounds(region_set) -> Rect:
    """A surface's original-space extent (the default raster window).

    For identity-transform results this is the fragment bounding box; for
    L1 results (internal frame rotated by pi/4) the internal corners are
    mapped back through the inverse rotation.  Empty results default to
    the unit square.
    """
    internal = region_set.bounds()
    if internal is None:
        return Rect(0.0, 1.0, 0.0, 1.0)
    transform = region_set.transform
    if transform.is_identity:
        return internal
    corners = [
        transform.inverse(x, y)
        for x in (internal.x_lo, internal.x_hi)
        for y in (internal.y_lo, internal.y_hi)
    ]
    return Rect(
        min(c[0] for c in corners),
        max(c[0] for c in corners),
        min(c[1] for c in corners),
        max(c[1] for c in corners),
    )


def pixel_axes(
    region_set, width: int, height: int, bounds: "Rect | None" = None
) -> "tuple[np.ndarray, np.ndarray, Rect]":
    """``(xs, ys, bounds)`` of a (height, width) raster: the pixel-centre
    x of each column and y of each row (both non-decreasing), and the
    original-space window, which defaults to :func:`world_bounds`.

    Pixel ``(r, c)`` is centred at ``(xs[c], ys[r])`` with ``xs[c] = x_lo
    + (c + 0.5) * (x_hi - x_lo) / width`` and likewise for ``ys``.
    """
    if width <= 0 or height <= 0:
        raise InvalidInputError("raster dimensions must be positive")
    if bounds is None:
        bounds = world_bounds(region_set)
    x_span = bounds.x_hi - bounds.x_lo
    y_span = bounds.y_hi - bounds.y_lo
    if x_span <= 0 or y_span <= 0:
        raise InvalidInputError("raster bounds must have positive extent")
    xs = bounds.x_lo + (np.arange(width) + 0.5) * x_span / width
    ys = bounds.y_lo + (np.arange(height) + 0.5) * y_span / height
    return xs, ys, bounds


def pixel_centres(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (len(ys) * len(xs), 2) pixel centres of :func:`pixel_axes`, in
    raster order (row 0 = bottom)."""
    centres = np.empty((len(ys), len(xs), 2))
    centres[:, :, 0] = xs
    centres[:, :, 1] = ys[:, None]
    return centres.reshape(-1, 2)


def rasterize_regionset(
    region_set,
    width: int,
    height: int,
    bounds: "Rect | None" = None,
) -> "tuple[np.ndarray, Rect]":
    """Rasterize to a (height, width) float grid of ``heat_at_many`` at the
    pixel centres, plus its original-space bounds.  Row 0 is the bottom
    row (flip with [::-1] for image output, which ``repro.render.image``
    does for you).

    Pixel ``(r, c)`` is the heat at its centre (see :func:`pixel_axes`).

    Args:
        bounds: original-space window; defaults to :func:`world_bounds`.
    """
    xs, ys, bounds = pixel_axes(region_set, width, height, bounds)
    grid = region_set.heat_at_many(pixel_centres(xs, ys))
    return grid.reshape(height, width), bounds
