"""Independent answers to check the server against, in plain numpy.

The heat of a point is the number of clients whose NN circle strictly
contains it: client ``c`` with radius ``r_c`` (its distance to the nearest
facility) counts when ``d(p, c) < r_c``.  Everything here is computed from
the generated coordinates alone, never from the program's own NN radii or
subdivision, so a wrong sweep, locate or raster cannot agree with it by
construction.

Points within ``_TIE`` of some circle boundary are *ambiguous* (the
program's arc arithmetic and this file's distances may round to opposite
sides) and are left out of the comparison; they are counted, not hidden.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "nn_radii", "heat_counts", "world_rect", "tile_rect", "pixel_centres",
]

_TIE = 1e-9
_CHUNK = 512


def _dist(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise distances between (n, 2) ``a`` and (m, 2) ``b``."""
    dx = np.abs(a[:, None, 0] - b[None, :, 0])
    dy = np.abs(a[:, None, 1] - b[None, :, 1])
    if metric == "l2":
        return np.sqrt(dx * dx + dy * dy)
    if metric == "l1":
        return dx + dy
    if metric == "linf":
        return np.maximum(dx, dy)
    raise ValueError(f"unknown metric {metric!r}")


def nn_radii(clients: np.ndarray, facilities: np.ndarray, metric: str) -> np.ndarray:
    """Each client's distance to its nearest facility."""
    out = np.empty(len(clients))
    for i in range(0, len(clients), _CHUNK):
        out[i:i + _CHUNK] = _dist(clients[i:i + _CHUNK], facilities, metric).min(1)
    return out


def heat_counts(
    points: np.ndarray, clients: np.ndarray, radii: np.ndarray, metric: str
) -> "tuple[np.ndarray, np.ndarray]":
    """``(heat, ambiguous)`` per point: RNN-set size and the tie mask."""
    heat = np.empty(len(points), dtype=np.int64)
    ambiguous = np.empty(len(points), dtype=bool)
    for i in range(0, len(points), _CHUNK):
        d = _dist(points[i:i + _CHUNK], clients, metric)
        heat[i:i + _CHUNK] = (d < radii).sum(1)
        ambiguous[i:i + _CHUNK] = (np.abs(d - radii) <= _TIE).any(1)
    return heat, ambiguous


def world_rect(
    clients: np.ndarray, radii: np.ndarray, metric: str
) -> "tuple[float, float, float, float]":
    """The level-0 tile ``(x_lo, x_hi, y_lo, y_hi)``: the NN circles' bbox.

    L1 maps are built in a frame rotated by pi/4 where circles are
    axis-aligned squares of half-side ``r / sqrt(2)``; the world is the
    original-space bbox of that frame's bounding box.
    """
    keep = radii > 0
    c, r = clients[keep], radii[keep]
    if metric != "l1":
        return (
            float((c[:, 0] - r).min()), float((c[:, 0] + r).max()),
            float((c[:, 1] - r).min()), float((c[:, 1] + r).max()),
        )
    cos, sin = math.cos(math.pi / 4), math.sin(math.pi / 4)
    ix = c[:, 0] * cos - c[:, 1] * sin
    iy = c[:, 0] * sin + c[:, 1] * cos
    h = r / math.sqrt(2.0)
    corners = np.array([
        (x, y)
        for x in ((ix - h).min(), (ix + h).max())
        for y in ((iy - h).min(), (iy + h).max())
    ])
    ox = corners[:, 0] * cos + corners[:, 1] * sin
    oy = -corners[:, 0] * sin + corners[:, 1] * cos
    return float(ox.min()), float(ox.max()), float(oy.min()), float(oy.max())


def tile_rect(world, z: int, tx: int, ty: int) -> "tuple[float, float, float, float]":
    """Bounds of slippy tile ``(z, tx, ty)``; ``ty`` counts up from the bottom."""
    x_lo, x_hi, y_lo, y_hi = world
    n = 1 << z
    wx = (x_hi - x_lo) / n
    wy = (y_hi - y_lo) / n
    return (
        x_lo + tx * wx, x_hi if tx == n - 1 else x_lo + (tx + 1) * wx,
        y_lo + ty * wy, y_hi if ty == n - 1 else y_lo + (ty + 1) * wy,
    )


def pixel_centres(
    rect, size: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Original-space centres of PNG pixels ``(rows, cols)`` (row 0 = top)."""
    x_lo, x_hi, y_lo, y_hi = rect
    xs = x_lo + (cols + 0.5) * (x_hi - x_lo) / size
    ys = y_lo + ((size - 1 - rows) + 0.5) * (y_hi - y_lo) / size
    return np.column_stack([xs, ys])
