"""Minimal colormaps implemented in numpy (matplotlib is not a dependency).

The paper renders heat maps where "the darker regions indicate higher heat
values" (Fig. 1); ``grayscale_dark`` reproduces that convention.  A small
multi-stop 'heat' map (white -> yellow -> red -> black) is provided for the
examples.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError

__all__ = ["normalize", "grayscale_dark", "heat_colors", "apply_colormap"]


def normalize(grid: np.ndarray, vmax: "float | None" = None) -> np.ndarray:
    """Scale a heat grid to [0, 1] (max-normalized; all-zero stays zero)."""
    grid = np.asarray(grid, dtype=float)
    top = float(grid.max()) if vmax is None else float(vmax)
    if top <= 0:
        return np.zeros_like(grid)
    return np.clip(grid / top, 0.0, 1.0)


def grayscale_dark(norm: np.ndarray) -> np.ndarray:
    """uint8 grayscale where hotter = darker (the paper's Fig. 1 style)."""
    return (255 * (1.0 - np.asarray(norm, dtype=float))).round().astype(np.uint8)


_HEAT_STOPS = np.array(
    [
        (1.00, 1.00, 1.00),  # cold: white
        (1.00, 0.95, 0.55),  # warm: pale yellow
        (1.00, 0.55, 0.10),  # hot: orange
        (0.85, 0.10, 0.10),  # hotter: red
        (0.25, 0.00, 0.05),  # hottest: near black
    ]
)


def heat_colors(norm: np.ndarray) -> np.ndarray:
    """(h, w, 3) uint8 RGB through a white->yellow->red->black ramp."""
    norm = np.clip(np.asarray(norm, dtype=float), 0.0, 1.0)
    n_seg = len(_HEAT_STOPS) - 1
    pos = norm * n_seg
    idx = np.minimum(pos.astype(int), n_seg - 1)
    frac = pos - idx
    lo = _HEAT_STOPS[idx]
    hi = _HEAT_STOPS[idx + 1]
    rgb = lo + (hi - lo) * frac[..., None]
    return (rgb * 255).round().astype(np.uint8)


_CMAPS = {"gray_dark": grayscale_dark, "heat": heat_colors}


def apply_colormap(grid: np.ndarray, cmap: str = "gray_dark", vmax=None) -> np.ndarray:
    """Heat grid -> uint8 image array ('gray_dark' 2-D or 'heat' RGB 3-D).

    An unsigned integer grid (a circle-count raster) is coloured through a
    lookup table: the values 0..max go through :func:`normalize` and the
    colormap as float pixels would, and the grid indexes the result — the
    same bytes, for max + 1 values' arithmetic.  Other grids are coloured
    per pixel.
    """
    colour = _CMAPS.get(cmap)
    if colour is None:
        raise InvalidInputError(f"unknown colormap {cmap!r}")
    grid = np.asarray(grid)
    if grid.dtype.kind == "u" and grid.size:
        top = int(grid.max())
        lut = colour(normalize(np.arange(top + 1), top if vmax is None else vmax))
        return np.take(lut, grid, axis=0)
    return colour(normalize(grid, vmax))
