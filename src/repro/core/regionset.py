"""The labeled-subdivision output model.

All algorithms emit *fragments*: maximal x-runs of a constant-RNN-set pair
(rectangles for L-infinity/L1, arc-bounded slabs for L2) that together tile
the portion of the plane covered by NN-circles.  Points outside every
fragment have the empty RNN set and the measure's default heat.  A
``RegionSet`` bundles the fragments with the coordinate transform (identity,
or the pi/4 rotation for L1) and answers the paper's interactive
post-processing operations: heat at a point, top-k, thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import InvalidInputError
from ..geometry.arcs import LOWER_ARC, Arc
from ..geometry.rect import Rect
from ..geometry.transforms import IDENTITY, Transform
from ..index.rtree import RTree

__all__ = ["RectFragment", "ArcFragment", "RegionSet"]


#: Grid cells per side per ``sqrt(fragment count)`` (so ~1/4 fragment per
#: cell) and the side's cap, which bounds the index at 1024^2 cells.
_GRID_PER_SQRT = 2
_GRID_MAX = 1024

#: Points tested per vectorized step of ``_FragmentTable.locate``: bounds
#: the lookup's temporaries (~130 bytes a point) for any batch size, in
#: steps large enough that a 256-px tile takes few numpy calls (each large
#: call releases the GIL, and re-acquiring it costs a tile rendered beside
#: busy query threads far more than the arithmetic does).
_LOCATE_BLOCK = 16384


def _arc_y_many(cx, cy, r2, sign, px):
    """Vectorized ``Arc.y_at``: boundary y at each ``px``.

    Rectangle boundaries are encoded as degenerate arcs with ``r2 == 0``
    and ``cy`` set to the constant bound, making one formula serve both
    fragment kinds.  ``r2`` is the squared radius.  ``Arc.y_at`` clamps
    ``dx`` to ``[-r, r]`` and takes ``sqrt(max(r*r - dx*dx, 0))``;
    squaring is monotone under rounding, so ``min(dx*dx, r*r)`` is
    exactly the clamped square and the difference is never negative.
    Batch and scalar answers are therefore bit-identical.
    """
    h = px - cx
    np.multiply(h, h, out=h)
    np.minimum(h, r2, out=h)
    np.subtract(r2, h, out=h)
    np.sqrt(h, out=h)
    h *= sign
    h += cy
    return h


class _BoxGrid:
    """A uniform grid over axis-aligned boxes, in CSR layout.

    ``side`` cells a side span ``bounds``; per cell, ``starts``/``counts``
    index the boxes whose closed extent touches it in ``entries``, in box
    order.  Coordinates outside ``bounds`` clamp to the edge cells.  With
    ``max_entries`` the side halves until the index holds at most that
    many entries.  The fragment table indexes fragment boxes with it and
    the NN-circle surface (``repro.core.surface``) circle boxes.
    """

    __slots__ = ("side", "x0", "y0", "sx", "sy", "starts", "counts", "entries")

    def __init__(
        self, x_lo, x_hi, y_lo, y_hi, bounds: Rect, side: int,
        max_entries: "int | None" = None,
    ) -> None:
        n = len(x_lo)
        self.x0 = bounds.x_lo
        self.y0 = bounds.y_lo
        w = bounds.x_hi - bounds.x_lo
        h = bounds.y_hi - bounds.y_lo
        while True:
            self.side = side
            self.sx = side / w if w > 0 else 0.0
            self.sy = side / h if h > 0 else 0.0
            cx0 = self.column(x_lo)
            rx = self.column(x_hi) - cx0 + 1
            cy0 = self.row(y_lo)
            spans = rx * (self.row(y_hi) - cy0 + 1)
            if max_entries is None or side == 1 or spans.sum() <= max_entries:
                break
            side //= 2
        # One entry per (box, cell it touches): the entry's offset within
        # its box's block of cells locates the cell.
        box = np.repeat(np.arange(n, dtype=np.int32), spans)
        off = np.arange(len(box), dtype=np.int32)
        off -= (np.cumsum(spans) - spans).astype(np.int32)[box]
        dy, dx = np.divmod(off, rx.astype(np.int32)[box])
        del off
        key = (cy0 * side + cx0)[box]
        key += dy * side
        key += dx
        del dy, dx
        self.counts = np.bincount(key, minlength=side * side).astype(np.int32)
        # Box order within each cell: sort unique (cell, box) keys.
        key *= n
        key += box
        del box
        key.sort()
        self.entries = (key % n).astype(np.int32)
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1]))

    def _index(self, v, v0: float, scale: float) -> np.ndarray:
        """Grid column (or row) of each coordinate, clamped into the grid."""
        t = v - v0
        t *= scale
        with np.errstate(invalid="ignore"):  # NaN probes land in cell 0
            i = t.astype(np.int64)
        return np.clip(i, 0, self.side - 1, out=i)

    def column(self, x) -> np.ndarray:
        """Grid column of each x."""
        return self._index(x, self.x0, self.sx)

    def row(self, y) -> np.ndarray:
        """Grid row of each y."""
        return self._index(y, self.y0, self.sy)

    def cell(self, px, py) -> np.ndarray:
        """Flat cell index of each point."""
        cell = self.row(py)
        cell *= self.side
        cell += self.column(px)
        return cell


class _FragmentTable:
    """Flat NumPy columns of a fragment list plus a uniform-grid index.

    ``cols`` holds one row per column — x-span, then the lower and upper
    bounding curves as ``(cx, cy, r*r, sign)`` (degenerate arcs with
    ``r == 0`` for rectangle fragments) — so one gather fetches every
    column a candidate test needs.  A :class:`_BoxGrid` of
    ``2 * ceil(sqrt(n))`` cells a side over the fragments' union box
    stores, per cell, the fragments whose bbox touches it, replacing the
    per-point R-tree descent with vectorized candidate probing.
    """

    __slots__ = ("cols", "heat", "bb_ylo", "bb_yhi", "bounds", "grid")

    def __init__(self, fragments: list) -> None:
        n = len(fragments)
        rows = np.fromiter(
            chain.from_iterable(map(_table_row, fragments)), float, 11 * n
        ).reshape(n, 11)
        self.heat = np.ascontiguousarray(rows[:, 10])
        # Squared radii: the locate hot loop never needs r itself.
        rows[:, 4] *= rows[:, 4]
        rows[:, 8] *= rows[:, 8]
        self.cols = np.ascontiguousarray(rows[:, :10].T)
        del rows
        x_lo, x_hi, lo_cx, lo_cy, lo_r2, lo_s, up_cx, up_cy, up_r2, up_s = self.cols

        # Bounding boxes exactly as ``ArcFragment.bbox`` computes them: the
        # lower curve's minimum (upper curve's maximum) over the slab ends
        # and the arc's extreme x clamped into the slab.
        def extreme(pick, cx, cy, r2, s):
            xm = np.minimum(np.maximum(cx, x_lo), x_hi)
            ya, yb, ym = (_arc_y_many(cx, cy, r2, s, x) for x in (x_lo, x_hi, xm))
            return pick(pick(ya, yb), ym)

        self.bb_ylo = extreme(np.minimum, lo_cx, lo_cy, lo_r2, lo_s)
        self.bb_yhi = extreme(np.maximum, up_cx, up_cy, up_r2, up_s)
        x0, x1 = float(x_lo.min()), float(x_hi.max())
        y0, y1 = float(self.bb_ylo.min()), float(self.bb_yhi.max())
        self.bounds = Rect(x0, x1, y0, y1)

        side = min(_GRID_PER_SQRT * int(np.ceil(np.sqrt(n))), _GRID_MAX)
        self.grid = _BoxGrid(x_lo, x_hi, self.bb_ylo, self.bb_yhi, self.bounds, side)

    def locate(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Fragment index containing each point, or -1.

        Candidates are tried in fragment order.  Strict (open) containment
        wins — unique, because fragments tile the plane; a point with no
        strict hit falls back to its first closed hit, so boundary points
        resolve to one adjacent fragment.  Both tests share one pass: the
        smallest of the four signed gaps to the fragment's sides is
        positive inside and zero on the boundary.
        """
        res = np.full(len(px), -1, dtype=np.int32)
        edge = np.full(len(px), -1, dtype=np.int32)
        grid = self.grid
        cell = grid.cell(px, py)
        starts = grid.starts[cell]
        counts = grid.counts[cell]
        del cell
        pend = np.flatnonzero(counts)
        j = 0
        while pend.size:
            later = []
            for b in range(0, pend.size, _LOCATE_BLOCK):
                blk = pend[b:b + _LOCATE_BLOCK]
                fi = grid.entries[starts[blk] + j]
                x_lo, x_hi, *lo_up = np.take(self.cols, fi, axis=1)
                x = px[blk]
                y = py[blk]
                y_lo = _arc_y_many(*lo_up[:4], x)
                y_hi = _arc_y_many(*lo_up[4:], x)
                gap = x - x_lo
                np.minimum(gap, np.subtract(x_hi, x, out=x_hi), out=gap)
                np.minimum(gap, np.subtract(y, y_lo, out=y_lo), out=gap)
                np.minimum(gap, np.subtract(y_hi, y, out=y_hi), out=gap)
                inside = gap > 0
                res[blk[inside]] = fi[inside]
                on_edge = gap == 0
                if on_edge.any():  # rare: a point on a fragment's boundary
                    on_edge &= edge[blk] < 0
                    edge[blk[on_edge]] = fi[on_edge]
                later.append(blk[~inside & (counts[blk] > j + 1)])
            pend = later[0] if len(later) == 1 else np.concatenate(later)
            j += 1
        return np.where(res >= 0, res, edge)


def _table_row(f) -> tuple:
    """One fragment's ``_FragmentTable`` row (before radii are squared)."""
    if type(f) is RectFragment:
        return (f.x_lo, f.x_hi, 0.0, f.y_lo, 0.0, -1.0,
                0.0, f.y_hi, 0.0, 1.0, f.heat)
    lo, up = f.lower, f.upper
    return (f.x_lo, f.x_hi,
            lo.cx, lo.cy, lo.r, -1.0 if lo.kind == LOWER_ARC else 1.0,
            up.cx, up.cy, up.r, -1.0 if up.kind == LOWER_ARC else 1.0,
            f.heat)


@dataclass(frozen=True)
class RectFragment:
    """An open axis-aligned rectangle of constant RNN set (internal frame)."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    heat: float
    rnn: frozenset

    @property
    def bbox(self) -> Rect:
        """The fragment's bounding rectangle (equals the fragment itself)."""
        return Rect(self.x_lo, self.x_hi, self.y_lo, self.y_hi)

    @property
    def area(self) -> float:
        """Exact rectangle area (internal frame)."""
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

    def contains(self, x: float, y: float) -> bool:
        """Strict interior membership (boundaries excluded)."""
        return self.x_lo < x < self.x_hi and self.y_lo < y < self.y_hi

    def contains_closed(self, x: float, y: float) -> bool:
        """Closed membership (boundaries included) — the probe fallback."""
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def representative_point(self) -> "tuple[float, float]":
        """An interior point (the center), for re-labeling and verification."""
        return ((self.x_lo + self.x_hi) / 2.0, (self.y_lo + self.y_hi) / 2.0)


@dataclass(frozen=True)
class ArcFragment:
    """A slab x in (x_lo, x_hi) bounded below/above by circular arcs (L2)."""

    x_lo: float
    x_hi: float
    lower: Arc
    upper: Arc
    heat: float
    rnn: frozenset

    @property
    def bbox(self) -> Rect:
        """Bounding rectangle of the slab between the two arcs."""
        xs = (self.x_lo, self.x_hi, min(max(self.lower.cx, self.x_lo), self.x_hi))
        y_lo = min(self.lower.y_at(x) for x in xs)
        xs_u = (self.x_lo, self.x_hi, min(max(self.upper.cx, self.x_lo), self.x_hi))
        y_hi = max(self.upper.y_at(x) for x in xs_u)
        return Rect(self.x_lo, self.x_hi, y_lo, y_hi)

    @property
    def area(self) -> float:
        """Numerically integrated area (16-point midpoint rule)."""
        n = 16
        xs = np.linspace(self.x_lo, self.x_hi, n + 1)
        mids = (xs[:-1] + xs[1:]) / 2.0
        total = 0.0
        w = (self.x_hi - self.x_lo) / n
        for x in mids:
            total += max(self.upper.y_at(x) - self.lower.y_at(x), 0.0) * w
        return total

    def contains(self, x: float, y: float) -> bool:
        """Strict interior membership (slab and arc boundaries excluded)."""
        if not (self.x_lo < x < self.x_hi):
            return False
        return self.lower.y_at(x) < y < self.upper.y_at(x)

    def contains_closed(self, x: float, y: float) -> bool:
        """Closed membership (boundaries included) — the probe fallback."""
        if not (self.x_lo <= x <= self.x_hi):
            return False
        return self.lower.y_at(x) <= y <= self.upper.y_at(x)

    def representative_point(self) -> "tuple[float, float]":
        """An interior point at the slab's x-midpoint, between the arcs."""
        x = (self.x_lo + self.x_hi) / 2.0
        return (x, (self.lower.y_at(x) + self.upper.y_at(x)) / 2.0)


class RegionSet:
    """A labeled subdivision supporting exploration queries.

    Attributes:
        fragments: the labeled pieces, in internal coordinates.
        transform: maps original coordinates to internal ones (identity
            except for L1, which runs rotated by pi/4).
        default_heat: heat of the empty RNN set (everywhere uncovered).
        metric_name: metric of the originating problem.
    """

    def __init__(
        self,
        fragments: list,
        transform: Transform = IDENTITY,
        default_heat: float = 0.0,
        metric_name: str = "linf",
    ) -> None:
        self.fragments = fragments
        self.transform = transform
        self.default_heat = float(default_heat)
        self.metric_name = metric_name
        self._rtree: "RTree | None" = None
        self._flat: "_FragmentTable | None" = None

    def __len__(self) -> int:
        return len(self.fragments)

    def __repr__(self) -> str:
        return (
            f"RegionSet({len(self.fragments)} fragments, "
            f"metric={self.metric_name!r}, "
            f"transform={self.transform.name!r})"
        )

    def _index(self) -> "RTree | None":
        if self._rtree is None and self.fragments:
            t = self._table()
            self._rtree = RTree(t.cols[0], t.cols[1], t.bb_ylo, t.bb_yhi)
        return self._rtree

    def _table(self) -> "_FragmentTable | None":
        """The flat fragment table backing batch queries (lazily built)."""
        if self._flat is None and self.fragments:
            self._flat = _FragmentTable(self.fragments)
        return self._flat

    def fragment_at(self, x: float, y: float):
        """The fragment containing the point, or None (in original coords).

        This is the R-tree reference path (one tree descent per call);
        ``heat_at``/``rnn_at`` answer through the vectorized flat table
        instead and only match it up to boundary tie-breaking.

        Points strictly inside a fragment resolve exactly.  A point on a
        boundary falls back to closed containment and returns one adjacent
        fragment: fragment seams interior to a region (an implementation
        artifact of the sweep) then answer correctly, while points on true
        region boundaries (NN-circle edges, measure zero) resolve to an
        arbitrary adjacent region.
        """
        ix, iy = self.transform.forward(x, y)
        index = self._index()
        if index is None:
            return None
        candidates = index.query_point(ix, iy)
        for i in candidates:
            frag = self.fragments[i]
            if frag.contains(ix, iy):
                return frag
        for i in candidates:
            frag = self.fragments[i]
            if frag.contains_closed(ix, iy):
                return frag
        return None

    def heat_at(self, x: float, y: float) -> float:
        """Heat of the point's region; default heat outside all circles.

        Delegates to :meth:`heat_at_many` — scalar and batch answers are
        the same code path and therefore bit-identical.
        """
        return float(self.heat_at_many(np.array([[x, y]], dtype=float))[0])

    def rnn_at(self, x: float, y: float) -> frozenset:
        """The RNN set of the point's region (empty outside all circles)."""
        return self.rnn_at_many(np.array([[x, y]], dtype=float))[0]

    def _locate_many(self, points) -> np.ndarray:
        """Fragment index per query point (original coords), -1 outside."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError("points must have shape (n, 2)")
        table = self._table()
        if table is None:
            return np.full(len(pts), -1, dtype=np.int64)
        ipts = self.transform.forward_array(pts)
        return table.locate(ipts[:, 0], ipts[:, 1])

    def heat_at_many(self, points) -> np.ndarray:
        """Heat for an (n, 2) batch of query points (original coords).

        One vectorized pass over a flat fragment table instead of n R-tree
        descents; the batch path is the primary implementation and
        ``heat_at`` delegates to it.
        """
        idx = self._locate_many(points)
        table = self._flat
        if table is None:
            return np.full(len(idx), self.default_heat)
        out = np.where(idx >= 0, table.heat[np.maximum(idx, 0)], self.default_heat)
        return out

    def rnn_at_many(self, points) -> "list[frozenset]":
        """RNN set per query point (empty set outside all fragments)."""
        empty = frozenset()
        frags = self.fragments
        return [
            empty if i < 0 else frags[i].rnn for i in self._locate_many(points)
        ]

    def heats_at(self, points: np.ndarray) -> np.ndarray:
        """Alias of :meth:`heat_at_many` (kept for API compatibility)."""
        return self.heat_at_many(points)

    def bounds(self) -> "Rect | None":
        """Bounding box of all fragments, in *internal* coordinates.

        Read off the fragment table (built here if it is not yet), so the
        caller asking for a map's extent also pays for its point index.
        """
        table = self._table()
        return None if table is None else table.bounds

    @property
    def max_heat(self) -> float:
        """The hottest fragment's heat (``-inf`` without fragments)."""
        table = self._table()
        return -math.inf if table is None else float(table.heat.max())

    # ------------------------------------------------------------------
    # Interactive post-processing (Section I: threshold / top-k support).
    # ------------------------------------------------------------------
    def top_k_heats(self, k: int) -> "list[float]":
        """The k largest distinct heat values."""
        if k <= 0:
            raise InvalidInputError("k must be positive")
        return sorted({f.heat for f in self.fragments}, reverse=True)[:k]

    def top_k_fragments(self, k: int) -> list:
        """Fragments whose heat is among the k largest distinct values,
        ordered by descending heat (the paper's top-k influential regions)."""
        cutoffs = set(self.top_k_heats(k))
        chosen = [f for f in self.fragments if f.heat in cutoffs]
        return sorted(chosen, key=lambda f: -f.heat)

    def threshold(self, min_heat: float) -> "RegionSet":
        """A view keeping only fragments with heat >= min_heat."""
        kept = [f for f in self.fragments if f.heat >= min_heat]
        return RegionSet(kept, self.transform, self.default_heat, self.metric_name)

    def zoom(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> "RegionSet":
        """A view clipped to a window given in *original* coordinates."""
        if x_lo >= x_hi or y_lo >= y_hi:
            raise InvalidInputError("zoom window must have positive extent")
        corners = [
            self.transform.forward(x, y)
            for x in (x_lo, x_hi)
            for y in (y_lo, y_hi)
        ]
        ix_lo = min(c[0] for c in corners)
        ix_hi = max(c[0] for c in corners)
        iy_lo = min(c[1] for c in corners)
        iy_hi = max(c[1] for c in corners)
        window = Rect(ix_lo, ix_hi, iy_lo, iy_hi)
        kept = [f for f in self.fragments if f.bbox.intersects(window)]
        return RegionSet(kept, self.transform, self.default_heat, self.metric_name)

    def max_fragment(self):
        """The hottest fragment, or None when empty."""
        if not self.fragments:
            return None
        return max(self.fragments, key=lambda f: f.heat)

    def total_area(self) -> float:
        """Sum of all fragment areas (internal frame).  This covers the
        union of the NN-circles *plus* any labeled empty-set gaps between
        vertically stacked circles (valid pairs with an empty RNN set are
        still labeled, per Lemma 1)."""
        return float(sum(f.area for f in self.fragments))

    def covered_area(self) -> float:
        """Sum of non-empty-set fragment areas (internal frame) — exactly
        the area of the union of the NN-circles for L-infinity."""
        return float(sum(f.area for f in self.fragments if f.rnn))

    def area_above(self, min_heat: float) -> float:
        """Total area (internal frame) with heat >= min_heat — 'how much
        of the city is at least this influential?'."""
        return float(sum(f.area for f in self.fragments if f.heat >= min_heat))

    def heat_distribution(self, bins: int = 10) -> "tuple[np.ndarray, np.ndarray]":
        """Area-weighted histogram of heat over the labeled plane.

        The paper's abstract: the heat map gives "a global view on the
        influence distribution in the space"; this is that view as numbers.

        Returns:
            (bin_edges, areas): ``len(bin_edges) == bins + 1``; ``areas[i]``
            is the total area with heat in [edges[i], edges[i+1]).
        """
        if bins <= 0:
            raise InvalidInputError("bins must be positive")
        if not self.fragments:
            return np.linspace(0.0, 1.0, bins + 1), np.zeros(bins)
        heats = np.array([f.heat for f in self.fragments])
        areas = np.array([f.area for f in self.fragments])
        hi = float(heats.max())
        lo = min(float(heats.min()), self.default_heat)
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, bins + 1)
        idx = np.clip(np.digitize(heats, edges) - 1, 0, bins - 1)
        out = np.zeros(bins)
        np.add.at(out, idx, areas)
        return edges, out

    def distinct_rnn_sets(self) -> "set[frozenset]":
        """All distinct RNN sets labeled, including the implicit empty set."""
        out = {f.rnn for f in self.fragments}
        out.add(frozenset())
        return out

    def rasterize(
        self, width: int, height: int, bounds: "Rect | None" = None
    ) -> "tuple[np.ndarray, Rect]":
        """Heat at pixel centres as a float grid; see ``repro.render.raster``."""
        from ..render.raster import rasterize_regionset

        return rasterize_regionset(self, width, height, bounds)
