"""The NN-circle heat surface: size-measure heat without the arrangement.

Under the size measure a point's heat is the number of NN-circles that
strictly contain it and its RNN set is those circles' clients — the
paper's superimposition view (Fig. 3).  Neither needs the arrangement:
each answer is a batch of independent point-in-circle tests, the
formulation RT-RkNN builds RkNN on.  :class:`NNCircleSurface` runs them
over a uniform grid of the circle boxes (the
:class:`~repro.core.regionset._BoxGrid` the fragment table uses), so a
point costs the circles whose boxes touch its grid cell, not all of them.

The circles stay in the sweep's internal frame (L1 maps rotated by pi/4,
so their circles are axis-aligned squares) and an L2 point is tested
against the very arc formula the sweep's fragments are bounded by, so
the surface answers what the swept
:class:`~repro.core.regionset.RegionSet` answers.  The k largest region
heats, the maximum among them, are exact and found without a sweep
(:meth:`NNCircleSurface.top_k_heats`).

Fragment-level products — thresholded views, the fragments themselves —
still need the arrangement: :meth:`NNCircleSurface.arrangement` runs the
engine's sweep over the same circles once, on first use, and those calls
delegate to its result.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..errors import AlgorithmUnsupportedError, InvalidInputError
from ..geometry.circle import NNCircleSet
from ..geometry.rect import Rect
from ..geometry.transforms import IDENTITY
from ..influence.measures import SizeMeasure
from ..nn.nncircles import _ranges
from .regionset import _BoxGrid

__all__ = ["NNCircleSurface"]

#: Grid cells a side per ``sqrt(circle count)``, and the side's cap.  A
#: circle then spans a few cells, so a cell holds few more circles than
#: cover its points.
_GRID_PER_SQRT = 4
_GRID_MAX = 1024

#: Index entries allowed per circle: heavily overlapping circles (large k,
#: few facilities) coarsen the grid until the index fits this budget.
_ENTRIES_PER_CIRCLE = 256

#: Points tested per vectorized step: bounds the temporaries for any
#: batch size, as ``regionset._LOCATE_BLOCK`` does for the fragment table.
_BLOCK = 16384

#: Candidate circle pairs per group of the disk heat search, and
#: (x-step, y-interval) cells per block of the square one.
_PAIR_BLOCK = 1 << 18
_CELLS = 1 << 20

#: Candidate boundary points closer than this (relative to their circle's
#: radius) to another circle's boundary sit where rounding decides which
#: side they are on, and cannot certify a heat.
_TIE = 1e-9


def _distinct(v: np.ndarray) -> np.ndarray:
    """The distinct values of sorted ``v`` (``np.unique`` would load
    ``numpy.ma`` into a server's first request)."""
    return v[np.r_[True, v[1:] != v[:-1]]] if len(v) else v


def _half_chord(x, cx, r2) -> np.ndarray:
    """Half the height of each disk at ``x``: the sweep's arc formula
    (``regionset._arc_y_many``), ``sqrt(r^2 - min(dx^2, r^2))``.  Strict
    containment is ``cy - h < y < cy + h``."""
    h = x - cx
    np.multiply(h, h, out=h)
    np.minimum(h, r2, out=h)
    np.subtract(r2, h, out=h)
    return np.sqrt(h, out=h)


def _column_runs(c0, c1, shape, dtype, runs) -> np.ndarray:
    """The ``shape`` (height, width) grid, as unsigned ``dtype``, counting
    the runs of rows ``runs(k, c)`` gives as ``(start, stop)`` arrays for
    each shape k in each of its pixel columns ``c0[k] <= c < c1[k]``.

    Each run adds +1 at its start and -1 past its end in a difference
    array, and running sums down the columns give the counts.  No count
    exceeds the number of shapes, so the differences may wrap around in
    the unsigned ``dtype``: the sums come out exact.  Shape-column pairs
    are expanded ``_BLOCK`` at a time.
    """
    height, width = shape
    one = dtype.type(1)  # a Python int would take ufunc.at's slow path
    pairs = np.maximum(c1 - c0, 0)
    diff = np.zeros((height + 1) * width, dtype)
    cuts = np.searchsorted(
        np.cumsum(pairs), np.arange(_BLOCK, pairs.sum(), _BLOCK), "right"
    )
    lo = 0
    for hi in [*_distinct(cuts).tolist(), len(pairs)]:
        k = np.repeat(np.arange(lo, hi), pairs[lo:hi])
        c = _ranges(c0[lo:hi], pairs[lo:hi])
        lo = hi
        start, stop = runs(k, c)
        run = start < stop
        c = c[run]
        np.add.at(diff, start[run] * width + c, one)
        np.subtract.at(diff, stop[run] * width + c, one)
    diff = diff.reshape(height + 1, width)
    np.cumsum(diff, axis=0, dtype=dtype, out=diff)
    return diff[:height]


def _guess(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """About where the sorted, evenly spaced ``a`` reaches each ``t``:
    interpolated, so a row or so from ``np.searchsorted(a, t)``, which
    rows too close to interpolate between fall back to."""
    step = (a[-1] - a[0]) / max(len(a) - 1, 1)
    if not step > 0:
        return np.searchsorted(a, t)
    return np.clip(np.ceil((t - a[0]) / step), 0, len(a)).astype(np.int64)


def _settle(first: np.ndarray, n: int, test) -> np.ndarray:
    """Move each guess ``first[i]`` to the first row r in ``[0, n]`` where
    ``test(i, r)`` holds (``n`` where none does), for a test that fails
    on a prefix of the rows and holds on the rest: one row at a time, so
    a guess a row or two off costs a step or two."""
    i = np.arange(len(first))
    while len(i):
        f = first[i]
        down = (f > 0) & test(i, np.maximum(f - 1, 0))
        up = ~down & (f < n) & ~test(i, np.minimum(f, n - 1))
        first[i[down]] -= 1
        first[i[up]] += 1
        i = i[down | up]
    return first


class _Heats:
    """A search's distinct heats, each with a point reading it, and its
    floor: the k-th largest heat found (-1 until k are)."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.points: "dict[int, tuple[float, float]]" = {}
        self.floor = -1

    def fresh(self, heats: np.ndarray) -> np.ndarray:
        """Indices of one entry per value of ``heats`` not found yet that
        ranks among the k largest of the heats found and these."""
        top = int(heats.max()) if len(heats) else -1
        if top <= self.floor:
            return np.zeros(0, np.int64)
        # Nothing at or below a cut k heats lie above can rank: try the
        # cut k below the top before the floor.
        for cut in (max(self.floor, top - self.k), self.floor):
            above = np.flatnonzero(heats > cut)
            at = np.full(top + 1, -1, np.int64)
            at[heats[above]] = above  # one of a repeated value's entries wins
            values = np.flatnonzero(at >= 0).tolist()
            ranked = {v for v in self.points if v > cut}.union(values)
            if cut == self.floor or len(ranked) >= self.k:
                break
        return at[[v for v in values if v not in self.points]]

    def add(self, heats, px, py) -> None:
        """Record fresh heats, each read at ``(px, py)``, and raise the floor."""
        self.points.update(zip(heats.tolist(), zip(px.tolist(), py.tolist())))
        if len(self.points) >= self.k:
            self.floor = sorted(self.points, reverse=True)[self.k - 1]


class NNCircleSurface:
    """Size-measure heat as the count of NN-circles strictly containing a point.

    Duck-types the query surface of ``RegionSet`` (``heat_at_many``,
    ``rnn_at_many``, ``bounds``, ``rasterize``, ``top_k_heats``,
    ``threshold``, ``fragments``) and serializes through
    ``repro.core.serialize``.

    Args:
        circles: the NN-circles in the sweep's internal frame.
        transform: original -> internal coordinates (the pi/4 rotation for
            L1 maps, else the identity).
        engine: registry name of the sweep :meth:`arrangement` runs, or
            None for circles that get no arrangement: the approximate
            engines', whose heavily overlapping circles would take
            minutes to hours and gigabytes of fragments to sweep.  Then
            ``threshold`` and ``fragments`` are unsupported.
        meta: engine-specific arrays kept with the surface and its payload
            (the approximate engines' ``knn_indices``,
            ``facility_rnn_counts`` and ``slice_point``).
    """

    #: Serialization tag (see ``repro.core.serialize``).
    kind = "nn-circle-surface"

    #: Heat outside every circle: the size of the empty RNN set.
    default_heat = 0.0

    def __init__(
        self,
        circles: NNCircleSet,
        transform=IDENTITY,
        *,
        engine: "str | None" = "crest",
        meta: "dict | None" = None,
    ) -> None:
        self.circles = circles
        self.transform = transform
        self.engine = engine
        self.meta = dict(meta or {})
        self.metric_name = circles.metric.name
        if self.metric_name not in ("l2", "linf"):
            raise InvalidInputError(
                f"circle surfaces run under l2/linf, not {self.metric_name!r}"
            )
        self._sweep_lock = threading.Lock()
        self._swept = None
        #: The longest top list searched so far, and the k it was searched
        #: for: shorter than that k, it holds every heat of the map.
        self._top_lock = threading.Lock()
        self._top_list = ([], 0)
        cx, cy, r = circles.cx, circles.cy, circles.radius
        self._box = (cx - r, cx + r, cy - r, cy + r)
        if self.metric_name == "l2":
            self._cols = np.stack([cx, cy, r * r])
        else:
            self._cols = np.stack(self._box)
        n = len(circles)
        if n == 0:
            self._bounds = None
            self._grid = None
            return
        x_lo, x_hi, y_lo, y_hi = self._box
        self._bounds = Rect(
            float(x_lo.min()), float(x_hi.max()), float(y_lo.min()), float(y_hi.max())
        )
        self._grid = _BoxGrid(
            x_lo, x_hi, y_lo, y_hi, self._bounds,
            min(_GRID_PER_SQRT * math.ceil(math.sqrt(n)), _GRID_MAX),
            max_entries=_ENTRIES_PER_CIRCLE * n,
        )

    def __len__(self) -> int:
        """Number of NN-circles behind the surface."""
        return len(self.circles)

    def __repr__(self) -> str:
        return (
            f"NNCircleSurface({len(self)} circles, metric={self.metric_name!r}, "
            f"transform={self.transform.name!r}, engine={self.engine!r})"
        )

    def bounds(self) -> "Rect | None":
        """Bounding box of all circles, in *internal* coordinates.

        The same box the swept ``RegionSet.bounds`` reports: fragments
        reach exactly the circles' extreme points.
        """
        return self._bounds

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def _candidates(self, px: np.ndarray, py: np.ndarray):
        """Yield ``(points, circles)``: each point of ``px``/``py``
        (internal coordinates) with a candidate circle from its grid cell.

        Each point's candidates are taken one slot at a time, all points
        at once, in blocks of at most ``_BLOCK`` — so a point appears at
        most once per yielded block, and memory stays bounded however
        many circles share a cell.
        """
        grid = self._grid
        if grid is None:
            return
        cell = grid.cell(px, py)
        starts = grid.starts[cell]
        counts = grid.counts[cell]
        del cell
        pend = np.flatnonzero(counts)
        j = 0
        while pend.size:
            for b in range(0, pend.size, _BLOCK):
                blk = pend[b:b + _BLOCK]
                yield blk, grid.entries[starts[blk] + j]
            j += 1
            pend = pend[counts[pend] > j]

    def _tests(self, px: np.ndarray, py: np.ndarray):
        """Yield ``(points, circles, inside)``: the :meth:`_candidates`
        and which of them strictly contain their points."""
        for blk, ci in self._candidates(px, py):
            yield blk, ci, self._inside(px[blk], py[blk], ci)

    def _inside(self, x, y, ci) -> np.ndarray:
        """Whether point ``(x[k], y[k])`` lies inside circle ``ci[k]``."""
        cols = np.take(self._cols, ci, axis=1)
        if self.metric_name == "l2":
            cx, cy, r2 = cols
            h = _half_chord(x, cx, r2)
            return (y > cy - h) & (y < cy + h)
        x_lo, x_hi, y_lo, y_hi = cols
        return (x > x_lo) & (x < x_hi) & (y > y_lo) & (y < y_hi)

    def _count(self, px, py) -> np.ndarray:
        """Containing-circle count per internal-frame point."""
        out = np.zeros(len(px), dtype=np.int64)
        for pt, _ci, inside in self._tests(px, py):
            out[pt] += inside
        return out

    def _members(self, px, py) -> "list[frozenset]":
        """Client ids of the containing circles per internal-frame point."""
        hits = [(pt[inside], ci[inside]) for pt, ci, inside in self._tests(px, py)]
        pt = np.concatenate([h[0] for h in hits] + [np.zeros(0, np.int64)])
        ci = np.concatenate([h[1] for h in hits] + [np.zeros(0, np.int32)])
        order = np.argsort(pt, kind="stable")
        pt, ids = pt[order], self.circles.client_ids[ci[order]]
        out = [frozenset()] * len(px)
        if len(pt):
            cut = np.flatnonzero(np.diff(pt)) + 1
            for p, group in zip(pt[np.r_[0, cut]].tolist(), np.split(ids, cut)):
                out[p] = frozenset(group.tolist())
        return out

    def _internal(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError("points must have shape (n, 2)")
        return self.transform.forward_array(pts)

    # ------------------------------------------------------------------
    # Point queries (original coordinates)
    # ------------------------------------------------------------------
    def heat_at_many(self, points) -> np.ndarray:
        """Heat (containing-circle count) for an (n, 2) batch of points."""
        ipts = self._internal(points)
        return self._count(ipts[:, 0], ipts[:, 1]).astype(float)

    def heat_at(self, x: float, y: float) -> float:
        """Heat at one point."""
        return float(self.heat_at_many(np.array([[x, y]], dtype=float))[0])

    def rnn_at_many(self, points) -> "list[frozenset]":
        """RNN set (client ids of the containing circles) per point."""
        ipts = self._internal(points)
        return self._members(ipts[:, 0], ipts[:, 1])

    def rnn_at(self, x: float, y: float) -> frozenset:
        """RNN set at one point."""
        return self.rnn_at_many(np.array([[x, y]], dtype=float))[0]

    def rasterize(
        self, width: int, height: int, bounds: "Rect | None" = None
    ) -> "tuple[np.ndarray, Rect]":
        """``(grid, bounds)``: the (height, width) count of circles
        containing each pixel centre (row 0 = bottom), as
        ``np.min_scalar_type(len(self))`` — no count exceeds the circle
        count — over the window of ``repro.render.raster.pixel_axes``.

        Every pixel equals :meth:`heat_at_many` at its centre, and no
        pixel is tested alone: disks add runs of rows per pixel column
        and L-infinity squares rectangles of pixels
        (:meth:`_span_count`), L1 squares runs of rows in the rotated
        frame they live in (:meth:`_rotated_span_count`).
        """
        from ..render.raster import pixel_axes

        xs, ys, bounds = pixel_axes(self, width, height, bounds)
        dtype = np.min_scalar_type(len(self))
        if self._grid is None:
            return np.zeros((height, width), dtype), bounds
        if self.transform.is_identity:
            return self._span_count(xs, ys, dtype), bounds
        return self._rotated_span_count(xs, ys, dtype), bounds

    def _span_count(self, xs: np.ndarray, ys: np.ndarray, dtype) -> np.ndarray:
        """Containment counts, as ``dtype``, at the identity-frame pixel
        centres ``(xs[c], ys[r])``, equal to what :meth:`_count` finds.

        A circle is tested only at the pixels whose grid cell lists it, as
        in :meth:`_candidates` — a rectangle of pixels, since the cells of
        sorted centres are sorted.  Within it a square holds a rectangle of
        pixels, added into a 2-D difference array; a disk holds, per pixel
        column, the run of rows strictly between ``cy -/+ h``
        (:func:`_half_chord`, as :meth:`_inside` tests it, once per circle
        and column), counted by :func:`_column_runs`.
        """
        grid = self._grid
        width, height = len(xs), len(ys)
        one = dtype.type(1)  # a Python int would take ufunc.at's slow path
        col, row = grid.column(xs), grid.row(ys)
        ids = self._window(col, row)
        x_lo, x_hi, y_lo, y_hi = (v[ids] for v in self._box)
        # The first pixel column (row) at or past each grid column (row).
        cells = np.arange(grid.side + 1)
        at_col, at_row = np.searchsorted(col, cells), np.searchsorted(row, cells)
        c0, c1 = at_col[grid.column(x_lo)], at_col[grid.column(x_hi) + 1]
        r0, r1 = at_row[grid.row(y_lo)], at_row[grid.row(y_hi) + 1]
        if self.metric_name == "linf":
            # Pixels strictly inside each square, within its cells.
            c0 = np.maximum(c0, np.searchsorted(xs, x_lo, "right"))
            c1 = np.minimum(c1, np.searchsorted(xs, x_hi, "left"))
            r0 = np.maximum(r0, np.searchsorted(ys, y_lo, "right"))
            r1 = np.minimum(r1, np.searchsorted(ys, y_hi, "left"))
            keep = (c0 < c1) & (r0 < r1)
            c0, c1, r0, r1 = c0[keep], c1[keep], r0[keep], r1[keep]
            diff = np.zeros((height + 1) * (width + 1), dtype)
            r0 *= width + 1
            r1 *= width + 1
            np.add.at(diff, np.r_[r0 + c0, r1 + c1], one)
            np.subtract.at(diff, np.r_[r0 + c1, r1 + c0], one)
            diff = diff.reshape(height + 1, width + 1)
            np.cumsum(diff, axis=0, dtype=dtype, out=diff)
            np.cumsum(diff, axis=1, dtype=dtype, out=diff)
            return np.ascontiguousarray(diff[:height, :width])
        cx, cy, r2 = np.take(self._cols, ids, axis=1)

        def runs(k, c):
            h = _half_chord(xs[c], cx[k], r2[k])
            ck = cy[k]
            start = np.maximum(np.searchsorted(ys, ck - h, "right"), r0[k])
            stop = np.minimum(np.searchsorted(ys, ck + h, "left"), r1[k])
            return start, stop

        return _column_runs(c0, c1, (height, width), dtype, runs)

    def _rotated_span_count(self, xs: np.ndarray, ys: np.ndarray, dtype) -> np.ndarray:
        """:meth:`_span_count` for an L1 map, whose squares live in the
        frame rotated by pi/4.

        There pixel ``(r, c)`` sits at ``u = xs[c]*cos - ys[r]*sin`` and
        ``v = xs[c]*sin + ys[r]*cos``, rounded term by term as
        ``Rotation.forward_array`` rounds them.  Rounding is monotone, so
        down a pixel column u never rises and v never falls, and a square's
        test ``x_lo < u < x_hi``, ``y_lo < v < y_hi`` holds on one run of
        rows.  Interpolating in the evenly spaced row terms guesses the
        run's ends (:func:`_guess`) and the exact test settles the rows
        beside them (:func:`_settle`).  Each square runs over the columns
        whose centres lie in its diamond's x extent.  Unlike disks,
        squares need no grid restriction: a point strictly inside a square
        lies in its closed box, so the point's grid cell lists the square.
        """
        cos, sin = self.transform._cs()
        xu, xv = xs * cos, xs * sin
        yu, yv = ys * sin, ys * cos
        # u and v are monotone in both axes, so the corner pixels bound
        # the tile's internal box and the squares it may hold.
        grid = self._grid
        col = grid.column(np.array([xu[0] - yu[-1], xu[-1] - yu[0]]))
        row = grid.row(np.array([xv[0] + yv[0], xv[-1] + yv[-1]]))
        ids = self._window(col, row)
        x_lo, x_hi, y_lo, y_hi = (v[ids] for v in self._box)
        # The diamond's x extent, widened far past any rounding of it.
        slack = 1e-9 * (np.abs(x_lo) + np.abs(x_hi) + np.abs(y_lo) + np.abs(y_hi))
        c0 = np.searchsorted(xs, x_lo * cos + y_lo * sin - slack, "left")
        c1 = np.searchsorted(xs, x_hi * cos + y_hi * sin + slack, "right")
        height = len(ys)

        def runs(k, c):
            u, v = xu[c], xv[c]
            lo_u, hi_u, lo_v, hi_v = x_lo[k], x_hi[k], y_lo[k], y_hi[k]
            # The first row inside (u < x_hi and v > y_lo), and the first
            # row past the run (u <= x_lo or v >= y_hi).
            start = np.maximum(_guess(yu, u - hi_u), _guess(yv, lo_v - v))
            stop = np.minimum(_guess(yu, u - lo_u), _guess(yv, hi_v - v))
            start = _settle(start, height, lambda i, r: (
                (u[i] - yu[r] < hi_u[i]) & (v[i] + yv[r] > lo_v[i])
            ))
            stop = _settle(stop, height, lambda i, r: (
                (u[i] - yu[r] <= lo_u[i]) | (v[i] + yv[r] >= hi_v[i])
            ))
            return start, stop

        return _column_runs(c0, c1, (height, len(xs)), dtype, runs)

    def _window(self, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Indices of the circles listed in the grid cells spanned by
        sorted cell columns ``col`` and rows ``row`` (all circles once
        those cells hold more entries than there are circles)."""
        grid = self._grid
        cells = np.arange(row[0], row[-1] + 1) * grid.side
        start = grid.starts[cells + col[0]]
        size = grid.starts[cells + col[-1]] + grid.counts[cells + col[-1]] - start
        if size.sum() >= len(self):
            return np.arange(len(self))
        listed = np.zeros(len(self), bool)
        listed[grid.entries[_ranges(start, size)]] = True
        return np.flatnonzero(listed)

    # ------------------------------------------------------------------
    # The top heats, without a sweep
    # ------------------------------------------------------------------
    @property
    def max_heat(self) -> float:
        """The exact maximum heat (``-inf`` without circles)."""
        top = self._search(1)
        return float(top[0][0]) if top else -math.inf

    def peak(self) -> "tuple[float, tuple[float, float] | None, frozenset]":
        """``(max_heat, point, rnn)``: the maximum heat, the internal-frame
        point its search certified, and that point's RNN set."""
        top = self._search(1)
        if not top:
            return -math.inf, None, frozenset()
        heat, (px, py) = top[0]
        return float(heat), (px, py), self._members(np.array([px]), np.array([py]))[0]

    def top_k_heats(self, k: int) -> "list[float]":
        """The k largest distinct heats of the map's regions, largest first
        (all of them when there are fewer).

        The region outside every circle, heat 0, is the last entry; a map
        without circles gives ``[]``.  No sweep runs, and a list no longer
        than the longest one searched costs no new search.
        """
        if int(k) <= 0:
            raise InvalidInputError("k must be positive")
        return [float(h) for h, _point in self._search(int(k))]

    def _search(self, k: int) -> "list[tuple[int, tuple[float, float]]]":
        """``(heat, internal-frame point reading it)`` for the k largest
        distinct region heats, largest first; concurrent callers wait for
        one search.  Squares: an x-sweep over the elementary y-intervals,
        whose cells each lie in one region, in O(n^2) time.  Disks: every
        bounded region borders an arc, and points beside each arc read its
        regions' heats (:meth:`_probe_arcs`).  The k-th heat found is a
        floor below which circles and arcs are skipped; circle centres no
        boundary passes near raise it early."""
        with self._top_lock:
            top, searched = self._top_list
            if len(top) < k and len(top) == searched:
                found = _Heats(k)
                if self._grid is not None:
                    # Past every circle's box: the region outside them all.
                    b = self._bounds
                    found.add(np.zeros(1, int), np.r_[2 * b.x_hi - b.x_lo], np.r_[b.y_lo])
                    if self.metric_name == "l2":
                        self._disk_heats(found)
                    else:
                        self._square_heats(found)
                top = sorted(found.points.items(), reverse=True)[:k]
                self._top_list = (top, k)
            return top[:k]

    def _pair_groups(self, floor: int):
        """Yield ``(owners, a, b)``: a group of circles and, as index
        arrays, every ordered pair ``(a, b)`` of distinct circles whose
        closed boxes overlap with ``a`` in the group.

        Circles sorted by low x pair with the later ones starting inside
        their x-span and the earlier ones whose x-span reaches them.  A
        group holds about ``_PAIR_BLOCK`` candidate pairs (a circle with
        more is a group of its own), so memory stays bounded however much
        the circles overlap.  A circle overlapping fewer than ``floor``
        others bounds no point hotter than ``floor`` and owns no pairs.
        """
        x_lo, x_hi, y_lo, y_hi = self._box
        n = len(x_lo)
        order = np.argsort(x_lo, kind="stable")
        end = np.searchsorted(x_lo[order], x_hi[order], side="right")
        pos = np.arange(n)
        later = end - pos - 1
        # Earlier positions q whose span reaches p: q < p < end[q].
        step = np.ones(n + 1, np.int64)
        step[0] = 0
        step -= np.bincount(end, minlength=n + 1)
        earlier = np.cumsum(step)[:n]
        live = later + earlier >= floor
        total = np.cumsum(later + earlier)
        cuts = np.searchsorted(
            total, np.arange(_PAIR_BLOCK, int(total[-1]), _PAIR_BLOCK), side="right"
        )
        lo = 0
        for hi in [*_distinct(cuts).tolist(), n]:
            if not live[lo:hi].any():
                lo = hi
                continue
            size = later[lo:hi]
            a = np.repeat(pos[lo:hi], size)
            b = _ranges(pos[lo:hi] + 1, size)
            first = np.maximum(pos[:hi] + 1, lo)
            q = np.flatnonzero(np.minimum(end[:hi], hi) > first)
            size = np.minimum(end[q], hi) - first[q]
            a = np.concatenate((a, _ranges(first[q], size)))
            b = np.concatenate((b, np.repeat(q, size)))
            i, j = order[a], order[b]
            keep = live[a] & (y_lo[j] <= y_hi[i]) & (y_lo[i] <= y_hi[j])
            yield order[lo:hi][live[lo:hi]], i[keep], j[keep]
            lo = hi

    def _square_heats(self, found: "_Heats") -> None:
        x_lo, x_hi, y_lo, y_hi = self._box
        n = len(x_lo)
        # Sweep x over the elementary y-intervals: a square adds 1 to the
        # intervals [y_lo, y_hi) from its low x edge up to its high x edge.
        # A cell's count is the heat of the region its interior lies in,
        # which holds the cell's midpoint — unless rounding split edges
        # that coincide (the last x-step and y-interval have no midpoint).
        xs = _distinct(np.sort(np.concatenate((x_lo, x_hi))))
        ys = _distinct(np.sort(np.concatenate((y_lo, y_hi))))
        tie = _TIE * max(xs[-1] - xs[0], ys[-1] - ys[0])
        thin_x = np.r_[np.diff(xs) <= tie, True]
        thin_y = np.r_[np.diff(ys) <= tie, True]
        width = len(ys)
        row = np.searchsorted(xs, np.concatenate((x_lo, x_hi)))
        lo = np.searchsorted(ys, np.concatenate((y_lo, y_lo)))
        hi = np.searchsorted(ys, np.concatenate((y_hi, y_hi)))
        enter = np.arange(2 * n) < n
        # +1 where an entering square's intervals start or a leaving
        # one's end; -1 at the other end.
        up = np.where(enter, lo, hi) + row * width
        down = np.where(enter, hi, lo) + row * width
        up.sort()
        down.sort()
        cover = np.zeros(width, np.int64)
        rows = max(1, _CELLS // width)
        for r0 in range(0, len(xs), rows):
            r1 = min(r0 + rows, len(xs))
            span = (r1 - r0) * width
            first, last = r0 * width, r1 * width
            u = up[np.searchsorted(up, first):np.searchsorted(up, last)] - first
            d = down[np.searchsorted(down, first):np.searchsorted(down, last)] - first
            block = np.bincount(u, minlength=span) - np.bincount(d, minlength=span)
            block = block.reshape(r1 - r0, width)
            np.cumsum(block, axis=1, out=block)
            np.cumsum(block, axis=0, out=block)
            block += cover
            cover = block[-1].copy()
            block[thin_x[r0:r1]] = -1
            block[:, thin_y] = -1
            flat = block.ravel()
            i = found.fresh(flat)
            r, t = r0 + i // width, i % width
            found.add(flat[i], (xs[r] + xs[r + 1]) / 2.0, (ys[t] + ys[t + 1]) / 2.0)

    def _disk_heats(self, found: "_Heats") -> None:
        cx, cy, r = self.circles.cx, self.circles.cy, self.circles.radius
        ok = self._boundary_gap(cx, cy, np.arange(len(r))) > _TIE * r
        heats = self._count(cx[ok], cy[ok])
        i = found.fresh(heats)
        found.add(heats[i], cx[ok][i], cy[ok][i])
        for owner, depth, start, width in self._arcs(found.floor):
            # Probe arcs, deepest first, until no arc left can beat the floor.
            hot = np.flatnonzero(depth > found.floor)
            hot = hot[np.argsort(-depth[hot], kind="stable")]
            for lo in range(0, len(hot), _BLOCK):
                blk = hot[lo:lo + _BLOCK]
                if depth[blk[0]] <= found.floor:
                    break
                self._probe_arcs(found, owner[blk], depth[blk], start[blk], width[blk])

    def _probe_arcs(self, found: "_Heats", owner, depth, start, width) -> None:
        """Count just inside and outside each arc (outside only where that
        can beat the floor), half its gap to the nearest other boundary
        away, at its midpoint or, if another boundary passes too near
        (a tangent circle, a facility on its RNN circles), a quarter point.
        Between crossings the circles containing those points stay the
        same, so the arc's regions read the same anywhere along it."""
        cx, cy, r = self.circles.cx, self.circles.cy, self.circles.radius
        for frac in (0.5, 0.25, 0.75):
            t = start + frac * width
            ux, uy = np.cos(t), np.sin(t)
            bx, by = cx[owner] + r[owner] * ux, cy[owner] + r[owner] * uy
            gap = self._boundary_gap(bx, by, owner)
            ok = gap > _TIE * r[owner]
            out = ok & (depth > found.floor + 1)
            sx, sy = gap * ux / 2.0, gap * uy / 2.0
            qx = np.concatenate((bx[ok] - sx[ok], bx[out] + sx[out]))
            qy = np.concatenate((by[ok] - sy[ok], by[out] + sy[out]))
            heats = self._count(qx, qy)
            i = found.fresh(heats)
            found.add(heats[i], qx[i], qy[i])
            if ok.all():
                return
            owner, depth, start, width = (v[~ok] for v in (owner, depth, start, width))

    def _arcs(self, floor: int):
        """Yield ``(owner, depth, start, width)`` per group of
        :meth:`_pair_groups`: the arcs the other boundaries cut each owner
        circle's boundary into, how many circles contain each arc (its
        owner included), and the angle each starts at and spans.  A
        circle no other boundary crosses is one arc, all the way round."""
        cx, cy, r = self.circles.cx, self.circles.cy, self.circles.radius
        base = np.zeros(len(r), dtype=np.int64)
        for group, a, b in self._pair_groups(floor):
            dx, dy = cx[b] - cx[a], cy[b] - cy[a]
            d = np.hypot(dx, dy)
            ra, rb = r[a], r[b]
            # Circles containing all of a's boundary.
            np.add.at(base, a[d <= rb - ra], 1)
            cross = (d < ra + rb) & (d > np.abs(ra - rb))
            a, ra, rb, d = a[cross], ra[cross], rb[cross], d[cross]
            phi = np.arctan2(dy[cross], dx[cross])
            half = np.arccos(
                np.clip((ra * ra + d * d - rb * rb) / (2.0 * ra * d), -1.0, 1.0)
            )
            start = np.mod(phi - half, 2.0 * np.pi)
            end = np.mod(phi + half, 2.0 * np.pi)
            # An arc across angle 0 covers the scan's starting point.
            np.add.at(base, a[start > end], 1)
            owner = np.concatenate((a, a))
            theta = np.concatenate((start, end))
            delta = np.repeat(np.array([1, -1], np.int64), len(a))
            # Scan each circle's events by angle, ends before starts at
            # ties (arcs are open): after an event the count holds up to
            # the circle's next event, the last wrapping round to its first.
            order = np.lexsort((delta, theta, owner))
            owner, theta, delta = owner[order], theta[order], delta[order]
            head = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])[: len(owner)]
            runs = np.diff(np.r_[head, len(owner)])
            run = np.cumsum(delta)
            run -= np.repeat(run[head] - delta[head], runs)
            depth = base[owner] + run
            nxt = np.r_[theta[1:], 0.0][: len(owner)]
            nxt[head + runs - 1] = theta[head] + 2.0 * np.pi
            keep = nxt > theta
            crossed = np.zeros(len(r), bool)
            crossed[owner] = True
            lone = group[~crossed[group]]
            yield (
                np.concatenate((owner[keep], lone)),
                np.concatenate((depth[keep], base[lone])) + 1,
                np.concatenate((theta[keep], np.zeros(len(lone)))),
                np.concatenate((nxt[keep] - theta[keep], np.full(len(lone), 2.0 * np.pi))),
            )

    def _boundary_gap(self, px, py, owner) -> np.ndarray:
        """Distance from each point to the nearest circle boundary other
        than its owner's, among the circles of its grid cell, capped at the
        owner's radius."""
        cx, cy, r = self.circles.cx, self.circles.cy, self.circles.radius
        gap = r[owner].copy()
        for pt, ci in self._candidates(px, py):
            o = owner[pt]
            # A circle identical to the owner shares its boundary: stepping
            # inward stays inside both.
            other = (cx[ci] != cx[o]) | (cy[ci] != cy[o]) | (r[ci] != r[o])
            pt, ci = pt[other], ci[other]
            dist = np.abs(np.hypot(px[pt] - cx[ci], py[pt] - cy[ci]) - r[ci])
            gap[pt] = np.minimum(gap[pt], dist)
        return gap

    # ------------------------------------------------------------------
    # The arrangement, on demand
    # ------------------------------------------------------------------
    def sweep(self, *, should_cancel=None):
        """Run the engine's sweep over these circles (not cached)."""
        from .heatmap import sweep_circles

        return sweep_circles(
            self.circles, SizeMeasure(), self.transform, self.engine,
            should_cancel=should_cancel,
        )

    def arrangement(self, should_cancel=None):
        """The swept ``HeatMapResult`` over these circles.

        The sweep runs on the first call only; concurrent first callers
        wait for that one sweep.  It polls ``should_cancel`` once per
        event batch; a cancelled sweep raises
        :class:`~repro.errors.BuildCancelledError` and leaves nothing
        behind, so the next call sweeps afresh.
        """
        if self.engine is None:
            raise AlgorithmUnsupportedError(
                "this map has no arrangement (approximate engines serve "
                "their circles only): fragments and threshold views are "
                "unavailable"
            )
        with self._sweep_lock:
            if self._swept is None:
                self._swept = self.sweep(should_cancel=should_cancel)
            return self._swept

    @property
    def swept(self) -> bool:
        """Whether :meth:`arrangement` has already run."""
        return self._swept is not None

    @property
    def fragments(self) -> list:
        """The arrangement's fragments (sweeps on first use)."""
        return self.arrangement().region_set.fragments

    def threshold(self, min_heat: float):
        """The arrangement's fragments with heat >= ``min_heat`` (a
        ``RegionSet`` view; sweeps on first use)."""
        return self.arrangement().region_set.threshold(min_heat)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def payload(self) -> "tuple[dict, dict]":
        """(header, arrays) for ``repro.core.serialize`` to persist."""
        header = {
            "kind": self.kind,
            "metric_name": self.metric_name,
            "transform": self.transform.name,
            "engine": self.engine,
            "meta": sorted(self.meta),
        }
        c = self.circles
        arrays = {"cx": c.cx, "cy": c.cy, "radius": c.radius, "client_ids": c.client_ids}
        arrays.update({f"meta_{k}": np.asarray(self.meta[k]) for k in header["meta"]})
        return header, arrays

    @classmethod
    def from_payload(cls, header: dict, arrays: dict, transform) -> "NNCircleSurface":
        """Rebuild a surface from :meth:`payload` output (``transform``
        resolved from the header's name)."""
        circles = NNCircleSet(
            arrays["cx"], arrays["cy"], arrays["radius"], header["metric_name"],
            client_ids=arrays["client_ids"],
        )
        meta = {k: arrays[f"meta_{k}"] for k in header.get("meta", ())}
        return cls(circles, transform, engine=header["engine"], meta=meta)

