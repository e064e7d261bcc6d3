"""Computing NN-circles for clients against facilities.

For each client o in O, the NN-circle radius is d(o, NN_F(o)) (Section
III-A).  In the monochromatic case O == F and a point's own entry is
excluded from the search.

One exact search serves every build: a grid over the facilities, its
column and row edges at facility x and y quantiles, searched around each
client in a box of cells that grows side by side until no unsearched
cell can hold a nearer facility.  Every distance is ``Metric.pairwise_to_point``'s
arithmetic, so the search returns what the brute-force scan returns, bit
for bit.

Backends:
    * 'auto'  — the grid search (one dense pass on small inputs).
    * 'brute' — O(|O| * |F|) scan per client, the test oracle.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..geometry.circle import NNCircleSet
from ..geometry.metrics import Metric, get_metric

__all__ = ["compute_nn_circles", "nn_assign", "nn_distances"]

#: Facilities per grid cell and per requested neighbour: a client's first
#: 3 x 3 block of cells then nearly always holds its k nearest.
_PER_CELL = 1

#: Candidate (client, facility) pairs, or (client, cell-row) ranges, per
#: vectorized step: bounds the temporaries however skewed the input.
_PAIR_BLOCK = 1 << 18

#: Client x facility pairs up to which one dense pass beats the grid.
_ONE_PASS = 1 << 14

_BACKENDS = ("auto", "brute")


def _validate_points(points: np.ndarray, name: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"{name} must have shape (n, 2)")
    if len(pts) == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    if not np.isfinite(pts).all():
        raise InvalidInputError(f"{name} must contain finite coordinates")
    return pts


def _check_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise InvalidInputError(
            f"unknown backend {backend!r}; expected one of {list(_BACKENDS)}"
        )


def nn_distances(
    clients: np.ndarray,
    facilities: np.ndarray,
    metric: "Metric | str" = "l2",
    monochromatic: bool = False,
    backend: str = "auto",
    k: int = 1,
) -> np.ndarray:
    """Distance from each client to its k-th nearest facility.

    Args:
        monochromatic: when True, ``facilities`` is ignored and each client's
            nearest *other* clients are used (O == F; Section VII-A).
        backend: 'auto' (the grid search) | 'brute' (the oracle).
        k: which neighbor's distance to report (k=1 is the paper's RNN; for
            k>1 the circles define the R-k-NN heat map — o is in R_k(q) iff
            q would be among o's k nearest facilities).
    """
    clients = _validate_points(clients, "clients")
    metric = get_metric(metric)
    if monochromatic:
        facilities = clients
        if len(clients) < k + 1:
            raise InvalidInputError(
                f"monochromatic R{k}NN needs at least {k + 1} points"
            )
    else:
        facilities = _validate_points(facilities, "facilities")
        if len(facilities) < k:
            raise InvalidInputError(
                f"R{k}NN needs at least k={k} facilities, got {len(facilities)}"
            )
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    _check_backend(backend)
    if backend == "brute":
        return _brute_nn(clients, facilities, metric, monochromatic, k)
    return _nearest(clients, facilities, metric, k, monochromatic)[0]


def _brute_nn(clients, facilities, metric: Metric, monochromatic: bool, k: int) -> np.ndarray:
    out = np.empty(len(clients))
    for i, (x, y) in enumerate(clients):
        d = metric.pairwise_to_point(facilities, np.array([x, y]))
        if monochromatic:
            d = d.copy()
            d[i] = np.inf
        out[i] = np.sort(d)[k - 1] if k > 1 else d.min()
    return out


def _nearest(clients, facilities, metric: Metric, k: int, monochromatic: bool,
             assign: bool = False) -> "tuple[np.ndarray, np.ndarray | None]":
    """(k-th distance, nearest facility index) per client.  The index,
    found for ``assign`` (k = 1), is the lowest among equally near
    facilities; else it may be None.

    Quantile cuts cannot part copies of one facility, so a k = 1
    bichromatic grid searches each distinct location once, under its
    lowest index: distances are the same, and so is the lowest index
    among the nearest.  k > 1 and monochromatic searches count copies.
    """
    if len(clients) * len(facilities) <= _ONE_PASS:
        return _one_pass(clients, facilities, metric, k, monochromatic)
    first = None if k > 1 or monochromatic else _first_copies(facilities)
    if first is None:
        return _GridSearch(clients, facilities, metric, k, monochromatic, assign).run()
    dist, idx = _GridSearch(clients, facilities[first], metric, 1, False, assign).run()
    return dist, first[idx] if assign else None


def _first_copies(points) -> "np.ndarray | None":
    """The lowest index of each distinct point, ascending, or None when
    all are distinct.  A stable lexsort and a diff, since ``np.unique``
    loads ``numpy.ma``."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    p = points[order]
    new = np.concatenate(([True], (p[1:] != p[:-1]).any(axis=1)))
    if new.all():
        return None
    return np.sort(order[new])


def _one_pass(clients, facilities, metric: Metric, k: int, monochromatic: bool):
    """Every client against every facility at once: small inputs, and
    ``nn_assign``'s brute backend."""
    d = metric.pairwise_to_point(facilities[None], clients[:, None])
    if monochromatic:
        np.fill_diagonal(d, np.inf)
    if k > 1:
        return np.partition(d, k - 1, axis=1)[:, k - 1], None
    idx = np.argmin(d, axis=1)
    return d[np.arange(len(d)), idx], idx


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``starts[j], starts[j] + 1, ...`` for ``sizes[j]`` values each, all
    concatenated."""
    offsets = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.repeat(starts, sizes) + offsets


def _edges(sorted_v: np.ndarray, side: int) -> np.ndarray:
    """``side`` quantiles of the sorted values, duplicates dropped: the low
    edge of each grid column (or row), itself a facility coordinate."""
    e = sorted_v[np.arange(side) * len(sorted_v) // side]
    return e[np.concatenate(([True], e[1:] > e[:-1]))]


class _GridSearch:
    """The k nearest facilities of every client, by growing boxes of cells.

    Cells are bounded by facility x and y quantiles, so dense areas get
    small cells; facilities sit in CSR order (row-major cells, index order
    within a cell), so a row of cells is one contiguous range.  A client
    first scans the 3 x 3 cells around its own, then each round widens its
    box by one column or row on every side where an unsearched facility
    could still be nearer than its k-th best (for ``nn_assign``: as near),
    until no side can.  The lower bound per side is exact in floating
    point: a facility left of the box has x at most the largest facility x
    there, so its rounded ``|dx|`` is at least the rounded gap to that x,
    and every metric's arithmetic is monotone in ``|dx|`` and ``|dy|``.
    """

    def __init__(self, clients, facilities, metric: Metric, k: int,
                 monochromatic: bool, assign: bool) -> None:
        self.clients = clients
        self.metric = metric
        self.k = k
        self.assign = assign
        m = len(facilities)
        side = max(1, int(np.sqrt(m / (_PER_CELL * k))))
        xs, ys = np.sort(facilities[:, 0]), np.sort(facilities[:, 1])
        # Column c holds ex[c] <= x < ex[c + 1]; x_last[c] is the largest
        # facility x in columns <= c (rows likewise).
        self.ex, self.ey = _edges(xs, side), _edges(ys, side)
        self.x_last = np.append(xs[np.searchsorted(xs, self.ex[1:]) - 1], xs[-1])
        self.y_last = np.append(ys[np.searchsorted(ys, self.ey[1:]) - 1], ys[-1])
        self.nc, self.nr = len(self.ex), len(self.ey)
        cell = self._row(facilities[:, 1]) * self.nc + self._column(facilities[:, 0])
        self.order = np.argsort(cell, kind="stable")
        self.points = facilities[self.order]
        self.starts = np.concatenate(
            ([0], np.cumsum(np.bincount(cell, minlength=self.nc * self.nr)))
        )
        self.slot = None
        if monochromatic:  # each client's own CSR position
            self.slot = np.empty(m, np.int64)
            self.slot[self.order] = np.arange(m)

    def _column(self, x) -> np.ndarray:
        return np.maximum(np.searchsorted(self.ex, x, side="right") - 1, 0)

    def _row(self, y) -> np.ndarray:
        return np.maximum(np.searchsorted(self.ey, y, side="right") - 1, 0)

    def run(self) -> "tuple[np.ndarray, np.ndarray | None]":
        n = len(self.clients)
        self.best = np.full((n, self.k), np.inf)
        self.nearest = np.zeros(n, np.int64)
        col = self._column(self.clients[:, 0])
        row = self._row(self.clients[:, 1])
        # Each client's box of scanned cells: columns c_lo..c_hi, rows
        # r_lo..r_hi.  The first is the 3 x 3 around its cell, one
        # (client, row) range per row.
        self.box = np.stack((np.maximum(col - 1, 0), np.minimum(col + 1, self.nc - 1),
                             np.maximum(row - 1, 0), np.minimum(row + 1, self.nr - 1)))
        step = max(1, _PAIR_BLOCK // 3)
        for lo in range(0, n, step):
            part = np.arange(lo, min(n, lo + step))
            c_lo, c_hi, r_lo, r_hi = self.box[:, part]
            height = r_hi - r_lo + 1
            own = np.repeat(np.arange(len(part)), height)
            self._scan(part, own, _ranges(r_lo, height), c_lo[own], c_hi[own])
        active = np.arange(n)
        while len(active):
            # A client adds at most two columns of cells and two rows.
            height = int((self.box[3, active] - self.box[2, active]).max())
            step = max(1, _PAIR_BLOCK // (2 * height + 4))
            active = np.concatenate([
                self._grow(active[lo:lo + step]) for lo in range(0, len(active), step)
            ])
        return self.best[:, self.k - 1], self.nearest if self.assign else None

    def _grow(self, active) -> np.ndarray:
        """Widen the boxes of ``active`` clients by a column or row on each
        side that may hide a nearer facility, scan the new cells, and
        return the clients that grew."""
        x, y = self.clients[active, 0], self.clients[active, 1]
        c_lo, c_hi, r_lo, r_hi = self.box[:, active]
        kth = self.best[active, self.k - 1]
        zero = np.zeros(2)

        def bound(dx, dy, exists):
            d = self.metric.pairwise_to_point(np.stack((dx, dy), axis=-1), zero)
            return exists & ((d <= kth) if self.assign else (d < kth))

        # Facilities left or right of the box may lie in any row; those
        # below or above it, in its columns.
        oy = np.maximum(np.maximum(self.ey[0] - y, y - self.y_last[-1]), 0.0)
        ox = np.maximum(np.maximum(self.ex[c_lo] - x, x - self.x_last[c_hi]), 0.0)
        left = bound(x - self.x_last[np.maximum(c_lo - 1, 0)], oy, c_lo > 0)
        right = bound(self.ex[np.minimum(c_hi + 1, self.nc - 1)] - x, oy, c_hi < self.nc - 1)
        down = bound(ox, y - self.y_last[np.maximum(r_lo - 1, 0)], r_lo > 0)
        up = bound(ox, self.ey[np.minimum(r_hi + 1, self.nr - 1)] - y, r_hi < self.nr - 1)
        grew = left | right | down | up
        if not grew.any():
            return active[:0]
        # New columns first (over the old rows), then new rows over the
        # new columns, so each corner cell is scanned once.
        own = np.arange(len(active))
        h_left = np.where(left, r_hi - r_lo + 1, 0)
        h_right = np.where(right, r_hi - r_lo + 1, 0)
        c_lo = c_lo - left
        c_hi = c_hi + right
        c_new = np.concatenate((np.repeat(c_lo, h_left), np.repeat(c_hi, h_right)))
        seg_own = np.concatenate((np.repeat(own, h_left), np.repeat(own, h_right),
                                  own[down], own[up]))
        seg_row = np.concatenate((_ranges(r_lo, h_left), _ranges(r_lo, h_right),
                                  r_lo[down] - 1, r_hi[up] + 1))
        seg_a = np.concatenate((c_new, c_lo[down], c_lo[up]))
        seg_b = np.concatenate((c_new, c_hi[down], c_hi[up]))
        self.box[:, active] = c_lo, c_hi, r_lo - down, r_hi + up
        order = np.argsort(seg_own, kind="stable")
        self._scan(active, seg_own[order], seg_row[order], seg_a[order], seg_b[order])
        return active[grew]

    def _scan(self, part, own, row, a, b) -> None:
        """Fold into the best of clients ``part`` the facilities of their
        cell ranges: row ``row``, columns ``a..b``, of client ``part[own]``
        (``own`` ascending), in blocks of about ``_PAIR_BLOCK`` pairs."""
        base = row * self.nc
        lo = self.starts[base + a]
        sizes = self.starts[base + b + 1] - lo
        total = np.cumsum(sizes)
        if not len(total) or total[-1] == 0:
            return
        cuts = np.searchsorted(
            total, np.arange(_PAIR_BLOCK, int(total[-1]), _PAIR_BLOCK), side="right"
        )
        first = 0
        for last in [*cuts.tolist(), len(own)]:
            if last > first:
                self._merge(part, own[first:last], lo[first:last], sizes[first:last])
            first = max(first, last)

    def _merge(self, part, own, lo, sizes) -> None:
        """Fold candidate facilities ``lo[j] .. lo[j] + sizes[j] - 1`` (CSR
        positions) into the best of client ``part[own[j]]``."""
        pos = _ranges(lo, sizes)
        owner = part[np.repeat(own, sizes)]
        keep = sizes > 0
        own, sizes = own[keep], sizes[keep]
        if not len(own):
            return
        offs = np.flatnonzero(np.concatenate(([True], own[1:] != own[:-1])))
        counts = np.add.reduceat(sizes, offs)
        part = part[own[offs]]
        d = self.metric.pairwise_to_point(
            np.take(self.points, pos, axis=0), np.take(self.clients, owner, axis=0)
        )
        if self.slot is not None:
            d[pos == self.slot[owner]] = np.inf
        offs = np.cumsum(counts) - counts
        if self.k > 1:
            # The block's k nearest per client, one reduction each (a found
            # minimum's first occurrence is then masked), merged with the best.
            found = np.empty((len(part), self.k))
            at = np.arange(len(d))
            for j in range(self.k):
                low = found[:, j] = np.minimum.reduceat(d, offs)
                first = np.where(d == np.repeat(low, counts), at, len(d))
                d[np.minimum.reduceat(first, offs)] = np.inf
            merged = np.concatenate((self.best[part], found), axis=1)
            self.best[part] = np.sort(merged, axis=1)[:, :self.k]
            return
        low = np.minimum.reduceat(d, offs)
        best = self.best[part, 0]
        if not self.assign:
            self.best[part, 0] = np.minimum(best, low)
            return
        # Nearest index: the lowest among this block's nearest, kept over
        # the earlier ones only when strictly nearer or lower.
        fid = np.where(d == np.repeat(low, counts), self.order[pos], len(self.order))
        idx = np.minimum.reduceat(fid, offs)
        win = (low < best) | ((low == best) & (idx < self.nearest[part]))
        self.best[part[win], 0] = low[win]
        self.nearest[part[win]] = idx[win]


def nn_assign(
    clients: np.ndarray,
    facilities: np.ndarray,
    metric: "Metric | str" = "l2",
    backend: str = "auto",
) -> "tuple[np.ndarray, np.ndarray]":
    """Nearest facility *index* and distance for each client, vectorized.

    The incremental maintenance substrate (``repro.dynamic``) assigns its
    clients through here.  Ties resolve to the lowest facility index,
    matching ``np.argmin`` over a per-client distance vector — so a batch
    query assigns exactly what one-at-a-time queries would.

    Args:
        backend: 'auto' — the grid search, which stops only when the
            nearest distance is strictly below every unsearched facility's
            (an equidistant one there could hold a lower index); 'brute' —
            one dense pass.  Both are exact.

    Returns:
        (indices, distances): int64 and float64 arrays of shape (n,);
        ``indices`` refer to rows of ``facilities``.
    """
    clients = _validate_points(clients, "clients")
    facilities = _validate_points(facilities, "facilities")
    metric = get_metric(metric)
    _check_backend(backend)
    if backend == "auto":
        dist, best = _nearest(clients, facilities, metric, 1, False, assign=True)
    else:
        dist, best = _one_pass(clients, facilities, metric, 1, False)
    return best, dist


def compute_nn_circles(
    clients: np.ndarray,
    facilities: "np.ndarray | None",
    metric: "Metric | str" = "l2",
    monochromatic: bool = False,
    backend: str = "auto",
    drop_degenerate: bool = True,
    k: int = 1,
) -> NNCircleSet:
    """Build the NN-circle set for the RC problem.

    Args:
        k: use the k-th NN distance as the radius (R-k-NN heat maps; the
            region-coloring reduction is unchanged because q is within o's
            k nearest iff q lies inside o's k-th-NN circle).

    Returns:
        An ``NNCircleSet`` whose ``client_ids`` index into ``clients``.
        Zero-radius circles (client coincides with a facility) bound no area
        and are dropped by default.
    """
    clients = _validate_points(clients, "clients")
    if monochromatic:
        facilities = clients
    elif facilities is None:
        raise InvalidInputError("facilities are required for bichromatic RNN")
    radii = nn_distances(clients, facilities, metric, monochromatic, backend, k)
    return NNCircleSet(
        clients[:, 0],
        clients[:, 1],
        radii,
        metric,
        drop_degenerate=drop_degenerate,
    )
