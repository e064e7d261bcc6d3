"""A heat map that follows a changing world.

Wraps ``DynamicAssignment`` (incremental NN-circle maintenance) with lazy
rebuilding.  Updates only mark the map stale; the next ``result()`` diffs
the touched circles against the last build's snapshot and then either

* keeps the cached map — every touched circle is unchanged (e.g. a move
  that was undone), so the version counter does *not* advance and
  downstream tile caches stay warm — or
* builds the map of the current circles from scratch and logs the old
  and new boxes of the changed circles (``dirty_rects_since``), so
  ``HeatMapService`` drops only the tiles those boxes touch.

Under the size measure that map is an
:class:`~repro.core.surface.NNCircleSurface`, the same object a static
size-measure build serves: heat, RNN sets and tiles count the circles
containing each point, so a rebuild indexes the circles and sweeps
nothing, and neither does top-k.  The engine's sweep runs only when a
library call asks for fragments, a threshold view or sweep counters.  Other
measures sweep the current circles with the default engine on every
rebuild.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.heatmap import HeatMapResult, sweep_circles
from ..core.surface import NNCircleSurface
from ..geometry.metrics import get_metric
from ..geometry.rect import Rect
from ..geometry.transforms import IDENTITY, ROTATE_L1_TO_LINF
from ..influence.measures import InfluenceMeasure, SizeMeasure
from .assignment import DynamicAssignment

__all__ = ["DynamicHeatMap"]

#: Dirty-region entries older than this are forgotten; a service that last
#: synced before the trimmed horizon falls back to full invalidation.
_DIRTY_LOG_LIMIT = 64

#: Above this many changed circles per batch the per-circle dirty rects
#: collapse into their bounding rectangle (coarser but still partial).
_MAX_DIRTY_RECTS = 16


class DynamicHeatMap:
    """An updatable RNN heat map over moving clients and facilities.

    All update methods take/return stable integer handles and mark the map
    stale; ``result()`` rebuilds on demand, from scratch, when the update
    batch changed some circle.

    Note: positions given to updates are in *original* coordinates; the L1
    rotation is applied internally exactly as in ``RNNHeatMap``.
    """

    def __init__(
        self,
        clients: np.ndarray,
        facilities: np.ndarray,
        *,
        metric: str = "l2",
        measure: "InfluenceMeasure | None" = None,
    ) -> None:
        self.metric = get_metric(metric)
        self.measure = measure if measure is not None else SizeMeasure()
        if self.metric.name == "l1":
            self.transform = ROTATE_L1_TO_LINF
            clients = self.transform.forward_array(np.asarray(clients, dtype=float))
            facilities = self.transform.forward_array(np.asarray(facilities, dtype=float))
            internal_metric = "linf"
        else:
            self.transform = IDENTITY
            internal_metric = self.metric
        self.assignment = DynamicAssignment(clients, facilities, internal_metric)
        self._cached: "HeatMapResult | None" = None
        self._stale = False
        #: handle -> (cx, cy, radius) in internal coordinates, as of the
        #: last build; diffing against it turns "touched" into "changed".
        self._snapshot: "dict[int, tuple[float, float, float]] | None" = None
        self._pending: "set[int]" = set()
        self.rebuilds = 0
        #: Build counter.  It advances only when ``result()`` produced a
        #: map that may differ from the previous one — updates alone no
        #: longer bump it, so no-op update/undo sequences leave downstream
        #: caches (``HeatMapService`` tiles) untouched.
        self.version = 0
        # (version, dirty rects in original coords | None for "everything")
        self._dirty_log: "list[tuple[int, list[Rect] | None]]" = []
        #: Serializes updates against rebuilds: ``HeatMapService``
        #: refreshes dynamic handles from executor threads, so an
        #: update arriving mid-rebuild must wait for a consistent
        #: snapshot (re-entrant: ``batch()`` holds it across updates).
        self._lock = threading.RLock()

    #: Retired: always 0, read by perfbench's live-update replay.
    incremental_rebuilds = 0

    @property
    def full_rebuilds(self) -> int:
        """Retired: equals ``rebuilds``; perfbench's live-update replay
        reads it."""
        return self.rebuilds

    def _point(self, x: float, y: float) -> "tuple[float, float]":
        return self.transform.forward(x, y)

    def batch(self):
        """The update lock, for atomic multi-operation batches.

        ``with dyn.batch(): ...`` holds the re-entrant update lock across
        several update calls, so no rebuild or concurrent update
        interleaves mid-batch — the HTTP edge uses this to validate a
        whole ``/update`` request against a stable handle set before
        applying any of it.
        """
        return self._lock

    def _invalidate(self) -> None:
        self._stale = True

    # ------------------------------------------------------------------
    # Updates (each marks the map stale; rebuilds are deferred)
    # ------------------------------------------------------------------
    def add_client(self, x: float, y: float) -> int:
        """Insert a client at original-space (x, y); returns its handle."""
        with self._lock:
            self._invalidate()
            return self.assignment.add_client(*self._point(x, y))

    def remove_client(self, handle: int) -> None:
        """Delete a client; raises ``InvalidInputError`` for unknown handles."""
        with self._lock:
            self._invalidate()
            self.assignment.remove_client(handle)

    def move_client(self, handle: int, x: float, y: float) -> None:
        """Relocate a client to original-space (x, y)."""
        with self._lock:
            self._invalidate()
            self.assignment.move_client(handle, *self._point(x, y))

    def add_facility(self, x: float, y: float) -> int:
        """Insert a facility at original-space (x, y); returns its handle."""
        with self._lock:
            self._invalidate()
            return self.assignment.add_facility(*self._point(x, y))

    def remove_facility(self, handle: int) -> None:
        """Delete a facility (the last one cannot be removed)."""
        with self._lock:
            self._invalidate()
            self.assignment.remove_facility(handle)

    def move_facility(self, handle: int, x: float, y: float) -> None:
        """Relocate a facility to original-space (x, y)."""
        with self._lock:
            self._invalidate()
            self.assignment.move_facility(handle, *self._point(x, y))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Whether the next ``result()`` call may have to rebuild."""
        return self._stale or self._cached is None

    def _changes(self) -> "list[tuple[int, tuple | None, tuple | None]]":
        """Resolve touched handles into real circle changes vs the snapshot."""
        self._pending |= self.assignment.drain_touched()
        if self._snapshot is None:
            return []
        changes = []
        for h in sorted(self._pending):
            old = self._snapshot.get(h)
            new = self.assignment.circle_of(h)
            if old != new:
                changes.append((h, old, new))
        return changes

    def _to_original_rect(self, rect: Rect) -> Rect:
        """Map an internal-frame rect to original coordinates (bbox)."""
        if self.transform.is_identity:
            return rect
        corners = [
            self.transform.inverse(x, y)
            for x in (rect.x_lo, rect.x_hi)
            for y in (rect.y_lo, rect.y_hi)
        ]
        return Rect(
            min(c[0] for c in corners), max(c[0] for c in corners),
            min(c[1] for c in corners), max(c[1] for c in corners),
        )

    def _finish_rebuild(
        self,
        result: HeatMapResult,
        changes: "list | None",
        dirty_rects: "list[Rect] | None",
    ) -> HeatMapResult:
        """Install a freshly built result and advance the version/log."""
        self._cached = result
        self.rebuilds += 1
        self.version += 1
        self._dirty_log.append((self.version, dirty_rects))
        if len(self._dirty_log) > _DIRTY_LOG_LIMIT:
            del self._dirty_log[:-_DIRTY_LOG_LIMIT]
        if changes is None:
            self._snapshot = {
                h: self.assignment.circle_of(h)
                for h in self.assignment.client_handles()
            }
        else:
            for h, _old, new in changes:
                if new is None:
                    self._snapshot.pop(h, None)
                else:
                    self._snapshot[h] = new
        self._pending.clear()
        self._stale = False
        return result

    def _keep_cached(self) -> HeatMapResult:
        """A stale flag that resolved to zero real change: keep everything."""
        self._pending.clear()
        self._stale = False
        return self._cached

    def _build(self) -> HeatMapResult:
        """The map of the current circles, built from scratch."""
        circles = self.assignment.circles()
        if isinstance(self.measure, SizeMeasure):
            return HeatMapResult(NNCircleSurface(circles, self.transform))
        return sweep_circles(circles, self.measure, self.transform, "crest")

    def result(self) -> HeatMapResult:
        """The current heat map, rebuilt only if updates changed a circle."""
        with self._lock:
            if self._cached is not None and not self._stale:
                return self._cached
            changes = self._changes()
            if self._cached is None:
                # First build: everything is dirty.
                return self._finish_rebuild(self._build(), None, None)
            rects = [
                Rect.from_center_radius(cx, cy, r)
                for _h, old, new in changes
                for cx, cy, r in filter(None, (old, new))
                if r > 0.0
            ]
            if not rects:
                # No change, or only degenerate (zero-radius) circles
                # changed: they contain no point, so the map is intact.
                return self._keep_cached()
            if len(rects) > _MAX_DIRTY_RECTS:
                box = rects[0]
                for r in rects[1:]:
                    box = box.union_bounds(r)
                rects = [box]
            dirty_rects = [self._to_original_rect(r) for r in rects]
            return self._finish_rebuild(self._build(), changes, dirty_rects)

    def points(self) -> "tuple[list[int], np.ndarray, np.ndarray]":
        """The current world in original coordinates: ``(client handles,
        clients, facilities)``, clients in handle order."""
        with self._lock:
            a = self.assignment
            handles = a.client_handles()
            clients = np.array([a.client_position(h) for h in handles])
            facilities = np.array([a.facility_position(h) for h in a.facility_handles()])
        inverse = self.transform.inverse_array
        return handles, inverse(clients), inverse(facilities)

    # ------------------------------------------------------------------
    # Dirty-region reporting (for partial cache invalidation)
    # ------------------------------------------------------------------
    def dirty_rects_since(self, version: int) -> "list[Rect] | None":
        """Original-space rectangles that may have changed since ``version``.

        Returns ``[]`` when the caller is already current, a list of rects
        covering every change between ``version`` and ``self.version``, or
        ``None`` when the span cannot be bounded (never built at
        ``version``, a full-unknown rebuild in between, or the log was
        trimmed) — callers must then invalidate everything.
        """
        with self._lock:
            return self._dirty_rects_since_locked(version)

    def _dirty_rects_since_locked(self, version: int) -> "list[Rect] | None":
        if version >= self.version:
            return []
        out: "list[Rect]" = []
        expected = self.version
        for v, rects in reversed(self._dirty_log):
            if v != expected or rects is None:
                return None
            out.extend(rects)
            expected -= 1
            if expected == version:
                return out
        return None

    def heat_at(self, x: float, y: float) -> float:
        """Heat at one point against the current (lazily rebuilt) map."""
        return self.result().heat_at(x, y)

    def rnn_at(self, x: float, y: float) -> frozenset:
        """RNN set at one point against the current (lazily rebuilt) map."""
        return self.result().rnn_at(x, y)

    def heat_at_many(self, points) -> np.ndarray:
        """Vectorized heat for an (n, 2) batch against the current map."""
        return self.result().heat_at_many(points)

    def rnn_at_many(self, points) -> "list[frozenset]":
        """RNN set per query point against the current map."""
        return self.result().rnn_at_many(points)
