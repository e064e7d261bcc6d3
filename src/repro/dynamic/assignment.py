"""Incremental NN assignment maintenance under point churn.

The paper motivates frequent recomputation: "In some applications such as
taxi-sharing, the heat map may change as clients move around and need to be
recomputed frequently" (Section I), and assumes "there are efficient
algorithms to compute and maintain the NN-circles [12]".  This module is
that maintenance substrate: it keeps, for every client, its nearest
facility and distance, updating incrementally:

* client added/moved:   one NN query — O(log |F|)-ish.
* facility added:       only clients whose current radius exceeds their
                        distance to the new facility reassign (found with a
                        single vectorized distance pass).
* facility removed:     only its currently-assigned clients re-query.

A heat map rebuild after a batch of updates then works from the refreshed
circles — the expensive NN phase never restarts from scratch.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..geometry.circle import NNCircleSet
from ..geometry.metrics import Metric, get_metric
from ..nn.nncircles import nn_assign

__all__ = ["DynamicAssignment"]


class DynamicAssignment:
    """Maintains nearest-facility assignments under insertions, deletions
    and moves of both clients and facilities.

    Clients and facilities are referenced by stable integer handles; deleted
    handles are never reused.
    """

    def __init__(
        self,
        clients: np.ndarray,
        facilities: np.ndarray,
        metric: "Metric | str" = "l2",
    ) -> None:
        clients = np.asarray(clients, dtype=float)
        facilities = np.asarray(facilities, dtype=float)
        if clients.ndim != 2 or clients.shape[1] != 2 or len(clients) == 0:
            raise InvalidInputError("clients must be a non-empty (n, 2) array")
        if facilities.ndim != 2 or facilities.shape[1] != 2 or len(facilities) == 0:
            raise InvalidInputError("facilities must be a non-empty (m, 2) array")
        self.metric = get_metric(metric)
        self._clients: "dict[int, tuple[float, float]]" = {
            i: (float(x), float(y)) for i, (x, y) in enumerate(clients)
        }
        self._facilities: "dict[int, tuple[float, float]]" = {
            i: (float(x), float(y)) for i, (x, y) in enumerate(facilities)
        }
        self._next_client = len(clients)
        self._next_facility = len(facilities)
        # client handle -> (facility handle, distance)
        self._assignment: "dict[int, tuple[int, float]]" = {}
        self.stat_nn_queries = 0
        self.stat_reassignments = 0
        #: Client handles whose NN-circle (center or radius) may have
        #: changed since the last ``drain_touched()`` — the change feed the
        #: heat map's dirty rects (partial tile invalidation) come from.  An
        #: over-approximation is safe (consumers diff against a snapshot);
        #: a miss would be a correctness bug, so every mutation records
        #: every client it may touch.
        self._touched: "set[int]" = set()
        self._assign_many(list(self._clients))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _facility_arrays(self):
        handles = list(self._facilities)
        pts = np.array([self._facilities[h] for h in handles], dtype=float)
        return handles, pts

    def _assign(self, client: int) -> None:
        """Full NN query for one client (used on insert/move/orphaning)."""
        handles, pts = self._facility_arrays()
        q = np.asarray(self._clients[client], dtype=float)
        d = self.metric.pairwise_to_point(pts, q)
        best = int(np.argmin(d))
        self._assignment[client] = (handles[best], float(d[best]))
        self.stat_nn_queries += 1

    def _assign_many(self, clients: "list[int]") -> None:
        """Batch NN query — one ``nn_assign`` search for all given clients.

        Assigns exactly what per-client :meth:`_assign` calls would (same
        distance arithmetic, same lowest-index tie-break as ``np.argmin``)
        without a Python loop: the first assignment of every client, and
        the orphans of a facility removal or move, go through here.
        """
        if not clients:
            return
        handles, pts = self._facility_arrays()
        q = np.array([self._clients[c] for c in clients], dtype=float)
        best, dist = nn_assign(q, pts, self.metric)
        for c, b, d in zip(clients, best, dist):
            self._assignment[c] = (handles[int(b)], float(d))
        self.stat_nn_queries += len(clients)

    # ------------------------------------------------------------------
    # Client updates
    # ------------------------------------------------------------------
    def add_client(self, x: float, y: float) -> int:
        """Insert a client; returns its handle."""
        handle = self._next_client
        self._next_client += 1
        self._clients[handle] = (float(x), float(y))
        self._assign(handle)
        self._touched.add(handle)
        return handle

    def remove_client(self, handle: int) -> None:
        """Delete a client and its NN assignment."""
        if handle not in self._clients:
            raise InvalidInputError(f"unknown client handle {handle}")
        del self._clients[handle]
        del self._assignment[handle]
        self._touched.add(handle)

    def move_client(self, handle: int, x: float, y: float) -> None:
        """Relocate a client (the taxi-sharing 'clients move around' case)."""
        if handle not in self._clients:
            raise InvalidInputError(f"unknown client handle {handle}")
        self._clients[handle] = (float(x), float(y))
        self._assign(handle)
        self._touched.add(handle)

    # ------------------------------------------------------------------
    # Facility updates
    # ------------------------------------------------------------------
    def add_facility(self, x: float, y: float) -> int:
        """Insert a facility; only clients it wins over are touched."""
        handle = self._next_facility
        self._next_facility += 1
        self._facilities[handle] = (float(x), float(y))
        new_pt = np.array([x, y], dtype=float)
        client_handles = list(self._clients)
        pts = np.array([self._clients[c] for c in client_handles], dtype=float)
        d_new = self.metric.pairwise_to_point(pts, new_pt)
        for c, dn in zip(client_handles, d_new):
            if dn < self._assignment[c][1]:
                self._assignment[c] = (handle, float(dn))
                self.stat_reassignments += 1
                self._touched.add(c)
        return handle

    def remove_facility(self, handle: int) -> None:
        """Delete a facility; its orphaned clients re-query (one batch)."""
        if handle not in self._facilities:
            raise InvalidInputError(f"unknown facility handle {handle}")
        if len(self._facilities) == 1:
            raise InvalidInputError("cannot remove the last facility")
        del self._facilities[handle]
        orphans = [c for c, (f, _d) in self._assignment.items() if f == handle]
        self._assign_many(orphans)
        self.stat_reassignments += len(orphans)
        self._touched.update(orphans)

    def move_facility(self, handle: int, x: float, y: float) -> None:
        """Relocate a facility (remove + add, preserving the handle)."""
        if handle not in self._facilities:
            raise InvalidInputError(f"unknown facility handle {handle}")
        if len(self._facilities) == 1:
            # Single facility: every client keeps it; refresh distances.
            self._facilities[handle] = (float(x), float(y))
            self._assign_many(list(self._clients))
            self._touched.update(self._clients)
            return
        old = self._facilities[handle]
        # Orphan its clients against the remaining set, then re-add.
        del self._facilities[handle]
        orphans = [c for c, (f, _d) in self._assignment.items() if f == handle]
        self._assign_many(orphans)
        self._touched.update(orphans)
        self._facilities[handle] = (float(x), float(y))
        new_pt = np.array([x, y], dtype=float)
        client_handles = list(self._clients)
        pts = np.array([self._clients[c] for c in client_handles], dtype=float)
        d_new = self.metric.pairwise_to_point(pts, new_pt)
        for c, dn in zip(client_handles, d_new):
            if dn < self._assignment[c][1]:
                self._assignment[c] = (handle, float(dn))
                self.stat_reassignments += 1
                self._touched.add(c)
        del old

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_clients(self) -> int:
        """Number of live clients."""
        return len(self._clients)

    @property
    def n_facilities(self) -> int:
        """Number of live facilities."""
        return len(self._facilities)

    def client_handles(self) -> "list[int]":
        """Live client handles, ascending."""
        return sorted(self._clients)

    def facility_handles(self) -> "list[int]":
        """Live facility handles, ascending."""
        return sorted(self._facilities)

    def client_position(self, handle: int) -> "tuple[float, float]":
        """The client's current (internal-frame) coordinates."""
        return self._clients[handle]

    def facility_position(self, handle: int) -> "tuple[float, float]":
        """The facility's current (internal-frame) coordinates."""
        return self._facilities[handle]

    def facility_of(self, handle: int) -> int:
        """The client's current nearest facility handle."""
        return self._assignment[handle][0]

    def radius_of(self, handle: int) -> float:
        """The client's current NN distance (its NN-circle radius)."""
        return self._assignment[handle][1]

    def drain_touched(self) -> "set[int]":
        """Client handles possibly changed since the last drain (and reset).

        The handles may include clients whose circle ended up unchanged
        (e.g. a move that was undone) and clients that no longer exist
        (removed); consumers resolve both against their own snapshot.
        """
        touched, self._touched = self._touched, set()
        return touched

    def circle_of(self, handle: int) -> "tuple[float, float, float] | None":
        """The client's current NN-circle as ``(cx, cy, radius)``, or
        ``None`` for a handle that is not (or no longer) a client."""
        pos = self._clients.get(handle)
        if pos is None:
            return None
        return (pos[0], pos[1], self._assignment[handle][1])

    def circles(self, drop_degenerate: bool = True) -> NNCircleSet:
        """A snapshot NNCircleSet (client_ids are the stable handles)."""
        handles = sorted(self._clients)
        cx = np.array([self._clients[h][0] for h in handles])
        cy = np.array([self._clients[h][1] for h in handles])
        radius = np.array([self._assignment[h][1] for h in handles])
        return NNCircleSet(
            cx, cy, radius, self.metric,
            client_ids=np.array(handles, dtype=np.int64),
            drop_degenerate=drop_degenerate,
        )
