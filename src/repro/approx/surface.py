"""A queryable heat surface built from explicit NN-circles.

The exact engines sweep an arrangement into a ``RegionSet`` of labeled
fragments.  The approximate engines skip the arrangement entirely: they
estimate each client's kth-NN radius and keep the circles themselves —
``heat(q)`` is simply the number of circles covering ``q``, evaluated by
vectorized containment tests at query time.  :class:`ApproxHeatSurface`
wraps those circles behind the same surface the service, tile renderer and
result store consume (``heat_at_many`` / ``rnn_at_many`` / ``bounds`` /
``rasterize`` / ``threshold`` / ``top_k_heats``), so an approximate build
drops into ``HeatMapService`` unchanged.

Dimensions beyond two are served through a *slice plane*: the surface
fixes dims 2.. at a slice point (default: the client centroid) and reduces
each d-ball to its exact 2-d cross-section (for L2 a disk of radius
``sqrt(r^2 - off^2)``; for L-infinity the full square iff every
perpendicular offset fits; for L1 a diamond of radius ``r - sum|off|``).
Queries and tiles on the plane are therefore *exact restrictions* of the
d-dimensional surface — the only approximation is in the radii.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..geometry.rect import Rect
from ..geometry.transforms import IDENTITY

__all__ = ["ApproxHeatSurface"]

#: Containment tests per chunk (points-chunk x circles-chunk bools).
_POINT_CHUNK = 2048
_CIRCLE_CHUNK = 8192


class ApproxHeatSurface:
    """NN-circle heat surface: ``heat(q) = |{i : d(q, center_i) <= r_i}|``.

    Duck-types the query surface of ``RegionSet`` (no fragments — heat is
    computed from the circles directly), always in the identity frame.

    Args:
        centers: (n, d) circle centers (the clients), d >= 2.
        radii: (n,) kth-NN radii (approximate or exact).
        metric_name: 'l2', 'linf' or 'l1' — the d-dimensional metric the
            radii were measured under.
        slice_point: for d > 2, the point whose dims 2.. fix the viewing
            plane; defaults to the centroid of ``centers``.  Ignored for
            d == 2.
        client_ids: (n,) original client ids behind each circle (default
            0..n-1); these are what ``rnn_at`` reports.
        knn_indices: optional (n, k) approximate client->facility kNN ids,
            kept for the differential harness and observability.
        facility_rnn_counts: optional per-facility reverse-neighbor counts
            derived from ``knn_indices``.
        min_heat: heat floor for :meth:`threshold` views — points whose
            count falls below it read ``default_heat``.
    """

    #: Serialization tag (see ``repro.core.serialize``).
    kind = "approx-surface"

    def __init__(
        self,
        centers,
        radii,
        *,
        metric_name: str = "l2",
        slice_point=None,
        client_ids=None,
        knn_indices=None,
        facility_rnn_counts=None,
        default_heat: float = 0.0,
        min_heat: "float | None" = None,
    ) -> None:
        self.centers = np.ascontiguousarray(np.asarray(centers, dtype=float))
        self.radii = np.ascontiguousarray(np.asarray(radii, dtype=float))
        if self.centers.ndim != 2 or self.centers.shape[1] < 2:
            raise InvalidInputError("centers must have shape (n, d) with d >= 2")
        if self.radii.shape != (len(self.centers),):
            raise InvalidInputError("radii must be one radius per center")
        if (self.radii < 0).any():
            raise InvalidInputError("radii must be nonnegative")
        self.metric_name = str(metric_name).lower()
        if self.metric_name not in ("l2", "linf", "l1"):
            raise InvalidInputError(f"unsupported metric {metric_name!r}")
        self.default_heat = float(default_heat)
        self.min_heat = None if min_heat is None else float(min_heat)
        n, d = self.centers.shape
        if client_ids is None:
            self.client_ids = np.arange(n, dtype=np.int64)
        else:
            self.client_ids = np.asarray(client_ids, dtype=np.int64)
            if self.client_ids.shape != (n,):
                raise InvalidInputError("client_ids must be one id per center")
        self.knn_indices = (
            None if knn_indices is None else np.asarray(knn_indices, dtype=np.int64)
        )
        self.facility_rnn_counts = (
            None
            if facility_rnn_counts is None
            else np.asarray(facility_rnn_counts, dtype=np.int64)
        )
        if d == 2:
            self.slice_point = None
        elif slice_point is None:
            self.slice_point = self.centers.mean(axis=0)
        else:
            self.slice_point = np.asarray(slice_point, dtype=float)
            if self.slice_point.shape != (d,):
                raise InvalidInputError(f"slice_point must have shape ({d},)")
        self._reduce_to_plane()

    def _reduce_to_plane(self) -> None:
        """Precompute the exact 2-d cross-sections on the slice plane."""
        if self.slice_point is None:
            keep = slice(None)
            self._plane_centers = self.centers
            self._plane_radii = self.radii
            self._plane_ids = self.client_ids
            return
        off = self.centers[:, 2:] - self.slice_point[None, 2:]
        if self.metric_name == "l2":
            off_sq = (off * off).sum(axis=1)
            keep = off_sq <= self.radii * self.radii
            eff = np.sqrt(np.maximum(self.radii[keep] ** 2 - off_sq[keep], 0.0))
        elif self.metric_name == "linf":
            keep = np.abs(off).max(axis=1) <= self.radii
            eff = self.radii[keep]
        else:  # l1
            eff = self.radii - np.abs(off).sum(axis=1)
            keep = eff >= 0.0
            eff = eff[keep]
        self._plane_centers = np.ascontiguousarray(self.centers[keep, :2])
        self._plane_radii = np.ascontiguousarray(eff)
        self._plane_ids = self.client_ids[keep]

    # -- RegionSet-compatible structure --------------------------------
    @property
    def transform(self):
        """Always the identity — approx surfaces live in original space."""
        return IDENTITY

    @property
    def fragments(self) -> tuple:
        """No fragments: heat comes from circle containment, not a sweep."""
        return ()

    def __len__(self) -> int:
        """Number of NN-circles (clients) behind the surface."""
        return len(self.centers)

    def bounds(self) -> "Rect | None":
        """Bounding box of the on-plane circles (original coordinates)."""
        if len(self._plane_centers) == 0:
            return None
        r = self._plane_radii
        x = self._plane_centers[:, 0]
        y = self._plane_centers[:, 1]
        lo_x, hi_x = float((x - r).min()), float((x + r).max())
        lo_y, hi_y = float((y - r).min()), float((y + r).max())
        if hi_x <= lo_x:
            lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
        if hi_y <= lo_y:
            lo_y, hi_y = lo_y - 0.5, hi_y + 0.5
        return Rect(lo_x, hi_x, lo_y, hi_y)

    # -- queries --------------------------------------------------------
    def _contains(self, pts: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(len(pts), hi-lo) bool: point inside on-plane circle?"""
        c = self._plane_centers[lo:hi]
        r = self._plane_radii[lo:hi]
        dx = pts[:, 0][:, None] - c[:, 0][None, :]
        dy = pts[:, 1][:, None] - c[:, 1][None, :]
        if self.metric_name == "l2":
            return dx * dx + dy * dy <= r[None, :] * r[None, :]
        if self.metric_name == "linf":
            return np.maximum(np.abs(dx), np.abs(dy)) <= r[None, :]
        return np.abs(dx) + np.abs(dy) <= r[None, :]

    def _counts(self, pts: np.ndarray) -> np.ndarray:
        counts = np.zeros(len(pts), dtype=np.int64)
        for lo in range(0, len(self._plane_centers), _CIRCLE_CHUNK):
            hi = min(lo + _CIRCLE_CHUNK, len(self._plane_centers))
            counts += self._contains(pts, lo, hi).sum(axis=1)
        return counts

    def _apply_floor(self, counts: np.ndarray) -> np.ndarray:
        heats = counts.astype(float)
        if self.min_heat is not None:
            heats = np.where(counts >= self.min_heat, heats, self.default_heat)
        return heats

    def heat_at_many(self, points) -> np.ndarray:
        """Vectorized heat (covering-circle count) at each (x, y) row."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError("points must have shape (n, 2)")
        heats = np.empty(len(pts), dtype=float)
        for lo in range(0, len(pts), _POINT_CHUNK):
            hi = min(lo + _POINT_CHUNK, len(pts))
            heats[lo:hi] = self._apply_floor(self._counts(pts[lo:hi]))
        return heats

    def heats_at(self, points) -> np.ndarray:
        """Alias of :meth:`heat_at_many` (RegionSet API compatibility)."""
        return self.heat_at_many(points)

    def heat_at(self, x: float, y: float) -> float:
        """Heat at one point."""
        return float(self.heat_at_many(np.array([[x, y]], dtype=float))[0])

    def rnn_at_many(self, points) -> "list[frozenset]":
        """The covering clients' ids at each (x, y) row."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError("points must have shape (n, 2)")
        out = []
        for lo in range(0, len(pts), _POINT_CHUNK):
            hi = min(lo + _POINT_CHUNK, len(pts))
            mask = np.concatenate(
                [
                    self._contains(pts[lo:hi], clo, min(clo + _CIRCLE_CHUNK, len(self._plane_centers)))
                    for clo in range(0, len(self._plane_centers), _CIRCLE_CHUNK)
                ],
                axis=1,
            ) if len(self._plane_centers) else np.zeros((hi - lo, 0), dtype=bool)
            for row in mask:
                ids = self._plane_ids[row]
                if self.min_heat is not None and len(ids) < self.min_heat:
                    out.append(frozenset())
                else:
                    out.append(frozenset(int(i) for i in ids))
        return out

    def rnn_at(self, x: float, y: float) -> frozenset:
        """The covering clients' ids at one point."""
        return self.rnn_at_many(np.array([[x, y]], dtype=float))[0]

    def top_k_heats(self, k: int) -> "list[float]":
        """Up to ``k`` distinct heat values, highest first.

        Evaluated at circle centers — each center is covered by its own
        circle, and counting surfaces peak where circles stack, so center
        samples hit every dense overlap in practice.  Unlike the exact
        fragment enumeration this is a *sampled* maximum: a sliver of
        higher heat strictly between centers can be missed.
        """
        if int(k) <= 0:
            raise InvalidInputError("k must be positive")
        if len(self._plane_centers) == 0:
            return []
        heats = self._apply_floor(self._counts(self._plane_centers))
        distinct = np.unique(heats)[::-1]
        return [float(v) for v in distinct[: int(k)]]

    def threshold(self, min_heat: float) -> "ApproxHeatSurface":
        """A view where heat below ``min_heat`` reads ``default_heat``."""
        return ApproxHeatSurface(
            self.centers,
            self.radii,
            metric_name=self.metric_name,
            slice_point=self.slice_point,
            client_ids=self.client_ids,
            knn_indices=self.knn_indices,
            facility_rnn_counts=self.facility_rnn_counts,
            default_heat=self.default_heat,
            min_heat=float(min_heat),
        )

    # -- rasterization ---------------------------------------------------
    def rasterize(
        self, width: int, height: int, bounds: "Rect | None" = None
    ) -> "tuple[np.ndarray, Rect]":
        """Heat at pixel centres; see ``repro.render.raster``."""
        from ..render.raster import rasterize_regionset

        return rasterize_regionset(self, width, height, bounds)

    # -- serialization ---------------------------------------------------
    def payload(self) -> "tuple[dict, dict]":
        """(header, arrays) for ``repro.core.serialize`` to persist."""
        header = {
            "kind": self.kind,
            "metric_name": self.metric_name,
            "default_heat": self.default_heat,
            "min_heat": self.min_heat,
            "slice_point": (
                None if self.slice_point is None else [float(v) for v in self.slice_point]
            ),
        }
        arrays = {
            "centers": self.centers,
            "radii": self.radii,
            "client_ids": self.client_ids,
        }
        if self.knn_indices is not None:
            arrays["knn_indices"] = self.knn_indices
        if self.facility_rnn_counts is not None:
            arrays["facility_rnn_counts"] = self.facility_rnn_counts
        return header, arrays

    @classmethod
    def from_payload(cls, header: dict, arrays: dict) -> "ApproxHeatSurface":
        """Rebuild a surface from :meth:`payload` output."""
        slice_point = header.get("slice_point")
        return cls(
            arrays["centers"],
            arrays["radii"],
            metric_name=header["metric_name"],
            slice_point=None if slice_point is None else np.asarray(slice_point, float),
            client_ids=arrays.get("client_ids"),
            knn_indices=arrays.get("knn_indices"),
            facility_rnn_counts=arrays.get("facility_rnn_counts"),
            default_heat=float(header.get("default_heat", 0.0)),
            min_heat=header.get("min_heat"),
        )
