"""p-stable (Gaussian projection) locality-sensitive hashing for L2 kNN.

The classic Datar–Indyk scheme behind Arthur & Oudot's approximate RNN
construction: each of ``tables`` hash tables keys a point by ``hashes``
concatenated values ``floor((a . x + b) / width)`` with Gaussian ``a`` and
uniform ``b``.  Near points collide in at least one table with high
probability; a query unions its buckets across tables and brute-forces
only those candidates.

The recall knob is the *table count*: with per-table collision probability
``p`` for a true neighbor, recall after ``L`` independent tables is
``1 - (1 - p)^L``, so tables scale like ``log(1 - recall)``
(:func:`tables_for_recall`).  ``width`` is calibrated from a seeded sample
of kth-NN distances so buckets are sized to the neighborhoods being asked
about.  Queries whose buckets are starved (fewer than ``k`` candidates)
fall back to exact brute force — counted in :attr:`LSHIndex.fallbacks`,
never silently wrong.

Everything flows from ``np.random.default_rng(seed)``: identical data and
knobs give byte-identical tables and answers.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidInputError
from .knn_graph import (
    _as_points,
    _chunked_candidate_distances,
    _merge_topk,
    brute_force_knn,
    pairwise_distances,
)

__all__ = ["LSHIndex", "tables_for_recall", "calibrate_width"]


def tables_for_recall(recall: float, *, per_table_hit: float = 0.2) -> int:
    """Table count targeting ``recall`` given a per-table collision rate.

    ``L = ceil(log(1 - recall) / log(1 - p))`` clamped to [2, 64]; the
    default ``p`` is conservative for the calibrated width (measured on
    uniform 2-d/8-d data), so the differential gate holds with margin.
    """
    r = float(recall)
    if not 0.0 < r < 1.0:
        raise InvalidInputError(f"recall must be in (0, 1), got {recall!r}")
    tables = math.ceil(math.log(1.0 - r) / math.log(1.0 - per_table_hit))
    return max(2, min(64, tables))


def calibrate_width(data: np.ndarray, k: int, *, seed: int = 0, sample: int = 128) -> float:
    """Bucket width ~ 2x the typical kth-NN distance of a seeded sample.

    Buckets about twice as wide as the neighborhoods being retrieved keep
    the per-table collision probability for true neighbors high without
    flooding queries with the whole dataset.
    """
    data = _as_points(data, "data")
    k = min(int(k), len(data) - 1) if len(data) > 1 else 1
    rng = np.random.default_rng(seed)
    take = rng.choice(len(data), size=min(int(sample), len(data)), replace=False)
    d = pairwise_distances(data[take], data, "l2")
    d[np.arange(len(take)), take] = np.inf
    kth = np.sort(d, axis=1)[:, k - 1]
    width = 2.0 * float(np.median(kth))
    return width if width > 0.0 else 1.0


class LSHIndex:
    """L2 hash tables over a fixed dataset, answering batched kNN queries.

    Args:
        data: (n, d) points to index.
        k: neighborhood size the index is calibrated for.
        tables: hash-table count (the recall knob); default from
            :func:`tables_for_recall` at recall 0.9.
        hashes: concatenated hash functions per table (bucket selectivity).
        width: bucket width; default calibrated from the data via
            :func:`calibrate_width`.
        seed: master seed for projections, offsets and calibration.
    """

    def __init__(
        self,
        data,
        k: int,
        *,
        tables: "int | None" = None,
        hashes: int = 3,
        width: "float | None" = None,
        seed: int = 0,
    ) -> None:
        self.data = _as_points(data, "data")
        n, d = self.data.shape
        self.k = int(k)
        if not 1 <= self.k <= n:
            raise InvalidInputError(f"k must be in [1, {n}], got {k}")
        self.tables = tables_for_recall(0.9) if tables is None else int(tables)
        self.hashes = int(hashes)
        if self.tables < 1 or self.hashes < 1:
            raise InvalidInputError("tables and hashes must be >= 1")
        self.width = calibrate_width(self.data, self.k, seed=seed) if width is None else float(width)
        if self.width <= 0.0:
            raise InvalidInputError(f"width must be positive, got {width!r}")
        rng = np.random.default_rng(seed)
        self._proj = rng.standard_normal((self.tables, self.hashes, d))
        self._offset = rng.uniform(0.0, self.width, size=(self.tables, self.hashes))
        #: Queries answered by exact brute force because their buckets held
        #: fewer than k candidates (observability for the recall gate).
        self.fallbacks = 0
        #: Total candidates brute-forced across all queries (work counter).
        self.candidates_scanned = 0
        self._buckets: "list[dict[bytes, np.ndarray]]" = []
        for t in range(self.tables):
            keys = self._keys(self.data, t)
            table: "dict[bytes, list]" = {}
            for i, key in enumerate(keys):
                table.setdefault(key, []).append(i)
            self._buckets.append(
                {key: np.asarray(ids, dtype=np.int64) for key, ids in table.items()}
            )

    def _keys(self, points: np.ndarray, t: int) -> "list[bytes]":
        """Bucket keys of ``points`` in table ``t`` (bytes of the int grid)."""
        g = np.floor((points @ self._proj[t].T + self._offset[t]) / self.width)
        g = np.ascontiguousarray(g.astype(np.int64))
        return [row.tobytes() for row in g]

    def query(self, queries, k: "int | None" = None) -> "tuple[np.ndarray, np.ndarray]":
        """kNN ``(indices, dists)`` of each query row against the data.

        Rows sort by ascending distance with id tie-breaks, exactly like
        :func:`~repro.approx.knn_graph.brute_force_knn`, so a query whose
        candidate set happens to contain the true neighbors returns the
        very same row the oracle would.
        """
        queries = _as_points(queries, "queries")
        if queries.shape[1] != self.data.shape[1]:
            raise InvalidInputError("queries and data must share a dimension")
        k = self.k if k is None else int(k)
        if not 1 <= k <= len(self.data):
            raise InvalidInputError(f"k must be in [1, {len(self.data)}], got {k}")
        keys = [self._keys(queries, t) for t in range(self.tables)]
        idx = np.empty((len(queries), k), dtype=np.int64)
        dist = np.empty((len(queries), k), dtype=float)
        starved = []
        for i in range(len(queries)):
            parts = [
                hit
                for t in range(self.tables)
                if (hit := self._buckets[t].get(keys[t][i])) is not None
            ]
            cand = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
            if len(cand) < k:
                starved.append(i)
                continue
            self.candidates_scanned += len(cand)
            d = _chunked_candidate_distances(
                self.data, queries[i : i + 1], cand[None, :], "l2"
            )
            top, top_d = _merge_topk(cand[None, :], d, k)
            idx[i] = top[0]
            dist[i] = top_d[0]
        if starved:
            self.fallbacks += len(starved)
            b_idx, b_dist = brute_force_knn(
                queries[starved], self.data, k, metric="l2"
            )
            idx[starved] = b_idx
            dist[starved] = b_dist
        return idx, dist
