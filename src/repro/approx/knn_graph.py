"""Seeded, numpy-only approximate kNN graphs in arbitrary dimension.

The exact sweep engines are 2-d constructions; everything in this module
works for points of any dimension under L2 / L-infinity / L1 and trades a
little recall for a lot of asymptotic headroom.  Two building blocks:

* :func:`build_knn_graph` — an NN-descent style neighbor-graph builder in
  the spirit of pynndescent: start from random neighbor lists, then
  repeatedly propose each point's neighbors-of-neighbors (plus a sample of
  *reverse* neighbors) as candidates and keep the closest ``k``.  All
  randomness flows from one ``np.random.default_rng(seed)``, every merge
  breaks distance ties by point id, so identical inputs and seeds give
  byte-identical graphs.
* :func:`search_graph` — beam search over a built graph to answer kNN
  queries for points *not* in the graph (the engine's clients querying a
  facility graph).

Both fall back to exact brute force when the instance is small enough
that approximation buys nothing, so tiny test instances are exact by
construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError

__all__ = [
    "pairwise_distances",
    "brute_force_knn",
    "build_knn_graph",
    "search_graph",
    "symmetrize",
    "reverse_neighbor_counts",
]

#: Metric names this module understands (d-dimensional, unlike the 2-d
#: geometry in ``repro.geometry.metrics``).
METRICS = ("l2", "linf", "l1")

#: Brute-force row chunk — bounds peak memory at chunk * n distances.
_CHUNK = 2048


def _as_points(points, name: str = "points") -> np.ndarray:
    """Validate and convert to a C-contiguous float64 (n, d) array."""
    arr = np.ascontiguousarray(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"{name} must have shape (n, d) with n, d >= 1")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    return arr


def _check_metric(metric: str) -> str:
    metric = str(metric).lower()
    if metric not in METRICS:
        raise InvalidInputError(f"metric must be one of {METRICS}, got {metric!r}")
    return metric


def pairwise_distances(a: np.ndarray, b: np.ndarray, metric: str = "l2") -> np.ndarray:
    """Dense (len(a), len(b)) distance matrix under ``metric``.

    Quadratic memory — callers chunk ``a`` (see ``brute_force_knn``).
    """
    metric = _check_metric(metric)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if metric == "l2":
        # ||x-y||^2 = ||x||^2 + ||y||^2 - 2 x.y — one matmul instead of a
        # (na, nb, d) broadcast; clamp tiny negatives from cancellation.
        sq = (
            (a * a).sum(axis=1)[:, None]
            + (b * b).sum(axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        return np.sqrt(np.maximum(sq, 0.0))
    diff = np.abs(a[:, None, :] - b[None, :, :])
    return diff.max(axis=2) if metric == "linf" else diff.sum(axis=2)


def brute_force_knn(
    queries: np.ndarray,
    data: np.ndarray,
    k: int,
    *,
    metric: str = "l2",
    chunk: int = _CHUNK,
) -> "tuple[np.ndarray, np.ndarray]":
    """Exact kNN of each query against ``data``: ``(indices, dists)``.

    Rows are sorted by ascending distance with ties broken by data index
    (stable argsort), so the result is a pure function of the inputs.
    This is the oracle the differential tests compare approximate engines
    against, and the small-instance fallback of the builders.

    Under L2 the matmul of :func:`pairwise_distances` picks the
    neighbours, and their distances are recomputed from coordinate
    differences: the matmul's cancellation would give a query standing
    on a data point a distance of about 1.5e-8, not 0.
    """
    queries = _as_points(queries, "queries")
    data = _as_points(data, "data")
    metric = _check_metric(metric)
    if queries.shape[1] != data.shape[1]:
        raise InvalidInputError("queries and data must share a dimension")
    k = int(k)
    if not 1 <= k <= len(data):
        raise InvalidInputError(f"k must be in [1, {len(data)}], got {k}")
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k), dtype=float)
    for lo in range(0, len(queries), chunk):
        hi = min(lo + chunk, len(queries))
        d = pairwise_distances(queries[lo:hi], data, metric)
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        if metric == "l2":
            d = _chunked_candidate_distances(data, queries[lo:hi], order, metric)
            idx[lo:hi], dist[lo:hi] = _merge_topk(order, d, k)
        else:
            idx[lo:hi] = order
            dist[lo:hi] = np.take_along_axis(d, order, axis=1)
    return idx, dist


def _chunked_candidate_distances(
    points: np.ndarray,
    queries: np.ndarray,
    cand: np.ndarray,
    metric: str,
    chunk: int = 1024,
) -> np.ndarray:
    """d(queries[i], points[cand[i, j]]) for a ragged-free (n, C) cand set."""
    out = np.empty(cand.shape, dtype=float)
    for lo in range(0, len(queries), chunk):
        hi = min(lo + chunk, len(queries))
        diff = points[cand[lo:hi]] - queries[lo:hi, None, :]
        if metric == "l2":
            out[lo:hi] = np.sqrt((diff * diff).sum(axis=2))
        elif metric == "linf":
            out[lo:hi] = np.abs(diff).max(axis=2)
        else:
            out[lo:hi] = np.abs(diff).sum(axis=2)
    return out


def _merge_topk(
    ids: np.ndarray,
    dists: np.ndarray,
    k: int,
    self_ids: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row top-k of a candidate set with duplicates (and self) masked.

    The dedupe is fully vectorized: stable-sort each row by candidate id,
    mask repeats (and the row's own id) to +inf, then stable-sort by
    distance.  After the id sort, equal distances appear in id order, so
    the stable distance sort breaks ties by id — deterministic output.
    """
    ids = ids.copy()
    dists = dists.copy()
    if self_ids is not None:
        dists[ids == self_ids[:, None]] = np.inf
    perm = np.argsort(ids, axis=1, kind="stable")
    ids = np.take_along_axis(ids, perm, axis=1)
    dists = np.take_along_axis(dists, perm, axis=1)
    dup = ids[:, 1:] == ids[:, :-1]
    dists[:, 1:][dup] = np.inf
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return (
        np.take_along_axis(ids, order, axis=1),
        np.take_along_axis(dists, order, axis=1),
    )


def _reverse_sample(indices: np.ndarray, n: int, cap: int) -> np.ndarray:
    """Up to ``cap`` reverse neighbors per node, padded with the node's own
    id (which every consumer masks out as a self-edge).

    Deterministic: edges are scanned in (target, source-position) order via
    a stable sort, so each node keeps the same reverse sample for the same
    graph regardless of memory layout.
    """
    k = indices.shape[1]
    targets = indices.ravel()
    sources = np.repeat(np.arange(n, dtype=np.int64), k)
    order = np.argsort(targets, kind="stable")
    targets = targets[order]
    sources = sources[order]
    out = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, cap))
    # Position of each edge within its target's run of incoming edges.
    starts = np.searchsorted(targets, np.arange(n))
    pos = np.arange(len(targets)) - starts[targets]
    keep = pos < cap
    out[targets[keep], pos[keep]] = sources[keep]
    return out


def build_knn_graph(
    points,
    k: int,
    *,
    metric: str = "l2",
    seed: int = 0,
    iters: int = 8,
    brute_below: int = 256,
) -> "tuple[np.ndarray, np.ndarray]":
    """Approximate kNN graph of ``points`` as ``(indices, dists)``.

    ``indices[i]`` are the ids of point ``i``'s ~k nearest *other* points
    (never ``i`` itself), sorted by ascending distance with id tie-breaks;
    ``dists[i]`` are the matching distances.  NN-descent converges early
    when an iteration changes nothing.  Instances with
    ``n <= max(brute_below, 2k)`` are answered exactly by brute force.

    Deterministic: a fixed ``(points, k, metric, seed)`` gives
    byte-identical arrays on every call.
    """
    points = _as_points(points)
    metric = _check_metric(metric)
    n = len(points)
    k = int(k)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if n < 2:
        raise InvalidInputError("need at least 2 points to build a graph")
    k = min(k, n - 1)

    if n <= max(int(brute_below), 2 * k):
        idx, dist = brute_force_knn(points, points, min(k + 1, n), metric=metric)
        return _merge_topk(idx, dist, k, self_ids=np.arange(n, dtype=np.int64))

    rng = np.random.default_rng(seed)
    # Random init without self-edges: draw from [0, n-1) and shift ids >= i.
    ids = rng.integers(0, n - 1, size=(n, k), dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    ids += ids >= rows[:, None]
    dists = _chunked_candidate_distances(points, points, ids, metric)
    ids, dists = _merge_topk(ids, dists, k, self_ids=rows)

    # Candidate pool size per round: forward + reverse neighbors, then each
    # contributes a sampled slice of its own neighbor list.
    join_out = min(k, 16)  # columns sampled from each candidate's list
    join_in = min(2 * k, 32)  # candidates whose lists we sample
    for _ in range(int(iters)):
        rev = _reverse_sample(ids, n, cap=min(k, 16))
        pool = np.concatenate([ids, rev], axis=1)
        take = rng.integers(0, pool.shape[1], size=(n, join_in))
        mid = np.take_along_axis(pool, take, axis=1)
        cols = rng.integers(0, k, size=(n, join_in, join_out))
        cand = np.take_along_axis(
            ids[mid.ravel()].reshape(n, join_in, k), cols, axis=2
        ).reshape(n, join_in * join_out)
        cand_d = _chunked_candidate_distances(points, points, cand, metric)
        new_ids, new_dists = _merge_topk(
            np.concatenate([ids, cand], axis=1),
            np.concatenate([dists, cand_d], axis=1),
            k,
            self_ids=rows,
        )
        if np.array_equal(new_ids, ids):
            break
        ids, dists = new_ids, new_dists
    return ids, dists


def search_graph(
    queries,
    points,
    graph: np.ndarray,
    k: int,
    *,
    metric: str = "l2",
    seed: int = 0,
    starts: int = 8,
    rounds: int = 6,
    beam: "int | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """kNN of each query against ``points`` via beam search on ``graph``.

    ``graph`` is the ``indices`` array from :func:`build_knn_graph` over
    ``points``.  Each query starts at ``starts`` seeded random nodes, then
    for ``rounds`` rounds expands the graph neighbors of its current best
    ``beam`` (default ``max(2k, 16)``) candidates, keeping the best seen.
    All queries advance in lock step (vectorized), converging early when a
    round improves nothing.
    """
    queries = _as_points(queries, "queries")
    points = _as_points(points)
    metric = _check_metric(metric)
    n = len(points)
    k = int(k)
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if queries.shape[1] != points.shape[1]:
        raise InvalidInputError("queries and data must share a dimension")
    beam = max(2 * k, 16) if beam is None else int(beam)
    rng = np.random.default_rng(seed)
    q = len(queries)

    cand = rng.integers(0, n, size=(q, max(int(starts), beam)), dtype=np.int64)
    cand_d = _chunked_candidate_distances(points, queries, cand, metric)
    best, best_d = _merge_topk(cand, cand_d, beam)
    for _ in range(int(rounds)):
        frontier = graph[best.ravel()].reshape(q, -1)
        fd = _chunked_candidate_distances(points, queries, frontier, metric)
        new_best, new_best_d = _merge_topk(
            np.concatenate([best, frontier], axis=1),
            np.concatenate([best_d, fd], axis=1),
            beam,
        )
        if np.array_equal(new_best, best):
            break
        best, best_d = new_best, new_best_d
    return best[:, :k], best_d[:, :k]


def symmetrize(indices: np.ndarray) -> "list[np.ndarray]":
    """Undirected adjacency lists of a directed kNN graph.

    ``result[i]`` holds the sorted unique ids ``j`` with an edge ``i -> j``
    *or* ``j -> i`` in ``indices`` (never ``i`` itself) — the
    mutual-reachability structure reverse-neighbor counts are read from.
    """
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indices)
    src = np.repeat(np.arange(n, dtype=np.int64), indices.shape[1])
    dst = indices.ravel()
    a = np.concatenate([src, dst])
    b = np.concatenate([dst, src])
    keep = a != b
    edges = np.unique(np.column_stack([a[keep], b[keep]]), axis=0)
    return [edges[edges[:, 0] == i, 1] for i in range(n)]


def reverse_neighbor_counts(indices: np.ndarray, n: "int | None" = None) -> np.ndarray:
    """How many rows of ``indices`` name each id — the RNN count.

    For a client->facility kNN table this is each facility's reverse
    k-nearest-neighbor cardinality, i.e. the paper's influence count.
    """
    indices = np.asarray(indices, dtype=np.int64)
    size = int(indices.max()) + 1 if n is None else int(n)
    return np.bincount(indices.ravel(), minlength=size)
