"""Approximate heat-map builder engines behind the algorithm registry.

Both engines estimate each client's kth-NN radius among the facilities and
serve the resulting NN-circles as an
:class:`~repro.core.surface.NNCircleSurface` — the surface the exact
engines serve size-measure maps from, with approximate radii — so they
scale to k and d the exact engines cannot touch.  They differ only in how
the radii are found:

* ``knn-graph`` — an NN-descent neighbor graph over the facilities, then
  beam search per client (:mod:`repro.approx.knn_graph`).  L2 and
  L-infinity, any dimension, k up to the registry's ``max_k``.
* ``lsh-rnn`` — p-stable Gaussian LSH tables over the facilities
  (:mod:`repro.approx.lsh`).  L2 only; the ``recall`` knob sets the table
  count.

Small instances (where approximation buys nothing) are answered by exact
brute force, so the engines degrade *upward* to exactness.  Every source
of randomness flows from the ``seed`` knob: one (inputs, knobs) pair gives
byte-identical surfaces on every build.

Dimensions beyond two are served through a *slice plane*: the surface
fixes dims 2.. at the client centroid and keeps each d-ball's exact 2-d
cross-section (for L2 a disk of radius ``sqrt(r^2 - off^2)``; for
L-infinity the full square iff every perpendicular offset fits).  Queries
and tiles on the plane are therefore *exact restrictions* of the
d-dimensional surface — the only approximation is in the radii.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.heatmap import HeatMapResult
from ..core.surface import NNCircleSurface
from ..core.sweep_linf import SweepStats
from ..errors import (
    AlgorithmUnsupportedError,
    BuildCancelledError,
    InvalidInputError,
)
from ..geometry.circle import NNCircleSet
from .knn_graph import (
    _as_points,
    brute_force_knn,
    build_knn_graph,
    reverse_neighbor_counts,
    search_graph,
)
from .lsh import LSHIndex, tables_for_recall

__all__ = ["build_knn_graph_result", "build_lsh_result"]

#: Facility counts at or below which the builders brute-force exactly.
BRUTE_BELOW = 256


def _poll(should_cancel) -> None:
    if should_cancel is not None and should_cancel():
        raise BuildCancelledError("approximate build cancelled")


def _common_inputs(clients, facilities, *, metric, measure, monochromatic, k, name):
    """Shared validation: bichromatic, size measure, matching dimensions."""
    if monochromatic:
        raise AlgorithmUnsupportedError(
            f"{name!r} is bichromatic only — pass explicit facilities"
        )
    if measure is not None:
        raise AlgorithmUnsupportedError(
            f"{name!r} supports the default size measure only"
        )
    if facilities is None:
        raise InvalidInputError("bichromatic problems need facilities")
    c = _as_points(clients, "clients")
    f = _as_points(facilities, "facilities")
    if c.shape[1] != f.shape[1]:
        raise InvalidInputError("clients and facilities must share a dimension")
    if c.shape[1] < 2:
        raise InvalidInputError("points must have at least 2 dimensions")
    k = int(k)
    if not 1 <= k <= len(f):
        raise InvalidInputError(f"k must be in [1, {len(f)}], got {k}")
    return c, f, k


def _plane_circles(clients: np.ndarray, radii: np.ndarray, metric: str):
    """``(circles, slice_point)``: the NN-circles on the viewing plane.

    2-d inputs are their own plane (``slice_point`` None).  For d > 2 the
    plane fixes dims 2.. at the client centroid and each ball contributes
    its exact cross-section; balls missing the plane drop out.
    """
    ids = np.arange(len(clients), dtype=np.int64)
    if clients.shape[1] == 2:
        return NNCircleSet(clients[:, 0], clients[:, 1], radii, metric, ids), None
    slice_point = clients.mean(axis=0)
    off = clients[:, 2:] - slice_point[None, 2:]
    if metric == "l2":
        off_sq = (off * off).sum(axis=1)
        keep = off_sq <= radii * radii
        eff = np.sqrt(np.maximum(radii[keep] ** 2 - off_sq[keep], 0.0))
    else:  # linf: the full square, iff every perpendicular offset fits
        keep = np.abs(off).max(axis=1) <= radii
        eff = radii[keep]
    c = clients[keep]
    return NNCircleSet(c[:, 0], c[:, 1], eff, metric, ids[keep]), slice_point


def _result(
    clients: np.ndarray,
    knn_ids: np.ndarray,
    knn_dists: np.ndarray,
    n_facilities: int,
    *,
    metric: str,
    algorithm: str,
    n_events: int,
) -> HeatMapResult:
    """Wrap per-client kNN answers into a served surface + stats."""
    counts = reverse_neighbor_counts(knn_ids, n_facilities)
    circles, slice_point = _plane_circles(
        clients, np.ascontiguousarray(knn_dists[:, -1]), metric
    )
    meta = {"knn_indices": knn_ids, "facility_rnn_counts": counts}
    if slice_point is not None:
        meta["slice_point"] = slice_point
    # No maximum in the counters: the surface finds it when first read
    # (``HeatMapResult.stats``), as its cost grows with overlapping pairs.
    stats = SweepStats(
        n_circles=len(clients),
        n_events=int(n_events),
        labels=0,
        max_rnn_size=int(counts.max(initial=0)),
        n_fragments=0,
        algorithm=algorithm,
    )
    return HeatMapResult(NNCircleSurface(circles, engine=None, meta=meta), stats)


def build_knn_graph_result(
    clients,
    facilities=None,
    *,
    metric: str = "l2",
    measure=None,
    monochromatic: bool = False,
    k: int = 1,
    options: "dict | None" = None,
    should_cancel=None,
) -> HeatMapResult:
    """The ``knn-graph`` engine: NN-descent graph + beam-searched radii."""
    if str(metric).lower() not in ("l2", "linf"):
        raise AlgorithmUnsupportedError(
            "'knn-graph' runs under l2/linf NN-circles, not "
            f"{str(metric).lower()!r}"
        )
    metric = str(metric).lower()
    c, f, k = _common_inputs(
        clients, facilities, metric=metric, measure=measure,
        monochromatic=monochromatic, k=k, name="knn-graph",
    )
    opts = dict(options or {})
    seed = int(opts.get("seed", 0))
    recall = float(opts.get("recall", 0.9))
    if not 0.0 < recall <= 1.0:
        raise InvalidInputError(f"recall must be in (0, 1], got {recall!r}")
    _poll(should_cancel)
    if len(f) <= max(BRUTE_BELOW, 4 * k):
        ids, dists = brute_force_knn(c, f, k, metric=metric)
        n_events = len(c) * len(f)
    else:
        # The recall knob buys effort: graph degree, descent rounds and
        # search width all scale with it (documented in docs/approx.md).
        degree = min(len(f) - 1, max(8, int(math.ceil(k * (1.0 + recall)))))
        iters = 4 + int(round(4 * recall))
        graph, _ = build_knn_graph(f, degree, metric=metric, seed=seed, iters=iters)
        _poll(should_cancel)
        beam = max(2 * k, 16, int(math.ceil(k * (1.0 + 2.0 * recall))))
        ids, dists = search_graph(
            c, f, graph, k, metric=metric, seed=seed + 1,
            starts=max(8, degree), rounds=4 + int(round(4 * recall)), beam=beam,
        )
        n_events = len(c) * beam + len(f) * degree
    _poll(should_cancel)
    return _result(
        c, ids, dists, len(f),
        metric=metric, algorithm="knn-graph", n_events=n_events,
    )


def build_lsh_result(
    clients,
    facilities=None,
    *,
    metric: str = "l2",
    measure=None,
    monochromatic: bool = False,
    k: int = 1,
    options: "dict | None" = None,
    should_cancel=None,
) -> HeatMapResult:
    """The ``lsh-rnn`` engine: p-stable hash tables + candidate scans."""
    if str(metric).lower() != "l2":
        raise AlgorithmUnsupportedError(
            "'lsh-rnn' hashes with Gaussian projections, which are "
            f"L2-stable only — not {str(metric).lower()!r}"
        )
    c, f, k = _common_inputs(
        clients, facilities, metric="l2", measure=measure,
        monochromatic=monochromatic, k=k, name="lsh-rnn",
    )
    opts = dict(options or {})
    seed = int(opts.get("seed", 0))
    recall = float(opts.get("recall", 0.9))
    if not 0.0 < recall <= 1.0:
        raise InvalidInputError(f"recall must be in (0, 1], got {recall!r}")
    _poll(should_cancel)
    if len(f) <= max(BRUTE_BELOW, 4 * k):
        ids, dists = brute_force_knn(c, f, k, metric="l2")
        n_events = len(c) * len(f)
    else:
        tables = int(opts.get("tables") or tables_for_recall(min(recall, 0.999)))
        hashes = int(opts.get("hashes") or 3)
        index = LSHIndex(f, k, tables=tables, hashes=hashes, seed=seed)
        _poll(should_cancel)
        ids, dists = index.query(c)
        n_events = index.candidates_scanned + index.fallbacks * len(f)
    _poll(should_cancel)
    return _result(
        c, ids, dists, len(f),
        metric="l2", algorithm="lsh-rnn", n_events=n_events,
    )
