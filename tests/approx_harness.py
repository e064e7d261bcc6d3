"""Reusable assertions for the approximate-engine differential harness.

Not a test module (no ``test_`` prefix, nothing collected): the actual
gates live in ``test_approx_engines.py`` / ``test_knn_graph.py`` and call
in here.  Three families of helpers:

* **Recall/precision vs the exact oracle.**  Recall is measured by the
  *distance-threshold* criterion — an approximate neighbor counts as a
  hit when its distance is within ``eps`` of the oracle's kth-NN distance
  — so equidistant-neighbor ties never read as misses.  Gates go through
  :func:`assert_recall_at_least`, which certifies a *Hoeffding lower
  bound* on the engine's true per-query recall rather than eyeballing the
  sample mean: with ``n`` queries the observed mean must clear the floor
  by ``sqrt(ln(1/delta) / (2n))``.  Every input is seeded, so the gate is
  deterministic; the margin is what makes the threshold principled
  instead of tuned-until-green.

* **Heat-surface RMSE.**  :func:`heat_rmse` rasterizes two served
  surfaces over the same bounds and compares pixel heats; the bound a
  test passes is documented in ``docs/approx.md``'s error model.

* **Property-style invariants.**  Non-negative heat everywhere, heat
  consistent with the reported RNN sets, byte-stable rebuilds under a
  fixed seed (:func:`assert_deterministic_build`), and monotone heat in
  ``k`` on exact (brute-path) instances.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from repro.core.serialize import save_region_set

__all__ = [
    "distance_recall_per_query",
    "hoeffding_margin",
    "assert_recall_at_least",
    "heat_rmse",
    "assert_heat_rmse_within",
    "assert_surface_invariants",
    "assert_deterministic_build",
    "region_set_bytes",
]

#: Distance slack for the threshold-recall criterion (absolute; inputs
#: live in the unit square so this is far below any true neighbor gap).
RECALL_EPS = 1e-9


def distance_recall_per_query(
    approx_dists: np.ndarray,
    exact_dists: np.ndarray,
    *,
    eps: float = RECALL_EPS,
) -> np.ndarray:
    """Per-query recall under the distance-threshold criterion.

    Args:
        approx_dists: (n, k) distances the engine returned (any row order).
        exact_dists: (n, k) oracle distances, ascending per row.

    Returns:
        (n,) array in [0, 1]: the fraction of each row's k answers whose
        distance is within ``eps`` of the oracle's kth-NN distance.  Ties
        at the kth distance count as hits for either side, so recall 1.0
        means "as good as exact", not "identical ids".
    """
    approx = np.asarray(approx_dists, dtype=float)
    exact = np.asarray(exact_dists, dtype=float)
    if approx.shape != exact.shape:
        raise ValueError(
            f"shape mismatch: approx {approx.shape} vs exact {exact.shape}"
        )
    kth = exact[:, -1][:, None]
    hits = (approx <= kth + eps).sum(axis=1)
    return hits / approx.shape[1]


def hoeffding_margin(n: int, *, confidence: float = 0.99) -> float:
    """One-sided Hoeffding deviation for a mean of ``n`` [0, 1] samples.

    With probability ``confidence`` the true mean exceeds the sample mean
    minus this margin: ``sqrt(ln(1 / (1 - confidence)) / (2 n))``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if n <= 0:
        raise ValueError(f"need at least one sample, got {n}")
    return math.sqrt(math.log(1.0 / (1.0 - confidence)) / (2.0 * n))


def assert_recall_at_least(
    per_query: np.ndarray,
    floor: float,
    *,
    confidence: float = 0.99,
    label: str = "recall",
) -> float:
    """Gate: the Hoeffding lower bound on mean recall clears ``floor``.

    Returns the certified lower bound so tests can log it.  The gate is
    strictly harder than ``mean >= floor``: the observed mean must exceed
    the floor by the explicit confidence margin, which is what keeps the
    threshold honest rather than fitted to one lucky seed.
    """
    per_query = np.asarray(per_query, dtype=float)
    mean = float(per_query.mean())
    margin = hoeffding_margin(len(per_query), confidence=confidence)
    lower = mean - margin
    assert lower >= floor, (
        f"{label}: observed mean {mean:.4f} over {len(per_query)} queries "
        f"certifies only {lower:.4f} at {confidence:.2%} confidence "
        f"(margin {margin:.4f}); gate needs >= {floor}"
    )
    return lower


def heat_rmse(surface_a, surface_b, *, bounds, width: int = 64, height: int = 64) -> float:
    """RMSE between two surfaces' heat rasters over shared ``bounds``."""
    grid_a, _ = surface_a.rasterize(width, height, bounds)
    grid_b, _ = surface_b.rasterize(width, height, bounds)
    return float(np.sqrt(np.mean((grid_a.astype(float) - grid_b) ** 2)))


def assert_heat_rmse_within(
    surface_a, surface_b, bound: float, *, bounds, width: int = 64, height: int = 64
) -> float:
    """Gate: raster RMSE between the two surfaces is at most ``bound``."""
    rmse = heat_rmse(surface_a, surface_b, bounds=bounds, width=width, height=height)
    assert rmse <= bound, (
        f"heat RMSE {rmse:.4f} over a {width}x{height} raster exceeds the "
        f"documented bound {bound} (see docs/approx.md error model)"
    )
    return rmse


def assert_surface_invariants(result, probes: np.ndarray) -> None:
    """Property gates every served surface must satisfy at any probe set.

    * heat is finite and non-negative everywhere;
    * heat equals the size of the RNN set reported at the same point;
    * ``top_k_heats`` is sorted descending with no value below zero;
    * the stats' reported heat maximum reproduces on the surface: probing
      ``max_heat_point`` reads back ``max_heat`` and its RNN set.
      (``max_heat`` is *sampled* at circle centers, so it need not
      dominate arbitrary probes — that is part of the documented error
      model, not a bug.)
    """
    surface = result.region_set
    heats = surface.heat_at_many(probes)
    assert np.isfinite(heats).all(), "heat must be finite"
    assert (heats >= 0).all(), "heat must be non-negative"
    rnns = surface.rnn_at_many(probes)
    sizes = np.array([len(s) for s in rnns], dtype=float)
    np.testing.assert_array_equal(
        heats, sizes, err_msg="heat must equal the RNN set size at each probe"
    )
    top = surface.top_k_heats(5)
    assert top == sorted(top, reverse=True), "top_k_heats must be descending"
    assert all(v >= 0 for v in top), "top_k_heats must be non-negative"
    stats = result.stats
    if stats.max_heat_point is not None:
        x, y = stats.max_heat_point
        assert surface.heat_at(x, y) == stats.max_heat, (
            "stats.max_heat must reproduce at stats.max_heat_point"
        )
        assert len(stats.max_heat_rnn) == stats.max_heat, (
            "stats.max_heat_rnn must match the reported heat"
        )


def region_set_bytes(region_set) -> bytes:
    """The canonical serialized bytes of a served region set."""
    fd, path = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    try:
        save_region_set(region_set, path)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


def assert_deterministic_build(builder, *args, **kwargs) -> bytes:
    """Gate: two builds with identical inputs serialize byte-identically.

    ``builder(*args, **kwargs)`` must return a ``HeatMapResult``; the
    serialized region-set bytes of both runs are compared and returned.
    """
    first = builder(*args, **kwargs)
    second = builder(*args, **kwargs)
    blob_a = region_set_bytes(first.region_set)
    blob_b = region_set_bytes(second.region_set)
    assert blob_a == blob_b, "identical inputs must build byte-identical surfaces"
    assert first.stats == second.stats, "identical inputs must report identical stats"
    return blob_a
