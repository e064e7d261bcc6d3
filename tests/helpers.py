"""Importable test helpers shared across the suite.

Kept outside ``conftest.py`` so test modules can ``from helpers import ...``
without depending on pytest's rootdir-sensitive ``conftest`` module name
(which used to collide with ``benchmarks/conftest.py`` and break
collection).
"""

from __future__ import annotations

import numpy as np

from repro.core.surface import NNCircleSurface
from repro.nn.nncircles import compute_nn_circles
from repro.nn.rnn import NaiveRNN
from repro.render.raster import world_bounds


def make_instance(seed: int, n_clients: int, n_facilities: int, metric: str):
    """A random bichromatic instance: (clients, facilities, circles)."""
    r = np.random.default_rng(seed)
    clients = r.random((n_clients, 2))
    facilities = r.random((n_facilities, 2))
    circles = compute_nn_circles(clients, facilities, metric)
    return clients, facilities, circles


def naive_rnn_set(circles, x: float, y: float) -> frozenset:
    """Brute-force RNN set of a point (the oracle)."""
    return frozenset(circles.enclosing(x, y))


def pixel_centres(bounds, n: int) -> np.ndarray:
    """The centres of an n x n raster over ``bounds``, in raster order
    (row 0 = bottom), as an (n * n, 2) array."""
    xs = bounds.x_lo + (np.arange(n) + 0.5) * (bounds.x_hi - bounds.x_lo) / n
    ys = bounds.y_lo + (np.arange(n) + 0.5) * (bounds.y_hi - bounds.y_lo) / n
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def dynamic_brute_force(dyn, probes):
    """Heat and RNN sets (client handles) at ``probes`` by brute force over
    freshly computed NN radii of a ``DynamicHeatMap``'s current points."""
    handles, clients, facilities = dyn.points()
    sets = NaiveRNN(clients, facilities, metric=dyn.metric).query_many(probes)
    rnn = [frozenset(handles[i] for i in s) for s in sets]
    return np.array([len(s) for s in rnn], dtype=float), rnn


def assert_matches_brute_force(dyn, result, probes, label: str = "") -> None:
    """``result``'s heat and RNN answers equal :func:`dynamic_brute_force`."""
    heat, rnn = dynamic_brute_force(dyn, probes)
    np.testing.assert_array_equal(
        result.heat_at_many(probes), heat, err_msg=f"{label}: heat diverged"
    )
    assert result.rnn_at_many(probes) == rnn, f"{label}: RNN sets diverged"


def assert_same_answers(reference, candidates, probes, *, top_k: int = 10):
    """Assert every candidate answers exactly like ``reference``.

    The reusable differential oracle: ``reference`` and each ``(name,
    result)`` candidate expose ``heat_at_many`` / ``rnn_at_many`` /
    ``region_set.top_k_heats`` (a ``HeatMapResult`` does), and every
    answer — heat batch, RNN set batch, top-k list — must be *identical*,
    not merely close.  A metric's sweep, its reference sweep and a
    dynamic map driven to the same instance all promise the same
    answers; this is the single gate they share.
    """
    ref_heats = reference.heat_at_many(probes)
    ref_rnns = reference.rnn_at_many(probes)
    ref_topk = reference.region_set.top_k_heats(top_k)
    for name, candidate in candidates:
        np.testing.assert_array_equal(
            candidate.heat_at_many(probes), ref_heats,
            err_msg=f"{name}: heat_at_many diverged",
        )
        assert candidate.rnn_at_many(probes) == ref_rnns, (
            f"{name}: rnn_at_many diverged"
        )
        assert candidate.region_set.top_k_heats(top_k) == ref_topk, (
            f"{name}: top_k_heats diverged"
        )


def brute_heat(points, clients, facilities, metric: str = "l2", k: int = 1):
    """Strictly-containing (k-)NN-circle count per point, and which points
    lie within 1e-9 of some circle boundary (where rounding decides)."""
    def dist(a, b):
        d = np.abs(a - b)
        if metric == "l2":
            return np.sqrt((d * d).sum(axis=-1))
        return d.sum(axis=-1) if metric == "l1" else d.max(axis=-1)

    radii = np.sort(dist(clients[:, None, :], facilities[None, :, :]), axis=1)[:, k - 1]
    counts, ties = [], []
    for lo in range(0, len(points), 2048):
        d = dist(np.asarray(points)[lo:lo + 2048, None, :], clients[None, :, :])
        counts.append((d < radii).sum(axis=1))
        ties.append((np.abs(d - radii) <= 1e-9).any(axis=1))
    return np.concatenate(counts), np.concatenate(ties)


def assert_top_k_exact(
    result, clients, facilities, metric: str, *, side: int = 200, k: int = 1
):
    """A circle surface's top-k against brute force over its clients (an
    RkNN map of order ``k``).

    The full list (``k = 10**9``) descends to 0, each heat equals
    ``NaiveRNN`` at the point its search certified, and it holds every
    heat brute force reads at the off-boundary centres of a ``side`` x
    ``side`` raster over the world.  A fresh surface's maximum and top 3,
    searched with a floor, are that list's head.
    """
    surface = result.region_set
    top = surface._search(10**9)
    heats = [h for h, _point in top]
    assert heats == sorted(set(heats), reverse=True) and heats[-1] == 0
    witnesses = np.array([surface.transform.inverse(x, y) for _h, (x, y) in top])
    oracle = NaiveRNN(clients, facilities, metric=metric, k=k).query_many(witnesses)
    assert [len(s) for s in oracle] == heats
    count, tie = brute_heat(
        pixel_centres(world_bounds(surface), side), clients, facilities, metric, k
    )
    missing = set(count[~tie].tolist()) - set(heats)
    assert not missing, f"region heats {sorted(missing)} not listed"
    assert surface.top_k_heats(10**9) == [float(h) for h in heats]
    fresh = NNCircleSurface(surface.circles, surface.transform, engine=surface.engine)
    assert fresh.top_k_heats(1) == [fresh.max_heat] == [float(heats[0])]
    fresh = NNCircleSurface(surface.circles, surface.transform, engine=surface.engine)
    assert fresh.top_k_heats(3) == [float(h) for h in heats[:3]]
