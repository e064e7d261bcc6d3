"""Distance metrics used by the RNN heat map problem.

The paper considers three metrics in the plane (Section III): L-infinity
(NN-circles are axis-aligned squares), L1 (diamonds) and L2 (disks).  Each
metric is exposed as a small object bundling scalar and vectorized distance
functions plus metadata about the NN-circle shape it induces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import UnknownMetricError

__all__ = ["Metric", "L1", "L2", "LINF", "get_metric", "METRICS"]


@dataclass(frozen=True)
class Metric:
    """A planar distance metric.

    Attributes:
        name: canonical lowercase name ('l1', 'l2', 'linf').
        p: the Minkowski exponent (1, 2 or math.inf), for kd-tree indexes.
        circle_shape: shape of the NN-circle this metric induces.
        distance: scalar distance between two (x, y) pairs.
        pairwise_to_point: vectorized distances from an (n, 2) array to a
            point (or, broadcasting, to a (b, 1, 2) stack of points).
    """

    name: str
    p: float
    circle_shape: str
    distance: Callable[[tuple, tuple], float]
    pairwise_to_point: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Metric({self.name!r})"


def _dist_l1(p, q) -> float:
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def _dist_l2(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _dist_linf(p, q) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _arr_l1(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = np.abs(points - q)
    return d[..., 0] + d[..., 1]


def _arr_l2(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = points - q
    return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)


def _arr_linf(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = np.abs(points - q)
    return np.maximum(d[..., 0], d[..., 1])


L1 = Metric("l1", 1.0, "diamond", _dist_l1, _arr_l1)
L2 = Metric("l2", 2.0, "disk", _dist_l2, _arr_l2)
LINF = Metric("linf", math.inf, "square", _dist_linf, _arr_linf)

METRICS = {"l1": L1, "l2": L2, "linf": LINF}

_ALIASES = {
    "l_1": "l1",
    "manhattan": "l1",
    "l_2": "l2",
    "euclidean": "l2",
    "l_inf": "linf",
    "linfinity": "linf",
    "chebyshev": "linf",
    "loo": "linf",
}


def get_metric(name: "str | Metric") -> Metric:
    """Resolve a metric by name (accepting common aliases) or pass through.

    Raises:
        UnknownMetricError: if the name is not recognized.
    """
    if isinstance(name, Metric):
        return name
    key = str(name).strip().lower().replace("-", "").replace(" ", "")
    key = _ALIASES.get(key, key)
    try:
        return METRICS[key]
    except KeyError:
        raise UnknownMetricError(
            f"unknown metric {name!r}; expected one of {sorted(METRICS)}"
        ) from None
