"""Direct RNN queries — the correctness oracle.

For a query point q not in F, o is in R(q) iff d(o, q) <= d(o, NN_F(o)),
i.e. iff q lies in the closed NN-circle of o (Section III-A).  These
routines answer that definition directly (brute force or via an enclosure
index) and are what every sweep/grid algorithm is validated against.
"""

from __future__ import annotations

import numpy as np

from ..geometry.circle import NNCircleSet
from ..geometry.metrics import Metric, get_metric
from ..index.enclosure import SegmentTreeEnclosureIndex
from .nncircles import compute_nn_circles

__all__ = ["NaiveRNN", "rnn_set_of_point"]

#: Point-circle distances computed per block of :meth:`NaiveRNN.query_many`.
_BLOCK = 1 << 20


def rnn_set_of_point(circles: NNCircleSet, x: float, y: float) -> frozenset:
    """The RNN set of (x, y) by brute-force closed containment."""
    return frozenset(circles.enclosing(x, y))


class NaiveRNN:
    """Answer RNN queries for arbitrary points, optionally index-accelerated.

    This also serves as a standalone feature: "what is the influence of this
    candidate location?" without building the whole heat map.
    """

    def __init__(
        self,
        clients: np.ndarray,
        facilities: "np.ndarray | None" = None,
        metric: "Metric | str" = "l2",
        monochromatic: bool = False,
        use_index: bool = False,
        k: int = 1,
    ) -> None:
        self.metric = get_metric(metric)
        self.circles = compute_nn_circles(
            clients, facilities, self.metric, monochromatic=monochromatic, k=k
        )
        self._index = None
        if use_index and len(self.circles):
            # Index the circles' bounding boxes; exact metric test refines.
            self._index = SegmentTreeEnclosureIndex(
                self.circles.x_lo,
                self.circles.x_hi,
                self.circles.y_lo,
                self.circles.y_hi,
                ids=np.arange(len(self.circles)),
            )

    def query(self, x: float, y: float) -> frozenset:
        """R(q) for q = (x, y): client ids whose NN-circle contains q."""
        if self._index is None:
            return rnn_set_of_point(self.circles, x, y)
        out = []
        for i in self._index.query(x, y):
            c = self.circles[i]
            if c.contains(x, y):
                out.append(c.client_id)
        return frozenset(out)

    def query_many(self, points) -> "list[frozenset]":
        """R(q) for every row of an (n, 2) batch, by brute force in blocks."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        c = self.circles
        centres = np.column_stack([c.cx, c.cy])
        step = max(1, _BLOCK // max(len(c), 1))
        out: "list[frozenset]" = []
        for lo in range(0, len(pts), step):
            d = self.metric.pairwise_to_point(centres, pts[lo:lo + step, None, :])
            out.extend(frozenset(c.client_ids[row].tolist()) for row in d <= c.radius)
        return out

    def influence(self, x: float, y: float, measure) -> float:
        """Influence of placing a new facility at (x, y) under ``measure``."""
        return measure(self.query(x, y))
