"""Influence measures over RNN sets.

The RNNHM problem is defined for *any* real-valued function of the RNN set
(Definition 1); CREST treats the measure as a black box and counts its
invocations.  This module supplies the measures the paper discusses:

* ``SizeMeasure`` — |R|, the classic influence of Korn et al. [12].
* ``WeightedMeasure`` — sum of client weights.
* ``ConnectivityMeasure`` — number of edges among RNN members (the
  taxi-sharing example of Fig. 3: connected passengers ride together).
* ``CapacityConstrainedMeasure`` — the capacity-aware utility of Sun et
  al. [22] used in the L2 experiments: placing a new facility p yields
  sum over f in F + {p} of min(c(f), |R_p(f)|), where clients in R(p)
  abandon their old facility for p.

Measures may implement ``upper_bound(included, undecided)`` — an
admissible optimistic bound used by the pruning comparator's filter step.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..errors import InvalidInputError
from ..geometry.metrics import Metric, get_metric
from ..nn.nncircles import nn_assign

__all__ = [
    "CapacityConstrainedMeasure",
    "CompositeMeasure",
    "ConnectivityMeasure",
    "InfluenceMeasure",
    "SizeMeasure",
    "WeightedMeasure",
]


class InfluenceMeasure:
    """Base class: a callable mapping frozenset[int] -> float."""

    name = "abstract"

    def __call__(self, rnn_set: frozenset) -> float:
        raise NotImplementedError

    def measure_many(self, rnn_sets: "list[frozenset]") -> "list[float]":
        """Influence of each set, in order — the vectorized L2 sweep's
        entry point (one call per event batch instead of one per label).

        The default delegates to ``self(fs)`` per set, preserving every
        measure's exact float semantics (e.g. ``WeightedMeasure``'s
        set-iteration summation order); measures whose value is
        order-independent may override with a vectorized form, as long as
        the returned floats stay bit-identical to scalar calls.
        """
        return [float(self(fs)) for fs in rnn_sets]

    def upper_bound(self, included: frozenset, undecided: frozenset) -> float:
        """Optimistic bound over any R with included <= R <= included|undecided.

        The default assumes monotonicity (valid for size/weight measures);
        non-monotone measures must override.
        """
        return self(frozenset(included | undecided))


class SizeMeasure(InfluenceMeasure):
    """Influence = |R| (Korn et al. [12]); the measure used for the city
    heat maps of Fig. 1 and Fig. 15."""

    name = "size"

    def __call__(self, rnn_set: frozenset) -> float:
        return float(len(rnn_set))

    def measure_many(self, rnn_sets: "list[frozenset]") -> "list[float]":
        # Set cardinalities are exactly representable, so the vectorized
        # conversion is bit-identical to per-set float(len(...)) calls.
        return np.fromiter(map(len, rnn_sets), dtype=float,
                           count=len(rnn_sets)).tolist()


class WeightedMeasure(InfluenceMeasure):
    """Influence = sum of per-client weights over the RNN set."""

    name = "weighted"

    def __init__(self, weights: "Mapping[int, float] | np.ndarray") -> None:
        if isinstance(weights, np.ndarray):
            if (weights < 0).any():
                raise InvalidInputError("weights must be non-negative")
            self._weights = {i: float(w) for i, w in enumerate(weights)}
        else:
            self._weights = {int(k): float(v) for k, v in weights.items()}
            if any(w < 0 for w in self._weights.values()):
                raise InvalidInputError("weights must be non-negative")

    def __call__(self, rnn_set: frozenset) -> float:
        get = self._weights.get
        return float(sum(get(o, 0.0) for o in rnn_set))


class ConnectivityMeasure(InfluenceMeasure):
    """Influence = number of client-graph edges inside the RNN set.

    This is the taxi-sharing measure of the introduction: passengers who
    are connected (close destinations) are worth picking up together, so a
    region's heat counts the connections among its RNN members.  A
    superimposition of NN-circles cannot express this (Fig. 3).
    """

    name = "connectivity"

    def __init__(self, edges: "Iterable[tuple[int, int]]") -> None:
        self._adj: "dict[int, set[int]]" = {}
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise InvalidInputError("self-loops are not meaningful here")
            self._adj.setdefault(a, set()).add(b)
            self._adj.setdefault(b, set()).add(a)

    @classmethod
    def from_graph(cls, graph) -> "ConnectivityMeasure":
        """Build from a networkx graph over client ids."""
        return cls(graph.edges())

    def __call__(self, rnn_set: frozenset) -> float:
        adj = self._adj
        count = 0
        for o in rnn_set:
            neighbors = adj.get(o)
            if neighbors:
                for other in neighbors:
                    if other in rnn_set:
                        count += 1
        return count / 2.0


class CompositeMeasure(InfluenceMeasure):
    """A non-negative weighted sum of influence measures.

    Multi-criteria influence: e.g. 0.7 * served-demand + 0.3 * connections.
    The optimistic bound is the weighted sum of component bounds, which
    stays admissible because weights are non-negative.
    """

    name = "composite"

    def __init__(self, components: "list[tuple[float, InfluenceMeasure]]") -> None:
        if not components:
            raise InvalidInputError("composite needs at least one component")
        for w, _m in components:
            if w < 0:
                raise InvalidInputError("component weights must be non-negative")
        self._components = [(float(w), m) for w, m in components]

    def __call__(self, rnn_set: frozenset) -> float:
        return sum(w * m(rnn_set) for w, m in self._components)

    def upper_bound(self, included: frozenset, undecided: frozenset) -> float:
        return sum(
            w * m.upper_bound(included, undecided) for w, m in self._components
        )


class CapacityConstrainedMeasure(InfluenceMeasure):
    """The capacity-aware influence of Sun et al. [22].

    Placing a new facility p with capacity ``new_capacity`` attracts the
    clients R(p), each of whom leaves its current nearest facility.  The
    total served demand becomes::

        min(c_p, |R(p)|) + sum_f min(c_f, |R_0(f) \\ R(p)|)

    where R_0(f) is facility f's RNN set before p exists.  We report the
    *gain* over the status quo by default (``absolute=True`` reports the
    total), so the empty set has influence 0 either way.
    """

    name = "capacity"

    def __init__(
        self,
        clients: np.ndarray,
        facilities: np.ndarray,
        capacities: "np.ndarray | int",
        new_capacity: int,
        metric: "Metric | str" = "l2",
        absolute: bool = False,
    ) -> None:
        clients = np.asarray(clients, dtype=float)
        facilities = np.asarray(facilities, dtype=float)
        metric = get_metric(metric)
        n_f = len(facilities)
        if np.isscalar(capacities):
            capacities = np.full(n_f, int(capacities))
        capacities = np.asarray(capacities, dtype=np.int64)
        if len(capacities) != n_f:
            raise InvalidInputError("one capacity per facility required")
        if (capacities < 0).any() or new_capacity < 0:
            raise InvalidInputError("capacities must be non-negative")

        assignment, _d = nn_assign(clients, facilities, metric)
        self._assignment = {i: int(f) for i, f in enumerate(assignment)}
        self._base_counts = np.bincount(assignment, minlength=n_f).astype(np.int64)
        self._capacities = capacities
        self._base_served = np.minimum(self._capacities, self._base_counts)
        self._base_total = float(self._base_served.sum())
        self.new_capacity = int(new_capacity)
        self.absolute = absolute

    def __call__(self, rnn_set: frozenset) -> float:
        # Count how many clients each facility loses to the new location.
        lost: "dict[int, int]" = {}
        assignment = self._assignment
        for o in rnn_set:
            f = assignment.get(o)
            if f is not None:
                lost[f] = lost.get(f, 0) + 1
        reduction = 0.0
        for f, cnt in lost.items():
            before = self._base_served[f]
            after = min(self._capacities[f], self._base_counts[f] - cnt)
            reduction += float(before - after)
        total = (
            self._base_total
            - reduction
            + min(self.new_capacity, len(rnn_set))
        )
        return total if self.absolute else total - self._base_total

    def upper_bound(self, included: frozenset, undecided: frozenset) -> float:
        """Admissible bound: the new facility optimistically serves every
        candidate client while only the *committed* clients are deducted
        from their old facilities (taking more clients never helps the old
        facilities, so deducting fewer is optimistic)."""
        optimistic_first = min(self.new_capacity, len(included) + len(undecided))
        committed = self(included)
        # self(included) already deducts exactly the committed clients and
        # credits min(c_p, |included|); swap in the optimistic credit.
        committed_first = min(self.new_capacity, len(included))
        return committed - committed_first + optimistic_first
