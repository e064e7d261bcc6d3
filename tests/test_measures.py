"""Influence measures: values, edge cases, and bound admissibility."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.errors import InvalidInputError
from repro.geometry.metrics import get_metric
from repro.influence.measures import (
    CapacityConstrainedMeasure,
    ConnectivityMeasure,
    SizeMeasure,
    WeightedMeasure,
)


class TestSizeMeasure:
    def test_values(self):
        m = SizeMeasure()
        assert m(frozenset()) == 0.0
        assert m(frozenset({1, 2, 3})) == 3.0

    def test_upper_bound_monotone(self):
        m = SizeMeasure()
        assert m.upper_bound(frozenset({1}), frozenset({2, 3})) == 3.0


class TestWeightedMeasure:
    def test_from_dict(self):
        m = WeightedMeasure({0: 1.5, 1: 2.5})
        assert m(frozenset({0, 1})) == 4.0
        assert m(frozenset({0, 7})) == 1.5  # unknown ids weigh nothing

    def test_from_array(self):
        m = WeightedMeasure(np.array([1.0, 2.0, 3.0]))
        assert m(frozenset({0, 2})) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            WeightedMeasure({0: -1.0})
        with pytest.raises(InvalidInputError):
            WeightedMeasure(np.array([-1.0]))


class TestConnectivityMeasure:
    def test_edge_counting(self):
        # The taxi-sharing triangle of Fig. 3: edges (o1,o2),(o2,o4),(o1,o4).
        m = ConnectivityMeasure([(1, 2), (2, 4), (1, 4)])
        assert m(frozenset({1, 2, 4})) == 3.0
        assert m(frozenset({1, 3, 4})) == 1.0  # only (1,4) inside
        assert m(frozenset({3})) == 0.0
        assert m(frozenset()) == 0.0

    def test_from_networkx(self):
        g = nx.Graph([(0, 1), (1, 2)])
        m = ConnectivityMeasure.from_graph(g)
        assert m(frozenset({0, 1, 2})) == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            ConnectivityMeasure([(1, 1)])


def brute_capacity_total(clients, facilities, capacities, new_cap, rnn_set, metric="l2"):
    """Direct recomputation of the [22] objective for a candidate location."""
    dist = get_metric(metric).pairwise_to_point(facilities[None], clients[:, None])
    assign = np.argmin(dist, axis=1)
    total = min(new_cap, len(rnn_set))
    for f in range(len(facilities)):
        served = sum(
            1 for o in range(len(clients)) if assign[o] == f and o not in rnn_set
        )
        total += min(int(capacities[f]), served)
    return float(total)


class TestCapacityMeasure:
    def test_against_brute_force(self, rng):
        O = rng.random((40, 2))
        F = rng.random((8, 2))
        caps = rng.integers(1, 6, size=8)
        m = CapacityConstrainedMeasure(O, F, caps, new_capacity=4,
                                       metric="l2", absolute=True)
        for _ in range(25):
            size = int(rng.integers(0, 10))
            rnn = frozenset(int(i) for i in rng.choice(40, size=size, replace=False))
            expected = brute_capacity_total(O, F, caps, 4, rnn)
            assert m(rnn) == pytest.approx(expected)

    def test_relative_mode_zero_for_empty(self, rng):
        O = rng.random((20, 2))
        F = rng.random((5, 2))
        m = CapacityConstrainedMeasure(O, F, 3, new_capacity=2, metric="l2")
        assert m(frozenset()) == 0.0

    def test_relative_vs_absolute_offset(self, rng):
        O = rng.random((20, 2))
        F = rng.random((5, 2))
        rel = CapacityConstrainedMeasure(O, F, 3, new_capacity=2, metric="l2")
        abso = CapacityConstrainedMeasure(O, F, 3, new_capacity=2, metric="l2",
                                          absolute=True)
        base = abso(frozenset())
        for rnn in (frozenset({0}), frozenset({1, 2, 3})):
            assert rel(rnn) == pytest.approx(abso(rnn) - base)

    def test_upper_bound_admissible(self, rng):
        """ub(included, undecided) >= measure(R) for every R in between."""
        O = rng.random((14, 2))
        F = rng.random((4, 2))
        m = CapacityConstrainedMeasure(O, F, 2, new_capacity=3, metric="l2")
        included = frozenset({0, 1})
        undecided = frozenset({2, 3, 4})
        ub = m.upper_bound(included, undecided)
        for k in range(len(undecided) + 1):
            for extra in itertools.combinations(undecided, k):
                value = m(included | frozenset(extra))
                assert value <= ub + 1e-9

    def test_validation(self, rng):
        O, F = rng.random((5, 2)), rng.random((3, 2))
        with pytest.raises(InvalidInputError):
            CapacityConstrainedMeasure(O, F, np.array([1, 2]), new_capacity=1)
        with pytest.raises(InvalidInputError):
            CapacityConstrainedMeasure(O, F, -1, new_capacity=1)
        with pytest.raises(InvalidInputError):
            CapacityConstrainedMeasure(O, F, 1, new_capacity=-1)
