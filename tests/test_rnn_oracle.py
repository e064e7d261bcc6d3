"""The direct RNN query (NaiveRNN) — definition-level semantics."""

import numpy as np
import pytest

from repro.influence.measures import SizeMeasure
from repro.nn.rnn import NaiveRNN, rnn_set_of_point
from repro.nn.nncircles import compute_nn_circles


class TestDefinition:
    def test_client_in_rnn_iff_closer_than_its_nn(self):
        # One facility at origin; clients at distance 1 and 3.
        O = np.array([[1.0, 0.0], [3.0, 0.0]])
        F = np.array([[0.0, 0.0]])
        oracle = NaiveRNN(O, F, metric="l2")
        # A point at (2, 0): distance 1 to both clients; client 0's NN
        # distance is 1 (tie -> included, <=); client 1's NN distance is 3.
        assert oracle.query(2.0, 0.0) == frozenset({0, 1})
        # A point far away attracts nobody.
        assert oracle.query(100.0, 0.0) == frozenset()

    def test_indexed_matches_plain(self, rng):
        O = rng.random((60, 2))
        F = rng.random((12, 2))
        plain = NaiveRNN(O, F, metric="l2", use_index=False)
        indexed = NaiveRNN(O, F, metric="l2", use_index=True)
        for _ in range(100):
            x, y = rng.random(2) * 1.4 - 0.2
            assert plain.query(x, y) == indexed.query(x, y)

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_query_many_matches_query(self, metric, rng, monkeypatch):
        """The blocked batch equals one query per point, block seams and
        the boundary (closed containment) included."""
        import repro.nn.rnn as rnn

        O, F = rng.random((60, 2)), rng.random((12, 2))
        oracle = NaiveRNN(O, F, metric=metric)
        c = oracle.circles
        # Points on circle boundaries, plus random ones.
        edge = np.column_stack([c.cx + c.radius, c.cy])
        points = np.vstack([edge, rng.random((200, 2)) * 1.4 - 0.2])
        monkeypatch.setattr(rnn, "_BLOCK", 7 * len(c))  # 7 points a block
        assert oracle.query_many(points) == [oracle.query(x, y) for x, y in points]

    def test_monochromatic(self, rng):
        P = rng.random((40, 2))
        oracle = NaiveRNN(P, monochromatic=True, metric="l2")
        for _ in range(30):
            x, y = rng.random(2)
            got = oracle.query(x, y)
            # Monochromatic L2 RNN sets are tiny (Korn et al.: at most 6).
            assert len(got) <= 6

    def test_influence(self, rng):
        O = rng.random((30, 2))
        F = rng.random((6, 2))
        oracle = NaiveRNN(O, F, metric="l2")
        x, y = 0.5, 0.5
        assert oracle.influence(x, y, SizeMeasure()) == len(oracle.query(x, y))

    def test_rnn_set_of_point_helper(self, rng):
        O = rng.random((30, 2))
        F = rng.random((6, 2))
        circles = compute_nn_circles(O, F, "linf")
        x, y = 0.4, 0.6
        assert rnn_set_of_point(circles, x, y) == frozenset(circles.enclosing(x, y))

    def test_l1_metric_diamond_shape(self):
        # Client at origin with NN distance 1 under L1: point (0.6, 0.6) is
        # outside the diamond (d1 = 1.2) but would be inside a square.
        O = np.array([[0.0, 0.0]])
        F = np.array([[1.0, 0.0]])
        oracle = NaiveRNN(O, F, metric="l1")
        assert oracle.query(0.4, 0.4) == frozenset({0})
        assert oracle.query(0.6, 0.6) == frozenset()
