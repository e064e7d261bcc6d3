"""Reverse k-nearest-neighbor heat maps (the k>1 extension).

The region-coloring reduction is untouched: o is in R_k(q) iff q lies
within o's k-th-NN circle, so CREST runs unmodified over k-th-NN radii.
"""

import numpy as np
import pytest

from repro import RNNHeatMap
from repro.errors import InvalidInputError
from repro.nn.nncircles import compute_nn_circles, nn_distances


def brute_kth(clients, facilities, metric, k, rng=None):
    from repro.geometry.metrics import get_metric

    m = get_metric(metric)
    out = np.empty(len(clients))
    for i, c in enumerate(clients):
        d = np.sort(m.pairwise_to_point(facilities, c))
        out[i] = d[k - 1]
    return out


class TestKthDistances:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("backend", ["brute", "auto"])
    def test_backends_match_brute(self, k, backend, rng):
        O, F = rng.random((40, 2)), rng.random((8, 2))
        got = nn_distances(O, F, "l2", backend=backend, k=k)
        np.testing.assert_allclose(got, brute_kth(O, F, "l2", k), rtol=1e-9)

    @pytest.mark.parametrize("backend", ["brute", "auto"])
    def test_monochromatic_k2(self, backend, rng):
        P = rng.random((30, 2))
        got = nn_distances(P, None, "l2", monochromatic=True,
                           backend=backend, k=2)
        # Reference: per point, 2nd smallest distance to the others.
        from repro.geometry.metrics import L2

        for i, p in enumerate(P):
            d = L2.pairwise_to_point(P, p)
            d[i] = np.inf
            assert got[i] == pytest.approx(np.sort(d)[1])

    def test_k_monotone(self, rng):
        O, F = rng.random((30, 2)), rng.random((10, 2))
        d1 = nn_distances(O, F, "l2", k=1)
        d2 = nn_distances(O, F, "l2", k=2)
        d3 = nn_distances(O, F, "l2", k=3)
        assert (d1 <= d2).all() and (d2 <= d3).all()

    def test_validation(self, rng):
        O, F = rng.random((5, 2)), rng.random((2, 2))
        with pytest.raises(InvalidInputError):
            nn_distances(O, F, "l2", k=0)
        with pytest.raises(InvalidInputError):
            nn_distances(O, F, "l2", k=3)  # only 2 facilities
        with pytest.raises(InvalidInputError):
            nn_distances(O[:2], None, "l2", monochromatic=True, k=2)


class TestRkNNHeatMap:
    def test_rknn_definition_pointwise(self, rng):
        """o in R_2(q) iff q is closer to o than o's 2nd-nearest facility."""
        O, F = rng.random((30, 2)), rng.random((6, 2))
        k = 2
        result = RNNHeatMap(O, F, metric="l2", k=k).build("crest")
        kth = brute_kth(O, F, "l2", k)
        from repro.geometry.metrics import L2

        for _ in range(100):
            q = rng.random(2) * 1.2 - 0.1
            expected = frozenset(
                i for i in range(len(O)) if L2.distance(O[i], q) <= kth[i]
            )
            assert result.rnn_at(*q) == expected

    def test_heat_grows_with_k(self, rng):
        """Bigger k => bigger circles => pointwise-larger RNN sets."""
        O, F = rng.random((40, 2)), rng.random((8, 2))
        r1 = RNNHeatMap(O, F, metric="linf", k=1).build("crest")
        r2 = RNNHeatMap(O, F, metric="linf", k=2).build("crest")
        for _ in range(80):
            q = rng.random(2)
            assert r1.rnn_at(*q) <= r2.rnn_at(*q)

    def test_compute_circles_k(self, rng):
        O, F = rng.random((20, 2)), rng.random((5, 2))
        c1 = compute_nn_circles(O, F, "l2", k=1)
        c2 = compute_nn_circles(O, F, "l2", k=2)
        assert (c2.radius >= c1.radius).all()
