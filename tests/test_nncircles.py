"""NN-circle computation: the grid search equals brute force bit for bit;
monochromatic semantics; nearest-index ties."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInputError
from repro.geometry.metrics import METRICS
from repro.nn import nncircles
from repro.nn.nncircles import _brute_nn, compute_nn_circles, nn_assign, nn_distances


class TestBackendsAgree:
    @pytest.mark.parametrize("metric", list(METRICS), ids=str)
    def test_bichromatic(self, metric, rng):
        O = rng.random((800, 2))
        F = rng.random((150, 2))
        brute = nn_distances(O, F, metric, backend="brute")
        assert np.array_equal(nn_distances(O, F, metric), brute)

    @pytest.mark.parametrize("metric", list(METRICS), ids=str)
    def test_monochromatic(self, metric, rng):
        P = rng.random((600, 2))
        brute = nn_distances(P, None, metric, monochromatic=True, backend="brute")
        assert np.array_equal(nn_distances(P, None, metric, monochromatic=True), brute)

    def test_monochromatic_excludes_self(self, rng):
        P = rng.random((30, 2))
        d = nn_distances(P, None, "l2", monochromatic=True)
        assert (d > 0).all()

    def test_monochromatic_duplicates_give_zero(self):
        P = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        d = nn_distances(P, None, "l2", monochromatic=True)
        assert d[0] == 0.0 and d[1] == 0.0
        np.testing.assert_array_equal(
            d, nn_distances(P, None, "l2", monochromatic=True, backend="brute")
        )


def _points(draw, n, shape):
    """``n`` points of one adversarial shape on a coarse lattice, so shared
    coordinates and exact duplicates are common."""
    lattice = draw(st.sampled_from([4, 16, 1 << 20]))
    pts = np.asarray(draw(st.lists(
        st.tuples(st.integers(0, lattice), st.integers(0, lattice)),
        min_size=n, max_size=n,
    )), dtype=float) / lattice
    if shape == "shared-x":
        pts[::2, 0] = 0.0
    elif shape == "shared-y":
        pts[1::2, 1] = 0.5
    elif shape == "one-cell":
        pts = np.full_like(pts, 0.25)
    elif shape == "offset":
        pts = pts * 1e-3 + 1e6
    return pts


@st.composite
def instances(draw):
    shape = draw(st.sampled_from(["plain", "shared-x", "shared-y", "one-cell", "offset"]))
    clients = _points(draw, draw(st.integers(5, 60)), shape)
    facilities = _points(draw, draw(st.integers(5, 40)), shape)
    if draw(st.booleans()):  # some clients sit on facilities
        j = min(len(clients), len(facilities)) // 2
        clients[:j] = facilities[:j]
    return clients, facilities


@st.composite
def duplicated(draw):
    """Clients of :func:`instances` against a few facility sites, each
    copied many times, in shuffled order."""
    clients, sites = draw(instances())
    sites = sites[: draw(st.integers(1, 6))]
    facilities = np.repeat(sites, draw(st.integers(2, 40)), axis=0)
    return clients, facilities[draw(st.permutations(range(len(facilities))))]


class TestGridSearchExact:
    """The grid search (forced even on small inputs, in tiny blocks)
    returns what the per-client brute-force scan returns, bit for bit."""

    @settings(max_examples=60)
    @given(instances(), st.sampled_from(list(METRICS)), st.integers(1, 4),
           st.booleans(), st.sampled_from([7, 64, 1 << 18]))
    def test_distances_equal_brute_force(self, inst, metric, k, mono, block):
        clients, facilities = inst
        if len(clients if mono else facilities) < k + mono:
            return
        with mock.patch.object(nncircles, "_ONE_PASS", 0), \
                mock.patch.object(nncircles, "_PAIR_BLOCK", block):
            got = nn_distances(clients, facilities, metric, monochromatic=mono, k=k)
        want = _brute_nn(clients, clients if mono else facilities,
                         METRICS[metric], mono, k)
        assert np.array_equal(got, want)

    @given(instances(), st.sampled_from(list(METRICS)), st.booleans())
    def test_assign_equals_per_client_argmin(self, inst, metric, grid):
        clients, facilities = inst
        with mock.patch.object(nncircles, "_ONE_PASS", 0 if grid else 1 << 14):
            index, dist = nn_assign(clients, facilities, metric)
        for i, q in enumerate(clients):
            d = METRICS[metric].pairwise_to_point(facilities, q)
            assert index[i] == np.argmin(d) and dist[i] == d.min()

    @settings(max_examples=40)
    @given(duplicated(), st.sampled_from(list(METRICS)), st.integers(1, 3))
    def test_duplicated_facilities(self, inst, metric, k):
        """The k = 1 grid searches each facility site once; distances and
        lowest-index ties are still brute force's."""
        clients, facilities = inst
        m = METRICS[metric]
        with mock.patch.object(nncircles, "_ONE_PASS", 0):
            got = nn_distances(clients, facilities, metric, k=k)
            index, dist = nn_assign(clients, facilities, metric)
        assert np.array_equal(got, _brute_nn(clients, facilities, m, False, k))
        d = m.pairwise_to_point(facilities[None], clients[:, None])
        assert np.array_equal(index, np.argmin(d, axis=1))
        assert np.array_equal(dist, d.min(axis=1))

    @pytest.mark.parametrize("metric", list(METRICS))
    def test_assign_ties_across_search_rounds(self, metric):
        # Integer coordinates give many equidistant facilities, some first
        # seen in a later round than a higher-indexed one at the same
        # distance; the lowest index must still win.
        rng = np.random.default_rng(11)
        facilities = rng.integers(0, 30, (300, 2)).astype(float)
        clients = rng.integers(-3, 33, (3000, 2)).astype(float)
        index, dist = nn_assign(clients, facilities, metric)
        d = METRICS[metric].pairwise_to_point(facilities[None], clients[:, None])
        assert np.array_equal(index, np.argmin(d, axis=1))
        assert np.array_equal(dist, d.min(axis=1))

    def test_skewed_input_memory_is_bounded(self):
        # A tight cluster with far outliers: the grid's cells stay small
        # where the cluster is, and candidates go in bounded blocks.
        rng = np.random.default_rng(5)

        def points(n):
            pts = rng.normal(0.5, 1e-3, (n, 2))
            far = rng.random(n) < 0.02
            pts[far] = rng.random((far.sum(), 2)) * 1000
            return pts

        clients, facilities = points(20_000), points(2_000)
        tracemalloc.start()
        try:
            got = nn_distances(clients, facilities, "l2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        sample = rng.choice(len(clients), 300, replace=False)
        want = _brute_nn(clients[sample], facilities, METRICS["l2"], False, 1)
        assert np.array_equal(got[sample], want)


class TestComputeNNCircles:
    def test_radii_match_distances(self, rng):
        O = rng.random((40, 2))
        F = rng.random((10, 2))
        circles = compute_nn_circles(O, F, "linf")
        d = nn_distances(O, F, "linf", backend="brute")
        np.testing.assert_allclose(np.sort(circles.radius), np.sort(d[d > 0]))

    def test_degenerate_dropped(self):
        O = np.array([[0.5, 0.5], [0.2, 0.2]])
        F = np.array([[0.5, 0.5]])  # first client sits on a facility
        circles = compute_nn_circles(O, F, "l2")
        assert len(circles) == 1
        assert circles.client_ids[0] == 1

    def test_keep_degenerate_when_asked(self):
        O = np.array([[0.5, 0.5], [0.2, 0.2]])
        F = np.array([[0.5, 0.5]])
        circles = compute_nn_circles(O, F, "l2", drop_degenerate=False)
        assert len(circles) == 2

    def test_requires_facilities_for_bichromatic(self):
        with pytest.raises(InvalidInputError):
            compute_nn_circles(np.random.default_rng(0).random((5, 2)), None, "l2")

    def test_mono_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            compute_nn_circles(np.array([[0.0, 0.0]]), None, "l2",
                               monochromatic=True)

    def test_bad_backend(self, rng):
        with pytest.raises(InvalidInputError):
            nn_distances(rng.random((4, 2)), rng.random((4, 2)), "l2",
                         backend="gpu")

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            compute_nn_circles(np.zeros((0, 2)), np.ones((3, 2)), "l2")
        with pytest.raises(InvalidInputError):
            compute_nn_circles(np.full((3, 2), np.nan), np.ones((3, 2)), "l2")
