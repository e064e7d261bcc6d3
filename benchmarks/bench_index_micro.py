"""Microbenchmarks for the index substrates the algorithms stand on:
point-enclosure indexes (the baseline's S-tree stand-in vs R-tree vs
brute force) and the nearest-facility search against scipy's kd-tree."""

import tracemalloc

import numpy as np
import pytest

from repro.data.city import nyc_like
from repro.data.sampling import sample_clients_facilities

from repro.index.enclosure import BruteForceEnclosure, SegmentTreeEnclosureIndex
from repro.index.rtree import RTree

N_RECTS = 2000
N_QUERIES = 500


def _rects(seed=0):
    rng = np.random.default_rng(seed)
    cx, cy = rng.random(N_RECTS) * 10, rng.random(N_RECTS) * 10
    r = rng.random(N_RECTS) * 0.3
    return cx - r, cx + r, cy - r, cy + r


@pytest.mark.parametrize(
    "cls", (SegmentTreeEnclosureIndex, RTree, BruteForceEnclosure),
    ids=("segment_tree", "rtree", "brute"),
)
def test_enclosure_query_throughput(benchmark, cls):
    args = _rects()
    index = cls(*args)
    query = index.query_point if isinstance(index, RTree) else index.query
    rng = np.random.default_rng(1)
    points = rng.random((N_QUERIES, 2)) * 10
    benchmark.group = "enclosure queries"

    def run():
        total = 0
        for (x, y) in points:
            total += len(query(x, y))
        return total

    total = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["hits"] = total


def _cluster_with_outliers(rng, n):
    """98% of the points within about 1e-3 of one spot, 2% spread over a
    1000-wide square: the skew a uniform grid handles worst."""
    pts = rng.normal(0.5, 1e-3, (n, 2))
    far = rng.random(n) < 0.02
    pts[far] = rng.random((far.sum(), 2)) * 1000
    return pts


def _nn_input(name):
    rng = np.random.default_rng(2)
    if name == "600x120":
        return rng.random((600, 2)), rng.random((120, 2))
    if name == "uniform-100kx10k":
        return rng.random((100_000, 2)), rng.random((10_000, 2))
    if name == "nyc-20kx6k":
        return sample_clients_facilities(nyc_like(30_000, seed=0), 20_000, 6_000, seed=1)
    if name == "duplicated-50kx5k":
        # 50 sites, 100 copies each: quantile cuts cannot part the copies.
        return rng.random((50_000, 2)), np.repeat(rng.random((50, 2)), 100, axis=0)
    return _cluster_with_outliers(rng, 50_000), _cluster_with_outliers(rng, 5_000)


@pytest.mark.parametrize(
    "name", ("600x120", "uniform-100kx10k", "nyc-20kx6k", "cluster-50kx5k",
             "duplicated-50kx5k")
)
@pytest.mark.parametrize("backend", ("auto", "ckdtree"))
def test_nn_circle_backend(benchmark, backend, name):
    """The numpy grid search against scipy's cKDTree (when installed),
    L2 nearest-facility distances; the grid's tracemalloc peak rides along."""
    from repro.nn.nncircles import nn_distances

    clients, facilities = _nn_input(name)
    benchmark.group = f"nn backends {name}"
    if backend == "ckdtree":
        spatial = pytest.importorskip("scipy.spatial")

        def run():
            return spatial.cKDTree(facilities).query(clients, k=1)[0]
    else:
        def run():
            return nn_distances(clients, facilities, "l2")

        tracemalloc.start()
        run()
        benchmark.extra_info["peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    d = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(d) == len(clients)


def test_enclosure_build_cost(benchmark):
    """Index construction is part of BA's front cost (n log^2 n term)."""
    args = _rects()
    benchmark.group = "enclosure build"

    def run():
        return SegmentTreeEnclosureIndex(*args)

    index = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(index) == N_RECTS
