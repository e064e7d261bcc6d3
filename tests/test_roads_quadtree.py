"""Road-network generator."""

import numpy as np
import pytest

from repro.data.roads import road_network, road_network_points
from repro.errors import InvalidInputError


class TestRoadNetwork:
    def test_graph_structure(self):
        g = road_network(grid_size=8, seed=0)
        assert g.number_of_nodes() == 64
        assert g.number_of_edges() > 0
        for _n, data in g.nodes(data=True):
            assert "pos" in data
        weights = {d["weight"] for _u, _v, d in g.edges(data=True)}
        assert 3.0 in weights  # arterials present
        assert 1.0 in weights

    def test_dropout_reduces_edges(self):
        dense = road_network(grid_size=10, seed=1, dropout=0.0)
        sparse = road_network(grid_size=10, seed=1, dropout=0.4)
        assert sparse.number_of_edges() < dense.number_of_edges()

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            road_network(grid_size=1)
        with pytest.raises(InvalidInputError):
            road_network(dropout=1.0)
        with pytest.raises(InvalidInputError):
            road_network_points(0)

    def test_points_in_bounds_and_deterministic(self):
        pts = road_network_points(500, seed=3)
        assert pts.shape == (500, 2)
        assert pts.min() >= 0.0 and pts.max() <= 1.0
        np.testing.assert_array_equal(pts, road_network_points(500, seed=3))

    def test_points_hug_the_network(self):
        """Points lie near road segments: distance to the nearest edge is
        tiny compared to the grid spacing."""
        import networkx as nx

        g = road_network(grid_size=6, seed=2)
        pts = road_network_points(200, grid_size=6, seed=2)
        segs = [
            (np.array(g.nodes[u]["pos"]), np.array(g.nodes[v]["pos"]))
            for u, v in g.edges()
        ]

        def dist_to_seg(p, a, b):
            ab = b - a
            t = np.clip(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-12), 0, 1)
            return np.linalg.norm(p - (a + t * ab))

        far = sum(
            1 for p in pts if min(dist_to_seg(p, a, b) for a, b in segs) > 0.05
        )
        assert far < len(pts) * 0.05

    def test_feeds_heat_map(self):
        from repro import RNNHeatMap

        pool = road_network_points(400, seed=5)
        result = RNNHeatMap(pool[:300], pool[300:], metric="l2").build()
        assert result.labels > 0

