"""Dynamic heat maps: incremental assignment and answers vs brute force."""

import numpy as np
import pytest

from repro import HeatMapService
from repro.dynamic import DynamicAssignment, DynamicHeatMap
from repro.errors import InvalidInputError
from repro.nn.nncircles import nn_distances
from repro.nn.rnn import NaiveRNN
from repro.render.raster import world_bounds
from helpers import assert_matches_brute_force, dynamic_brute_force, pixel_centres


def snapshot_positions(assignment: DynamicAssignment):
    handles = sorted(assignment._clients)
    clients = np.array([assignment._clients[h] for h in handles])
    facilities = np.array(list(assignment._facilities.values()))
    return handles, clients, facilities


def check_against_scratch(assignment: DynamicAssignment):
    """Every maintained radius equals a fresh brute-force NN distance."""
    handles, clients, facilities = snapshot_positions(assignment)
    fresh = nn_distances(clients, facilities, assignment.metric, backend="brute")
    for h, d in zip(handles, fresh):
        assert assignment.radius_of(h) == pytest.approx(d)


class TestDynamicAssignment:
    def test_initial_assignment(self, rng):
        O, F = rng.random((40, 2)), rng.random((8, 2))
        a = DynamicAssignment(O, F, "l2")
        check_against_scratch(a)

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_batched_first_assignment_matches_per_client(self, metric, rng):
        # Facilities on the even points of a lattice; the first clients sit
        # midway between two of them, so their nearest is a tie.
        xs, ys = np.meshgrid(np.arange(0, 40, 2.0), np.arange(0, 40, 2.0))
        F = np.column_stack((xs.ravel(), ys.ravel()))
        F = F[rng.permutation(len(F))]
        O = np.concatenate((F[:300] + [1.0, 0.0], F[:300] + [0.0, 1.0],
                            rng.random((2000, 2)) * 40))
        a = DynamicAssignment(O, F, metric)
        batched = dict(a._assignment)
        for c in a.client_handles():
            a._assign(c)  # the one-client query
        assert a._assignment == batched

    def test_client_churn(self, rng):
        O, F = rng.random((30, 2)), rng.random((6, 2))
        a = DynamicAssignment(O, F, "l2")
        new = a.add_client(0.5, 0.5)
        a.move_client(new, 0.9, 0.1)
        a.move_client(0, 0.2, 0.8)
        a.remove_client(1)
        check_against_scratch(a)
        assert a.n_clients == 30  # +1 added, -1 removed

    def test_facility_insert_reassigns_winners_only(self, rng):
        O, F = rng.random((50, 2)), rng.random((5, 2))
        a = DynamicAssignment(O, F, "l2")
        queries_before = a.stat_nn_queries
        a.add_facility(0.5, 0.5)
        # No full re-queries happened: insertion is a vectorized pass.
        assert a.stat_nn_queries == queries_before
        check_against_scratch(a)

    def test_facility_removal_requeries_orphans_only(self, rng):
        O, F = rng.random((50, 2)), rng.random((5, 2))
        a = DynamicAssignment(O, F, "l2")
        victim = 0
        orphans = [c for c in range(50) if a.facility_of(c) == victim]
        queries_before = a.stat_nn_queries
        a.remove_facility(victim)
        assert a.stat_nn_queries - queries_before == len(orphans)
        check_against_scratch(a)

    def test_facility_move(self, rng):
        O, F = rng.random((40, 2)), rng.random((6, 2))
        a = DynamicAssignment(O, F, "linf")
        a.move_facility(2, 0.05, 0.95)
        a.move_facility(3, 0.5, 0.5)
        check_against_scratch(a)

    def test_move_single_facility(self, rng):
        O = rng.random((10, 2))
        a = DynamicAssignment(O, np.array([[0.5, 0.5]]), "l2")
        a.move_facility(0, 0.1, 0.1)
        check_against_scratch(a)

    def test_guards(self, rng):
        O, F = rng.random((5, 2)), rng.random((2, 2))
        a = DynamicAssignment(O, F, "l2")
        with pytest.raises(InvalidInputError):
            a.remove_client(999)
        with pytest.raises(InvalidInputError):
            a.move_client(999, 0, 0)
        with pytest.raises(InvalidInputError):
            a.remove_facility(999)
        a.remove_facility(0)
        with pytest.raises(InvalidInputError):
            a.remove_facility(1)  # never drop the last facility
        with pytest.raises(InvalidInputError):
            DynamicAssignment(np.zeros((0, 2)), F, "l2")

    def test_circles_snapshot_handles(self, rng):
        O, F = rng.random((20, 2)), rng.random((4, 2))
        a = DynamicAssignment(O, F, "l2")
        a.remove_client(5)
        h = a.add_client(0.3, 0.3)
        circles = a.circles()
        ids = set(circles.client_ids.tolist())
        assert 5 not in ids
        assert h in ids


class TestDynamicHeatMap:
    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    def test_matches_brute_force_after_updates(self, metric, rng):
        O, F = rng.random((30, 2)), rng.random((6, 2))
        dyn = DynamicHeatMap(O, F, metric=metric)
        dyn.move_client(0, 0.9, 0.9)
        dyn.remove_client(1)
        h = dyn.add_client(0.1, 0.2)
        dyn.add_facility(0.6, 0.6)
        assert dyn.dirty
        # Reference: brute force over the current (original-space) points.
        _handles, O2, F2 = dyn.points()
        oracle = NaiveRNN(O2, F2, metric=metric)
        for _ in range(60):
            x, y = rng.random(2) * 1.2 - 0.1
            got = dyn.heat_at(x, y)
            assert got == len(oracle.query(x, y))
        assert not dyn.dirty
        assert h in dyn.assignment._clients

    def test_lazy_rebuild_caching(self, rng):
        O, F = rng.random((20, 2)), rng.random((4, 2))
        dyn = DynamicHeatMap(O, F, metric="linf")
        dyn.heat_at(0.5, 0.5)
        dyn.heat_at(0.2, 0.2)
        assert dyn.rebuilds == 1  # second query reused the cache
        dyn.move_client(0, 0.4, 0.4)
        dyn.heat_at(0.5, 0.5)
        assert dyn.rebuilds == 2

    def test_rnn_sets_track_updates(self, rng):
        O = np.array([[0.4, 0.5], [0.6, 0.5]])
        F = np.array([[0.0, 0.5]])
        dyn = DynamicHeatMap(O, F, metric="l2")
        # Client 1's NN distance is 0.6: a point midway attracts both.
        assert dyn.rnn_at(0.5, 0.5) == frozenset({0, 1})
        # A new facility right of client 1 shrinks its circle.
        dyn.add_facility(0.65, 0.5)
        assert dyn.rnn_at(0.5, 0.5) == frozenset({0})


def _shared_x_world(seed: int):
    """60 clients and 12 facilities around (0.1, 0.1), x clipped at 0:
    many points share x = 0, the L2 sweeps' axis."""
    r = np.random.default_rng(seed)
    clients = r.normal(0.1, 0.1, (60, 2))
    facilities = r.normal(0.1, 0.1, (12, 2))
    clients[:, 0] = np.maximum(clients[:, 0], 0.0)
    facilities[:, 0] = np.maximum(facilities[:, 0], 0.0)
    return clients, facilities


def _world_probes(result, n: int, seed: int) -> np.ndarray:
    world = world_bounds(result.region_set)
    r = np.random.default_rng(seed)
    return np.column_stack([
        r.uniform(world.x_lo, world.x_hi, n), r.uniform(world.y_lo, world.y_hi, n)
    ])


class TestSharedX:
    """Points sharing an x coordinate: the L2 sweeps mislabel regions
    there, and dynamic maps once served the sweep.  Every answer must
    equal brute force, through a move and its undo."""

    @pytest.mark.parametrize("seed", range(12))
    def test_move_and_back_matches_brute_force(self, seed):
        clients, facilities = _shared_x_world(seed)
        dyn = DynamicHeatMap(clients, facilities, metric="l2")
        x, y = clients[5]
        for step, move in enumerate((None, (x + 0.05, y), (x, y))):
            if move is not None:
                dyn.move_client(5, *move)
            result = dyn.result()
            probes = _world_probes(result, 20_000, seed)
            assert_matches_brute_force(dyn, result, probes, f"step {step}")

    def test_served_tile_matches_brute_force(self):
        clients, facilities = _shared_x_world(7)
        dyn = DynamicHeatMap(clients, facilities, metric="l2")
        service = HeatMapService(tile_size=64)
        h = service.attach_dynamic(dyn)
        x, y = clients[5]
        dyn.move_client(5, x + 0.05, y)
        service.tile(h, 0, 0, 0)
        dyn.move_client(5, x, y)
        grid, bounds = service.tile(h, 0, 0, 0)
        heat, _rnn = dynamic_brute_force(dyn, pixel_centres(bounds, 64))
        np.testing.assert_array_equal(grid.ravel(), heat)
        assert not service.result(h).region_set.swept
