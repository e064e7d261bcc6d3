"""Recall-gated differential tests for the approximate engines.

Every gate runs both engines against the exact oracle on *seeded* data:
``brute_force_knn`` for neighbor recall, the exact crest sweep for heat
rasters.  Thresholds go through the harness
(:mod:`approx_harness`) — recall gates certify a Hoeffding lower bound,
heat gates enforce the RMSE bound documented in ``docs/approx.md``.

Layer coverage beyond the math: registry capability metadata and
workload rejection, fingerprint keying by engine knobs, serialize/store
round-trips, service tiles over an approximate handle, and the HTTP
``/build`` knob parameters.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from approx_harness import (
    assert_deterministic_build,
    assert_heat_rmse_within,
    assert_recall_at_least,
    assert_surface_invariants,
    distance_recall_per_query,
    region_set_bytes,
)
from repro.approx import (
    build_knn_graph_result,
    build_lsh_result,
    brute_force_knn,
)
from repro.core.heatmap import RNNHeatMap
from repro.core.registry import REGISTRY
from repro.core.serialize import load_region_set, save_region_set
from repro.errors import AlgorithmUnsupportedError, InvalidInputError
from repro.service import HeatMapService

ENGINES = {
    "knn-graph": build_knn_graph_result,
    "lsh-rnn": build_lsh_result,
}

#: Heat-RMSE bound for the differential instance at default knobs —
#: the error model in docs/approx.md derives it (observed ~0.27-0.43
#: against a mean heat of ~1.8; the gate adds headroom, not slack).
HEAT_RMSE_BOUND = 0.75


def _instance(seed: int, n_clients: int, n_facilities: int, d: int = 2):
    rng = np.random.default_rng(seed)
    return rng.random((n_clients, d)), rng.random((n_facilities, d))


def _engine_dists(result, clients, facilities, metric: str) -> np.ndarray:
    """Per-client distances to the neighbors the engine actually chose."""
    ids = result.region_set.meta["knn_indices"]
    diff = facilities[ids] - clients[:, None, :]
    if metric == "linf":
        d = np.abs(diff).max(axis=2)
    else:
        d = np.sqrt((diff * diff).sum(axis=2))
    return np.sort(d, axis=1)


# ----------------------------------------------------------------------
# Differential recall vs the brute-force oracle (satellite 1)
# ----------------------------------------------------------------------
@pytest.mark.statistical
@pytest.mark.parametrize(
    "engine,metric",
    [("knn-graph", "l2"), ("knn-graph", "linf"), ("lsh-rnn", "l2")],
)
def test_recall_gate_vs_oracle_2d(engine, metric):
    clients, facilities = _instance(11, 800, 1500)
    k = 10
    result = ENGINES[engine](
        clients, facilities, metric=metric, k=k,
        options={"recall": 0.9, "seed": 0},
    )
    _ids, exact_d = brute_force_knn(clients, facilities, k, metric=metric)
    per_query = distance_recall_per_query(
        _engine_dists(result, clients, facilities, metric), exact_d
    )
    assert_recall_at_least(per_query, 0.9, label=f"{engine}/{metric}")


@pytest.mark.statistical
def test_recall_gate_8d_knn_graph():
    """High-d workloads the sweep cannot touch still clear a recall gate.

    The 0.85 floor (vs 0.9 in 2-d) reflects the documented error model:
    graph search degrades gracefully with dimension at fixed knobs.
    """
    clients, facilities = _instance(13, 800, 1500, d=8)
    k = 10
    result = build_knn_graph_result(
        clients, facilities, metric="l2", k=k,
        options={"recall": 0.9, "seed": 0},
    )
    _ids, exact_d = brute_force_knn(clients, facilities, k, metric="l2")
    per_query = distance_recall_per_query(
        _engine_dists(result, clients, facilities, "l2"), exact_d
    )
    assert_recall_at_least(per_query, 0.85, label="knn-graph/8d")


@pytest.mark.statistical
@pytest.mark.parametrize(
    "engine,metric",
    [("knn-graph", "l2"), ("knn-graph", "linf"), ("lsh-rnn", "l2")],
)
def test_heat_rmse_vs_exact_sweep(engine, metric):
    """Served heat is within the documented RMSE of the exact crest raster."""
    clients, facilities = _instance(42, 400, 1000)
    k = 5
    exact = RNNHeatMap(clients, facilities, metric=metric, k=k).build()
    approx = ENGINES[engine](
        clients, facilities, metric=metric, k=k,
        options={"recall": 0.9, "seed": 0},
    )
    bounds = exact.region_set.bounds()
    assert_heat_rmse_within(
        approx.region_set, exact.region_set, HEAT_RMSE_BOUND, bounds=bounds
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_small_instances_are_exact(engine):
    """At or below the brute threshold the engines degrade up to exactness."""
    clients, facilities = _instance(3, 120, 80)
    k = 3
    exact = RNNHeatMap(clients, facilities, metric="l2", k=k).build()
    approx = ENGINES[engine](clients, facilities, metric="l2", k=k)
    probes = np.random.default_rng(5).random((200, 2))
    np.testing.assert_array_equal(
        approx.region_set.heat_at_many(probes),
        exact.heat_at_many(probes),
    )


# ----------------------------------------------------------------------
# Property-style invariants (satellite 2 rides partly here)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_surface_invariants_and_determinism(engine):
    clients, facilities = _instance(7, 300, 600)
    build = ENGINES[engine]
    blob = assert_deterministic_build(
        build, clients, facilities, metric="l2", k=8,
        options={"recall": 0.9, "seed": 2},
    )
    assert blob  # non-empty serialized surface
    result = build(
        clients, facilities, metric="l2", k=8,
        options={"recall": 0.9, "seed": 2},
    )
    probes = np.random.default_rng(8).random((150, 2))
    assert_surface_invariants(result, probes)


def test_different_seeds_may_differ_but_both_serve():
    clients, facilities = _instance(7, 200, 500)
    a = build_knn_graph_result(clients, facilities, k=5, options={"seed": 0})
    b = build_knn_graph_result(clients, facilities, k=5, options={"seed": 9})
    probes = np.random.default_rng(1).random((50, 2))
    for r in (a, b):
        assert_surface_invariants(r, probes)


def test_heat_monotone_in_k_on_exact_path():
    """On the brute (exact) path heat is pointwise non-decreasing in k."""
    clients, facilities = _instance(21, 150, 100)
    probes = np.random.default_rng(2).random((200, 2))
    prev = None
    for k in (1, 2, 4, 8):
        result = build_knn_graph_result(clients, facilities, metric="l2", k=k)
        heats = result.region_set.heat_at_many(probes)
        if prev is not None:
            assert (heats >= prev).all(), f"heat decreased moving to k={k}"
        prev = heats


def test_surface_invariants_8d_slice_plane():
    clients, facilities = _instance(17, 200, 400, d=8)
    result = build_knn_graph_result(clients, facilities, metric="l2", k=4)
    probes = np.random.default_rng(3).random((100, 2))
    assert_surface_invariants(result, probes)
    # The slice plane fixes dims 2.. at the client centroid.
    surface = result.region_set
    np.testing.assert_allclose(surface.meta["slice_point"], clients.mean(axis=0))


# ----------------------------------------------------------------------
# Capability metadata and workload rejection
# ----------------------------------------------------------------------
def test_registry_capability_metadata():
    for name in ("knn-graph", "lsh-rnn"):
        spec = REGISTRY.get(name)
        assert spec.exact is False
        assert spec.builder is not None
        assert spec.max_k == 50
        assert spec.max_dims is None
        assert spec.recall_target == pytest.approx(0.9)
        assert dict(spec.knobs) == {"recall": 0.9, "seed": 0}
    assert REGISTRY.get("crest").exact is True
    assert REGISTRY.get("crest").builder is None


def test_workload_rejections_are_clear():
    lsh = REGISTRY.get("lsh-rnn")
    with pytest.raises(AlgorithmUnsupportedError, match="linf"):
        lsh.check_workload(metric_name="linf", k=5, dims=2)
    with pytest.raises(AlgorithmUnsupportedError, match="k"):
        lsh.check_workload(metric_name="l2", k=51, dims=2)
    with pytest.raises(InvalidInputError, match="accepts"):
        lsh.normalized_options({"beam": 12})
    with pytest.raises(AlgorithmUnsupportedError, match="monochromatic|bichromatic"):
        build_lsh_result(np.zeros((10, 2)), monochromatic=True, k=1)
    # Builder engines have no sweep runner behind resolve().
    with pytest.raises(AlgorithmUnsupportedError, match="surface-builder"):
        REGISTRY.resolve("knn-graph", "l2")


def test_exact_engines_reject_high_dims_via_service():
    clients, facilities = _instance(19, 50, 40, d=3)
    service = HeatMapService()
    with pytest.raises(AlgorithmUnsupportedError, match="approximate engine"):
        service.build(clients, facilities, algorithm="crest")
    # The same data builds fine through an approximate engine.
    handle = service.build(clients, facilities, algorithm="knn-graph", k=2)
    assert handle in service.handles()


# ----------------------------------------------------------------------
# Fingerprinting, serialization, service tiles
# ----------------------------------------------------------------------
def test_fingerprint_keys_on_knobs():
    clients, facilities = _instance(23, 80, 60)
    service = HeatMapService()
    builds = []
    service.on_build = builds.append
    h1 = service.build(clients, facilities, algorithm="knn-graph", k=2)
    h2 = service.build(
        clients, facilities, algorithm="knn-graph", k=2,
        engine_options={"recall": 0.9, "seed": 0},
    )
    assert h1 == h2, "explicit defaults must key like omitted knobs"
    assert len(builds) == 1, "same knobs must be one cached build"
    h3 = service.build(
        clients, facilities, algorithm="knn-graph", k=2,
        engine_options={"recall": 0.5},
    )
    assert h3 != h1, "different recall must key a different handle"
    assert len(builds) == 2


def test_serialize_round_trip_and_store(tmp_path):
    clients, facilities = _instance(29, 120, 300)
    result = build_lsh_result(clients, facilities, k=6, options={"seed": 1})
    path = tmp_path / "surface.npz"
    save_region_set(result.region_set, path)
    loaded = load_region_set(path)
    probes = np.random.default_rng(4).random((100, 2))
    np.testing.assert_array_equal(
        loaded.heat_at_many(probes), result.region_set.heat_at_many(probes)
    )
    assert loaded.rnn_at_many(probes) == result.region_set.rnn_at_many(probes)
    assert region_set_bytes(loaded) == region_set_bytes(result.region_set)
    # Store demote/promote path: a 1-slot service spills to disk and
    # promotes the approximate surface back without rebuilding.
    service = HeatMapService(max_results=1, store_dir=tmp_path / "store")
    builds = []
    service.on_build = builds.append
    h1 = service.build(clients, facilities, algorithm="lsh-rnn", k=6,
                       engine_options={"seed": 1})
    service.build(clients, facilities, algorithm="knn-graph", k=6)  # evicts h1
    assert service.stats.demotions == 1
    # Re-requesting the evicted fingerprint promotes from disk, no rebuild.
    h1_again = service.build(clients, facilities, algorithm="lsh-rnn", k=6,
                             engine_options={"seed": 1})
    assert h1_again == h1
    heats = service.heat_at_many(h1, probes)
    np.testing.assert_array_equal(heats, result.region_set.heat_at_many(probes))
    assert len(builds) == 2, "promotion must not rebuild"
    assert service.stats.promotions >= 1


def test_tiles_over_approx_handle():
    clients, facilities = _instance(31, 150, 300)
    service = HeatMapService(tile_size=32)
    handle = service.build(clients, facilities, algorithm="knn-graph", k=3)
    grid, _bounds = service.tile(handle, 1, 0, 1)
    assert grid.shape == (32, 32)
    assert np.isfinite(grid).all() and (grid >= 0).all()
    again, _ = service.tile(handle, 1, 0, 1)
    np.testing.assert_array_equal(grid, again)
    assert service.stats.tile_cache_hits >= 1


# ----------------------------------------------------------------------
# HTTP knobs (satellite: /build params + dynamic rejection)
# ----------------------------------------------------------------------
def _post(url, payload, *, expect_error=False):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        if not expect_error:
            raise
        return err.code, json.loads(err.read())


def test_http_build_accepts_engine_knobs():
    from repro.server import ThreadedHTTPServer

    clients, facilities = _instance(37, 60, 50, d=3)
    with ThreadedHTTPServer(tile_size=16) as srv:
        _s, ds = _post(srv.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        status, body = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "algorithm": "knn-graph",
            "k": 2, "recall": 0.95, "seed": 3,
        })
        assert status in (200, 202)
        # Same knobs -> same fingerprint handle.
        _s2, body2 = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "algorithm": "knn-graph",
            "k": 2, "recall": 0.95, "seed": 3,
        })
        assert body2["handle"] == body["handle"]
        status, err = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "algorithm": "knn-graph", "recall": 1.5,
        }, expect_error=True)
        assert status == 400 and "recall" in err["error"]["message"]
        status, err = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "algorithm": "knn-graph", "dynamic": True,
        }, expect_error=True)
        assert status == 400 and "static handles only" in err["error"]["message"]
        status, err = _post(srv.url + "/build", {
            "dataset": ds["dataset"], "dynamic": True, "recall": 0.9,
        }, expect_error=True)
        assert status == 400 and "no engine options" in err["error"]["message"]
