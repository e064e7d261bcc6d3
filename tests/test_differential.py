"""Differential test harness: one oracle over every build path.

Seeded randomized workloads run the serial engine, the slab-partitioned
``*-parallel`` pipeline and the batched engines over the same instances
and assert *identical* ``heat_at_many`` / ``rnn_at_many`` /
``top_k_heats`` answers (``helpers.assert_same_answers``).  Dynamic maps
are held to brute force over their current points after every update
(``helpers.assert_matches_brute_force``), and to the static builds at
the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicHeatMap, RNNHeatMap
from helpers import assert_matches_brute_force, assert_same_answers


def _instance(seed: int, metric: str):
    rng = np.random.default_rng(seed)
    n_clients = 90 + int(rng.integers(0, 50))
    n_fac = 16 + int(rng.integers(0, 10))
    clients = rng.random((n_clients, 2))
    facilities = rng.random((n_fac, 2))
    probes = rng.random((400, 2)) * 1.2 - 0.1  # includes out-of-map points
    return clients, facilities, probes


CASES = [(seed, metric) for seed in (11, 23) for metric in ("l2", "linf")]


@pytest.mark.parametrize("seed,metric", CASES)
def test_serial_vs_parallel_pipeline(seed, metric):
    """The multi-process pipeline answers exactly like the serial sweep,
    both through the explicit parallel engine name and through workers=."""
    clients, facilities, probes = _instance(seed, metric)
    serial = RNNHeatMap(clients, facilities, metric=metric).build("crest")
    hm = RNNHeatMap(clients, facilities, metric=metric)
    candidates = [
        ("workers=2", hm.build("crest", workers=2)),
        (f"{hm.sweep_metric_name}-parallel",
         hm.build(f"{hm.sweep_metric_name}-parallel", workers=1)),
    ]
    assert_same_answers(serial, candidates, probes)


@pytest.mark.parametrize("seed,metric", CASES)
def test_serial_vs_batched_engines(seed, metric):
    """The vectorized batched engines answer exactly like the loop sweep
    and perform the identical labeled work (same sweep counters)."""
    clients, facilities, probes = _instance(seed, metric)
    hm = RNNHeatMap(clients, facilities, metric=metric)
    serial = hm.build("crest")
    name = f"{hm.sweep_metric_name}-batched"
    batched = hm.build(name)
    assert_same_answers(serial, [(name, batched)], probes)
    assert batched.stats.labels == serial.stats.labels
    assert batched.stats.measure_calls == serial.stats.measure_calls
    assert batched.stats.max_heat == serial.stats.max_heat


@pytest.mark.parametrize("seed,metric", CASES)
def test_dynamic_path_vs_brute_force(seed, metric):
    """A randomized update workload: after every applied batch, the dynamic
    map answers like brute force over the current points, and its last
    top-k equals a fresh static build's."""
    clients, facilities, probes = _instance(seed, metric)
    dyn = DynamicHeatMap(clients, facilities, metric=metric)
    dyn.result()
    rng = np.random.default_rng(seed + 1000)
    for step in range(6):
        op = int(rng.integers(0, 4))
        handles = dyn.assignment.client_handles()
        if op == 0 or len(handles) <= 2:
            dyn.move_client(int(rng.choice(handles)), *rng.random(2))
        elif op == 1:
            dyn.add_client(*rng.random(2))
        elif op == 2:
            dyn.remove_client(int(rng.choice(handles)))
        else:
            fh = dyn.assignment.facility_handles()
            dyn.move_facility(int(rng.choice(fh)), *rng.random(2))
        assert_matches_brute_force(dyn, dyn.result(), probes, f"step {step}")
    _handles, now_clients, now_facilities = dyn.points()
    static = RNNHeatMap(now_clients, now_facilities, metric=metric).build("crest")
    assert dyn.result().region_set.top_k_heats(10) == static.region_set.top_k_heats(10)


@pytest.mark.parametrize("metric", ["l2", "linf"])
def test_three_paths_converge_on_one_state(metric):
    """Serial, parallel and dynamic arrive at the same *final* state by
    different roads and must answer identically.

    The dynamic path starts from a perturbed world and is driven back to
    the target configuration by updates; after each one it must answer
    like brute force, and at the end like the two static builds.
    """
    seed = 37
    clients, facilities, probes = _instance(seed, metric)

    serial = RNNHeatMap(clients, facilities, metric=metric).build("crest")
    parallel = RNNHeatMap(clients, facilities, metric=metric).build(
        "crest", workers=2
    )

    # Perturb: displace the first three clients, then move them back one by
    # one through the dynamic update API.
    perturbed = clients.copy()
    perturbed[:3] += 0.05
    dyn = DynamicHeatMap(perturbed, facilities, metric=metric)
    dyn.result()
    handles = sorted(dyn.assignment.client_handles())
    for i in range(3):
        dyn.move_client(handles[i], clients[i, 0], clients[i, 1])
        assert_matches_brute_force(dyn, dyn.result(), probes, f"move {i}")

    assert_same_answers(
        serial,
        [("parallel workers=2", parallel), ("dynamic", dyn.result())],
        probes,
    )
