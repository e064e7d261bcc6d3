"""Differential test harness: one oracle over every build path.

Seeded randomized workloads run each metric's sweep and its reference
(the loop arc sweep ``crest-l2`` under L2, the ``crest-a`` ablation under
L-infinity) over the same instances and assert *identical*
``heat_at_many`` / ``rnn_at_many`` / ``top_k_heats`` answers
(``helpers.assert_same_answers``).  Dynamic maps
are held to brute force over their current points after every update
(``helpers.assert_matches_brute_force``), their top-k to brute force
(``helpers.assert_top_k_exact``), and their point answers to the static
builds at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicHeatMap, RNNHeatMap
from helpers import (
    assert_matches_brute_force,
    assert_same_answers,
    assert_top_k_exact,
)


def _instance(seed: int, metric: str):
    rng = np.random.default_rng(seed)
    n_clients = 90 + int(rng.integers(0, 50))
    n_fac = 16 + int(rng.integers(0, 10))
    clients = rng.random((n_clients, 2))
    facilities = rng.random((n_fac, 2))
    probes = rng.random((400, 2)) * 1.2 - 0.1  # includes out-of-map points
    return clients, facilities, probes


CASES = [(seed, metric) for seed in (11, 23) for metric in ("l2", "linf")]


@pytest.mark.parametrize("seed,metric", [(11, "l2"), (23, "l2")])
def test_serial_vs_batched_engines(seed, metric):
    """The vectorized arc sweep 'crest' runs under L2 answers exactly like
    the loop sweep and performs the identical labeled work (same sweep
    counters)."""
    clients, facilities, probes = _instance(seed, metric)
    hm = RNNHeatMap(clients, facilities, metric=metric)
    loop = hm.build("crest-l2")
    batched = hm.build("crest")
    assert_same_answers(loop, [("crest", batched)], probes)
    assert batched.stats.labels == loop.stats.labels
    assert batched.stats.measure_calls == loop.stats.measure_calls
    assert batched.stats.max_heat == loop.stats.max_heat


@pytest.mark.parametrize("seed,metric", CASES)
def test_dynamic_path_vs_brute_force(seed, metric):
    """A randomized update workload: after every applied batch, the dynamic
    map answers like brute force over the current points, and so does its
    last top-k."""
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
    assert_top_k_exact(dyn.result(), now_clients, now_facilities, metric)


@pytest.mark.parametrize("metric", ["l2", "linf"])
def test_three_paths_converge_on_one_state(metric):
    """The reference sweep ('crest-l2' under L2, 'crest-a' under
    L-infinity), 'crest' and the dynamic map arrive at the same *final*
    state by different roads and must answer identically.

    The dynamic path starts from a perturbed world and is driven back to
    the target configuration by updates; after each one it must answer
    like brute force, and at the end like the two static builds.
    """
    seed = 37
    clients, facilities, probes = _instance(seed, metric)

    reference = RNNHeatMap(clients, facilities, metric=metric).build(
        "crest-l2" if metric == "l2" else "crest-a"
    )
    crest = RNNHeatMap(clients, facilities, metric=metric).build("crest")

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

    assert_same_answers(reference, [("crest", crest)], probes)
    np.testing.assert_array_equal(
        dyn.result().heat_at_many(probes), reference.heat_at_many(probes)
    )
    assert dyn.result().rnn_at_many(probes) == reference.rnn_at_many(probes)
    assert_top_k_exact(dyn.result(), clients, facilities, metric)
