"""'crest' under L2 vs the loop arc sweep 'crest-l2': bit-identity.

Under L2 ``crest`` runs ``run_crest_l2_batched``, the vectorized arc sweep.
It promises *bit-identical* output to the loop sweep ``run_crest_l2``
(registered as the non-public ``crest-l2``): the same sweep counters, the
same fragment multiset, the same probe answers and the same
``(rnn_set, heat)`` sequence through ``on_label``.  Checked over random
instances under the size, weighted, capacity and connectivity measures,
with and without fragment collection, and on the degenerate shapes (empty
input, one circle, duplicate clients producing identical circles).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.registry import REGISTRY
from repro.geometry.circle import NNCircleSet
from repro.geometry.transforms import IDENTITY
from repro.influence.measures import (
    CapacityConstrainedMeasure,
    ConnectivityMeasure,
    SizeMeasure,
    WeightedMeasure,
)
from repro.nn.nncircles import compute_nn_circles

#: Every SweepStats field both sweeps must agree on (the algorithm name
#: is excluded by design: it tells the two apart).
STAT_FIELDS = (
    "n_circles", "n_events", "n_event_batches", "labels", "measure_calls",
    "changed_intervals", "merged_intervals", "max_rnn_size", "max_heat",
    "max_heat_rnn", "max_heat_point", "n_fragments",
)

PROBES = np.random.default_rng(7).uniform(-5, 105, size=(400, 2))


def _sweep(engine, circles, measure, *, collect_fragments=True):
    """Run ``engine``'s L2 runner; returns (stats, region_set, labels)
    where ``labels`` is the ``on_label`` call sequence."""
    _spec, runner = REGISTRY.resolve(engine, "l2")
    labels = []
    stats, region_set = runner(
        circles, measure, transform=IDENTITY,
        collect_fragments=collect_fragments,
        on_label=lambda rnn, heat: labels.append((rnn, heat)),
    )
    return stats, region_set, labels


def _instance(seed, n_clients, n_fac, metric):
    rng = np.random.default_rng(seed)
    clients = rng.uniform(0, 100, size=(n_clients, 2))
    fac = rng.uniform(0, 100, size=(n_fac, 2))
    return clients, fac, compute_nn_circles(clients, fac, metric)


def _frag_key(f):
    return (type(f).__name__, repr(dataclasses.astuple(f)))


def assert_bit_identical(circles, measure, *, collect_fragments=True):
    """The oracle: counters, ``on_label`` sequence, fragment multiset and
    answers of ``crest`` equal the loop sweep's."""
    s1, r1, calls1 = _sweep(
        "crest-l2", circles, measure, collect_fragments=collect_fragments
    )
    s2, r2, calls2 = _sweep(
        "crest", circles, measure, collect_fragments=collect_fragments
    )
    assert (s1.algorithm, s2.algorithm) == ("crest-l2", "crest-l2-batched")
    for field in STAT_FIELDS:
        assert getattr(s1, field) == getattr(s2, field), field
    assert calls2 == calls1
    if r1 is None or r2 is None:
        assert r1 is None and r2 is None
        return
    assert sorted(map(_frag_key, r1.fragments)) == sorted(
        map(_frag_key, r2.fragments)
    )
    np.testing.assert_array_equal(r2.heat_at_many(PROBES), r1.heat_at_many(PROBES))
    assert r2.rnn_at_many(PROBES) == r1.rnn_at_many(PROBES)
    assert r2.top_k_heats(10) == r1.top_k_heats(10)


@pytest.mark.parametrize("metric", ["l2"])
@pytest.mark.parametrize("seed,n_clients,n_fac", [
    (0, 60, 10), (11, 150, 25), (23, 40, 3),
])
class TestRandomInstances:
    def test_size_measure(self, seed, n_clients, n_fac, metric):
        _o, _f, circles = _instance(seed, n_clients, n_fac, metric)
        assert_bit_identical(circles, SizeMeasure())

    def test_weighted_measure(self, seed, n_clients, n_fac, metric):
        _o, _f, circles = _instance(seed, n_clients, n_fac, metric)
        m = WeightedMeasure(
            {i: float((i * 31 % 17) + 0.25) for i in range(n_clients)}
        )
        assert_bit_identical(circles, m)

    def test_capacity_measure(self, seed, n_clients, n_fac, metric):
        clients, fac, circles = _instance(seed, n_clients, n_fac, metric)
        m = CapacityConstrainedMeasure(
            clients, fac, capacities=3, new_capacity=5, metric=metric
        )
        assert_bit_identical(circles, m)

    def test_connectivity_measure(self, seed, n_clients, n_fac, metric):
        _o, _f, circles = _instance(seed, n_clients, n_fac, metric)
        m = ConnectivityMeasure(
            (i, j) for i in range(n_clients) for j in range(i + 1, n_clients)
            if (i * 31 + j * 17) % 7 == 0
        )
        assert_bit_identical(circles, m)

    def test_without_fragments(self, seed, n_clients, n_fac, metric):
        _o, _f, circles = _instance(seed, n_clients, n_fac, metric)
        assert_bit_identical(circles, SizeMeasure(), collect_fragments=False)


@pytest.mark.parametrize("metric", ["l2"])
class TestDegenerateShapes:
    def test_empty(self, metric):
        empty = NNCircleSet(np.zeros(0), np.zeros(0), np.zeros(0), metric)
        assert_bit_identical(empty, SizeMeasure())

    def test_single_circle(self, metric):
        _o, _f, one = _instance(99, 1, 1, metric)
        assert_bit_identical(one, SizeMeasure())

    def test_duplicate_clients_identical_circles(self, metric):
        pts = np.array(
            [[10.0, 10.0], [10.0, 10.0], [30.0, 30.0], [30.0, 30.0], [10.0, 30.0]]
        )
        fac = np.array([[0.0, 0.0], [50.0, 50.0]])
        dup = compute_nn_circles(pts, fac, metric, drop_degenerate=False)
        assert_bit_identical(dup, SizeMeasure())
