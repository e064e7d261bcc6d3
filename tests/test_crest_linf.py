"""CREST under L-infinity: correctness against the brute-force oracle,
CREST vs CREST-A equivalence, degenerate inputs."""

import numpy as np
import pytest

from repro import RNNHeatMap
from repro.core.sweep_linf import run_crest
from repro.geometry.circle import NNCircleSet
from repro.influence.measures import SizeMeasure

from helpers import make_instance, naive_rnn_set


def check_against_oracle(circles, region_set, rng, n_points=200, pad=0.1):
    """Every fragment's representative point and random probe points agree
    with the brute-force RNN definition."""
    for frag in region_set.fragments:
        x, y = frag.representative_point()
        assert frag.rnn == naive_rnn_set(circles, x, y)
    b = circles.bounds()
    for _ in range(n_points):
        x = rng.uniform(b.x_lo - pad, b.x_hi + pad)
        y = rng.uniform(b.y_lo - pad, b.y_hi + pad)
        assert region_set.rnn_at(x, y) == naive_rnn_set(circles, x, y)


class TestRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_crest_matches_oracle(self, seed, rng):
        _o, _f, circles = make_instance(seed, 70, 12, "linf")
        _stats, rs = run_crest(circles, SizeMeasure())
        check_against_oracle(circles, rs, rng)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_crest_a_matches_oracle(self, seed, rng):
        _o, _f, circles = make_instance(seed, 50, 10, "linf")
        _stats, rs = run_crest(circles, SizeMeasure(), use_changed_intervals=False)
        check_against_oracle(circles, rs, rng, n_points=100)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_crest_and_crest_a_same_heat_everywhere(self, seed, rng):
        _o, _f, circles = make_instance(seed, 60, 8, "linf")
        _s1, rs1 = run_crest(circles, SizeMeasure())
        _s2, rs2 = run_crest(circles, SizeMeasure(), use_changed_intervals=False)
        assert rs1.total_area() == pytest.approx(rs2.total_area())
        for _ in range(150):
            x, y = rng.random(2) * 1.2 - 0.1
            assert rs1.heat_at(x, y) == rs2.heat_at(x, y)

    def test_crest_labels_far_fewer_than_crest_a(self):
        _o, _f, circles = make_instance(3, 150, 10, "linf")
        s1, _ = run_crest(circles, SizeMeasure(), collect_fragments=False)
        s2, _ = run_crest(circles, SizeMeasure(), use_changed_intervals=False,
                          collect_fragments=False)
        assert s1.labels < s2.labels / 2  # the optimization must bite

    def test_status_backend_is_not_an_option(self):
        """The sweep's status is a ``SortedKeyList``: choosing another is a
        ``TypeError``, never silently ignored."""
        o, f, circles = make_instance(0, 10, 3, "linf")
        with pytest.raises(TypeError):
            run_crest(circles, SizeMeasure(), status_backend="skiplist")
        with pytest.raises(TypeError):
            RNNHeatMap(o, f, metric="linf").build(status_backend="skiplist")


class TestHandConstructed:
    def test_single_circle(self):
        circles = NNCircleSet(np.array([0.0]), np.array([0.0]),
                              np.array([1.0]), "linf")
        stats, rs = run_crest(circles, SizeMeasure())
        assert stats.labels == 1
        assert len(rs.fragments) == 1
        f = rs.fragments[0]
        assert (f.x_lo, f.x_hi, f.y_lo, f.y_hi) == (-1.0, 1.0, -1.0, 1.0)
        assert f.heat == 1.0
        assert rs.heat_at(0, 0) == 1.0
        assert rs.heat_at(2, 0) == 0.0

    def test_two_nested_circles(self):
        circles = NNCircleSet(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                              np.array([2.0, 1.0]), "linf")
        _stats, rs = run_crest(circles, SizeMeasure())
        assert rs.heat_at(0, 0) == 2.0
        assert rs.heat_at(1.5, 0) == 1.0
        assert rs.heat_at(3, 0) == 0.0
        # The ring between the squares lies inside the *outer* circle only.
        assert rs.distinct_rnn_sets() == {
            frozenset(), frozenset({0}), frozenset({0, 1})
        }

    def test_two_overlapping_circles(self):
        circles = NNCircleSet(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                              np.array([1.0, 1.0]), "linf")
        _stats, rs = run_crest(circles, SizeMeasure())
        assert rs.heat_at(0.5, 0.5) == 2.0
        assert rs.heat_at(-0.5, -0.5) == 1.0
        assert rs.heat_at(1.5, 1.5) == 1.0
        assert rs.total_area() == pytest.approx(4 + 4 - 1)  # union area

    def test_fig10_line_status_walkthrough(self):
        """Fig. 10's configuration: three squares entering/leaving the sweep;
        we verify the labeled sets along a vertical probe between events."""
        # C(o1) big, C(o2) inside-right, C(o3) small upper-left-ish.
        circles = NNCircleSet(
            np.array([2.0, 3.0, 1.2]),
            np.array([2.0, 2.0, 3.0]),
            np.array([1.8, 0.8, 0.5]),
            "linf",
        )
        _stats, rs = run_crest(circles, SizeMeasure())
        assert rs.rnn_at(2.0, 2.0) == frozenset({0})          # inside o1 only
        assert rs.rnn_at(3.0, 2.0) == frozenset({0, 1})       # o1 and o2
        assert rs.rnn_at(1.2, 3.0) == frozenset({0, 2})       # o1 and o3
        assert rs.rnn_at(1.2, 2.4) == frozenset({0})          # below o3 again
        assert rs.rnn_at(2.0, 3.9) == frozenset()             # above o1


class TestDegenerateInputs:
    def test_empty_set(self):
        circles = NNCircleSet(np.array([]), np.array([]), np.array([]), "linf")
        stats, rs = run_crest(circles, SizeMeasure())
        assert stats.labels == 0
        assert len(rs.fragments) == 0
        assert rs.heat_at(0, 0) == 0.0

    def test_duplicate_circles(self, rng):
        """Identical squares share every coordinate; ties everywhere."""
        circles = NNCircleSet(
            np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 0.5]),
            np.array([1.0, 1.0, 0.7]), "linf",
        )
        _stats, rs = run_crest(circles, SizeMeasure())
        check_against_oracle(circles, rs, rng, n_points=150, pad=0.5)
        assert rs.heat_at(0.0, 0.0) == 2.0  # both duplicates count

    def test_shared_side_coordinates(self, rng):
        """Squares that share side coordinates exactly (tie handling)."""
        circles = NNCircleSet(
            np.array([0.0, 2.0, 1.0]), np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 1.0, 1.0]), "linf",
        )
        _stats, rs = run_crest(circles, SizeMeasure())
        check_against_oracle(circles, rs, rng, n_points=150, pad=0.5)

    def test_grid_snapped_coordinates(self, rng):
        """Integer-snapped centers/radii produce massive coordinate ties."""
        r = np.random.default_rng(5)
        cx = r.integers(0, 8, size=40).astype(float)
        cy = r.integers(0, 8, size=40).astype(float)
        rad = r.integers(1, 4, size=40).astype(float)
        circles = NNCircleSet(cx, cy, rad, "linf")
        _stats, rs = run_crest(circles, SizeMeasure())
        # Probe strictly off the integer grid to stay inside open regions.
        for _ in range(200):
            x = rng.integers(-2, 12) + 0.37
            y = rng.integers(-2, 12) + 0.53
            assert rs.rnn_at(x, y) == naive_rnn_set(circles, x, y)

    def test_weighted_measure_flows_through(self, rng):
        _o, _f, circles = make_instance(2, 30, 6, "linf")
        weights = {int(c): float(i + 1) for i, c in enumerate(circles.client_ids)}
        from repro.influence.measures import WeightedMeasure

        m = WeightedMeasure(weights)
        _stats, rs = run_crest(circles, m)
        for _ in range(60):
            x, y = rng.random(2)
            expected = m(naive_rnn_set(circles, x, y))
            assert rs.heat_at(x, y) == pytest.approx(expected)
