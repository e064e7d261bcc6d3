"""The algorithm registry: declarative dispatch, capability errors."""

import numpy as np
import pytest

from repro import ALGORITHMS, RNNHeatMap
from repro.core.registry import REGISTRY, AlgorithmRegistry, EngineSpec
from repro.core.regionset import RegionSet
from repro.core.sweep_linf import SweepStats
from repro.errors import AlgorithmUnsupportedError, UnknownAlgorithmError
from repro.influence.measures import ConnectivityMeasure


@pytest.fixture
def instance(rng):
    return rng.random((30, 2)), rng.random((6, 2))


class TestRegistryContents:
    def test_algorithms_derive_from_registry(self):
        assert ALGORITHMS == REGISTRY.names(public_only=True)
        assert ALGORITHMS == ("crest", "crest-a", "baseline", "superimposition",
                              "knn-graph", "lsh-rnn")
        assert REGISTRY.names(public_only=False) == (
            "crest", "crest-a", "baseline", "superimposition", "crest-l2",
            "knn-graph", "lsh-rnn",
        )

    def test_crest_l2_registered_non_public(self):
        spec = REGISTRY.get("crest-l2")
        assert not spec.public
        assert "crest-l2" not in ALGORITHMS

    def test_capability_metadata(self):
        assert REGISTRY.get("crest").metrics == {"linf", "l2"}
        assert REGISTRY.get("baseline").metrics == {"linf"}
        assert REGISTRY.get("superimposition").measures == "size-like"
        assert REGISTRY.get("crest").measures == "any"

    def test_lookup_is_case_insensitive(self):
        assert REGISTRY.get("CREST") is REGISTRY.get("crest")

    def test_contains_and_iter(self):
        assert "crest" in REGISTRY
        assert "magic" not in REGISTRY
        assert {s.name for s in REGISTRY} >= set(ALGORITHMS)


class TestErrorSemantics:
    def test_unknown_algorithm(self, instance):
        O, F = instance
        for metric in ("linf", "l2"):
            with pytest.raises(UnknownAlgorithmError, match="unknown algorithm 'magic'"):
                RNNHeatMap(O, F, metric=metric).build("magic")

    @pytest.mark.parametrize("algorithm", ["crest-a", "baseline", "superimposition"])
    def test_square_only_engines_unsupported_under_l2(self, algorithm, instance):
        O, F = instance
        with pytest.raises(AlgorithmUnsupportedError,
                           match="supports square NN-circles only"):
            RNNHeatMap(O, F, metric="l2").build(algorithm)

    def test_non_public_name_is_unknown_off_metric(self, instance):
        """'crest-l2' under L-infinity fell off the old if/elif ladder as
        unknown; the registry preserves that."""
        O, F = instance
        with pytest.raises(UnknownAlgorithmError):
            RNNHeatMap(O, F, metric="linf").build("crest-l2")

    def test_crest_l2_alias_runs_under_l2(self, instance):
        O, F = instance
        result = RNNHeatMap(O, F, metric="l2").build("crest-l2")
        assert result.stats.algorithm == "crest-l2"

    def test_one_sweep_per_metric(self, instance):
        """'crest' is the vectorized arc sweep under L2 and the loop
        segment sweep under L1/L-infinity."""
        O, F = instance
        assert RNNHeatMap(O, F, metric="l2").build().stats.algorithm == (
            "crest-l2-batched"
        )
        for metric in ("l1", "linf"):
            assert RNNHeatMap(O, F, metric=metric).build().stats.algorithm == (
                "crest"
            )

    @pytest.mark.parametrize("name", [
        "l2-batched", "linf-batched", "l2-parallel", "linf-parallel",
    ])
    def test_retired_engine_names_are_unknown(self, name, instance):
        O, F = instance
        with pytest.raises(UnknownAlgorithmError):
            RNNHeatMap(O, F, metric="l2").build(name)

    def test_measure_capability_error_preserved(self, instance):
        O, F = instance
        hm = RNNHeatMap(O, F, metric="linf",
                        measure=ConnectivityMeasure([(0, 1)]))
        with pytest.raises(AlgorithmUnsupportedError, match="size/weight"):
            hm.build("superimposition")


class TestPluggability:
    def test_custom_engine_dispatch(self, instance):
        """A third-party engine registers declaratively and builds."""
        calls = []

        def runner(circles, measure, *, transform, collect_fragments,
                   on_label, **options):
            calls.append(len(circles))
            stats = SweepStats(n_circles=len(circles), algorithm="null-engine")
            return stats, RegionSet([], transform, 0.0)

        spec = EngineSpec(name="null-engine", runners={"linf": runner},
                          description="test double")
        REGISTRY.register(spec)
        try:
            assert "null-engine" in REGISTRY.names()
            O, F = instance
            result = RNNHeatMap(O, F, metric="linf").build("null-engine")
            assert result.stats.algorithm == "null-engine"
            assert calls == [len(O)]
            # The CLI's --algorithm choices are a live registry view.
            from repro.cli import build_parser

            args = build_parser().parse_args(
                ["heatmap", "--algorithm", "null-engine"]
            )
            assert args.algorithm == "null-engine"
        finally:
            REGISTRY.unregister("null-engine")
        with pytest.raises(UnknownAlgorithmError):
            RNNHeatMap(*instance, metric="linf").build("null-engine")

    def test_fresh_registry_is_empty(self):
        fresh = AlgorithmRegistry()
        assert fresh.names(public_only=False) == ()
        with pytest.raises(UnknownAlgorithmError):
            fresh.get("crest")
        with pytest.raises(UnknownAlgorithmError):
            fresh.resolve("crest", "linf")
