"""Build cancellation: the ``should_cancel`` hook, engine to async edge.

Every sweep engine polls the hook once per event batch and abandons the
build with ``BuildCancelledError``; the service layer threads it through
``build``; and the async front end sets it automatically when a
build's leader disconnects with no coalesced followers waiting — the
regression this module pins down with a counting hook.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import RNNHeatMap
from repro.errors import BuildCancelledError
from repro.service import AsyncHeatMapService, HeatMapService


class CountingHook:
    """A ``should_cancel`` hook counting its polls, flipping after ``n``."""

    def __init__(self, cancel_after: "int | None" = None) -> None:
        self.polls = 0
        self.cancel_after = cancel_after

    def __call__(self) -> bool:
        self.polls += 1
        return self.cancel_after is not None and self.polls > self.cancel_after


@pytest.fixture
def instance(rng):
    return rng.random((120, 2)), rng.random((20, 2))


class TestEngineHook:
    @pytest.mark.parametrize("metric,algorithm", [
        ("l2", "crest"), ("l2", "crest-l2"),
        ("linf", "crest"), ("linf", "crest-a"),
    ])
    def test_cancel_lands_within_one_batch(self, metric, algorithm, instance):
        O, F = instance
        hook = CountingHook(cancel_after=5)
        with pytest.raises(BuildCancelledError):
            RNNHeatMap(O, F, metric=metric).build(algorithm, should_cancel=hook)
        assert hook.polls == 6  # poll 6 returned True and stopped the sweep

    @pytest.mark.parametrize("metric,algorithm", [
        ("l2", "crest"), ("l2", "crest-l2"),
        ("linf", "crest"),
    ])
    def test_uncancelled_build_polls_once_per_batch(
        self, metric, algorithm, instance
    ):
        O, F = instance
        hook = CountingHook()
        result = RNNHeatMap(O, F, metric=metric).build(
            algorithm, should_cancel=hook
        )
        assert hook.polls == result.stats.n_event_batches

    def test_hookless_build_unaffected(self, instance):
        O, F = instance
        hm = RNNHeatMap(O, F, metric="l2")
        assert hm.build("crest").stats.labels == hm.build(
            "crest", should_cancel=None
        ).stats.labels


class TestServiceHook:
    def test_cancelled_build_admits_nothing(self, instance):
        O, F = instance
        svc = HeatMapService(max_results=4)
        with pytest.raises(BuildCancelledError):
            svc.build(O, F, metric="l2", should_cancel=lambda: True)
        assert svc.handles() == []
        assert svc.stats.builds == 0

    def test_cache_hit_ignores_hook(self, instance):
        O, F = instance
        svc = HeatMapService(max_results=4)
        handle = svc.build(O, F, metric="l2")
        # A warm fingerprint does no sweep work, so the hook is never
        # consulted — the same handle comes straight from the cache.
        again = svc.build(O, F, metric="l2", should_cancel=lambda: True)
        assert again == handle
        assert svc.stats.build_cache_hits == 1


class GateMeasure:
    """An influence measure that parks the sweep mid-build.

    Signals ``started`` at the ``gate_at``-th influence computation and
    blocks there until ``release`` — long enough for the test to cancel
    the build's leader from the event loop while the sweep is provably
    in flight on the executor thread.
    """

    def __init__(self, gate_at: int = 40) -> None:
        self.calls = 0
        self.gate_at = gate_at
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, rnn_set) -> float:
        self.calls += 1
        if self.calls == self.gate_at:
            self.started.set()
            assert self.release.wait(20.0), "test never released the measure"
        return float(len(rnn_set))


class TestAsyncLeaderCancel:
    def test_disconnected_leader_stops_the_sweep(self, instance):
        O, F = instance
        # Reference: the full build's influence-computation count.
        full = RNNHeatMap(O, F, metric="l2").build("crest").stats.measure_calls
        measure = GateMeasure()

        async def scenario():
            svc = AsyncHeatMapService(max_workers=2, max_results=4)
            task = asyncio.create_task(
                svc.build(O, F, metric="l2", measure=measure)
            )
            loop = asyncio.get_running_loop()
            ok = await loop.run_in_executor(None, measure.started.wait, 20.0)
            assert ok, "build never reached the gate"
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            measure.release.set()
            # close() joins the executor thread, so afterwards the abandoned
            # sweep has either finished or — the asserted behavior — aborted.
            await svc.aclose()
            return svc

        svc = asyncio.run(scenario())
        # The abandoned sweep stopped within one event batch of the
        # cancellation instead of labeling the whole map for nobody.
        assert measure.calls < full // 2
        # ... and nothing half-built was admitted or counted.
        assert svc.handles() == []
        assert svc.stats.builds == 0

    def test_leader_cancel_with_followers_keeps_building(self, instance):
        O, F = instance
        measure = GateMeasure()

        async def scenario():
            svc = AsyncHeatMapService(max_workers=4, max_results=4)
            leader = asyncio.create_task(
                svc.build(O, F, metric="l2", measure=measure)
            )
            loop = asyncio.get_running_loop()
            ok = await loop.run_in_executor(None, measure.started.wait, 20.0)
            assert ok
            follower = asyncio.create_task(
                svc.build(O, F, metric="l2", measure=measure)
            )
            await asyncio.sleep(0)  # let the follower join the flight
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            measure.release.set()
            handle = await follower
            await svc.aclose()
            return svc, handle

        svc, handle = asyncio.run(scenario())
        # The follower still got a (fully built) answer.
        assert handle in svc.handles()
