"""Asyncio serving front end with single-flight request coalescing.

The paper frames heat maps as an *interactive* exploration tool, and
interactive traffic is concurrent: many viewers pan the same hot map, a
probe batch arrives while a cold tile is still rasterizing, two dashboards
ask for the same build at once.  :class:`AsyncHeatMapService` wraps the
synchronous :class:`~repro.service.service.HeatMapService` for that
workload:

* every blocking operation (sweep, rasterize, vectorized probe batch) runs
  on a **bounded executor** (a ``ThreadPoolExecutor`` by default), so the
  event loop never blocks and a slow cold build never delays warm probes;
* concurrent requests for the same tile ``(handle, z, tx, ty, size)`` or
  the same build fingerprint **coalesce**: the first request becomes the
  *leader* and computes, the rest await the leader's future — one sweep,
  one render, K answers.  ``ServiceStats.coalesced_tiles`` /
  ``coalesced_builds`` count the saved computations and
  ``inflight_peak`` the high-water mark of distinct in-flight keys;
* a build leader that disconnects with **no followers waiting cancels its
  sweep**: the flight's ``should_cancel`` hook is polled by the engine once
  per event batch, so an abandoned cold build stops within one batch
  instead of running to completion for nobody;
* an **invalidation during flight never serves a stale result**: each
  flight captures its handle's tile *generation* at takeoff, and a leader
  that lands after the generation moved (``invalidate``, a dynamic-update
  refresh, a re-attach) discards the flight and recomputes against the
  fresh entry — every waiter gets the post-invalidation answer.

Answers are byte-identical to the synchronous service: the async layer
adds scheduling and deduplication, never computation.

Example::

    service = AsyncHeatMapService(max_workers=8, max_tiles=1024)
    handle = await service.build(clients, facilities, metric="l2")
    heats = await service.heat_at_many(handle, probes)
    await service.viewport(handle, 2, await service.world(handle))
    await service.aclose()
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import ThreadPoolExecutor

from ..geometry.rect import Rect
from .service import HeatMapService, request_fingerprint
from .tiles import tiles_in_window

__all__ = ["AsyncHeatMapService"]

#: A stale flight (landed after its handle's generation moved) triggers a
#: recompute; under a storm of invalidations we bound the retries and on
#: the last attempt serve the freshest value we computed — by then it
#: reflects a world no older than the caller's own request.
_MAX_STALE_RETRIES = 3


class _RetryFlight(Exception):
    """Internal: the awaited flight was abandoned; rejoin the queue."""


class _Flight:
    """One in-flight computation: the leader's future, its takeoff
    generation (for staleness detection on landing), a follower count and
    a cancellation flag.

    ``cancel`` crosses the loop/executor boundary: the executor thread's
    sweep polls ``cancel.is_set`` once per event batch, and the event loop
    sets it when the leader disconnects with nobody else waiting — the
    only case where the computation's result has no consumer left.
    """

    __slots__ = ("future", "generation", "waiters", "cancel")

    def __init__(self, loop: asyncio.AbstractEventLoop, generation: int) -> None:
        self.future: asyncio.Future = loop.create_future()
        self.generation = generation
        self.waiters = 0
        self.cancel = threading.Event()


class AsyncHeatMapService:
    """Async facade over a (thread-safe) :class:`HeatMapService`.

    Args:
        service: an existing service to wrap; by default a new one is
            created from ``**service_kwargs`` (``max_results``,
            ``max_tiles``, ``tile_size``, ``store_dir``).
        max_workers: bound of the default ``ThreadPoolExecutor`` the
            blocking calls run on.
        executor: bring-your-own bounded executor (then ``max_workers`` is
            ignored and :meth:`close` leaves it running).  It must share
            memory with this process — thread pools yes, process pools no.

    All coroutine methods must be awaited on one event loop; the in-flight
    maps are loop-confined (mutated only from loop callbacks), which is
    what makes the coalescing bookkeeping lock-free.  The wrapped service
    remains fully usable from plain threads at the same time.
    """

    def __init__(
        self,
        service: "HeatMapService | None" = None,
        *,
        max_workers: int = 8,
        executor=None,
        **service_kwargs,
    ) -> None:
        if service is not None and service_kwargs:
            raise TypeError(
                "pass either an existing service or HeatMapService kwargs, "
                f"not both (got {sorted(service_kwargs)})"
            )
        self.service = service if service is not None else HeatMapService(
            **service_kwargs
        )
        self._owns_executor = executor is None
        self._executor = executor if executor is not None else ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="rnnhm-serve"
        )
        #: tile key (handle, z, tx, ty, size) -> _Flight
        self._inflight_tiles: "dict[tuple, _Flight]" = {}
        #: build fingerprint -> _Flight
        self._inflight_builds: "dict[str, _Flight]" = {}
        #: (handle, None) -> _Flight of its maximum heat, (handle, k) of
        #: its top k
        self._inflight_peaks: "dict[tuple, _Flight]" = {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The wrapped service's (shared) ``ServiceStats``."""
        return self.service.stats

    def stats_snapshot(self) -> dict:
        """See :meth:`HeatMapService.stats_snapshot`."""
        return self.service.stats_snapshot()

    def handles(self) -> "list[str]":
        """Currently resident handles (delegates to the sync service)."""
        return self.service.handles()

    async def _run(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _note_inflight(self) -> None:
        self.stats.record_inflight(
            len(self._inflight_tiles) + len(self._inflight_builds)
            + len(self._inflight_peaks)
        )

    async def _single_flight(self, inflight: dict, key, handle: str, call,
                             coalesce_counter: "str | None"):
        """Run ``call`` once per ``key`` no matter how many callers ask.

        The first caller (leader) runs ``call`` on the executor and
        resolves the shared future with ``(value, stale)``; later callers
        (followers) bump ``coalesce_counter`` (when given) and await it.
        ``stale`` is true when ``handle``'s generation moved during the
        flight — then everyone rejoins the queue and the computation
        reruns against the refreshed entry (bounded by
        ``_MAX_STALE_RETRIES``).

        ``call`` receives the flight's ``should_cancel`` hook as its one
        argument (builds thread it down to the sweep; tile renders ignore
        it).  A leader cancelled with *zero* followers sets the hook, so a
        disconnected client's abandoned sweep stops within one event batch
        instead of running to completion for nobody; with followers
        waiting, the computation is left running — the re-leading follower
        blocks on the sync layer's per-key mutex and then takes the cache
        hit the abandoned call filled.
        """
        loop = asyncio.get_running_loop()
        counted = False  # one logical request coalesces at most once
        for attempt in range(_MAX_STALE_RETRIES):
            last = attempt == _MAX_STALE_RETRIES - 1
            flight = inflight.get(key)
            if flight is not None:
                if not counted and coalesce_counter is not None:
                    self.stats.inc(coalesce_counter)
                    counted = True
                flight.waiters += 1
                try:
                    value, stale = await flight.future
                except _RetryFlight:
                    continue
                finally:
                    flight.waiters -= 1
                if not stale or last:
                    return value
                continue
            flight = _Flight(loop, self.service.generation(handle))
            inflight[key] = flight
            self._note_inflight()
            try:
                value = await loop.run_in_executor(
                    self._executor, functools.partial(call, flight.cancel.is_set)
                )
            except BaseException as exc:
                if inflight.get(key) is flight:
                    del inflight[key]
                if not flight.future.done():
                    if isinstance(exc, asyncio.CancelledError):
                        # The leader was cancelled, not the computation's
                        # consumers: followers rejoin and re-lead.  (The
                        # sync layer's per-key mutex still guarantees the
                        # abandoned call and the re-led one don't compute
                        # twice concurrently — the re-leader blocks, then
                        # takes the cache hit.)  With no follower left the
                        # result has no consumer: tell the sweep to stop.
                        if flight.waiters == 0:
                            flight.cancel.set()
                        flight.future.set_exception(_RetryFlight())
                    else:
                        flight.future.set_exception(exc)
                    flight.future.exception()  # mark retrieved (no warning)
                raise
            stale = self.service.generation(handle) != flight.generation
            if inflight.get(key) is flight:
                del inflight[key]
            flight.future.set_result((value, stale))
            if not stale or last:
                return value
        # Every attempt ended in an abandoned flight (leaders cancelled
        # from under us): compute directly, uncoalesced.  The sync layer's
        # per-key mutex still prevents duplicate concurrent work.
        return await loop.run_in_executor(self._executor, call, None)

    # ------------------------------------------------------------------
    # Builds / registration
    # ------------------------------------------------------------------
    async def build(
        self,
        clients,
        facilities=None,
        *,
        metric: str = "l2",
        algorithm: str = "crest",
        measure=None,
        monochromatic: bool = False,
        k: int = 1,
        fingerprint: "str | None" = None,
        engine_options: "dict | None" = None,
        should_cancel=None,
    ) -> str:
        """Build (or recall) a heat map; returns its fingerprint handle.

        Concurrent calls with the same fingerprint coalesce onto one
        sweep — ``ServiceStats.coalesced_builds`` counts the joiners.

        ``fingerprint`` skips re-hashing the coordinate arrays when the
        caller already computed this request's key (it must come from
        :func:`~repro.service.fingerprint.fingerprint_build` over these
        very arguments with the canonicalized algorithm name — the HTTP
        edge does this to key its build registry).

        ``should_cancel`` is the caller's own abort hook (e.g. a
        :meth:`~repro.faults.Deadline.should_cancel`): the engine polls
        it — OR-ed with the flight's abandoned-leader flag — once per
        event batch, so a build whose deadline expired stops burning CPU
        within one batch even while its 202-poll record stays live.
        """
        handle = fingerprint
        if handle is None:
            # Hash the coordinate arrays on the executor (O(n) for large
            # instances — it must not stall the event loop), and hand the
            # key down so the sync layer does not hash a second time.
            handle = await self._run(functools.partial(
                request_fingerprint, clients, facilities, metric=metric,
                algorithm=algorithm, measure=measure,
                monochromatic=monochromatic, k=k,
                engine_options=engine_options,
            ))

        def call(flight_cancel=None):
            if should_cancel is None:
                poll = flight_cancel
            elif flight_cancel is None:
                poll = should_cancel
            else:
                def poll() -> bool:
                    return flight_cancel() or bool(should_cancel())
            return self.service.build(
                clients, facilities, metric=metric, algorithm=algorithm,
                measure=measure, monochromatic=monochromatic, k=k,
                fingerprint=handle,
                engine_options=engine_options, should_cancel=poll,
            )

        return await self._single_flight(
            self._inflight_builds, handle, handle, call, "coalesced_builds"
        )

    def attach_dynamic(self, dynamic, name: "str | None" = None) -> str:
        """Register a ``DynamicHeatMap`` (delegates; the initial build runs
        inline — attach before entering the serving loop, or wrap in
        ``run_in_executor`` yourself)."""
        return self.service.attach_dynamic(dynamic, name)

    def invalidate(self, handle: str) -> None:
        """Forget one handle everywhere, including in-flight requests.

        In-flight leaders for this handle are unhooked (new requests start
        fresh flights immediately) and their landings come back stale via
        the generation bump, so no waiter is ever served a result computed
        from the pre-invalidation world.  Call from the event-loop thread.
        """
        for inflight in (self._inflight_tiles, self._inflight_peaks):
            for key in [k for k in inflight if k[0] == handle]:
                del inflight[key]
        self._inflight_builds.pop(handle, None)
        self.service.invalidate(handle)

    # ------------------------------------------------------------------
    # Queries (executor passthroughs — no coalescing needed: they are
    # cheap vectorized reads once the handle is warm)
    # ------------------------------------------------------------------
    async def result(self, handle: str):
        """The built (refreshed, for dynamic handles) heat-map result."""
        return await self._run(self.service.result, handle)

    async def world(self, handle: str) -> Rect:
        """Original-space bounds — the level-0 tile extent."""
        return await self._run(self.service.world, handle)

    async def heat_at_many(self, handle: str, points):
        """Vectorized heat for an (n, 2) batch of original-space points."""
        return await self._run(self.service.heat_at_many, handle, points)

    async def rnn_at_many(self, handle: str, points) -> "list[frozenset]":
        """RNN set per query point (empty outside all fragments)."""
        return await self._run(self.service.rnn_at_many, handle, points)

    async def top_k_heats(self, handle: str, k: int) -> "list[float]":
        """The k largest distinct heat values of the map's regions.

        A circle surface searches for them on first use, in a flight keyed
        by handle and k: concurrent callers await that one search without
        holding executor threads.
        """
        def call(should_cancel=None):
            return self.service.top_k_heats(handle, k)

        return await self._single_flight(
            self._inflight_peaks, (handle, k), handle, call, None
        )

    async def max_heat(self, handle: str) -> float:
        """The map's maximum heat, the default colour scale of its tiles.

        A circle surface finds it on first use, in a flight keyed by
        handle: the cold tiles of a freshly opened map await that one
        search without holding executor threads.
        """
        def call(should_cancel=None):
            return self.service.max_heat(handle)

        return await self._single_flight(
            self._inflight_peaks, (handle, None), handle, call, None
        )

    # ------------------------------------------------------------------
    # Tiles
    # ------------------------------------------------------------------
    async def tile(
        self,
        handle: str,
        z: int,
        tx: int,
        ty: int,
        *,
        tile_size: "int | None" = None,
    ):
        """Raster tile ``(z, tx, ty)``; concurrent cold requests for one
        address coalesce onto a single render."""
        size = self.service.tile_size if tile_size is None else int(tile_size)
        key = (handle, z, tx, ty, size)

        def call(should_cancel=None):
            return self.service.tile(handle, z, tx, ty, tile_size=size)

        return await self._single_flight(
            self._inflight_tiles, key, handle, call, "coalesced_tiles"
        )

    async def viewport(
        self,
        handle: str,
        z: int,
        window: Rect,
        *,
        tile_size: "int | None" = None,
    ) -> "list[tuple[int, int]]":
        """Warm every tile covering a view window, rendering cold ones
        concurrently (and coalescing with other viewers); returns the
        tile address list."""
        world = await self._run(self.service.world, handle)
        addresses = tiles_in_window(world, z, window)
        await asyncio.gather(*(
            self.tile(handle, z, tx, ty, tile_size=tile_size)
            for tx, ty in addresses
        ))
        return addresses

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the owned executor down (waits for running work)."""
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    async def aclose(self) -> None:
        """Like :meth:`close`, but off-loop (safe inside a coroutine)."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    async def __aenter__(self) -> "AsyncHeatMapService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()
