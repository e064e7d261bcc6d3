"""The heat-map serving facade: LRU-cached builds, batch queries, tiles.

``HeatMapService`` is the piece that turns the one-shot pipeline
(``RNNHeatMap(...).build(...)``) into an interactive backend: builds are
content-addressed and cached, point probes are answered in vectorized
batches against the NN-circle surface (size-measure maps, which no
request sweeps) or the flat fragment table, and raster
tiles are cached at tile granularity so pans and zooms only render what
they have never seen.

Static and dynamic heat maps share one interface: ``build`` registers an
immutable result under its input fingerprint, ``attach_dynamic`` registers
a ``DynamicHeatMap`` whose version counter the service watches — an update
to one dynamic map invalidates only that handle's result and tiles,
leaving every other tenant's cache warm.  Invalidation within a handle is
*partial* when the source can bound its changes (``dirty_rects_since``):
only tiles intersecting the update's dirty region are dropped, so a
localized move re-renders a handful of tiles instead of the whole pyramid.

The service is thread-safe, so the asyncio front end
(:class:`~repro.service.async_service.AsyncHeatMapService`) can fan
requests across executor threads:

* both LRU caches take their own internal lock per operation;
* a small service lock guards compound admit/evict/generation sequences —
  never a sweep or a rasterize, so a slow cold build cannot block warm
  probes of other handles;
* cold builds and cold tile renders run under a per-key
  :class:`~repro.service.flight.KeyedMutex` scope: concurrent threads
  asking for the same fingerprint or tile serialize and the laggards hit
  the cache, so one cold key costs exactly one sweep/render;
* every handle carries a monotone *generation*, bumped whenever its tiles
  are dropped; a render that raced an invalidation sees the bump and
  declines to cache its (now possibly stale) grid.

ETags live on a finer axis than the race-guard generation:
:meth:`HeatMapService.tile_generation` bumps only for tiles a partial
invalidation actually dirtied, so clean tiles keep revalidating 304
across localized updates.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from ..core.heatmap import HeatMapResult, RNNHeatMap
from ..core.regionset import RegionSet
from ..core.registry import REGISTRY
from ..errors import AlgorithmUnsupportedError, BuildCancelledError, UnknownHandleError
from ..influence.measures import SizeMeasure
from .. import faults
from ..geometry.rect import Rect
from .cache import LRUCache
from .fingerprint import fingerprint_build
from .flight import KeyedMutex
from .store import ResultStore
from .tiles import check_tile_address, tile_bounds, tiles_in_window, world_bounds

__all__ = ["HeatMapService", "ServiceStats", "request_fingerprint"]

#: Tracked per-tile generations per tile-cache slot.  Tracking costs a
#: few bytes per address, and an address that falls out of the LRU only
#: costs its holder one full re-fetch on the next update.
_TILE_GENS_PER_SLOT = 4

#: Engines producing the same subdivision as 'crest' share cache keys (and
#: disk-store entries) with it: 'crest-l2', the loop arc sweep, is
#: bit-identical to the vectorized one 'crest' runs under L2.
_CANONICAL_ALGORITHM = {"crest-l2": "crest"}


def _canonical_algorithm(algorithm: str, metric: str) -> str:
    """The cache-key algorithm name for a build request.

    Canonicalize only when the named engine actually runs under the
    request's sweep metric — an off-metric request (e.g. 'crest-l2' under
    L-infinity) keeps its own key so the build path raises the same
    capability error it always has, instead of silently serving a cached
    'crest' result.
    """
    alg = algorithm.lower()
    target = _CANONICAL_ALGORITHM.get(alg)
    if target is None:
        return alg
    internal = "linf" if str(metric).lower() == "l1" else str(metric).lower()
    return target if REGISTRY.get(alg).supports_metric(internal) else alg


def request_fingerprint(
    clients,
    facilities=None,
    *,
    metric: str = "l2",
    algorithm: str = "crest",
    measure=None,
    monochromatic: bool = False,
    k: int = 1,
    engine_options: "dict | None" = None,
) -> str:
    """The cache key :meth:`HeatMapService.build` would assign a request.

    Canonicalizes the algorithm name and normalizes the engine's knobs
    (defaults merged, unknown knobs rejected) before hashing, so every
    front end — sync, async, HTTP — keys identical requests identically.
    """
    spec = REGISTRY.get(algorithm)
    options = spec.normalized_options(engine_options)
    canonical = _canonical_algorithm(algorithm, metric)
    return fingerprint_build(
        clients, facilities, metric=metric, algorithm=canonical,
        measure=measure, monochromatic=monochromatic, k=k, options=options,
    )


def _point_dims(points) -> int:
    """Dimension of a coordinate array (2 when it is not (n, d)-shaped —
    shape errors are the facade's to report, not the capability check's)."""
    arr = np.asarray(points)
    return int(arr.shape[1]) if arr.ndim == 2 and arr.shape[1] > 0 else 2


@dataclass
class ServiceStats:
    """Monotone counters describing one service's lifetime workload.

    ``demotions``/``promotions`` count movements between the in-memory LRU
    and the persistent result store: an eviction that spilled to disk, and
    a build request answered by reloading a spilled result.

    ``coalesced_builds``/``coalesced_tiles`` count requests that attached
    to an already in-flight identical build/render instead of starting
    their own (the async front end's single-flight maps);
    ``inflight_peak`` is the high-water mark of simultaneously in-flight
    distinct keys.

    Counters are updated through :meth:`inc` under an internal lock, so
    concurrent serving threads never lose increments and a stress run's
    numbers add up exactly.
    """

    builds: int = 0
    build_cache_hits: int = 0
    batch_queries: int = 0
    points_queried: int = 0
    tile_renders: int = 0
    tile_cache_hits: int = 0
    invalidations: int = 0
    #: Dynamic refreshes that dropped only the tiles intersecting the
    #: update's dirty region (a subset of ``invalidations``), and how many
    #: tiles those partial drops discarded in total.
    partial_invalidations: int = 0
    tiles_dropped_partial: int = 0
    #: Retired (dirty tiles now re-render from scratch); always 0, kept
    #: so ``/stats`` consumers find the key.
    tile_rerenders_partial: int = 0
    demotions: int = 0
    promotions: int = 0
    #: Cold builds written through to the store at build time (fleet /
    #: ``shared_store`` mode) rather than lazily on eviction.
    store_writes: int = 0
    #: Store operations that failed and were absorbed: a load that raised
    #: degrades to a cache miss (the build re-sweeps), a write-through or
    #: demotion save that raised is dropped (the result stays in memory).
    store_read_failures: int = 0
    store_write_failures: int = 0
    coalesced_builds: int = 0
    coalesced_tiles: int = 0
    inflight_peak: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def inc(self, name: str, n: int = 1) -> None:
        """Atomically add ``n`` to the counter ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def record_inflight(self, value: int) -> None:
        """Raise ``inflight_peak`` to ``value`` if it is a new high."""
        with self._lock:
            if value > self.inflight_peak:
                self.inflight_peak = value

    def as_dict(self) -> dict:
        """The counters as a plain dict (for reports and CLI output)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _Entry:
    """One registered heat map: a static result or a dynamic source."""

    result: HeatMapResult
    world: Rect
    dynamic: object = None  # DynamicHeatMap, when attached
    version: int = -1
    extras: dict = field(default_factory=dict)
    #: Serializes dynamic refreshes of this one handle, so concurrent
    #: probes trigger at most one rebuild per update batch.
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)


class HeatMapService:
    """Serve many heat maps to many probes from bounded caches.

    Args:
        max_results: LRU capacity for built heat maps.
        max_tiles: LRU capacity for rendered raster tiles.
        tile_size: default tile edge length in pixels.
        store_dir: directory for the persistent result store; when given,
            LRU eviction *demotes* static results to disk and a re-build
            with the same fingerprint *promotes* them back instead of
            re-sweeping.  Dynamic handles are never spilled (their source
            regenerates them).
        shared_store: fleet mode — ``store_dir`` is shared with other
            serving replicas.  Cold builds *write through* to the store
            at build time (not lazily on eviction), and the whole
            load-or-sweep section runs under the store's cross-process
            sweep lease, so one fingerprint is swept exactly once across
            every process sharing the directory; the others block briefly
            and promote the finished entry.  Ignored without a
            ``store_dir``.

    Handles returned by :meth:`build` are input fingerprints — requesting
    the same build twice returns the same handle without re-sweeping.
    Evicted (and not demoted) or never-built handles raise
    :class:`~repro.errors.UnknownHandleError` on use.

    All public methods may be called from any thread.  The observability
    hooks ``on_build(handle)`` / ``on_tile_render(key)`` — ``None`` by
    default — fire on the worker thread just *before* each actual (cache
    missing, non-coalesced) sweep / tile rasterization; tests use them to
    count and to gate renders deterministically.
    """

    def __init__(
        self,
        *,
        max_results: int = 8,
        max_tiles: int = 512,
        tile_size: int = 256,
        store_dir=None,
        shared_store: bool = False,
    ) -> None:
        self._results = LRUCache(max_results)
        self._tiles = LRUCache(max_tiles)
        self.tile_size = int(tile_size)
        self.store = ResultStore(store_dir) if store_dir is not None else None
        self.shared_store = bool(shared_store) and self.store is not None
        self.stats = ServiceStats()
        #: Guards compound registry mutations (admit/evict/generation) —
        #: held only for dict/LRU bookkeeping, never across a sweep.
        self._lock = threading.RLock()
        #: Single-flight scopes for cold builds and cold tile renders.
        self._flights = KeyedMutex()
        #: handle -> tile generation; bumped on every tile drop.  Monotone
        #: and never deleted, so a render that started before an
        #: invalidation can always detect it raced one.
        self._gens: "dict[str, int]" = {}
        #: (handle, z, tx, ty) -> generation of that tile address, for
        #: addresses whose generation was asked for (ETags issued).  A
        #: partial invalidation raises exactly the tracked addresses its
        #: dirty rects touch; a full drop forgets the handle's entries.
        self._tile_gens = LRUCache(_TILE_GENS_PER_SLOT * max_tiles)
        self.on_build = None
        self.on_tile_render = None
        #: Observability hook ``on_tiles_dropped(handle, rects, world)``,
        #: fired after tiles are invalidated: ``rects`` is the partial
        #: drop's dirty rect list (with ``world`` for intersection tests)
        #: or ``None`` for a full drop.  The HTTP layer uses it to purge
        #: its encoded-PNG cache in lockstep.  May fire on any thread.
        self.on_tiles_dropped = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def build(
        self,
        clients: np.ndarray,
        facilities: "np.ndarray | None" = None,
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

        ``engine_options`` are the engine's knobs (e.g. ``recall`` /
        ``seed`` for the approximate engines); they are normalized against
        the :class:`~repro.core.registry.EngineSpec` defaults and *key the
        fingerprint*, so different knob settings never share a cache
        entry.  Unknown knobs raise
        :class:`~repro.errors.InvalidInputError`.  Surface-builder engines
        ('knn-graph', 'lsh-rnn') are capability-checked against the
        workload — metric, k, dimension — and dispatch to their builder;
        exact sweep engines on d != 2 data are refused with a clear
        :class:`~repro.errors.AlgorithmUnsupportedError` instead of a
        shape error.

        ``fingerprint`` skips re-hashing the coordinate arrays when the
        caller already computed this request's key (it must come from
        :func:`fingerprint_build` over these very arguments with the
        canonicalized algorithm name — the async front end does this to
        key its coalescing map).

        Under the size measure an exact engine's build is the NN radii
        plus the :class:`~repro.core.surface.NNCircleSurface` over them:
        heat, RNN, top-k and tile requests are answered from the circles
        and sweep nothing.  Other measures sweep here.

        Concurrent calls with the same fingerprint single-flight: one
        thread builds while the rest wait and then take the cache hit, so
        a cold fingerprint is built exactly once no matter how many
        threads ask for it.

        ``should_cancel`` is polled between build phases and forwarded to
        a sweep engine, which polls it once per event batch; returning
        True abandons a cold build with
        :class:`~repro.errors.BuildCancelledError` (cache hits and store
        promotions are unaffected — they do no build work).
        """
        spec = REGISTRY.get(algorithm)
        options = spec.normalized_options(engine_options)
        handle = fingerprint
        if handle is None:
            canonical = _canonical_algorithm(algorithm, metric)
            handle = fingerprint_build(
                clients, facilities, metric=metric, algorithm=canonical,
                measure=measure, monochromatic=monochromatic, k=k,
                options=options,
            )
        with self._flights.holding(("build", handle)):
            if self._results.get(handle) is not None:
                self.stats.inc("build_cache_hits")
                return handle
            # In shared_store (fleet) mode the whole load-or-sweep section
            # runs under the store's cross-process sweep lease: a replica
            # that blocked on another process's sweep wakes up to find the
            # finished entry on disk and promotes it — one sweep per
            # fingerprint across the whole fleet.
            lease = (
                self.store.sweep_lease(handle)
                if self.shared_store
                else contextlib.nullcontext()
            )
            with lease:
                if self.store is not None:
                    try:
                        promoted = self.store.load(handle)
                    except Exception:
                        # A store that cannot be read is a cache miss, not
                        # an outage: fall through to the sweep.
                        self.stats.inc("store_read_failures")
                        promoted = None
                    if promoted is not None:
                        self.stats.inc("promotions")
                        self._admit(
                            handle,
                            _Entry(promoted, world_bounds(promoted.region_set)),
                        )
                        return handle
                if self.on_build is not None:
                    self.on_build(handle)
                poll = self._wrap_cancel(should_cancel)
                if spec.builder is not None:
                    spec.check_workload(
                        metric_name=str(metric).lower(), k=k,
                        dims=_point_dims(clients),
                    )
                    result = spec.builder(
                        clients, facilities, metric=metric, measure=measure,
                        monochromatic=monochromatic, k=k, options=options,
                        should_cancel=poll,
                    )
                else:
                    dims = _point_dims(clients)
                    if dims != 2:
                        raise AlgorithmUnsupportedError(
                            f"{spec.name!r} is an exact 2-d sweep engine; "
                            f"{dims}-d data needs an approximate engine "
                            "('knn-graph')"
                        )
                    hm = RNNHeatMap(
                        clients, facilities, metric=metric, measure=measure,
                        monochromatic=monochromatic, k=k,
                    )
                    if isinstance(hm.measure, SizeMeasure):
                        # Served from the NN-circles, unswept.
                        if poll is not None and poll():
                            raise BuildCancelledError("build cancelled")
                        result = hm.surface(algorithm)
                    else:
                        result = hm.build(algorithm, should_cancel=poll)
                self.stats.inc("builds")
                if self.shared_store:
                    # Write through while the lease is held, so waiting
                    # replicas promote instead of re-sweeping.  A failed
                    # save must not fail the build — the result is already
                    # in memory; the laggards just re-sweep.
                    try:
                        self.store.save(handle, result)
                        self.stats.inc("store_writes")
                    except Exception:
                        self.stats.inc("store_write_failures")
                self._admit(
                    handle, _Entry(result, world_bounds(result.region_set))
                )
        return handle

    @staticmethod
    def _wrap_cancel(should_cancel):
        """The engine-facing cancellation poll, with fault injection.

        With an injector installed, every per-batch poll also fires the
        ``sweep-batch`` point so chaos schedules can slow a sweep down or
        kill it mid-build; without one, the caller's callback (or None)
        passes through untouched.
        """
        if faults.get() is None:
            return should_cancel

        def poll() -> bool:
            faults.fire("sweep-batch")
            return bool(should_cancel()) if should_cancel is not None else False

        return poll

    def attach_dynamic(self, dynamic, name: "str | None" = None) -> str:
        """Register a ``DynamicHeatMap``; returns its serving handle.

        The service tracks the map's ``version`` counter and ``dirty``
        flag: updates made through the dynamic map invalidate this handle's
        cached tiles (and only this handle's) before the next query is
        answered — and only the tiles intersecting the update's dirty
        region when the map can bound it (no-op update batches invalidate
        nothing at all).
        """
        handle = name if name is not None else f"dynamic:{id(dynamic):x}"
        result = dynamic.result()
        entry = _Entry(
            result, world_bounds(result.region_set),
            dynamic=dynamic, version=dynamic.version,
        )
        self._admit(handle, entry)
        return handle

    def _admit(self, handle: str, entry: _Entry) -> None:
        with self._lock:
            if handle in self._results:
                # Overwriting a handle (e.g. re-attaching a dynamic map
                # under the same name): its old tiles describe the previous
                # world.
                self._drop_tiles(handle)
            evicted_pairs = self._results.put(handle, entry)
        for evicted_handle, evicted in evicted_pairs:
            if self.store is not None and evicted.dynamic is None:
                # Eviction becomes demotion: the fingerprint-keyed result
                # spills to disk and a later build promotes it back.  In
                # write-through (shared_store) mode the entry usually is
                # on disk already — content-addressed, so skipping the
                # duplicate save is free and loses nothing.
                try:
                    if evicted_handle not in self.store:
                        self.store.save(evicted_handle, evicted.result)
                        self.stats.inc("demotions")
                except Exception:
                    # A failed demotion just loses the spill; the next
                    # build of this fingerprint re-sweeps.
                    self.stats.inc("store_write_failures")
            self._drop_tiles(evicted_handle)

    # ------------------------------------------------------------------
    # Lookup / invalidation
    # ------------------------------------------------------------------
    def _entry(self, handle: str) -> _Entry:
        entry = self._results.get(handle)
        if entry is None:
            raise UnknownHandleError(
                f"no heat map under handle {handle!r} (never built, or evicted)"
            )
        dyn = entry.dynamic
        if dyn is None:
            return entry
        with entry.lock:
            if not (getattr(dyn, "dirty", False) or dyn.version != entry.version):
                return entry
            # The world may have moved: ask the source to rebuild (a new
            # circle surface under the size measure).  A no-op update batch
            # leaves the version untouched and every cache entry warm.
            # entry.lock serializes this per handle: concurrent probes on a
            # dirty map trigger exactly one rebuild.
            result = dyn.result()
            if dyn.version != entry.version:
                old_world = entry.world
                new_world = world_bounds(result.region_set)
                rects = None
                if hasattr(dyn, "dirty_rects_since"):
                    rects = dyn.dirty_rects_since(entry.version)
                # Install the fresh result *before* bumping the generation:
                # a renderer that sees the new generation is then
                # guaranteed to also read the new result.
                entry.result = result
                entry.world = new_world
                entry.version = dyn.version
                if rects is not None and new_world == old_world:
                    # Partial invalidation: only tiles intersecting the
                    # update's dirty region are stale; the rest still
                    # rasterize to identical pixels and stay cached —
                    # and keep their per-tile generation (their ETags
                    # survive the update).
                    dropped = self._drop_dirty_tiles(
                        handle, entry.world, rects
                    )
                    self.stats.inc("partial_invalidations")
                    self.stats.inc("tiles_dropped_partial", dropped)
                    if self.on_tiles_dropped is not None:
                        self.on_tiles_dropped(handle, rects, entry.world)
                else:
                    # Unknown dirty region, or the world rectangle itself
                    # changed (tile addresses re-map): drop everything.
                    self._drop_tiles(handle)
                self.stats.inc("invalidations")
        return entry

    def generation(self, handle: str) -> int:
        """This handle's tile generation (bumped on every tile drop).

        A caller that captures the generation, computes something from the
        handle's result, and finds the generation unchanged afterwards
        knows no invalidation raced the computation.
        """
        with self._lock:
            return self._gens.get(handle, 0)

    def tile_generation(self, handle: str, z: int, tx: int, ty: int) -> int:
        """The generation of one tile address, for per-tile ETags.

        The handle-wide :meth:`generation` bumps on *every* drop — the
        right signal for race detection, but too coarse for cache
        validators: it would churn every tile's ETag on a localized
        update.  This is the per-tile view: a partial invalidation raises
        the generation only of tiles intersecting its dirty rects, so
        clean tiles keep revalidating 304 across updates.  Full drops
        (world change, unbounded update, re-attach) raise every tile.

        Asking tracks the address.  An untracked address — never asked
        for, or fallen out of the bounded tracker — reads the handle's
        current generation, which can only cost a client a re-fetch of
        unchanged bytes, never a stale 304.  An address outside the
        level's ``2**z x 2**z`` grid raises :class:`InvalidInputError`
        and is not tracked: every tracked address must map to tile
        bounds when an invalidation tests it.
        """
        check_tile_address(z, tx, ty)
        key = (handle, z, tx, ty)
        with self._lock:
            gen = self._tile_gens.get(key)
            if gen is None:
                gen = self._gens.get(handle, 0)
                self._tile_gens.put(key, gen)
            return gen

    def _drop_dirty_tiles(self, handle: str, world: Rect, rects) -> int:
        """Partial drop: bump the handle's generation, raise the tracked
        generations of addresses intersecting ``rects``, and drop their
        cached tiles.  Returns how many cached tiles were dropped."""

        def dirty(key) -> bool:
            bounds = tile_bounds(world, key[1], key[2], key[3])
            return any(bounds.intersects(r) for r in rects)

        # Generation first (as in _drop_tiles): an in-flight render that
        # started before the bump refuses to cache a stale grid.
        with self._lock:
            gen = self._gens.get(handle, 0) + 1
            self._gens[handle] = gen
            for key in self._tile_gens.keys():
                if key[0] == handle and dirty(key):
                    self._tile_gens.put(key, gen)
        return self._tiles.purge(lambda key: key[0] == handle and dirty(key))

    def _drop_tiles(self, handle: str) -> None:
        # Generation first: an in-flight render that started before the
        # bump will refuse to cache into the freshly purged space.
        with self._lock:
            self._gens[handle] = self._gens.get(handle, 0) + 1
            self._tile_gens.purge(lambda key: key[0] == handle)
        self._tiles.purge(lambda key: key[0] == handle)
        if self.on_tiles_dropped is not None:
            self.on_tiles_dropped(handle, None, None)

    def invalidate(self, handle: str) -> None:
        """Forget one handle's result, tiles and any disk-stored copy
        (no-op when unknown)."""
        with self._lock:
            self._results.pop(handle)
            self._drop_tiles(handle)
        if self.store is not None:
            self.store.delete(handle)

    def handles(self) -> "list[str]":
        """Currently resident handles, least- to most-recently used."""
        return self._results.keys()

    def stats_snapshot(self) -> dict:
        """All observability counters in one flat dict.

        Extends :meth:`ServiceStats.as_dict` with the two LRU caches'
        hit/miss/eviction counters and the persistent store's population —
        the numbers an operator needs to size ``max_results``/``max_tiles``.
        """
        d = self.stats.as_dict()
        d.update(
            result_lru_hits=self._results.hits,
            result_lru_misses=self._results.misses,
            result_lru_evictions=self._results.evictions,
            tile_lru_hits=self._tiles.hits,
            tile_lru_misses=self._tiles.misses,
            tile_lru_evictions=self._tiles.evictions,
            stored_results=len(self.store.handles()) if self.store else 0,
            store_corruptions=self.store.corruptions if self.store else 0,
        )
        return d

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def result(self, handle: str) -> HeatMapResult:
        """The built (refreshed, for dynamic handles) heat-map result."""
        return self._entry(handle).result

    def world(self, handle: str) -> Rect:
        """Original-space bounds — the level-0 tile extent."""
        return self._entry(handle).world

    def heat_at_many(self, handle: str, points) -> np.ndarray:
        """Vectorized heat for an (n, 2) batch of original-space points."""
        entry = self._entry(handle)
        pts = np.asarray(points, dtype=float)
        out = entry.result.region_set.heat_at_many(pts)
        self.stats.inc("batch_queries")
        self.stats.inc("points_queried", len(out))
        return out

    def rnn_at_many(self, handle: str, points) -> "list[frozenset]":
        """RNN set per query point (empty outside all fragments)."""
        entry = self._entry(handle)
        out = entry.result.region_set.rnn_at_many(points)
        self.stats.inc("batch_queries")
        self.stats.inc("points_queried", len(out))
        return out

    def max_heat(self, handle: str) -> float:
        """The map's maximum heat (``-inf`` when empty); never sweeps, but
        a circle surface finds it on the first call."""
        return self._entry(handle).result.max_heat

    def top_k_heats(self, handle: str, k: int) -> "list[float]":
        """The k largest distinct heat values of the map's regions, largest
        first; never sweeps, but a circle surface searches on first use."""
        return self._entry(handle).result.region_set.top_k_heats(k)

    def threshold(self, handle: str, min_heat: float) -> RegionSet:
        """A view keeping only fragments with heat >= ``min_heat``."""
        return self._entry(handle).result.region_set.threshold(min_heat)

    # ------------------------------------------------------------------
    # Tiles
    # ------------------------------------------------------------------
    def tile(
        self,
        handle: str,
        z: int,
        tx: int,
        ty: int,
        *,
        tile_size: "int | None" = None,
    ) -> "tuple[np.ndarray, Rect]":
        """Raster tile ``(z, tx, ty)`` as a (size, size) heat grid.

        Size-measure maps (circle surfaces) give unsigned integer counts
        in the smallest type that holds the circle count, which
        ``apply_colormap`` colours through a lookup table; other measures
        give float heats.  Tiles are cached per (handle, address, size);
        repeated pans and zooms over the same area render nothing.  Row 0
        is the bottom row, as in ``RegionSet.rasterize``.

        Concurrent cold requests for the same tile single-flight: one
        thread renders while the rest wait for the cache fill.  A render
        that raced an invalidation of this handle returns its (then
        current) grid to the caller but does not cache it, so the tile
        cache never serves a pre-invalidation raster.
        """
        size = self.tile_size if tile_size is None else int(tile_size)
        key = (handle, z, tx, ty, size)
        with self._flights.holding(("tile", key)):
            self._entry(handle)  # settle any pending dynamic refresh first
            cached = self._tiles.get(key)
            if cached is not None:
                self.stats.inc("tile_cache_hits")
                return cached
            # Capture the generation *before* fetching the entry we render
            # from: if the generation is still unchanged at admission time,
            # no invalidation/re-attach landed anywhere in between, so the
            # rendered grid provably describes the current world.  (The
            # settle call above keeps an ordinary post-refresh render
            # cacheable — the refresh's own bump happened before capture.)
            generation = self.generation(handle)
            entry = self._entry(handle)
            if self.on_tile_render is not None:
                self.on_tile_render(key)
            bounds = tile_bounds(entry.world, z, tx, ty)
            grid, bounds = entry.result.rasterize(size, size, bounds)
            self.stats.inc("tile_renders")
            if self.generation(handle) == generation:
                self._tiles.put(key, (grid, bounds))
            return grid, bounds

    def viewport(
        self,
        handle: str,
        z: int,
        window: Rect,
        *,
        tile_size: "int | None" = None,
    ) -> "list[tuple[int, int]]":
        """Warm the tile cache for a view window; returns the tile list.

        The pan/zoom entry point: clients ask for the tiles covering their
        viewport and the service renders only the cold ones.
        """
        entry = self._entry(handle)
        addresses = tiles_in_window(entry.world, z, window)
        for tx, ty in addresses:
            self.tile(handle, z, tx, ty, tile_size=tile_size)
        return addresses
