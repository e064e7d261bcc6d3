"""The HTTP application: AsyncHeatMapService behind a REST tile/query API.

:class:`HeatMapHTTPApp` is the paper's "interactive influence exploration"
end state — a slippy-map-style serving edge a map client pans and zooms
against:

========================================  ===================================
``GET  /healthz``                         liveness + registry counts
``GET  /stats``                           service/HTTP/latency counters
``GET  /openapi.yaml``                    the machine-readable API contract
``POST /datasets``                        register client/facility arrays
``POST /build``                           kick a build by fingerprint
``GET  /build/{handle}``                  poll build status
``POST /query/{handle}``                  JSON batch heat / rnn / top-k
``POST /update/{handle}``                 dynamic update batch (lazy rebuild)
``GET  /tiles/{handle}/{z}/{tx}/{ty}.png``  raster tile, ETag revalidation
``GET  /events/{handle}``                 SSE push-invalidation stream
========================================  ===================================

The connection/dispatch plumbing lives in :class:`BaseHTTPApp` so the
fleet proxy (:class:`~repro.fleet.proxy.FleetProxy`) can reuse it
verbatim; both apps support **readiness** (``/healthz?ready=1`` answers
503 until the app is attached to a running server, and again while
draining) and **graceful shutdown** (:meth:`HeatMapHTTPServer.shutdown`
drains in-flight requests and ends SSE streams cleanly before closing
connections — SIGTERM/SIGINT trigger it under :func:`serve`).

Every blocking computation runs through the wrapped
:class:`~repro.service.async_service.AsyncHeatMapService`, so concurrent
cold requests for one tile or one build fingerprint coalesce onto a single
render/sweep (``coalesced_tiles``/``coalesced_builds`` in ``/stats``).

**Cancellation propagation**: each request is handled in its own asyncio
task while the connection is watched for EOF; a client that disconnects
mid-request gets its task *cancelled*.  A cancelled coalescing leader
abandons its flight (followers re-lead and take the sync layer's cache
hit) and a cancelled follower simply drops off the shared future — an
abandoned viewer never kills a render other viewers are waiting on.

Run it::

    python -m repro serve-http --port 8080 --workers 8

or in-process (tests, examples, benchmarks)::

    with ThreadedHTTPServer(tile_size=128) as server:
        urllib.request.urlopen(server.url + "/healthz")
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
import secrets
import signal
import sys
import threading
import traceback
from dataclasses import dataclass, fields

import numpy as np

from ..dynamic import DynamicHeatMap
from ..faults import Deadline
from ..fleet.events import EventBroker, format_sse_event
from ..service.async_service import AsyncHeatMapService
from ..service.cache import LRUCache
from ..core.registry import REGISTRY
from ..service.fingerprint import fingerprint_build
from ..service.latency import LatencyRecorder
from ..service.service import request_fingerprint
from ..service.tiles import check_tile_address, tile_bounds
from .errors import HTTPError, error_payload, status_for_exception
from .http import (
    ConnectionBuffer,
    Request,
    Response,
    read_request,
    write_response,
    write_stream_head,
)
from .router import Router
from .wire import (
    decode_dataset,
    decode_points,
    decode_updates,
    handle_vmax,
    json_response,
    render_tile_png,
    tile_etag,
)

__all__ = [
    "BaseHTTPApp",
    "HTTPStats",
    "HeatMapHTTPApp",
    "HeatMapHTTPServer",
    "ThreadedHTTPServer",
    "serve",
]

_METRICS = ("l1", "l2", "linf")

#: One tile request must stay bounded: level 30 already addresses 4^30
#: tiles, far past float resolution of any world rect.
_MAX_TILE_ZOOM = 30

#: How long ``POST /build`` and ``GET /build/{handle}`` wait for a running
#: build before answering 202: a small build answers on its own request.
_BUILD_WAIT_S = 0.05

#: Terminal build records kept for polling before the oldest are pruned
#: (in-progress records are never pruned — their tasks are referenced).
_MAX_BUILD_RECORDS = 512


@dataclass
class HTTPStats:
    """Edge-level counters (mutated only on the server's event loop).

    ``cancelled_requests`` counts handler tasks cancelled because their
    client disconnected mid-request — the cancellation-propagation path.
    ``not_modified`` counts tile revalidations answered 304 without
    touching the render path.  ``shed_requests`` counts arrivals refused
    503 + ``Retry-After`` by admission control (the in-flight bound), and
    ``deadline_timeouts`` counts handlers cancelled because their
    ``X-Deadline`` budget ran out (answered 504).
    """

    connections: int = 0
    connections_open: int = 0
    requests: int = 0
    responses_2xx: int = 0
    responses_3xx: int = 0
    responses_4xx: int = 0
    responses_5xx: int = 0
    not_modified: int = 0
    cancelled_requests: int = 0
    shed_requests: int = 0
    deadline_timeouts: int = 0

    def count_status(self, status: int) -> None:
        """Bucket one response status into its class counter."""
        if status == 304:
            self.not_modified += 1
        bucket = f"responses_{status // 100}xx"
        if hasattr(self, bucket):
            setattr(self, bucket, getattr(self, bucket) + 1)

    def as_dict(self) -> dict:
        """The counters as a plain dict (the ``/stats`` ``http`` block)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class BaseHTTPApp:
    """Connection/dispatch plumbing shared by the app and the fleet proxy.

    Owns everything that is not heat-map-specific: the router, the HTTP
    and latency counters, the SSE :class:`~repro.fleet.events.EventBroker`,
    the keep-alive connection loop with client-disconnect cancellation,
    streaming-response writing, and the readiness/draining lifecycle:

    * ``ready`` flips on when :meth:`startup` runs (the server calls it
      once the listener is bound) and off again on :meth:`begin_drain`;
      ``/healthz?ready=1`` answers 503 outside that window.
    * ``begin_drain`` also closes the event broker, ending every SSE
      stream cleanly (a viewer sees its stream end, never a 500), and
      makes in-flight keep-alive connections close after their current
      response; new requests on old connections answer 503.

    Subclasses register routes on ``self.router`` and may override
    :meth:`startup` / :meth:`aclose` / :meth:`aclose_sync`.

    **Admission control**: with ``max_inflight`` set, a request arriving
    while that many are already in flight is *shed* — answered 503 with
    ``Retry-After`` before any handler work, counted in
    ``shed_requests`` — so overload degrades to fast, explicit pushback
    instead of unbounded queueing.  ``/healthz`` is exempt: an overloaded
    replica must still answer its health probes.

    **Deadlines**: a request carrying ``X-Deadline: <seconds>`` is
    abandoned (504, ``deadline_timeouts``) the moment its budget runs
    out; the handler task is cancelled, which propagates into the
    coalescing layer exactly like a client disconnect.
    """

    def __init__(
        self,
        *,
        max_body_bytes: int = 64 * 1024 * 1024,
        max_inflight: "int | None" = None,
    ) -> None:
        self.max_body_bytes = int(max_body_bytes)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.latency = LatencyRecorder()
        self.http_stats = HTTPStats()
        self.events = EventBroker()
        self.router = Router()
        self._ready = False
        self._draining = False
        self._inflight = 0
        self._writers: "set[asyncio.StreamWriter]" = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True between :meth:`startup` and :meth:`begin_drain`."""
        return self._ready and not self._draining

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` ran (no way back)."""
        return self._draining

    @property
    def inflight_requests(self) -> int:
        """Requests (including open SSE streams) currently being served."""
        return self._inflight

    async def startup(self) -> None:
        """Mark the app ready; the server awaits this after binding."""
        self._ready = True

    def begin_drain(self) -> None:
        """Stop being ready, end SSE streams, close after each response."""
        self._draining = True
        self.events.close()

    def force_close_connections(self) -> None:
        """Abruptly close every tracked connection (drain-grace expiry)."""
        for writer in list(self._writers):
            writer.close()

    async def aclose(self) -> None:
        """Release owned resources (subclass hook; base owns none)."""

    def aclose_sync(self) -> None:
        """Thread-callable resource release (subclass hook)."""

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    async def dispatch(self, request: Request) -> Response:
        """Route one request to its handler; every failure becomes JSON.

        Cancellation (client disconnect) propagates out — the connection
        loop owns it; everything else is mapped through
        :func:`~repro.server.errors.status_for_exception`.
        """
        # HEAD is served by the GET handler; the connection loop strips
        # the body (RFC 9110: same headers, no content).
        method = "GET" if request.method == "HEAD" else request.method
        try:
            handler, params = self.router.match(method, request.path)
        except HTTPError as exc:
            self.http_stats.count_status(exc.status)
            return json_response(
                error_payload(exc.status, exc.message), exc.status,
                headers=exc.headers,
            )
        raw_deadline = request.headers.get("x-deadline")
        deadline: "Deadline | None" = None
        if raw_deadline is not None:
            try:
                deadline = Deadline.from_header(raw_deadline)
            except ValueError as exc:
                self.http_stats.count_status(400)
                return json_response(error_payload(400, str(exc)), 400)
        kind = handler.__name__.removeprefix("_handle_")
        with self.latency.timing(kind):
            try:
                if deadline is None:
                    response = await handler(request, **params)
                else:
                    # wait_for cancels the handler task on expiry; the
                    # cancellation propagates into its flight exactly like
                    # a client disconnect, so an expired tile request
                    # stops burning sweep/render CPU.
                    response = await asyncio.wait_for(
                        handler(request, **params), deadline.remaining()
                    )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - edge boundary
                if deadline is not None and isinstance(
                    exc, (asyncio.TimeoutError, TimeoutError)
                ):
                    self.http_stats.deadline_timeouts += 1
                    response = json_response(
                        error_payload(
                            504, f"deadline of {deadline.budget:.3f}s exceeded"
                        ),
                        504,
                    )
                else:
                    status = status_for_exception(exc)
                    if status >= 500:
                        traceback.print_exc(file=sys.stderr)
                    headers = exc.headers if isinstance(exc, HTTPError) else {}
                    response = json_response(
                        error_payload(status, str(exc)), status, headers=headers
                    )
        self.http_stats.count_status(response.status)
        return response

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: keep-alive loop + disconnect watching.

        While a handler task runs, a monitor task probes the socket; EOF
        before the response is ready means the client is gone, and the
        handler task is cancelled (the coalescing layer drops the
        abandoned waiter without killing any shared computation).

        A handler may return a *streaming* response (``Response.stream``);
        the loop then flushes chunks until the iterator (or the client)
        ends and closes the connection — streams are terminal.
        """
        buf = ConnectionBuffer(reader)
        self.http_stats.connections += 1
        self.http_stats.connections_open += 1
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(buf, max_body=self.max_body_bytes)
                except (ConnectionError, OSError):
                    break  # peer reset between requests
                except HTTPError as exc:
                    self.http_stats.count_status(exc.status)
                    await write_response(
                        writer,
                        json_response(
                            error_payload(exc.status, exc.message), exc.status
                        ),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                if self._draining:
                    # In-flight work drains; *new* requests do not start.
                    self.http_stats.count_status(503)
                    with contextlib.suppress(ConnectionError, OSError):
                        await write_response(
                            writer,
                            json_response(
                                error_payload(503, "server is draining"), 503
                            ),
                            keep_alive=False,
                        )
                    break
                if (
                    self.max_inflight is not None
                    and self._inflight >= self.max_inflight
                    and not request.path.startswith("/healthz")
                ):
                    # Load shedding: explicit, instant pushback beats an
                    # unbounded queue of doomed work.  The connection
                    # stays usable — the client backs off and retries.
                    self.http_stats.requests += 1
                    self.http_stats.shed_requests += 1
                    self.http_stats.count_status(503)
                    keep_alive = not request.wants_close and not self._draining
                    try:
                        await write_response(
                            writer,
                            json_response(
                                error_payload(
                                    503, "server is at capacity, retry shortly"
                                ),
                                503,
                                headers={"Retry-After": "1"},
                            ),
                            keep_alive=keep_alive,
                            suppress_body=request.method == "HEAD",
                        )
                    except (ConnectionError, OSError):
                        break
                    if not keep_alive:
                        break
                    continue
                self.http_stats.requests += 1
                self._inflight += 1
                try:
                    handler_task = asyncio.create_task(self.dispatch(request))
                    monitor = asyncio.create_task(buf.poll_eof())
                    try:
                        done, _pending = await asyncio.wait(
                            {handler_task, monitor},
                            return_when=asyncio.FIRST_COMPLETED,
                        )
                        if handler_task not in done and monitor.result():
                            # Client hung up mid-request: propagate
                            # cancellation into the pending handler (and
                            # thereby its flight).
                            handler_task.cancel()
                            with contextlib.suppress(asyncio.CancelledError):
                                await handler_task
                            self.http_stats.cancelled_requests += 1
                            break
                        response = await handler_task
                    finally:
                        monitor.cancel()
                        with contextlib.suppress(asyncio.CancelledError):
                            await monitor
                    if response.stream is not None:
                        await self._send_stream(writer, buf, request, response)
                        break
                    keep_alive = not request.wants_close and not self._draining
                    try:
                        await write_response(
                            writer, response, keep_alive=keep_alive,
                            suppress_body=request.method == "HEAD",
                        )
                    except (ConnectionError, OSError):
                        break
                finally:
                    self._inflight -= 1
                if not keep_alive:
                    break
        finally:
            self.http_stats.connections_open -= 1
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send_stream(
        self,
        writer: asyncio.StreamWriter,
        buf: ConnectionBuffer,
        request: Request,
        response: Response,
    ) -> None:
        """Flush a streaming response until its iterator or client ends."""
        stream = response.stream
        try:
            await write_stream_head(writer, response)
        except (ConnectionError, OSError):
            with contextlib.suppress(Exception):
                await stream.aclose()
            return
        if request.method == "HEAD":
            with contextlib.suppress(Exception):
                await stream.aclose()
            return
        gen = stream.__aiter__()
        monitor = asyncio.create_task(buf.poll_eof())
        nxt: "asyncio.Task | None" = None
        try:
            while True:
                if nxt is None:
                    nxt = asyncio.create_task(gen.__anext__())
                done, _pending = await asyncio.wait(
                    {nxt, monitor}, return_when=asyncio.FIRST_COMPLETED
                )
                if nxt in done:
                    try:
                        chunk = nxt.result()
                    except StopAsyncIteration:
                        return  # clean end of stream (drain/handle close)
                    nxt = None
                    try:
                        writer.write(chunk)
                        await writer.drain()
                    except (ConnectionError, OSError):
                        self.http_stats.cancelled_requests += 1
                        return
                if monitor in done:
                    if monitor.result():
                        # Subscriber disconnected: stop streaming.
                        self.http_stats.cancelled_requests += 1
                        return
                    # The client sent bytes mid-stream (ignored): rearm.
                    monitor = asyncio.create_task(buf.poll_eof())
        finally:
            for task in (monitor, nxt):
                if task is not None:
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
            with contextlib.suppress(Exception):
                await gen.aclose()


class HeatMapHTTPApp(BaseHTTPApp):
    """Routes, handlers and registries over one ``AsyncHeatMapService``.

    Args:
        service: an existing async service to mount; by default a new one
            is created from the remaining keyword arguments.
        max_workers: executor bound of the default service (ignored when
            ``service`` is passed).
        max_points: largest accepted probe batch per ``/query`` request.
        max_body_bytes: largest accepted request body.
        max_inflight: admission-control bound — requests arriving past
            this many in flight are shed with 503 + ``Retry-After``
            (``None`` disables shedding; ``/healthz`` is always exempt).
        max_datasets: LRU capacity of the dataset registry — a registry
            of raw coordinate arrays must be bounded like every other
            cache in the stack; evicted ids answer 404 and the client
            re-POSTs (content-addressed ids make that loss-free).
        max_dynamic: most dynamic maps kept at once; past it the oldest
            ``dyn-N`` handle is invalidated and reports ``evicted``.
        max_png_tiles: LRU capacity of encoded PNG bytes (keyed by the
            tile's strong ETag), the warm-fetch fast path.
        default_cmap: tile colormap when the request has no ``?cmap=``.
        **service_kwargs: forwarded to ``HeatMapService`` (``max_results``,
            ``max_tiles``, ``tile_size``, ``store_dir``).

    The app must be *used* from a single event loop (the service's
    coalescing maps are loop-confined), but may be constructed anywhere —
    tests construct it, install observability hooks, then start the loop.
    """

    def __init__(
        self,
        service: "AsyncHeatMapService | None" = None,
        *,
        max_workers: int = 8,
        max_points: int = 1_000_000,
        max_body_bytes: int = 64 * 1024 * 1024,
        max_inflight: "int | None" = None,
        max_datasets: int = 256,
        max_dynamic: int = 64,
        max_png_tiles: int = 1024,
        default_cmap: str = "heat",
        **service_kwargs,
    ) -> None:
        if service is None:
            service = AsyncHeatMapService(
                max_workers=max_workers, **service_kwargs
            )
        elif service_kwargs:
            raise TypeError(
                "pass either an existing service or HeatMapService kwargs, "
                f"not both (got {sorted(service_kwargs)})"
            )
        super().__init__(max_body_bytes=max_body_bytes, max_inflight=max_inflight)
        self.service = service
        self.max_points = int(max_points)
        self.default_cmap = default_cmap
        #: dataset id -> (clients, facilities | None); content-addressed,
        #: LRU-bounded like every other cache in the stack.
        self.datasets = LRUCache(max_datasets)
        #: build handle -> {"status": building|ready|failed, "error", "task"}.
        self._builds: "dict[str, dict]" = {}
        #: dynamic handle -> DynamicHeatMap (the /update targets); bounded
        #: like every registry here — the oldest map is dropped (and its
        #: service handle invalidated) past ``max_dynamic``.
        self._dynamic: "dict[str, DynamicHeatMap]" = {}
        self.max_dynamic = int(max_dynamic)
        self._dyn_seq = 0
        #: Fleet-unique component of dynamic handles: two replicas behind
        #: one proxy must never mint the same ``dyn-`` name (a collision
        #: would alias two different maps under one sticky pin).
        self._dyn_token = secrets.token_hex(4)
        #: etag -> encoded PNG bytes; strong ETags name exact bytes, so a
        #: hit skips the colormap + zlib encode on warm tile fetches.
        #: Purged in lockstep with the tile cache via the service's
        #: ``on_tiles_dropped`` hook.
        self._png_cache = LRUCache(max(64, max_png_tiles))
        #: PNGs purged by the drop hook; its own lock because the hook
        #: fires on executor threads, unlike the loop-confined HTTPStats.
        self._png_lock = threading.Lock()
        self._png_purged = 0
        self.service.service.on_tiles_dropped = self._on_tiles_dropped
        self.router.add("GET", "/healthz", self._handle_healthz)
        self.router.add("GET", "/stats", self._handle_stats)
        self.router.add("GET", "/openapi.yaml", self._handle_openapi)
        self.router.add("POST", "/datasets", self._handle_datasets)
        self.router.add("POST", "/build", self._handle_build)
        self.router.add("GET", "/build/{handle}", self._handle_build_status)
        self.router.add("POST", "/query/{handle}", self._handle_query)
        self.router.add("POST", "/update/{handle}", self._handle_update)
        self.router.add(
            "GET", "/tiles/{handle}/{z:int}/{tx:int}/{ty:int}.png",
            self._handle_tile,
        )
        self.router.add("GET", "/events/{handle}", self._handle_events)

    async def _run(self, fn, *args, **kwargs):
        """Run a blocking callable on the service's executor."""
        if kwargs or args:
            fn = functools.partial(fn, *args, **kwargs)
        return await self.service._run(fn)

    async def aclose(self) -> None:
        """Release the owned service executor off-loop."""
        await self.service.aclose()

    def aclose_sync(self) -> None:
        """Release the owned service executor (callable from any thread)."""
        self.service.close()

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        """Liveness (and, with ``?ready=1``, readiness).

        Liveness is cheap, allocation-only, and never touches the sweep
        path: a live-but-starting process answers 200.  The readiness
        form answers 503 with ``status: starting|draining`` until the app
        is attached to a running server and again once draining — the
        fleet proxy health-checks replicas with it before routing.
        """
        building = sum(
            1 for s in self._builds.values() if s["status"] == "building"
        )
        body = {
            "status": "ok",
            "handles": len(self.service.handles()),
            "datasets": len(self.datasets),
            "builds_in_progress": building,
        }
        status = 200
        if request.query.get("ready", "") not in ("", "0", "false"):
            if not self.ready:
                body["status"] = "draining" if self.draining else "starting"
                status = 503
        return json_response(body, status)

    def _on_tiles_dropped(self, handle, rects, world) -> None:
        """Purge encoded PNGs of dropped tiles (fires on any thread).

        A full drop purges every PNG of the handle; a partial drop parses
        the tile address back out of each strong-ETag key and purges only
        PNGs whose tiles intersect the dirty rects — the PNG cache stays
        in lockstep with the tile cache instead of letting
        stale-generation bytes squat in the LRU until eviction.
        """
        prefix = f'"{handle[:16]}.'

        def doomed(etag: str) -> bool:
            if not etag.startswith(prefix):
                return False
            if rects is None:
                return True
            try:
                # '"h16.z.tx.ty.size.cmap.vV.gG"' — the dotted vmax repr
                # sits safely past the leading address fields.
                z, tx, ty = etag.strip('"').split(".")[1:4]
                bounds = tile_bounds(world, int(z), int(tx), int(ty))
            except Exception:
                return True  # unparseable keys must never retain stale bytes
            return any(bounds.intersects(r) for r in rects)

        purged = self._png_cache.purge(doomed)
        if purged:
            with self._png_lock:
                self._png_purged += purged

    async def _handle_stats(self, request: Request) -> Response:
        """The full observability surface in one document.

        ``service`` is :meth:`HeatMapService.stats_snapshot` (cache +
        coalescing counters), ``http`` the edge counters, ``latency`` the
        per-endpoint percentile records, ``tiles`` the encoded-PNG cache
        (population and purges).
        """
        return json_response({
            "service": self.service.stats_snapshot(),
            "http": self.http_stats.as_dict(),
            "latency": self.latency.snapshot(),
            "tiles": {
                "png_purged": self._png_purged,
                "png_cache_entries": len(self._png_cache),
            },
        })

    async def _handle_openapi(self, request: Request) -> Response:
        """Serve the generated OpenAPI document (the docs/ copy's source)."""
        from .openapi import spec_yaml

        return Response(
            body=spec_yaml().encode(), content_type="application/yaml"
        )

    # ------------------------------------------------------------------
    # Datasets and builds
    # ------------------------------------------------------------------
    async def _handle_datasets(self, request: Request) -> Response:
        """Register client/facility coordinate arrays; returns a dataset id.

        Ids are content-addressed (a fingerprint of the arrays), so
        re-posting identical data is idempotent.
        """
        clients, facilities = decode_dataset(request.json())
        digest = await self._run(
            fingerprint_build, clients, facilities,
            metric="dataset", algorithm="dataset",
        )
        dataset_id = f"ds-{digest[:16]}"
        created = dataset_id not in self.datasets
        self.datasets.put(dataset_id, (clients, facilities))
        return json_response(
            {
                "dataset": dataset_id,
                "n_clients": len(clients),
                "n_facilities": len(facilities) if facilities is not None else 0,
            },
            201 if created else 200,
        )

    def _dataset(self, payload: dict) -> "tuple[np.ndarray, np.ndarray | None]":
        dataset_id = payload.get("dataset")
        if not isinstance(dataset_id, str):
            raise HTTPError(400, 'build body must carry "dataset": "<id>"')
        entry = self.datasets.get(dataset_id)
        if entry is None:
            raise HTTPError(
                404,
                f"unknown dataset {dataset_id!r} (never registered, or "
                "evicted — POST /datasets again)",
            )
        return entry

    @staticmethod
    def _bool_field(payload: dict, name: str) -> bool:
        """A strict JSON boolean: "false" (a string) must 400, not enable."""
        value = payload.get(name, False)
        if not isinstance(value, bool):
            raise HTTPError(400, f'"{name}" must be a JSON boolean')
        return value

    @staticmethod
    def _k_field(payload: dict, default: int) -> int:
        """A strict JSON integer >= 1: "3", 2.9 and true must 400, not
        pass as 3, 2 and 1."""
        k = payload.get("k", default)
        if isinstance(k, bool) or not isinstance(k, int):
            raise HTTPError(400, '"k" must be a JSON integer')
        if k < 1:
            raise HTTPError(400, '"k" must be >= 1')
        return k

    @classmethod
    def _build_params(cls, payload: dict) -> dict:
        """Validate the build-configuration fields shared by both paths."""
        metric = str(payload.get("metric", "l2")).lower()
        if metric not in _METRICS:
            raise HTTPError(400, f"metric must be one of {_METRICS}")
        k = cls._k_field(payload, 1)
        # Engine knobs ride in explicitly; which engines accept them is the
        # registry's call (unknown knobs 400 via normalized_options).
        engine_options: dict = {}
        if "recall" in payload:
            try:
                engine_options["recall"] = float(payload["recall"])
            except (TypeError, ValueError):
                raise HTTPError(400, '"recall" must be a number') from None
            if not 0.0 < engine_options["recall"] <= 1.0:
                raise HTTPError(400, '"recall" must be in (0, 1]')
        if "seed" in payload:
            try:
                engine_options["seed"] = int(payload["seed"])
            except (TypeError, ValueError):
                raise HTTPError(400, '"seed" must be an integer') from None
        return {
            "metric": metric,
            "algorithm": str(payload.get("algorithm", "crest")).lower(),
            "monochromatic": cls._bool_field(payload, "monochromatic"),
            "k": k,
            "engine_options": engine_options or None,
        }

    async def _handle_build(self, request: Request) -> Response:
        """Kick (or recall) a build and answer with its state once it
        finishes or ``_BUILD_WAIT_S`` passes: 200 ``ready`` (or
        ``failed``) when it finished, else 202 + poll URL.

        Static builds are keyed by input fingerprint: posting the same
        body twice returns the same handle, and a resident handle answers
        200/ready immediately.  ``"dynamic": true`` instead attaches a
        fresh ``DynamicHeatMap`` (unique handle per request) that
        ``/update`` edits; its rebuilds are lazy NN-circle surfaces.
        """
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "build body must be a JSON object")
        clients, facilities = self._dataset(payload)
        params = self._build_params(payload)
        if self._bool_field(payload, "dynamic"):
            handle = self._start_dynamic_build(clients, facilities, params)
            return await self._build_answer(handle)
        handle = await self._run(
            request_fingerprint, clients, facilities,
            metric=params["metric"], algorithm=params["algorithm"],
            monochromatic=params["monochromatic"], k=params["k"],
            engine_options=params["engine_options"],
        )
        if handle in self.service.handles():
            self._record_build(handle, "ready", None)
            return json_response({"handle": handle, "status": "ready"})
        state = self._builds.get(handle)
        if state is None or state["status"] != "building":
            state = {"status": "building", "error": None}
            state["task"] = asyncio.create_task(
                self._run_build(handle, clients, facilities, params)
            )
            self._builds[handle] = state
        return await self._build_answer(handle)

    async def _build_answer(self, handle: str) -> Response:
        """The build's state, once its task finishes or ``_BUILD_WAIT_S``
        passes: 200 ``ready``, ``failed`` (with the error) or ``evicted``,
        else 202 ``building`` with the poll URL.

        ``asyncio.wait`` neither cancels the build on its timeout nor when
        the request itself is cancelled (a client hanging up), and the
        waiting request holds no executor thread.
        """
        state = self._builds.get(handle)
        task = state.get("task") if state is not None else None
        if task is not None and not task.done():
            await asyncio.wait({task}, timeout=_BUILD_WAIT_S)
        if handle in self.service.handles():
            return json_response({"handle": handle, "status": "ready"})
        state = self._builds.get(handle)
        if state is None:
            raise HTTPError(404, f"unknown build handle {handle!r}")
        status = state["status"]
        if status == "building":
            return json_response(
                {"handle": handle, "status": status, "poll": f"/build/{handle}"},
                202,
                headers={"Location": f"/build/{handle}"},
            )
        if status == "ready":
            status = "evicted"
        body = {"handle": handle, "status": status}
        if state["error"] is not None:
            body["error"] = state["error"]
        return json_response(body)

    def _record_build(self, handle: str, status: str, error: "str | None") -> None:
        """Record a terminal build state, pruning the oldest terminal
        records so the registry stays bounded (building entries are kept —
        their tasks are live)."""
        self._builds[handle] = {"status": status, "error": error}
        excess = len(self._builds) - _MAX_BUILD_RECORDS
        if excess > 0:
            doomed = [
                h for h, s in self._builds.items()
                if s["status"] != "building"
            ][:excess]
            for h in doomed:
                del self._builds[h]

    async def _run_build(self, handle, clients, facilities, params) -> None:
        """The background build task body; records terminal status."""
        try:
            await self.service.build(
                clients, facilities, metric=params["metric"],
                algorithm=params["algorithm"],
                monochromatic=params["monochromatic"], k=params["k"],
                fingerprint=handle, engine_options=params["engine_options"],
            )
        except asyncio.CancelledError:
            self._record_build(handle, "failed", "cancelled")
            raise
        except Exception as exc:  # noqa: BLE001 - reported via polling
            self._record_build(handle, "failed", str(exc))
        else:
            self._record_build(handle, "ready", None)

    def _start_dynamic_build(self, clients, facilities, params) -> str:
        """Start attaching a new ``DynamicHeatMap`` under a fresh
        fleet-unique handle, and return the handle.

        Handles are ``dyn-<token>-<seq>`` where the token is minted once
        per app from the OS entropy pool: the ``dyn-`` prefix keeps the
        proxy's sticky-pin routing working, and the token keeps two
        replicas behind one proxy from ever minting colliding names.
        """
        if params["monochromatic"] or params["k"] != 1:
            raise HTTPError(
                400, "dynamic maps support monochromatic=false, k=1 only"
            )
        if REGISTRY.get(params["algorithm"]).builder is not None:
            raise HTTPError(
                400,
                "dynamic maps run on their exact NN-circles; approximate "
                f"engines ({params['algorithm']!r}) build static handles only",
            )
        if params["engine_options"]:
            raise HTTPError(400, "dynamic maps accept no engine options")
        if facilities is None:
            raise HTTPError(400, "dynamic maps need explicit facilities")
        self._dyn_seq += 1
        handle = f"dyn-{self._dyn_token}-{self._dyn_seq}"
        state = {"status": "building", "error": None}

        def make() -> DynamicHeatMap:
            dyn = DynamicHeatMap(clients, facilities, metric=params["metric"])
            self.service.attach_dynamic(dyn, name=handle)
            return dyn

        async def run() -> None:
            try:
                self._dynamic[handle] = await self._run(make)
                # Bound the registry: the oldest dynamic map is dropped
                # and its handle invalidated (polls then say "evicted").
                while len(self._dynamic) > self.max_dynamic:
                    oldest = next(iter(self._dynamic))
                    del self._dynamic[oldest]
                    self.service.invalidate(oldest)
            except asyncio.CancelledError:
                self._record_build(handle, "failed", "cancelled")
                raise
            except Exception as exc:  # noqa: BLE001 - reported via polling
                self._record_build(handle, "failed", str(exc))
            else:
                self._record_build(handle, "ready", None)

        state["task"] = asyncio.create_task(run())
        self._builds[handle] = state
        return handle

    async def _handle_build_status(self, request: Request, handle: str) -> Response:
        """Poll a build kicked by ``POST /build``; a running build is
        waited for as ``POST /build`` waits (:meth:`_build_answer`).

        A handle that finished building but has since been LRU-evicted
        from the service reports ``"evicted"`` (not a stale ``"ready"``):
        the client re-POSTs ``/build`` — a promotion from the persistent
        store or a rebuild, never a ready-but-404 contradiction.
        """
        return await self._build_answer(handle)

    # ------------------------------------------------------------------
    # Queries, updates, tiles
    # ------------------------------------------------------------------
    async def _handle_query(self, request: Request, handle: str) -> Response:
        """Batch point queries: ``kind`` = "heat" | "rnn" | "top-k"."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "query body must be a JSON object")
        kind = payload.get("kind", "heat")
        if kind == "top-k":
            k = self._k_field(payload, 5)
            heats = await self.service.top_k_heats(handle, k)
            return json_response({"handle": handle, "kind": kind, "heats": heats})
        points = decode_points(payload, max_points=self.max_points)
        if kind == "heat":
            heats = await self.service.heat_at_many(handle, points)
            return json_response({
                "handle": handle, "kind": kind, "n": len(heats), "heats": heats,
            })
        if kind == "rnn":
            rnn = await self.service.rnn_at_many(handle, points)
            return json_response({
                "handle": handle, "kind": kind, "n": len(rnn),
                "rnn": [sorted(s) for s in rnn],
            })
        raise HTTPError(400, f'unknown query kind {kind!r} (heat | rnn | top-k)')

    async def _handle_update(self, request: Request, handle: str) -> Response:
        """Apply a dynamic update batch; the rebuild stays lazy.

        The response reports the map's (still pre-rebuild) version; the
        next query or tile fetch rebuilds the map's circle surface, and
        the service drops only tiles intersecting the dirty region.
        """
        dyn = self._dynamic.get(handle)
        if dyn is None:
            if handle in self.service.handles():
                raise HTTPError(
                    409,
                    f"handle {handle!r} is a static build; only dynamic "
                    'handles (built with "dynamic": true) accept updates',
                )
            raise HTTPError(404, f"unknown handle {handle!r}")
        updates = decode_updates(request.json())

        def apply() -> "list[int | None]":
            # Atomic batch: validate every operation against the (locked)
            # handle sets before applying any, so a bad op at position i
            # can never leave the prefix silently applied — a 400 means
            # nothing changed and the whole batch is safely retryable.
            with dyn.batch():
                clients = set(dyn.assignment.client_handles())
                facilities = set(dyn.assignment.facility_handles())
                # Simulate the batch op by op: adds raise the facility
                # count (their handles are unknowable mid-validation, so
                # later ops cannot reference them by id, but counts —
                # e.g. "last facility" — must see them).
                n_facilities = len(facilities)
                for i, (op, kw) in enumerate(updates):
                    if op == "remove_facility" and n_facilities <= 1:
                        raise HTTPError(
                            400, f"update #{i}: cannot remove the last facility"
                        )
                    if "handle" in kw:
                        pool = clients if op.endswith("client") else facilities
                        if kw["handle"] not in pool:
                            kind = "client" if pool is clients else "facility"
                            raise HTTPError(
                                400,
                                f"update #{i} ({op}): unknown {kind} "
                                f"handle {kw['handle']}",
                            )
                    if op == "remove_client":
                        clients.discard(kw["handle"])
                    elif op == "remove_facility":
                        facilities.discard(kw["handle"])
                        n_facilities -= 1
                    elif op == "add_facility":
                        n_facilities += 1
                results: "list[int | None]" = []
                for op, kw in updates:
                    method = getattr(dyn, op)
                    if op.startswith("add"):
                        results.append(method(kw["x"], kw["y"]))
                    elif op.startswith("move"):
                        method(kw["handle"], kw["x"], kw["y"])
                        results.append(None)
                    else:
                        method(kw["handle"])
                        results.append(None)
                return results

        results = await self._run(apply)
        # Push invalidation: every /events/{handle} subscriber (viewers,
        # and the fleet proxy relaying to *its* viewers) learns of the
        # bump now, instead of discovering it on the next ETag poll.
        self.events.publish(handle, "update", {
            "handle": handle,
            "version": dyn.version,
            "stale": dyn.dirty,
            "applied": len(updates),
        })
        return json_response({
            "handle": handle,
            "applied": len(updates),
            "results": results,
            "version": dyn.version,
            "stale": dyn.dirty,
        })

    async def _handle_tile(
        self, request: Request, handle: str, z: int, tx: int, ty: int
    ) -> Response:
        """One raster tile as PNG, with generation-based revalidation.

        ``If-None-Match`` against the current ETag short-circuits to 304
        before any render; otherwise the fetch coalesces with every other
        cold request for the same tile and the PNG is encoded off-loop.
        Every 200 is the real render under its strong ETag.
        """
        if not 0 <= z <= _MAX_TILE_ZOOM:
            raise HTTPError(400, f"z must be in [0, {_MAX_TILE_ZOOM}]")
        # Tiles past the world edge 400 before any refresh or tracking.
        check_tile_address(z, tx, ty)
        try:
            size = int(request.query.get("size", self.service.service.tile_size))
        except ValueError:
            raise HTTPError(400, "size must be an integer") from None
        if not 1 <= size <= 2048:
            raise HTTPError(400, "size must be in [1, 2048]")
        cmap = request.query.get("cmap", self.default_cmap)
        vmax = None
        if "vmax" in request.query:
            try:
                vmax = float(request.query["vmax"])
            except ValueError:
                raise HTTPError(400, "vmax must be a number") from None
            if not math.isfinite(vmax):
                raise HTTPError(400, "vmax must be finite")
        # Settle any pending dynamic refresh (and 404 unknown handles)
        # before reading the generations the ETag is derived from.  The
        # ETag carries the *per-tile* generation — a partial invalidation
        # only changes validators of tiles it actually dirtied — while the
        # handle-wide generation stays the race guard for cache admission.
        await self.service.result(handle)
        if vmax is None:
            # One colour scale per handle, so equal heat gets one colour
            # on both sides of every tile seam.
            vmax = handle_vmax(await self.service.max_heat(handle))
        generation = self.service.service.generation(handle)
        tile_gen = self.service.service.tile_generation(handle, z, tx, ty)
        etag = tile_etag(handle, z, tx, ty, size, cmap, vmax, tile_gen)
        if_none_match = request.headers.get("if-none-match", "")
        if etag in {t.strip() for t in if_none_match.split(",")}:
            return Response(status=304, headers={"ETag": etag})
        # A strong ETag names the exact bytes: warm fetches skip both the
        # grid lookup and the colormap+zlib encode.
        png = self._png_cache.get(etag)
        if png is None:
            grid, _bounds = await self.service.tile(
                handle, z, tx, ty, tile_size=size
            )
            png = await self._run(render_tile_png, grid, cmap, vmax)
            if self.service.service.generation(handle) == generation:
                self._png_cache.put(etag, png)
        return Response(
            body=png,
            content_type="image/png",
            headers={"ETag": etag, "Cache-Control": "no-cache"},
        )

    async def _handle_events(self, request: Request, handle: str) -> Response:
        """SSE push-invalidation stream for one handle.

        The stream opens with a ``hello`` frame carrying the handle's
        current version/generation (so a subscriber knows what "current"
        means without a separate poll), then yields one ``update`` frame
        per applied ``POST /update`` batch.  It ends cleanly — EOF, never
        an error — when the server drains.  Static handles are accepted
        too (their stream simply never fires), but a wholly unknown
        handle answers 404.
        """
        known = (
            handle in self._dynamic
            or handle in self.service.handles()
            or handle in self._builds
        )
        if not known:
            raise HTTPError(404, f"unknown handle {handle!r}")
        if self._draining:
            raise HTTPError(503, "server is draining")
        dyn = self._dynamic.get(handle)
        hello = {
            "handle": handle,
            "version": dyn.version if dyn is not None else 0,
            "generation": self.service.service.generation(handle),
        }
        queue = self.events.subscribe(handle)
        broker = self.events

        async def stream():
            try:
                yield format_sse_event(
                    "hello", hello, event_id=broker.last_seq(handle)
                )
                while True:
                    frame = await queue.get()
                    if frame is None:
                        return  # drained/closed: end the stream cleanly
                    yield frame
            finally:
                broker.unsubscribe(handle, queue)

        return Response(
            content_type="text/event-stream",
            headers={"Cache-Control": "no-cache"},
            stream=stream(),
        )


class HeatMapHTTPServer:
    """Bind a :class:`HeatMapHTTPApp` to a TCP port on the current loop."""

    def __init__(
        self, app: HeatMapHTTPApp, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None

    async def start(self) -> int:
        """Start accepting connections; returns the bound port.

        Awaits the app's :meth:`BaseHTTPApp.startup` once the listener is
        bound — after this returns, ``/healthz?ready=1`` answers 200.
        """
        self._server = await asyncio.start_server(
            self.app.handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        await self.app.startup()
        return self.port

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, grace: float = 10.0) -> None:
        """Graceful drain: finish in-flight work, then close everything.

        The sequence a restarting fleet must not turn into viewer 500s:

        1. readiness flips off (the proxy stops routing here) and every
           SSE stream ends cleanly (broker close — subscribers see their
           stream end, not an error);
        2. the listener closes (no new connections);
        3. in-flight requests get up to ``grace`` seconds to complete —
           responses go out with ``Connection: close``;
        4. whatever remains is force-closed, and the executor released.
        """
        self.app.begin_drain()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, grace)
        while self.app.inflight_requests > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        self.app.force_close_connections()
        await self.app.aclose()

    async def aclose(self) -> None:
        """Stop accepting, close the listener, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service_aclose()

    async def service_aclose(self) -> None:
        """Shut the app's owned resources down off-loop."""
        await self.app.aclose()


async def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    on_bound=None,
    app: "BaseHTTPApp | None" = None,
    drain_grace: float = 10.0,
    **app_kwargs,
) -> None:
    """Build an app and serve it until SIGTERM/SIGINT (the CLI body).

    ``on_bound(port)`` fires once the listener is up — the CLI uses it to
    announce the address (the library itself never prints).  ``app``
    mounts a pre-built application (the fleet proxy) instead of
    constructing a :class:`HeatMapHTTPApp` from ``**app_kwargs``.

    SIGTERM and SIGINT trigger a *graceful* shutdown: in-flight requests
    get ``drain_grace`` seconds to finish and SSE streams end cleanly
    (see :meth:`HeatMapHTTPServer.shutdown`) — a supervisor restarting a
    replica never 500s its viewers.
    """
    if app is None:
        app = HeatMapHTTPApp(**app_kwargs)
    elif app_kwargs:
        raise TypeError(
            "pass either a pre-built app or app kwargs, not both "
            f"(got {sorted(app_kwargs)})"
        )
    server = HeatMapHTTPServer(app, host, port)
    bound = await server.start()
    if on_bound is not None:
        on_bound(bound)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: "list[signal.Signals]" = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without loop signal handlers: Ctrl-C still works
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.shutdown(grace=drain_grace)


class ThreadedHTTPServer:
    """The server on a background thread — tests, examples, benchmarks.

    Starts an event loop in a daemon thread, binds an ephemeral (or given)
    port, and exposes ``url`` for plain blocking clients
    (``urllib.request``) in the calling thread.  Usable as a context
    manager; :meth:`close` stops the loop and joins the thread.

    Args:
        app: an existing app (hooks may be pre-installed); by default one
            is built from ``**app_kwargs``.
        host/port: bind address; port 0 picks a free port.
    """

    def __init__(
        self,
        app: "HeatMapHTTPApp | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **app_kwargs,
    ) -> None:
        self.app = app if app is not None else HeatMapHTTPApp(**app_kwargs)
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._http_server: "HeatMapHTTPServer | None" = None
        self._thread = threading.Thread(
            target=self._thread_main, name="rnnhm-http", daemon=True
        )

    @property
    def url(self) -> str:
        """Base URL of the running server (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ThreadedHTTPServer":
        """Start the server thread; returns once the port is bound."""
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def close(self) -> None:
        """Stop the loop, join the thread, release the service executor.

        Idempotent: closing an already-closed (or never-started) server is
        a no-op, so a supervisor may always close on the way out.
        """
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread.is_alive():
            self._thread.join(timeout=30)
        self.app.aclose_sync()

    def shutdown(self, grace: float = 5.0) -> None:
        """Gracefully drain (see :meth:`HeatMapHTTPServer.shutdown`), then
        stop the loop and join the thread.  Unlike :meth:`close` — which
        abruptly stops the loop — in-flight requests get up to ``grace``
        seconds to complete and SSE streams end cleanly first."""
        if self._loop is not None and self._http_server is not None:
            future = asyncio.run_coroutine_threadsafe(
                self._http_server.shutdown(grace), self._loop
            )
            with contextlib.suppress(Exception):
                future.result(timeout=grace + 30)
        self.close()

    def __enter__(self) -> "ThreadedHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                traceback.print_exc(file=sys.stderr)

    async def _main(self) -> None:
        server = HeatMapHTTPServer(self.app, self.host, self.port)
        self._http_server = server
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.port = await server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            if server._server is not None:  # None after a graceful shutdown
                server._server.close()
                await server._server.wait_closed()
                # Abrupt close: snap every live connection shut and let
                # the handler tasks see EOF and finish on their own —
                # asyncio.run would otherwise cancel them mid-read, and
                # the streams machinery logs each such cancellation.
                self.app.begin_drain()
                self.app.force_close_connections()
                deadline = asyncio.get_running_loop().time() + 1.0
                while (self.app._writers
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.01)
