"""The fleet coordinator: one front door over N serving replicas.

:class:`FleetProxy` is a :class:`~repro.server.app.BaseHTTPApp` — it rides
the same dependency-free HTTP stack, connection loop and
client-disconnect cancellation as the replica app — whose handlers
*forward* instead of compute:

* **Tiles and queries** route to the ring owner of their key
  (``handle/z/tx/ty`` for tiles, the handle for queries) and fail over to
  the next distinct ring node when a replica is unreachable or answers
  5xx — a dead replica degrades capacity, not availability.
* **Builds and datasets** fan out to *every* replica: each replica builds
  (or promotes), and because replicas share one ``store_dir`` the result
  store's cross-process sweep lease guarantees exactly one actual sweep
  per fingerprint fleet-wide.  ``GET /build/{handle}`` aggregates: ready
  only when every reachable replica is ready.
* **Dynamic handles** (``dyn-…``, fleet-unique per replica) are
  per-replica state: their build is
  routed to one replica (round-robin) and a sticky ``handle -> replica``
  map pins every later tile/query/update/event for that handle to it.
* **Events** relay: the proxy keeps *one* upstream SSE subscription per
  handle and republishes frames through its own broker to any number of
  downstream viewers — N viewers cost one replica connection.
* ``GET /fleet/stats`` aggregates every replica's ``/stats`` with the
  proxy's own routing counters, the ring layout, health-probe state and
  per-replica circuit-breaker states.

**Resilience** (see ``docs/resilience.md``): every replica client is
guarded by a :class:`~repro.faults.CircuitBreaker` — a replica that
keeps failing transport costs an instant local refusal instead of a
timeout per request; a background
:class:`~repro.fleet.health.HealthMonitor` ejects dead replicas from
the ring and re-admits recovered ones (replica hot-rejoin); failover
sleeps follow a full-jitter :class:`~repro.faults.RetryPolicy`; and a
request carrying ``X-Deadline`` has each replica attempt clamped to the
remaining budget, with the decremented budget forwarded downstream.

The proxy is stateless apart from caches (sticky map, connection pools):
restarting it loses nothing durable.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass, field, fields
from urllib.parse import quote, urlencode

from .. import faults
from ..faults import CircuitBreaker, Deadline, FaultError, RetryPolicy
from ..server.app import BaseHTTPApp
from ..server.errors import HTTPError, error_payload
from ..server.http import ConnectionBuffer, Request, Response, read_response
from ..server.wire import json_response
from .health import HealthMonitor
from .ring import HashRing, tile_key

__all__ = ["FleetProxy", "FleetStats", "ReplicaError"]

#: Response headers worth forwarding to the viewer (hop-by-hop and
#: framing headers are re-derived by our own serializer).
_FORWARD_RESPONSE_HEADERS = ("etag", "location", "cache-control")

#: Request headers worth forwarding to the replica.
_FORWARD_REQUEST_HEADERS = ("content-type", "if-none-match", "accept")

#: Most sticky dynamic-handle routes remembered before the oldest drop.
_MAX_STICKY = 4096

#: Build states, worst first: fleet-wide, one replica's worse state wins.
_BUILD_PRECEDENCE = ("failed", "evicted", "building", "ready")


def _build_rank(status) -> int:
    """Where a build state falls in ``_BUILD_PRECEDENCE`` (past its end
    for anything else, such as a replica that does not know the handle)."""
    if status in _BUILD_PRECEDENCE:
        return _BUILD_PRECEDENCE.index(status)
    return len(_BUILD_PRECEDENCE)


def _build_state(response: Response):
    """The build state a replica's answer names (None if unparseable)."""
    try:
        return json.loads(response.body).get("status")
    except (ValueError, AttributeError):
        return None


class ReplicaError(Exception):
    """A replica was unreachable (or broke protocol) — failover material."""


@dataclass
class FleetStats:
    """Proxy-side routing counters (mutated only on the proxy's loop).

    ``failovers`` counts requests answered by a node other than the
    first-choice owner; ``replica_errors`` counts transport failures
    against individual replicas (several may back one ``failover``);
    ``breaker_rejections`` counts attempts refused locally because the
    target replica's circuit breaker was open (no socket was touched).
    """

    routed: int = 0
    fanouts: int = 0
    failovers: int = 0
    replica_errors: int = 0
    breaker_rejections: int = 0
    events_relayed: int = 0
    relays_open: int = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (the ``/fleet/stats`` block)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _ReplicaClient:
    """A tiny pooled HTTP/1.1 client for one replica address.

    Keep-alive connections are pooled per replica; a request that fails
    on a *pooled* connection (stale keep-alive) is retried once on a
    fresh one before the failure surfaces as :class:`ReplicaError` —
    transport errors on a fresh connection mean the replica is really
    gone and the ring should fail over.
    """

    def __init__(
        self,
        address: str,
        *,
        connect_timeout: float = 2.0,
        request_timeout: float = 60.0,
        max_idle: int = 8,
    ) -> None:
        self.address = address
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"replica address {address!r} must look like host:port"
            )
        self.host = host
        self.port = int(port)
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.max_idle = int(max_idle)
        self._idle: "list[tuple[asyncio.StreamReader, asyncio.StreamWriter, ConnectionBuffer]]" = []

    async def _connect(self):
        try:
            await faults.afire("replica-connect")
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.connect_timeout,
            )
        except (OSError, asyncio.TimeoutError, FaultError) as exc:
            raise ReplicaError(f"{self.address}: connect failed: {exc}") from exc
        return reader, writer, ConnectionBuffer(reader)

    @staticmethod
    def _encode(method: str, target: str, headers: dict, body: bytes) -> bytes:
        head = [f"{method} {target} HTTP/1.1"]
        out = {"Host": "fleet", "Content-Length": str(len(body))}
        out.update(headers)
        for name, value in out.items():
            head.append(f"{name}: {value}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

    async def request(
        self,
        method: str,
        target: str,
        *,
        body: bytes = b"",
        headers: "dict[str, str] | None" = None,
        timeout: "float | None" = None,
    ) -> Response:
        """One request/response exchange; pooled, with one stale-retry.

        ``timeout`` overrides the client's default response bound — the
        proxy clamps it to a request's remaining ``X-Deadline`` budget.
        """
        payload = self._encode(method, target, headers or {}, body)
        bound = self.request_timeout if timeout is None else timeout
        attempts = 2 if self._idle else 1
        for attempt in range(attempts):
            fresh = not self._idle
            if self._idle:
                reader, writer, buf = self._idle.pop()
            else:
                reader, writer, buf = await self._connect()
            try:
                writer.write(payload)
                await writer.drain()

                async def _read():
                    # The injected delay counts against the same response
                    # bound a real slow replica would: a "hang" fault with
                    # a long delay times out exactly like a dead peer.
                    await faults.afire("replica-read")
                    return await read_response(buf)

                response = await asyncio.wait_for(_read(), bound)
                if response is None:
                    raise ConnectionError("EOF before response")
            except (
                ConnectionError, OSError, asyncio.TimeoutError, HTTPError,
                FaultError,
            ) as exc:
                writer.close()
                if fresh or attempt == attempts - 1:
                    raise ReplicaError(f"{self.address}: {exc}") from exc
                continue  # stale pooled connection: retry on a fresh one
            if (
                response.headers.get("connection", "").lower() != "close"
                and len(self._idle) < self.max_idle
            ):
                self._idle.append((reader, writer, buf))
            else:
                writer.close()
            return response
        raise ReplicaError(f"{self.address}: unreachable")  # pragma: no cover

    async def open_stream(
        self, target: str
    ) -> "tuple[asyncio.StreamWriter, ConnectionBuffer, Response]":
        """A dedicated connection with the response head read, body left
        unread — the SSE relay's upstream half.  The caller owns (and must
        close) the returned writer."""
        reader, writer, buf = await self._connect()
        try:
            writer.write(self._encode(
                "GET", target, {"Accept": "text/event-stream"}, b""
            ))
            await writer.drain()
            response = await asyncio.wait_for(
                read_response(buf), self.connect_timeout + self.request_timeout
            )
            if response is None:
                raise ConnectionError("EOF before response")
        except (ConnectionError, OSError, asyncio.TimeoutError, HTTPError) as exc:
            writer.close()
            raise ReplicaError(f"{self.address}: {exc}") from exc
        return writer, buf, response

    def close(self) -> None:
        """Drop every pooled connection."""
        for _reader, writer, _buf in self._idle:
            writer.close()
        self._idle.clear()


class _Relay:
    """One upstream SSE subscription being fanned out to local viewers."""

    def __init__(self, handle: str) -> None:
        self.handle = handle
        self.refs = 0
        self.task: "asyncio.Task | None" = None
        self.writer: "asyncio.StreamWriter | None" = None


class FleetProxy(BaseHTTPApp):
    """Coordinator app routing requests across a replica fleet.

    Args:
        replicas: replica addresses (``host:port`` strings); the *static*
            superset of the fleet — the health monitor ejects dead
            members from the ring and re-admits them when they recover,
            but never learns of addresses not listed here.
        vnodes: virtual nodes per replica on the consistent-hash ring.
        connect_timeout / request_timeout: per-replica client limits.
        startup_timeout: how long :meth:`startup` waits for every replica
            to answer ``/healthz?ready=1`` before serving anyway.
        max_inflight: admission-control bound (see
            :class:`~repro.server.app.BaseHTTPApp`).
        pool_size: most idle keep-alive sockets kept per replica; the
            pools are also emptied on drain, so a long-lived coordinator
            cannot leak file descriptors.
        breaker_failures / breaker_reset: consecutive transport failures
            that open a replica's circuit breaker, and the seconds it
            stays open before a half-open probe.
        retry: the failover backoff policy (default: 3 attempts' worth
            of full-jitter sleeps from a 20ms base).
        health_interval / health_failures: health-probe cadence and the
            consecutive probe failures that eject a replica from the
            ring (``health_interval=0`` disables the monitor).
    """

    def __init__(
        self,
        replicas,
        *,
        vnodes: int = 128,
        max_body_bytes: int = 64 * 1024 * 1024,
        max_inflight: "int | None" = None,
        connect_timeout: float = 2.0,
        request_timeout: float = 60.0,
        startup_timeout: float = 10.0,
        pool_size: int = 8,
        breaker_failures: int = 3,
        breaker_reset: float = 2.0,
        retry: "RetryPolicy | None" = None,
        health_interval: float = 0.5,
        health_failures: int = 3,
    ) -> None:
        super().__init__(max_body_bytes=max_body_bytes, max_inflight=max_inflight)
        addresses = [str(r).strip() for r in replicas if str(r).strip()]
        if not addresses:
            raise ValueError("a fleet proxy needs at least one replica")
        if len(set(addresses)) != len(addresses):
            raise ValueError(f"duplicate replica addresses in {addresses}")
        self.replicas = addresses
        self.ring = HashRing(addresses, vnodes=vnodes)
        self.startup_timeout = float(startup_timeout)
        self.fleet_stats = FleetStats()
        self.retry = retry if retry is not None else RetryPolicy(base=0.02, cap=0.25)
        self.breakers = {
            addr: CircuitBreaker(
                failures=breaker_failures, reset_after=breaker_reset
            )
            for addr in addresses
        }
        self.health = (
            HealthMonitor(
                self, interval=health_interval, failures=health_failures
            )
            if health_interval > 0
            else None
        )
        self._clients = {
            addr: _ReplicaClient(
                addr,
                connect_timeout=connect_timeout,
                request_timeout=request_timeout,
                max_idle=pool_size,
            )
            for addr in addresses
        }
        #: dynamic handle -> owning replica (dyn state lives on exactly
        #: one replica; the ring cannot find it, stickiness must).
        self._sticky: "dict[str, str]" = {}
        self._dyn_rr = 0
        self._relays: "dict[str, _Relay]" = {}
        self.router.add("GET", "/healthz", self._handle_healthz)
        self.router.add("GET", "/stats", self._handle_stats)
        self.router.add("GET", "/fleet/stats", self._handle_fleet_stats)
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def startup(self) -> None:
        """Wait (bounded) for every replica's readiness, then be ready.

        A replica that never readies within ``startup_timeout`` does not
        block the proxy forever — the ring simply fails over around it
        until it comes up.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.startup_timeout
        pending = set(self.replicas)
        while pending and loop.time() < deadline:
            for addr in sorted(pending):
                try:
                    response = await self._clients[addr].request(
                        "GET", "/healthz?ready=1"
                    )
                except ReplicaError:
                    continue
                if response.status == 200:
                    pending.discard(addr)
            if pending:
                await asyncio.sleep(0.05)
        if self.health is not None:
            self.health.start()
        await super().startup()

    def begin_drain(self) -> None:
        """Drain like the base app, plus: stop probing and empty the
        connection pools (a draining coordinator holds no idle sockets)."""
        super().begin_drain()
        if self.health is not None:
            self.health.stop()
        for client in self._clients.values():
            client.close()

    async def aclose(self) -> None:
        """Stop probing, cancel relays, drop every pooled connection."""
        if self.health is not None:
            self.health.stop()
        for relay in list(self._relays.values()):
            self._stop_relay(relay)
        for client in self._clients.values():
            client.close()

    def aclose_sync(self) -> None:
        """Nothing blocking to release (pools die with the loop)."""

    # ------------------------------------------------------------------
    # Forwarding machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _target(request: Request) -> str:
        target = quote(request.path, safe="/.-_~")
        if request.query:
            target += "?" + urlencode(request.query)
        return target

    async def _forward(
        self,
        request: Request,
        replica: str,
        *,
        deadline: "Deadline | None" = None,
    ) -> Response:
        """Forward one request verbatim; reframe the response for us.

        The replica's circuit breaker gates the attempt: open means an
        instant :class:`ReplicaError` without touching a socket.
        Transport outcomes feed back into the breaker; HTTP status codes
        do not (a 500 from a handler is an application answer from a
        live replica).  With a ``deadline``, the response wait is clamped
        to the remaining budget and the decremented budget is forwarded
        as ``X-Deadline`` so the replica stops working the moment the
        viewer's budget is gone.
        """
        breaker = self.breakers[replica]
        if not breaker.allow():
            self.fleet_stats.breaker_rejections += 1
            raise ReplicaError(f"{replica}: circuit open")
        headers = {}
        for name in _FORWARD_REQUEST_HEADERS:
            if name in request.headers:
                headers[name.title()] = request.headers[name]
        timeout = None
        if deadline is not None:
            headers["X-Deadline"] = deadline.header_value()
            timeout = min(
                self._clients[replica].request_timeout, deadline.remaining()
            )
        try:
            upstream = await self._clients[replica].request(
                request.method,
                self._target(request),
                body=request.body,
                headers=headers,
                timeout=timeout,
            )
        except ReplicaError:
            breaker.record_failure()
            raise
        breaker.record_success()
        out = {}
        for name in _FORWARD_RESPONSE_HEADERS:
            if name in upstream.headers:
                out[name.title().replace("Etag", "ETag")] = upstream.headers[name]
        return Response(
            status=upstream.status,
            body=upstream.body,
            content_type=upstream.content_type,
            headers=out,
        )

    def _candidates(self, handle: str, key: "str | None" = None) -> "list[str]":
        """Failover order: sticky pin first, then ring preference, then
        every remaining replica (a 404 on the owner may just mean the
        handle lives elsewhere — e.g. after a proxy restart lost the
        sticky map).  The tail over the *full static* replica list also
        keeps the fleet answering when the health monitor has ejected
        every ring node: a recovered-but-not-yet-readmitted replica is
        still tried."""
        out: "list[str]" = []
        sticky = self._sticky.get(handle)
        if sticky is not None and sticky in self._clients:
            out.append(sticky)
        for node in self.ring.preference(key if key is not None else handle):
            if node not in out:
                out.append(node)
        for node in self.replicas:
            if node not in out:
                out.append(node)
        return out

    def _pin(self, handle: str, replica: str) -> None:
        """Remember a dynamic handle's owner (bounded, oldest dropped)."""
        if handle.startswith("dyn-") or handle in self._sticky:
            self._sticky.pop(handle, None)
            self._sticky[handle] = replica
            while len(self._sticky) > _MAX_STICKY:
                del self._sticky[next(iter(self._sticky))]

    async def _route(
        self, request: Request, handle: str, key: "str | None" = None
    ) -> Response:
        """Forward to the owner; retry along the ring on failure.

        Transport errors and 5xx answers try the next distinct ring node
        (counted as failovers); 404 also advances — the handle may be
        resident elsewhere — but a unanimous 404 *is* the answer.  The
        replica that answers gets pinned for dynamic handles.

        Transport failures back off between candidates with the proxy's
        full-jitter :class:`~repro.faults.RetryPolicy` (decorrelating a
        thundering herd when a replica dies under load); a request
        carrying ``X-Deadline`` never sleeps or waits past its remaining
        budget.
        """
        self.fleet_stats.routed += 1
        raw = request.headers.get("x-deadline")
        deadline: "Deadline | None" = None
        if raw is not None:
            with contextlib.suppress(ValueError):  # bad header: 400 upstream
                deadline = Deadline.from_header(raw)
        last: "Response | None" = None
        errors = 0
        for i, replica in enumerate(self._candidates(handle, key)):
            if deadline is not None and deadline.expired:
                break  # dispatch turns the cancellation into a 504
            try:
                response = await self._forward(
                    request, replica, deadline=deadline
                )
            except ReplicaError:
                self.fleet_stats.replica_errors += 1
                pause = self.retry.backoff(errors)
                errors += 1
                if deadline is not None:
                    pause = min(pause, deadline.remaining())
                if pause > 0:
                    await asyncio.sleep(pause)
                continue
            if response.status >= 500 or response.status == 404:
                last = response
                continue
            if i > 0:
                self.fleet_stats.failovers += 1
            self._pin(handle, replica)
            return response
        if last is not None:
            return last  # unanimous 404 (or the final 5xx): honest answer
        raise HTTPError(
            503, f"no replica reachable for handle {handle!r}"
        )

    async def _fan_out(self, request: Request) -> "list[object]":
        """The same request against every replica, concurrently.

        Returns one entry per replica, aligned with ``self.replicas``:
        a :class:`Response` or the :class:`ReplicaError` that replica
        raised.
        """
        self.fleet_stats.fanouts += 1
        results = await asyncio.gather(
            *(self._forward(request, addr) for addr in self.replicas),
            return_exceptions=True,
        )
        out: "list[object]" = []
        for item in results:
            if isinstance(item, ReplicaError):
                self.fleet_stats.replica_errors += 1
                out.append(item)
            elif isinstance(item, BaseException):
                raise item
            else:
                out.append(item)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        """Proxy liveness/readiness + the fleet membership."""
        body = {
            "status": "ok",
            "role": "fleet-proxy",
            "replicas": len(self.replicas),
        }
        status = 200
        if request.query.get("ready", "") not in ("", "0", "false"):
            if not self.ready:
                body["status"] = "draining" if self.draining else "starting"
                status = 503
        return json_response(body, status)

    async def _handle_stats(self, request: Request) -> Response:
        """The proxy's own counters (see ``/fleet/stats`` for the fleet)."""
        return json_response({
            "http": self.http_stats.as_dict(),
            "latency": self.latency.snapshot(),
            "fleet": self.fleet_stats.as_dict(),
            "events": self.events.stats(),
        })

    async def _handle_openapi(self, request: Request) -> Response:
        """Serve the shared API contract (proxy and replica speak it)."""
        from ..server.openapi import spec_yaml

        return Response(
            body=spec_yaml().encode(), content_type="application/yaml"
        )

    async def _handle_fleet_stats(self, request: Request) -> Response:
        """Aggregated observability: every replica's ``/stats`` + ours.

        ``fleet`` sums the numeric service counters across reachable
        replicas — ``builds`` is the number of *actual builds* performed
        fleet-wide, which under a shared store stays at one per distinct
        fingerprint no matter how many replicas built it.
        """
        probe = Request(method="GET", path="/stats")
        results = await self._fan_out(probe)
        replicas = []
        totals: "dict[str, float]" = {}
        for addr, item in zip(self.replicas, results):
            if isinstance(item, ReplicaError):
                replicas.append({
                    "replica": addr, "reachable": False, "error": str(item),
                })
                continue
            try:
                stats = json.loads(item.body)
            except ValueError:
                replicas.append({"replica": addr, "reachable": False,
                                 "error": "unparseable /stats"})
                continue
            replicas.append({
                "replica": addr, "reachable": True, "stats": stats,
            })
            for name, value in stats.get("service", {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[name] = totals.get(name, 0) + value
        return json_response({
            "fleet": totals,
            "replicas": replicas,
            "proxy": {
                "http": self.http_stats.as_dict(),
                "routing": self.fleet_stats.as_dict(),
                "events": self.events.stats(),
                "breakers": {
                    addr: breaker.state
                    for addr, breaker in self.breakers.items()
                },
                "health": (
                    self.health.snapshot() if self.health is not None else None
                ),
            },
            "ring": {
                "nodes": self.ring.nodes(),
                "vnodes": self.ring.vnodes,
                "sticky_handles": len(self._sticky),
            },
        })

    # ------------------------------------------------------------------
    # Fan-out endpoints (datasets, builds)
    # ------------------------------------------------------------------
    async def _handle_datasets(self, request: Request) -> Response:
        """Register a dataset on every replica (builds fan out later).

        Succeeds when every *reachable* replica accepted; a down replica
        is skipped (the ring routes around it anyway) but a unanimous
        failure is a 503.
        """
        results = await self._fan_out(request)
        responses = [r for r in results if isinstance(r, Response)]
        if not responses:
            raise HTTPError(503, "no replica reachable for POST /datasets")
        for response in responses:
            if response.status >= 400:
                return response
        best = max(responses, key=lambda r: r.status)  # 201 beats 200
        return best

    async def _handle_build(self, request: Request) -> Response:
        """Kick a build fleet-wide (static) or on one replica (dynamic).

        Static builds go to every replica concurrently: the shared result
        store's sweep lease makes exactly one of them actually sweep; the
        rest block briefly and promote.  Their answers aggregate with the
        precedence of ``GET /build/{handle}`` (failed > evicted > building
        > ready), so a replica whose build failed within its wait is never
        hidden behind another's ``ready``.  Dynamic builds pick one replica
        round-robin and pin the returned ``dyn-…`` handle to it.
        """
        try:
            payload = request.json()
        except HTTPError:
            payload = None
        if isinstance(payload, dict) and payload.get("dynamic") is True:
            order = self.replicas[self._dyn_rr:] + self.replicas[:self._dyn_rr]
            self._dyn_rr = (self._dyn_rr + 1) % len(self.replicas)
            for i, replica in enumerate(order):
                try:
                    response = await self._forward(request, replica)
                except ReplicaError:
                    self.fleet_stats.replica_errors += 1
                    continue
                if i > 0:
                    self.fleet_stats.failovers += 1
                if response.status < 400:
                    try:
                        handle = json.loads(response.body).get("handle")
                    except ValueError:
                        handle = None
                    if isinstance(handle, str):
                        self._sticky[handle] = replica
                        self._pin(handle, replica)
                return response
            raise HTTPError(503, "no replica reachable for POST /build")
        results = await self._fan_out(request)
        responses = [r for r in results if isinstance(r, Response)]
        if not responses:
            raise HTTPError(503, "no replica reachable for POST /build")
        for response in responses:
            if response.status >= 400:
                return response
        return min(responses, key=lambda r: _build_rank(_build_state(r)))

    async def _handle_build_status(self, request: Request, handle: str) -> Response:
        """Aggregate build status: ready only when *every* reachable
        replica can serve the handle (so any tile route lands warm).

        A dynamic handle polls its pinned replica directly.  Precedence
        for static fan-out: failed > evicted > building > ready.  A
        replica answering 404 blocks nothing (the ring fails tile misses
        over to a replica that has the build) — only a *unanimous* 404
        is a 404.
        """
        if handle in self._sticky:
            return await self._route(request, handle)
        results = await self._fan_out(request)
        statuses: "list[tuple[str, dict]]" = []
        reachable = 0
        for item in results:
            if isinstance(item, ReplicaError):
                continue
            reachable += 1
            if item.status == 404:
                statuses.append(("unknown", {}))
                continue
            try:
                body = json.loads(item.body)
            except ValueError:
                statuses.append(("unknown", {}))
                continue
            statuses.append((str(body.get("status", "unknown")), body))
        if not reachable:
            raise HTTPError(503, f"no replica reachable for build {handle!r}")
        if all(s == "unknown" for s, _ in statuses):
            raise HTTPError(404, f"unknown build handle {handle!r}")
        status, body = min(statuses, key=lambda item: _build_rank(item[0]))
        if status in ("failed", "evicted"):
            return json_response(body, 200)
        if status == "building":
            return json_response(
                {"handle": handle, "status": "building",
                 "poll": f"/build/{handle}"},
                202,
                headers={"Location": f"/build/{handle}"},
            )
        return json_response({"handle": handle, "status": "ready"})

    # ------------------------------------------------------------------
    # Routed endpoints (tiles, queries, updates)
    # ------------------------------------------------------------------
    async def _handle_query(self, request: Request, handle: str) -> Response:
        """Batch queries route to the handle's ring owner."""
        return await self._route(request, handle)

    async def _handle_update(self, request: Request, handle: str) -> Response:
        """Updates route to the dynamic handle's pinned replica."""
        return await self._route(request, handle)

    async def _handle_tile(
        self, request: Request, handle: str, z: int, tx: int, ty: int
    ) -> Response:
        """Tiles shard on ``(handle, z, tx, ty)`` — one hot heat map
        spreads over the whole fleet, each tile staying cache-warm on its
        owner."""
        return await self._route(
            request, handle, key=tile_key(handle, z, tx, ty)
        )

    # ------------------------------------------------------------------
    # Event relay
    # ------------------------------------------------------------------
    async def _handle_events(self, request: Request, handle: str) -> Response:
        """Subscribe a viewer; share one upstream stream per handle."""
        if self._draining:
            raise HTTPError(503, "server is draining")
        relay = self._relays.get(handle)
        if relay is None:
            relay = await self._start_relay(handle)
        queue = self.events.subscribe(handle)
        relay.refs += 1
        broker = self.events

        async def stream():
            try:
                yield self._proxy_hello(handle)
                while True:
                    frame = await queue.get()
                    if frame is None:
                        return
                    yield frame
            finally:
                broker.unsubscribe(handle, queue)
                relay.refs -= 1
                if relay.refs <= 0 and self._relays.get(handle) is relay:
                    self._stop_relay(relay)

        return Response(
            content_type="text/event-stream",
            headers={"Cache-Control": "no-cache"},
            stream=stream(),
        )

    def _proxy_hello(self, handle: str) -> bytes:
        from .events import format_sse_event

        return format_sse_event(
            "hello",
            {"handle": handle, "relay": True,
             "replica": self._sticky.get(handle)},
            event_id=self.events.last_seq(handle),
        )

    async def _start_relay(self, handle: str) -> _Relay:
        """Open the single upstream SSE subscription for one handle."""
        target = f"/events/{quote(handle, safe='')}"
        last_status: "Response | None" = None
        for replica in self._candidates(handle):
            client = self._clients[replica]
            try:
                writer, buf, response = await client.open_stream(target)
            except ReplicaError:
                self.fleet_stats.replica_errors += 1
                continue
            if response.status != 200:
                writer.close()
                last_status = response
                continue
            existing = self._relays.get(handle)
            if existing is not None:
                # A concurrent subscriber won the race to open the
                # upstream stream; ride theirs instead of leaking ours.
                writer.close()
                return existing
            relay = _Relay(handle)
            relay.writer = writer
            relay.task = asyncio.create_task(self._pump(relay, buf))
            self._relays[handle] = relay
            self._pin(handle, replica)
            self.fleet_stats.relays_open += 1
            return relay
        if last_status is not None:
            body = error_payload(last_status.status, f"unknown handle {handle!r}")
            with contextlib.suppress(ValueError):
                body = json.loads(last_status.body)
            raise HTTPError(
                last_status.status,
                body.get("error", {}).get("message", f"handle {handle!r}"),
            )
        raise HTTPError(503, f"no replica reachable for events on {handle!r}")

    async def _pump(self, relay: _Relay, buf: ConnectionBuffer) -> None:
        """Republish upstream frames until the upstream stream ends."""
        handle = relay.handle
        try:
            while True:
                try:
                    frame = await buf.read_until(b"\n\n", 1 << 20)
                except (HTTPError, ConnectionError, OSError):
                    break
                if frame is None:
                    break  # replica drained: upstream ended cleanly
                if b"event: hello" in frame:
                    continue  # each viewer gets its own hello
                self.events.publish_frame(handle, bytes(frame))
                self.fleet_stats.events_relayed += 1
        finally:
            if self._relays.get(handle) is relay:
                del self._relays[handle]
                self.fleet_stats.relays_open -= 1
            # End downstream streams cleanly: a restarting replica must
            # never strand (or 500) the proxy's viewers.
            self.events.close_handle(handle)
            if relay.writer is not None:
                relay.writer.close()

    def _stop_relay(self, relay: _Relay) -> None:
        if relay.task is not None:
            relay.task.cancel()
        if self._relays.get(relay.handle) is relay:
            del self._relays[relay.handle]
            self.fleet_stats.relays_open -= 1
        self.events.close_handle(relay.handle)
        if relay.writer is not None:
            relay.writer.close()
