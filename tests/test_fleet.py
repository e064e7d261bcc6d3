"""The sharded serving fleet, end to end over real sockets.

Covers the tentpole guarantees of ``repro.fleet``:

* ring properties — near-uniform key distribution across replicas
  (chi-square-style bound over deterministic tile keys) and minimal
  remapping (≤ ~2/N of keys move) on a single join or leave;
* the differential gate — a 3-replica fleet behind the proxy serves
  byte-identical tile PNGs and equal query answers to a single-process
  server over the same dataset;
* fleet-wide build dedupe — a concurrent build storm of one fingerprint
  across all replicas performs exactly one sweep (the shared store's
  cross-process sweep lease), observable as summed ``builds`` counters
  in ``/fleet/stats``;
* push invalidation — an SSE subscriber connected through the proxy
  observes the generation bump from ``POST /update`` without polling;
* failover — with one replica killed, every tile is still served via
  the next ring node;
* graceful shutdown — SIGTERM-style drain finishes an in-flight slow
  tile, refuses new work, and ends SSE streams cleanly;
* the cross-process ``FileLock``/store race regression, exercised with
  real ``multiprocessing`` workers against one shared ``store_dir``.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from repro.fleet import FleetProxy, HashRing, tile_key
from repro.server import ThreadedHTTPServer
from repro.server.app import HeatMapHTTPApp
from repro.service.store import FileLock

N_CLIENTS, N_FACILITIES, SEED = 80, 12, 11
TILE_SIZE = 32
VNODES = 64


def _instance():
    rng = np.random.default_rng(SEED)
    return rng.random((N_CLIENTS, 2)), rng.random((N_FACILITIES, 2))


def _get(url, headers=None, timeout=30):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, resp.read(), dict(resp.headers)


def _post(url, payload, timeout=30):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _poll_ready(base, handle, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        _status, body, _ = _get(f"{base}/build/{handle}")
        state = json.loads(body)
        if state["status"] != "building":
            return state
        time.sleep(0.02)
    raise AssertionError(f"build {handle} did not finish")


def _build(base, dataset_payload, build_payload):
    _s, ds = _post(base + "/datasets", dataset_payload)
    status, body = _post(base + "/build", dict(build_payload,
                                               dataset=ds["dataset"]))
    assert status in (200, 202)
    state = _poll_ready(base, body["handle"])
    assert state["status"] == "ready", state
    return body["handle"]


class _SSEClient:
    """A raw-socket SSE subscriber (``Connection: close`` framed)."""

    def __init__(self, host, port, handle, timeout=10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.sendall(
            f"GET /events/{handle} HTTP/1.1\r\nHost: t\r\n"
            f"Accept: text/event-stream\r\n\r\n".encode()
        )
        self._buf = b""
        head = self._read_until(b"\r\n\r\n")
        self.status = int(head.split(b" ", 2)[1])
        self.head = head.decode("latin-1")

    def _read_until(self, sep):
        while sep not in self._buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise AssertionError(f"EOF waiting for {sep!r}")
            self._buf += chunk
        frame, self._buf = self._buf.split(sep, 1)
        return frame + sep

    def next_event(self):
        """The next parsed SSE frame as a dict of field -> value."""
        raw = self._read_until(b"\n\n").decode()
        fields = {}
        for line in raw.strip().splitlines():
            name, _, value = line.partition(": ")
            fields[name] = value
        if "data" in fields:
            fields["data"] = json.loads(fields["data"])
        return fields

    def expect_eof(self, timeout=10.0):
        """True when the server closes the stream within ``timeout``."""
        self.sock.settimeout(timeout)
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    return True
                self._buf += chunk
        except OSError:
            return False

    def close(self):
        self.sock.close()


# ----------------------------------------------------------------------
# Ring properties (pure, no sockets)
# ----------------------------------------------------------------------
def _sample_keys(n=6000):
    keys = []
    for i in range(n):
        keys.append(tile_key(f"h-{i % 7}", i % 6, i % 23, (i * 13) % 23))
    return keys


def test_ring_distribution_is_near_uniform():
    nodes = [f"10.0.0.{i}:80" for i in range(5)]
    ring = HashRing(nodes, vnodes=128)
    keys = _sample_keys()
    counts = {n: 0 for n in nodes}
    for key in keys:
        counts[ring.owner(key)] += 1
    expected = len(keys) / len(nodes)
    # Chi-square-style bound: with 128 vnodes the per-node share must sit
    # well inside +-35% of uniform (deterministic keys -> no flake).
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 0.35 * expected, counts
    for node, count in counts.items():
        assert 0.65 * expected < count < 1.35 * expected, counts


def test_ring_single_join_moves_at_most_2_over_n():
    nodes = [f"10.0.0.{i}:80" for i in range(4)]
    ring = HashRing(nodes, vnodes=128)
    keys = _sample_keys()
    before = {k: ring.owner(k) for k in keys}
    ring.add("10.0.0.9:80")
    moved = sum(1 for k in keys if ring.owner(k) != before[k])
    # Ideal movement is 1/(N+1) of keys; consistent hashing must stay
    # under twice that (the issue's <= 2/N bound, N = new fleet size).
    assert moved <= 2 * len(keys) / 5, moved
    # Every moved key moved *to* the joining node, never between old nodes.
    for k in keys:
        owner = ring.owner(k)
        assert owner == before[k] or owner == "10.0.0.9:80"


def test_ring_single_leave_moves_only_the_leavers_keys():
    nodes = [f"10.0.0.{i}:80" for i in range(4)]
    ring = HashRing(nodes, vnodes=128)
    keys = _sample_keys()
    before = {k: ring.owner(k) for k in keys}
    ring.remove("10.0.0.2:80")
    for k in keys:
        if before[k] != "10.0.0.2:80":
            assert ring.owner(k) == before[k]
        else:
            assert ring.owner(k) != "10.0.0.2:80"


def test_ring_membership_and_errors():
    ring = HashRing(vnodes=8)
    with pytest.raises(LookupError):
        ring.owner("anything")
    ring.add("a:1")
    ring.add("b:1")
    with pytest.raises(ValueError):
        ring.add("a:1")
    with pytest.raises(ValueError):
        ring.remove("c:1")
    assert ring.nodes() == ["a:1", "b:1"]
    assert "a:1" in ring and "c:1" not in ring and len(ring) == 2
    pref = ring.preference("some/key")
    assert sorted(pref) == ["a:1", "b:1"]  # all distinct nodes, owner first
    assert pref[0] == ring.owner("some/key")


# ----------------------------------------------------------------------
# The in-process fleet: 3 replicas + proxy over one shared store_dir
# ----------------------------------------------------------------------
class _Fleet:
    def __init__(self, store_dir, n=3, vnodes=VNODES):
        self.replicas = []
        for _ in range(n):
            srv = ThreadedHTTPServer(
                tile_size=TILE_SIZE, max_tiles=512, max_workers=4,
                store_dir=store_dir, shared_store=True,
            )
            srv.start()
            self.replicas.append(srv)
        self.addresses = [f"127.0.0.1:{srv.port}" for srv in self.replicas]
        self.proxy_app = FleetProxy(
            self.addresses, vnodes=vnodes, startup_timeout=10.0,
        )
        self.proxy = ThreadedHTTPServer(app=self.proxy_app)
        self.proxy.start()
        self.url = self.proxy.url

    def fleet_stats(self):
        _s, body, _ = _get(self.url + "/fleet/stats")
        return json.loads(body)

    def close(self):
        self.proxy.close()
        for srv in self.replicas:
            srv.close()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    f = _Fleet(tmp_path_factory.mktemp("fleet-store"))
    yield f
    f.close()


@pytest.fixture(scope="module")
def single(tmp_path_factory):
    """The reference single-process server for the differential gate."""
    with ThreadedHTTPServer(tile_size=TILE_SIZE, max_tiles=512) as srv:
        yield srv


def test_proxy_reports_ready_and_fleet_shape(fleet):
    status, body, _ = _get(fleet.url + "/healthz?ready=1")
    assert status == 200
    health = json.loads(body)
    assert health["role"] == "fleet-proxy"
    assert health["replicas"] == 3
    stats = fleet.fleet_stats()
    assert sorted(stats["ring"]["nodes"]) == sorted(fleet.addresses)
    assert stats["ring"]["vnodes"] == VNODES
    assert all(r["reachable"] for r in stats["replicas"])


def test_fleet_serves_identical_bytes_to_single_server(fleet, single):
    """The differential gate: proxy+fleet === one server, byte for byte."""
    clients, facilities = _instance()
    dataset = {"clients": clients.tolist(), "facilities": facilities.tolist()}
    build = {"metric": "l2"}
    h_fleet = _build(fleet.url, dataset, build)
    h_single = _build(single.url, dataset, build)
    assert h_fleet == h_single  # fingerprint-addressed: same inputs, same handle

    tiles = [(z, tx, ty) for z in (0, 1, 2)
             for tx in range(2 ** z) for ty in range(2 ** z)]
    owners = set()
    ring = HashRing(fleet.addresses, vnodes=VNODES)
    for z, tx, ty in tiles:
        path = f"/tiles/{h_fleet}/{z}/{tx}/{ty}.png"
        s1, fleet_png, fleet_headers = _get(fleet.url + path)
        s2, single_png, single_headers = _get(single.url + path)
        assert s1 == s2 == 200
        assert fleet_png == single_png, f"tile {z}/{tx}/{ty} diverged"
        assert fleet_headers["ETag"] == single_headers["ETag"]
        owners.add(ring.owner(tile_key(h_fleet, z, tx, ty)))
    assert len(owners) == 3  # the pan actually sharded across the fleet

    rng = np.random.default_rng(SEED + 1)
    probes = rng.random((50, 2)).tolist()
    for kind in ("heat", "rnn"):
        _s, a = _post(f"{fleet.url}/query/{h_fleet}",
                      {"kind": kind, "points": probes})
        _s, b = _post(f"{single.url}/query/{h_single}",
                      {"kind": kind, "points": probes})
        assert a == b


def test_build_storm_sweeps_exactly_once_fleet_wide(fleet):
    """M concurrent identical builds across 3 replicas: one actual sweep."""
    rng = np.random.default_rng(SEED + 2)
    dataset = {"clients": rng.random((60, 2)).tolist(),
               "facilities": rng.random((9, 2)).tolist()}
    _s, ds = _post(fleet.url + "/datasets", dataset)
    before = fleet.fleet_stats()["fleet"].get("builds", 0)

    def kick(_i):
        return _post(fleet.url + "/build",
                     {"dataset": ds["dataset"], "metric": "linf"})

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(kick, range(8)))
    handles = {body["handle"] for _s, body in results}
    assert len(handles) == 1
    handle = handles.pop()
    assert _poll_ready(fleet.url, handle)["status"] == "ready"

    stats = fleet.fleet_stats()
    sweeps = stats["fleet"].get("builds", 0) - before
    assert sweeps == 1, (
        f"expected exactly one sweep fleet-wide, counters say {sweeps}"
    )
    # The other replicas found the finished entry and promoted it.
    assert stats["fleet"].get("promotions", 0) >= 2
    assert stats["fleet"].get("store_writes", 0) >= 1


def test_failed_replica_build_wins_the_fan_out():
    """``POST /build`` through the proxy aggregates as ``GET /build``
    does (failed > evicted > building > ready): a replica whose build
    fails within its wait is not hidden behind another's ready."""
    replicas = [ThreadedHTTPServer(tile_size=TILE_SIZE).start() for _ in range(2)]

    def broken(_handle):
        raise RuntimeError("this replica cannot build")

    replicas[-1].app.service.service.on_build = broken
    proxy = ThreadedHTTPServer(app=FleetProxy(
        [f"127.0.0.1:{srv.port}" for srv in replicas],
        vnodes=VNODES, startup_timeout=10.0,
    )).start()
    try:
        clients, facilities = _instance()
        _s, ds = _post(proxy.url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        status, kicked = _post(proxy.url + "/build", {"dataset": ds["dataset"]})
        assert (status, kicked["status"]) == (200, "failed")
        assert "cannot build" in kicked["error"]
        _s, body, _h = _get(f"{proxy.url}/build/{kicked['handle']}")
        assert json.loads(body) == kicked
        _s, body, _h = _get(f"{replicas[0].url}/build/{kicked['handle']}")
        assert json.loads(body)["status"] == "ready"
    finally:
        proxy.close()
        for srv in replicas:
            srv.close()


def test_sse_subscriber_observes_update_push_via_proxy(fleet):
    """Push invalidation: the bump arrives without any polling."""
    rng = np.random.default_rng(SEED + 3)
    dataset = {"clients": rng.random((40, 2)).tolist(),
               "facilities": rng.random((7, 2)).tolist()}
    _s, ds = _post(fleet.url + "/datasets", dataset)
    status, body = _post(fleet.url + "/build",
                         {"dataset": ds["dataset"], "dynamic": True,
                          "metric": "l2"})
    handle = body["handle"]
    assert handle.startswith("dyn-")
    _poll_ready(fleet.url, handle)

    host, port = fleet.url.removeprefix("http://").rsplit(":", 1)
    client = _SSEClient(host, int(port), handle)
    try:
        assert client.status == 200
        assert "text/event-stream" in client.head
        hello = client.next_event()
        assert hello["event"] == "hello"
        assert hello["data"]["handle"] == handle

        sent_at = time.monotonic()
        _s, up = _post(f"{fleet.url}/update/{handle}",
                       {"updates": [{"op": "add_client", "x": 0.5, "y": 0.5}]})
        event = client.next_event()
        push_latency = time.monotonic() - sent_at
        assert event["event"] == "update"
        assert event["data"]["handle"] == handle
        assert event["data"]["version"] == up["version"] >= 1
        assert event["data"]["stale"] is True
        assert push_latency < 1.0, f"push took {push_latency:.3f}s"
    finally:
        client.close()
    stats = fleet.fleet_stats()
    assert stats["proxy"]["events"]["published"] >= 1
    assert stats["proxy"]["routing"]["events_relayed"] >= 1


def test_unknown_handle_events_404_through_proxy(fleet):
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(fleet.url + "/events/no-such-handle")
    assert exc.value.code == 404


def test_tiles_survive_replica_death_via_ring_failover(tmp_path_factory):
    """Kill one replica: every tile still answers via the next ring node."""
    fleet = _Fleet(tmp_path_factory.mktemp("failover-store"))
    try:
        clients, facilities = _instance()
        handle = _build(
            fleet.url,
            {"clients": clients.tolist(), "facilities": facilities.tolist()},
            {"metric": "l1"},
        )
        tiles = [(z, tx, ty) for z in (0, 1, 2)
                 for tx in range(2 ** z) for ty in range(2 ** z)]
        golden = {}
        for z, tx, ty in tiles:
            _s, png, _h = _get(
                f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png")
            golden[(z, tx, ty)] = png

        ring = HashRing(fleet.addresses, vnodes=VNODES)
        victim = fleet.addresses[0]
        orphaned = [t for t in tiles
                    if ring.owner(tile_key(handle, *t)) == victim]
        assert orphaned, "sampled pan never touched the victim replica"
        fleet.replicas[0].close()

        for z, tx, ty in tiles:
            status, png, _h = _get(
                f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png"
            )
            assert status == 200
            assert png == golden[(z, tx, ty)]

        stats = fleet.fleet_stats()
        # At least the first orphaned tile had to fail over; once the
        # health monitor ejects the dead node from the ring, later tiles
        # route straight to the surviving owner without a failover.
        assert stats["proxy"]["routing"]["failovers"] >= 1
        assert stats["proxy"]["routing"]["replica_errors"] >= 1
        reachable = {r["replica"]: r["reachable"] for r in stats["replicas"]}
        assert reachable[victim] is False
        assert sum(reachable.values()) == 2

        # Eventually the health monitor ejects the dead node outright.
        deadline = time.time() + 15
        while victim in fleet.fleet_stats()["ring"]["nodes"]:
            assert time.time() < deadline, "dead replica never ejected"
            time.sleep(0.05)
        assert fleet.fleet_stats()["proxy"]["health"]["ejections"] >= 1
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Graceful shutdown + readiness (single server)
# ----------------------------------------------------------------------
def test_graceful_shutdown_drains_inflight_and_closes_sse():
    """SIGTERM-style drain: the slow in-flight tile completes, new work is
    refused, and the subscriber's SSE stream ends cleanly (not reset)."""
    app = HeatMapHTTPApp(tile_size=TILE_SIZE, max_workers=4)
    srv = ThreadedHTTPServer(app=app)
    srv.start()
    release = threading.Event()
    rendering = threading.Event()
    try:
        clients, facilities = _instance()
        handle = _build(
            srv.url,
            {"clients": clients.tolist(), "facilities": facilities.tolist()},
            {"metric": "l2"},
        )
        host, port = srv.url.removeprefix("http://").rsplit(":", 1)
        sse = _SSEClient(host, int(port), handle)
        assert sse.next_event()["event"] == "hello"

        def gate(_key):
            rendering.set()
            assert release.wait(20), "drain never released the render gate"

        app.service.service.on_tile_render = gate
        slow = {}

        def fetch():
            slow["result"] = _get(f"{srv.url}/tiles/{handle}/1/0/0.png",
                                  timeout=30)

        fetcher = threading.Thread(target=fetch)
        fetcher.start()
        assert rendering.wait(10), "slow tile never started rendering"

        stopper = threading.Thread(target=lambda: srv.shutdown(grace=20))
        stopper.start()
        deadline = time.time() + 10
        while not app.draining and time.time() < deadline:
            time.sleep(0.01)
        assert app.draining

        # New work is refused while the in-flight tile is still rendering.
        with pytest.raises((urllib.error.HTTPError, urllib.error.URLError)):
            _get(srv.url + "/healthz?ready=1", timeout=5)

        # The drain closed the event broker: the SSE stream ends with a
        # clean EOF, no reset, while the slow tile is still in flight.
        assert sse.expect_eof(timeout=10)
        sse.close()

        release.set()
        fetcher.join(timeout=20)
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        status, png, _headers = slow["result"]
        assert status == 200 and png[:8] == b"\x89PNG\r\n\x1a\n"
        assert app.inflight_requests == 0
    finally:
        release.set()
        srv.close()


def test_readiness_lifecycle_via_dispatch():
    """/healthz stays a liveness 200 throughout; ?ready=1 tracks state."""
    import asyncio

    from repro.server.http import Request

    app = HeatMapHTTPApp(max_workers=1)
    try:
        async def probe(ready):
            query = {"ready": "1"} if ready else {}
            resp = await app.dispatch(
                Request(method="GET", path="/healthz", query=query)
            )
            return resp.status, json.loads(resp.body)

        async def scenario():
            out = [await probe(True), await probe(False)]
            await app.startup()
            out.append(await probe(True))
            app.begin_drain()
            out.extend([await probe(True), await probe(False)])
            return out

        results = asyncio.run(scenario())
    finally:
        app.aclose_sync()
    assert results[0] == (503, {"status": "starting", "handles": 0,
                                "datasets": 0, "builds_in_progress": 0})
    assert results[1][0] == 200  # liveness ignores readiness state
    assert results[2][0] == 200 and results[2][1]["status"] == "ok"
    assert results[3] == (503, {"status": "draining", "handles": 0,
                                "datasets": 0, "builds_in_progress": 0})
    assert results[4][0] == 200


# ----------------------------------------------------------------------
# Cross-process store locking (the latent race regression)
# ----------------------------------------------------------------------
def _lock_worker(lock_path, counter_path, iterations):
    """Increment a file-backed counter non-atomically under the lock."""
    for _ in range(iterations):
        with FileLock(lock_path):
            value = int(counter_path.read_text() or 0)
            time.sleep(0.001)  # widen the read-modify-write window
            counter_path.write_text(str(value + 1))


def _build_worker(store_dir, result_queue):
    """One fleet replica process: build the shared fingerprint once."""
    from repro.service import HeatMapService

    rng = np.random.default_rng(77)  # same seed in every process
    clients, facilities = rng.random((50, 2)), rng.random((8, 2))
    service = HeatMapService(store_dir=store_dir, shared_store=True,
                             max_results=4)
    handle = service.build(clients, facilities, metric="l2")
    result_queue.put({
        "handle": handle,
        "builds": service.stats.builds,
        "promotions": service.stats.promotions,
        "heat": float(service.heat_at_many(
            handle, np.asarray([[0.5, 0.5]]))[0]),
    })


def test_filelock_excludes_across_processes(tmp_path):
    lock_path = tmp_path / "counter.lock"
    counter = tmp_path / "counter.txt"
    counter.write_text("0")
    ctx = get_context("spawn")
    workers = [
        ctx.Process(target=_lock_worker, args=(lock_path, counter, 25))
        for _ in range(4)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
        assert w.exitcode == 0
    # Without mutual exclusion the lost-update race loses increments.
    assert counter.read_text() == str(4 * 25)
    assert not lock_path.exists()  # released, not leaked


def test_filelock_breaks_stale_lock_from_dead_process(tmp_path):
    lock_path = tmp_path / "stale.lock"
    lock_path.write_text("999999999")  # a pid that cannot be alive
    with FileLock(lock_path):  # must break the stale lock, not hang
        assert int(lock_path.read_text()) != 999999999
    assert not lock_path.exists()


def test_shared_store_builds_once_across_processes(tmp_path):
    """4 replica processes race one fingerprint: exactly one sweeps."""
    ctx = get_context("spawn")
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_build_worker, args=(tmp_path, queue))
        for _ in range(4)
    ]
    for w in workers:
        w.start()
    results = [queue.get(timeout=180) for _ in workers]
    for w in workers:
        w.join(timeout=30)
        assert w.exitcode == 0
    assert len({r["handle"] for r in results}) == 1
    assert len({r["heat"] for r in results}) == 1  # identical answers
    sweeps = sum(r["builds"] for r in results)
    promotions = sum(r["promotions"] for r in results)
    assert sweeps == 1, f"{sweeps} sweeps for one fingerprint fleet-wide"
    assert promotions == 3
