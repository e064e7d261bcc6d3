"""Seeded chaos against a live fleet — the end-to-end resilience gate.

Every test runs real sockets: 3 ``ThreadedHTTPServer`` replicas sharing
one store directory behind a ``FleetProxy``, with a seeded
:class:`~repro.faults.FaultInjector` installed process-wide (replicas are
threads, so proxy and replicas all see the same schedule).  The gate's
invariants, one test each:

* **differential oracle** — under injected connect failures, read
  failures and slow reads, every successful (2xx) response through the
  proxy is byte-identical to a fault-free single-process server;
* **deadlines** — a request carrying ``X-Deadline`` never outlives its
  budget by more than a poll interval, whether the stall is a hung
  replica read (proxy side) or a wedged render (replica side);
* **load shedding** — past ``max_inflight`` the edge answers 503 +
  ``Retry-After`` instantly while ``/healthz`` keeps answering;
* **crash/restart** — killing a replica trips ejection (health monitor),
  tiles keep serving byte-identical via failover, a restarted replica on
  the same port is re-admitted (hot-rejoin), and the
  one-sweep-per-fingerprint invariant holds across the crash;
* **breakers** — with the health monitor disabled, a dead replica's
  breaker opens after the failure threshold and later attempts are
  refused instantly (counted) while every tile still answers;
* **corruption** — a corrupted store entry is quarantined and re-swept
  exactly once fleet-wide, with no replica crash-looping.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultInjector
from repro.fleet import FleetProxy, HashRing, tile_key
from repro.server import ThreadedHTTPServer
from repro.server.app import HeatMapHTTPApp

# The whole module is the fault-injection tier (CI runs it as its own job).
pytestmark = pytest.mark.chaos

N_CLIENTS, N_FACILITIES, SEED = 40, 6, 21
TILE_SIZE = 32
VNODES = 64
TILES = [(z, tx, ty) for z in (0, 1, 2)
         for tx in range(2 ** z) for ty in range(2 ** z)]


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Chaos schedules never outlive their test."""
    yield
    faults.uninstall()


def _instance(seed=SEED):
    rng = np.random.default_rng(seed)
    return rng.random((N_CLIENTS, 2)), rng.random((N_FACILITIES, 2))


def _req(url, *, payload=None, headers=None, timeout=30):
    """One HTTP exchange; error statuses return, they don't raise."""
    data = json.dumps(payload).encode() if payload is not None else None
    all_headers = {"Content-Type": "application/json"} if data else {}
    all_headers.update(headers or {})
    req = urllib.request.Request(url, data=data, headers=all_headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        with err:
            return err.code, err.read(), dict(err.headers)


def _build(base, clients, facilities, metric="l2"):
    _s, body, _h = _req(base + "/datasets", payload={
        "clients": clients.tolist(), "facilities": facilities.tolist(),
    })
    ds = json.loads(body)["dataset"]
    status, body, _h = _req(base + "/build",
                            payload={"dataset": ds, "metric": metric})
    assert status in (200, 202), body
    handle = json.loads(body)["handle"]
    deadline = time.time() + 60
    while time.time() < deadline:
        _s, body, _h = _req(f"{base}/build/{handle}")
        state = json.loads(body)
        if state["status"] != "building":
            assert state["status"] == "ready", state
            return handle
        time.sleep(0.02)
    raise AssertionError(f"build {handle} did not finish")


class _Fleet:
    """3 replicas + proxy over one shared store dir, all in-process."""

    def __init__(self, store_dir, n=3, **proxy_kwargs):
        self.store_dir = store_dir
        self.replicas = [self._replica() for _ in range(n)]
        self.addresses = [f"127.0.0.1:{srv.port}" for srv in self.replicas]
        proxy_kwargs.setdefault("startup_timeout", 10.0)
        self.proxy_app = FleetProxy(self.addresses, vnodes=VNODES,
                                    **proxy_kwargs)
        self.proxy = ThreadedHTTPServer(app=self.proxy_app)
        self.proxy.start()
        self.url = self.proxy.url

    def _replica(self, port=0):
        srv = ThreadedHTTPServer(
            tile_size=TILE_SIZE, max_tiles=512, max_workers=4,
            store_dir=self.store_dir, shared_store=True, port=port,
        )
        srv.start()
        return srv

    def restart(self, index):
        """Bring the (closed) replica at ``index`` back on its old port."""
        port = self.replicas[index].port
        self.replicas[index] = self._replica(port=port)
        return self.replicas[index]

    def fleet_stats(self):
        _s, body, _h = _req(self.url + "/fleet/stats")
        return json.loads(body)

    def close(self):
        self.proxy.close()
        for srv in self.replicas:
            srv.close()


def _wait(predicate, timeout=15.0, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


# ----------------------------------------------------------------------
# Differential oracle under a seeded fault schedule
# ----------------------------------------------------------------------
def test_2xx_responses_match_oracle_under_injected_faults(tmp_path):
    """Chaos never changes bytes: every success equals the clean oracle."""
    clients, facilities = _instance()
    with ThreadedHTTPServer(tile_size=TILE_SIZE, max_tiles=512) as oracle:
        golden_handle = _build(oracle.url, clients, facilities)
        golden = {}
        for z, tx, ty in TILES:
            s, png, _h = _req(
                f"{oracle.url}/tiles/{golden_handle}/{z}/{tx}/{ty}.png")
            assert s == 200
            golden[(z, tx, ty)] = png
        probes = np.random.default_rng(SEED + 1).random((30, 2)).tolist()
        golden_queries = {}
        for kind in ("heat", "rnn"):
            _s, body, _h = _req(f"{oracle.url}/query/{golden_handle}",
                                payload={"kind": kind, "points": probes})
            golden_queries[kind] = json.loads(body)

    # health_interval=0: probes would interleave RNG draws with the
    # request stream — without them the seeded schedule replays exactly.
    fleet = _Fleet(tmp_path / "store", health_interval=0)
    try:
        handle = _build(fleet.url, clients, facilities)
        assert handle == golden_handle  # fingerprint-addressed

        inj = faults.install(FaultInjector(seed=1234))
        inj.schedule("replica-connect", "fail", rate=0.10)
        inj.schedule("replica-read", "fail", rate=0.15)
        inj.schedule("replica-read", "slow", rate=0.15, delay=0.02)
        inj.schedule("store-load", "fail", rate=0.25)

        successes = attempts = 0
        for _round in range(2):
            for z, tx, ty in TILES:
                path = f"/tiles/{handle}/{z}/{tx}/{ty}.png"
                for _try in range(4):
                    attempts += 1
                    status, png, _h = _req(fleet.url + path)
                    if 200 <= status < 300:
                        successes += 1
                        assert png == golden[(z, tx, ty)], (
                            f"2xx tile {z}/{tx}/{ty} diverged from oracle"
                        )
                        break
                else:
                    raise AssertionError(f"tile {path} never succeeded")
        assert successes == 2 * len(TILES)

        for kind in ("heat", "rnn"):
            for _try in range(4):
                status, body, _h = _req(f"{fleet.url}/query/{handle}",
                                        payload={"kind": kind,
                                                 "points": probes})
                if 200 <= status < 300:
                    assert json.loads(body) == golden_queries[kind]
                    break
            else:
                raise AssertionError(f"{kind} query never succeeded")

        assert inj.stats(), "the schedule never fired — chaos was a no-op"
        # The proxy absorbed real injected failures to keep 2xx flowing.
        routing = fleet.fleet_stats()["proxy"]["routing"]
        assert routing["replica_errors"] >= 1
    finally:
        faults.uninstall()
        fleet.close()


# ----------------------------------------------------------------------
# Deadlines bound wall time on both sides of the proxy
# ----------------------------------------------------------------------
def test_deadline_bounds_wall_time_through_a_hung_proxy_read(tmp_path):
    fleet = _Fleet(tmp_path / "store", health_interval=0)
    try:
        clients, facilities = _instance()
        handle = _build(fleet.url, clients, facilities)
        inj = faults.install(FaultInjector(seed=7))
        inj.schedule("replica-read", "hang", delay=5.0)

        budget = 0.5
        t0 = time.monotonic()
        status, _body, _h = _req(
            f"{fleet.url}/tiles/{handle}/0/0/0.png",
            headers={"X-Deadline": str(budget)}, timeout=10,
        )
        elapsed = time.monotonic() - t0
        assert status >= 500, "a hung read cannot produce a success"
        assert elapsed < budget + 1.0, (
            f"request outlived its {budget}s deadline: {elapsed:.2f}s"
        )
        faults.uninstall()
        # The same request without faults still works — nothing wedged.
        status, png, _h = _req(f"{fleet.url}/tiles/{handle}/0/0/0.png")
        assert status == 200 and png[:8] == b"\x89PNG\r\n\x1a\n"
    finally:
        faults.uninstall()
        fleet.close()


def test_deadline_cancels_a_wedged_replica_handler():
    app = HeatMapHTTPApp(tile_size=TILE_SIZE, max_workers=4)
    srv = ThreadedHTTPServer(app=app)
    srv.start()
    release = threading.Event()
    try:
        clients, facilities = _instance()
        handle = _build(srv.url, clients, facilities)

        def gate(_key):
            assert release.wait(20)

        app.service.service.on_tile_render = gate
        budget = 0.4
        t0 = time.monotonic()
        status, body, _h = _req(
            f"{srv.url}/tiles/{handle}/1/0/0.png",
            headers={"X-Deadline": str(budget)}, timeout=10,
        )
        elapsed = time.monotonic() - t0
        assert status == 504, body
        assert elapsed < budget + 1.0
        release.set()
        app.service.service.on_tile_render = None

        _s, body, _h = _req(srv.url + "/stats")
        assert json.loads(body)["http"]["deadline_timeouts"] >= 1

        status, body, _h = _req(f"{srv.url}/tiles/{handle}/0/0/0.png",
                                headers={"X-Deadline": "soon"})
        assert status == 400  # malformed budgets are the client's bug
    finally:
        release.set()
        srv.close()


# ----------------------------------------------------------------------
# Admission control: bounded in-flight, explicit pushback
# ----------------------------------------------------------------------
def test_admission_control_sheds_past_max_inflight():
    app = HeatMapHTTPApp(tile_size=TILE_SIZE, max_workers=4, max_inflight=1)
    srv = ThreadedHTTPServer(app=app)
    srv.start()
    release = threading.Event()
    rendering = threading.Event()
    try:
        clients, facilities = _instance()
        handle = _build(srv.url, clients, facilities)

        def gate(_key):
            rendering.set()
            assert release.wait(20)

        app.service.service.on_tile_render = gate
        slow = {}

        def fetch():
            slow["result"] = _req(f"{srv.url}/tiles/{handle}/1/1/1.png",
                                  timeout=30)

        fetcher = threading.Thread(target=fetch)
        fetcher.start()
        assert rendering.wait(10), "the slow tile never started"

        status, body, headers = _req(f"{srv.url}/tiles/{handle}/0/0/0.png")
        assert status == 503, body
        assert headers.get("Retry-After") == "1"
        # Health probes are exempt: an overloaded replica is still alive.
        status, _b, _h = _req(srv.url + "/healthz?ready=1")
        assert status == 200

        release.set()
        fetcher.join(timeout=20)
        assert slow["result"][0] == 200  # the admitted request completed
        _s, body, _h = _req(srv.url + "/stats")
        assert json.loads(body)["http"]["shed_requests"] >= 1
    finally:
        release.set()
        srv.close()


# ----------------------------------------------------------------------
# Crash / restart: ejection, failover, hot-rejoin, exactly-one-sweep
# ----------------------------------------------------------------------
def test_crash_restart_hot_rejoin_and_one_sweep_per_fingerprint(tmp_path):
    fleet = _Fleet(tmp_path / "store", health_interval=0.2,
                   health_failures=2)
    try:
        clients, facilities = _instance()
        handle = _build(fleet.url, clients, facilities)
        golden = {}
        for z, tx, ty in TILES:
            s, png, _h = _req(
                f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png")
            assert s == 200
            golden[(z, tx, ty)] = png
        assert fleet.fleet_stats()["fleet"]["builds"] == 1

        victim = fleet.addresses[0]
        fleet.replicas[0].close()

        # Availability floor: every tile keeps answering, byte-identical,
        # from the moment the replica dies (failover) through ejection.
        for z, tx, ty in TILES:
            status, png, _h = _req(
                f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png")
            assert status == 200
            assert png == golden[(z, tx, ty)]

        _wait(
            lambda: victim not in fleet.fleet_stats()["ring"]["nodes"],
            message="health monitor to eject the dead replica",
        )
        health = fleet.fleet_stats()["proxy"]["health"]
        assert health["ejections"] >= 1

        # Hot-rejoin: a fresh process on the same port is re-admitted.
        fleet.restart(0)
        _wait(
            lambda: victim in fleet.fleet_stats()["ring"]["nodes"],
            message="health monitor to re-admit the restarted replica",
        )
        assert fleet.fleet_stats()["proxy"]["health"]["readmissions"] >= 1

        # Exactly one sweep per fingerprint across the crash: the rebuilt
        # replica promotes the stored entry, nobody re-sweeps.  (The dead
        # process's counters are gone, so the reachable sum can only
        # undercount — it must never exceed the single original sweep.)
        _s, body, _h = _req(fleet.url + "/datasets", payload={
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        ds = json.loads(body)["dataset"]
        status, body, _h = _req(fleet.url + "/build",
                                payload={"dataset": ds, "metric": "l2"})
        assert status in (200, 202)
        assert json.loads(body)["handle"] == handle
        _wait(
            lambda: json.loads(
                _req(f"{fleet.url}/build/{handle}")[1])["status"] == "ready",
            message="post-restart build to settle",
        )
        stats = fleet.fleet_stats()
        assert stats["fleet"]["builds"] <= 1, (
            "the crash/restart caused a duplicate sweep of one fingerprint"
        )
        assert all(r["reachable"] for r in stats["replicas"])
        for z, tx, ty in TILES:
            status, png, _h = _req(
                f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png")
            assert status == 200 and png == golden[(z, tx, ty)]
    finally:
        fleet.close()


def test_breaker_opens_on_dead_replica_without_health_monitor(tmp_path):
    """With ejection disabled, the breaker alone stops the hammering."""
    fleet = _Fleet(tmp_path / "store", health_interval=0)
    try:
        clients, facilities = _instance()
        handle = _build(fleet.url, clients, facilities)
        golden = {}
        for z, tx, ty in TILES:
            _s, png, _h = _req(
                f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png")
            golden[(z, tx, ty)] = png

        ring = HashRing(fleet.addresses, vnodes=VNODES)
        victim = fleet.addresses[0]
        assert any(ring.owner(tile_key(handle, *t)) == victim
                   for t in TILES), "pan never touched the victim"
        fleet.replicas[0].close()

        for _round in range(3):
            for z, tx, ty in TILES:
                status, png, _h = _req(
                    f"{fleet.url}/tiles/{handle}/{z}/{tx}/{ty}.png")
                assert status == 200
                assert png == golden[(z, tx, ty)]

        stats = fleet.fleet_stats()
        assert stats["proxy"]["breakers"][victim] != "closed"
        routing = stats["proxy"]["routing"]
        assert routing["replica_errors"] >= 1
        assert routing["failovers"] >= 1
        assert routing["breaker_rejections"] >= 1
        # The dead node stayed in the ring the whole time (no monitor).
        assert victim in stats["ring"]["nodes"]
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Store corruption through the fleet: quarantine + rebuild, no loop
# ----------------------------------------------------------------------
def test_corrupted_store_entry_is_quarantined_and_rebuilt(tmp_path):
    store_dir = tmp_path / "store"
    clients, facilities = _instance()

    fleet = _Fleet(store_dir)
    try:
        handle = _build(fleet.url, clients, facilities)
        _s, png00, _h = _req(f"{fleet.url}/tiles/{handle}/0/0/0.png")
    finally:
        fleet.close()

    npz = store_dir / f"{handle}.npz"
    data = bytearray(npz.read_bytes())
    data[len(data) // 3] ^= 0xFF  # bit rot while the fleet was down
    npz.write_bytes(bytes(data))

    fleet = _Fleet(store_dir)  # cold caches: everyone must hit the store
    try:
        rebuilt = _build(fleet.url, clients, facilities)
        assert rebuilt == handle
        stats = fleet.fleet_stats()
        assert stats["fleet"]["store_corruptions"] == 1  # caught once
        assert stats["fleet"]["builds"] == 1  # one re-sweep, fleet-wide
        assert (store_dir / f"{handle}.npz.quarantined").exists()
        assert npz.exists()  # the healing save replaced the entry

        status, png, _h = _req(f"{fleet.url}/tiles/{handle}/0/0/0.png")
        assert status == 200 and png == png00

        # No crash-loop: asking again promotes cleanly, corruption stays 1.
        _s, body, _h = _req(fleet.url + "/datasets", payload={
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })
        status, body, _h = _req(
            fleet.url + "/build",
            payload={"dataset": json.loads(body)["dataset"], "metric": "l2"},
        )
        assert status in (200, 202)
        stats = fleet.fleet_stats()
        assert stats["fleet"]["store_corruptions"] == 1
        assert stats["fleet"]["builds"] == 1
    finally:
        fleet.close()
