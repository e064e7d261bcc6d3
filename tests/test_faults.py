"""Unit coverage for ``repro.faults`` and the store's hardening paths.

Four layers, bottom up:

* the fault-injection primitives — seeded determinism of the injector,
  rule kinds (fail/slow/hang/corrupt), burn-out counts, the module-level
  install/uninstall switch and its no-op fast path;
* the retry/deadline/breaker building blocks with injected RNG and
  clocks, so every state transition is asserted without sleeping;
* the ``FileLock`` orphan paths: an empty sidecar inside vs past the
  grace window, pid-reuse false liveness (a *live* pid must never be
  broken), garbage bodies, and breaking a dead owner's sweep lease;
* the checksummed store: corrupt entries are detected, quarantined and
  rebuilt (never served, never crash-looped), injected save/load
  failures are absorbed into counters, and a lone ``.npz`` still serves
  with placeholder stats.
"""

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro import faults
from repro.faults import (
    CircuitBreaker,
    Deadline,
    FaultError,
    FaultInjector,
    FaultRule,
    RetryPolicy,
)
from repro.service import HeatMapService
from repro.service.store import FileLock, ResultStore


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test leaves the process without an active injector."""
    yield
    faults.uninstall()


def _instance(seed=7, n_clients=40, n_facilities=6):
    rng = np.random.default_rng(seed)
    return rng.random((n_clients, 2)), rng.random((n_facilities, 2))


def _service(store_dir, **kw):
    kw.setdefault("max_results", 4)
    return HeatMapService(store_dir=store_dir, shared_store=True, **kw)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
def test_fail_rule_raises_and_counts():
    inj = FaultInjector(seed=1)
    inj.schedule("store-save", "fail")
    with pytest.raises(FaultError):
        inj.fire("store-save")
    inj.fire("store-load")  # other points are untouched
    assert inj.stats() == {"store-save:fail": 1}


def test_rate_draws_replay_from_the_seed():
    def outcomes(seed):
        inj = FaultInjector(seed=seed)
        inj.schedule("p", "fail", rate=0.5)
        hits = []
        for _ in range(64):
            try:
                inj.fire("p")
            except FaultError:
                hits.append(True)
            else:
                hits.append(False)
        return hits

    assert outcomes(42) == outcomes(42)  # same seed, same schedule
    assert outcomes(42) != outcomes(43)  # 2^-64 flake odds: effectively never
    assert any(outcomes(42)) and not all(outcomes(42))


def test_count_burns_a_rule_out():
    inj = FaultInjector()
    rule = inj.schedule("p", "fail", count=2)
    for _ in range(2):
        with pytest.raises(FaultError):
            inj.fire("p")
    inj.fire("p")  # exhausted: passes clean
    assert rule.exhausted and rule.fired == 2


def test_slow_sleeps_and_continues_hang_sleeps_and_fails():
    inj = FaultInjector()
    inj.schedule("s", "slow", delay=0.05)
    t0 = time.monotonic()
    inj.fire("s")  # no raise
    assert time.monotonic() - t0 >= 0.045
    inj.schedule("h", "hang", delay=0.05)
    t0 = time.monotonic()
    with pytest.raises(FaultError):
        inj.fire("h")
    assert time.monotonic() - t0 >= 0.045


def test_afire_raises_on_the_loop():
    inj = FaultInjector()
    inj.schedule("p", "fail")

    async def go():
        with pytest.raises(FaultError):
            await inj.afire("p")

    asyncio.run(go())


def test_clear_disarms_one_point_or_all():
    inj = FaultInjector()
    inj.schedule("a", "fail")
    inj.schedule("b", "fail")
    inj.clear("a")
    inj.fire("a")
    with pytest.raises(FaultError):
        inj.fire("b")
    inj.clear()
    inj.fire("b")


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        FaultRule("p", "explode")


def test_mangle_file_is_seeded_and_detectable(tmp_path):
    original = bytes(range(256)) * 4

    def mangled(seed):
        path = tmp_path / f"blob-{seed}.bin"
        path.write_bytes(original)
        inj = FaultInjector(seed=seed)
        inj.schedule("store-save", "corrupt")
        assert inj.mangle_file("store-save", path) is True
        return path.read_bytes()

    one, two = mangled(9), mangled(9)
    assert one == two != original  # reproducible damage
    inj = FaultInjector()  # no corrupt rule armed: file untouched
    path = tmp_path / "clean.bin"
    path.write_bytes(original)
    assert inj.mangle_file("store-save", path) is False
    assert path.read_bytes() == original


def test_module_switch_install_get_uninstall():
    assert faults.get() is None
    faults.fire("p")  # uninstalled: no-op

    async def afire():
        await faults.afire("p")

    asyncio.run(afire())
    inj = faults.install(FaultInjector())
    assert faults.get() is inj
    inj.schedule("p", "fail")
    with pytest.raises(FaultError):
        faults.fire("p")
    faults.uninstall()
    faults.fire("p")
    assert faults.get() is None


# ----------------------------------------------------------------------
# RetryPolicy / Deadline / CircuitBreaker
# ----------------------------------------------------------------------
def test_retry_backoff_stays_in_the_jitter_envelope():
    import random

    policy = RetryPolicy(attempts=6, base=0.05, cap=0.4,
                         rng=random.Random(3))
    for attempt in range(8):
        ceiling = min(0.4, 0.05 * 2 ** attempt)
        for _ in range(50):
            b = policy.backoff(attempt)
            assert 0.0 <= b <= ceiling
    assert len(policy.delays()) == policy.attempts - 1
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_deadline_counts_down_on_an_injected_clock():
    now = [100.0]
    d = Deadline(1.0, clock=lambda: now[0])
    assert d.remaining() == pytest.approx(1.0)
    assert not d.expired and not d.should_cancel()
    now[0] = 100.6
    assert d.remaining() == pytest.approx(0.4)
    now[0] = 101.5
    assert d.expired and d.should_cancel()
    assert d.remaining() == 0.0  # clamped, never negative


def test_deadline_header_round_trip_and_rejects():
    now = [0.0]
    d = Deadline.from_header("0.25", clock=lambda: now[0])
    assert d.budget == pytest.approx(0.25)
    now[0] = 0.1
    assert float(d.header_value()) == pytest.approx(0.15)
    for bad in ("nan", "inf", "-inf", "0", "-1", "soon", ""):
        with pytest.raises(ValueError):
            Deadline.from_header(bad)


def test_breaker_state_machine_on_an_injected_clock():
    now = [0.0]
    b = CircuitBreaker(failures=3, reset_after=2.0, clock=lambda: now[0])
    assert b.state == CircuitBreaker.CLOSED and b.allow()
    b.record_failure()
    b.record_failure()
    assert b.allow()  # below threshold: still closed
    b.record_failure()
    assert b.state == CircuitBreaker.OPEN and b.trips == 1
    assert not b.allow()  # open refuses instantly
    now[0] = 1.9
    assert not b.allow()  # not yet
    now[0] = 2.1
    assert b.state == CircuitBreaker.HALF_OPEN
    assert b.allow()      # exactly one probe admitted
    assert not b.allow()  # second caller refused while probe in flight
    b.record_success()
    assert b.state == CircuitBreaker.CLOSED and b.allow()
    # Probe failure path: reopen and restart the timer.
    for _ in range(3):
        b.record_failure()
    now[0] = 5.0
    assert b.allow()  # the half-open probe
    b.record_failure()
    assert not b.allow()  # probe failed: open again, timer restarted
    now[0] = 7.1
    assert b.state == CircuitBreaker.HALF_OPEN
    with pytest.raises(ValueError):
        CircuitBreaker(failures=0)


# ----------------------------------------------------------------------
# FileLock orphan paths
# ----------------------------------------------------------------------
def test_empty_lock_inside_grace_window_is_respected(tmp_path):
    path = tmp_path / "fresh.lock"
    path.touch()  # owner may be between O_CREAT and the pid write
    with pytest.raises(TimeoutError):
        FileLock(path).acquire(timeout=0.15)
    assert path.exists()


def test_empty_lock_past_grace_window_is_orphaned(tmp_path):
    path = tmp_path / "orphan.lock"
    path.touch()
    old = time.time() - (FileLock._ORPHAN_GRACE + 5.0)
    os.utime(path, (old, old))  # the crash happened long ago
    lock = FileLock(path)
    lock.acquire(timeout=2.0)  # must break the orphan, not time out
    assert path.read_text() == str(os.getpid())
    lock.release()


def test_live_pid_is_never_broken(tmp_path):
    """Pid-reuse false liveness: a recorded pid that *is* alive holds."""
    path = tmp_path / "held.lock"
    path.write_text(str(os.getpid()))  # provably alive: it is us
    with pytest.raises(TimeoutError):
        FileLock(path).acquire(timeout=0.2)
    assert path.read_text() == str(os.getpid())  # untouched


def test_garbage_lock_body_is_broken(tmp_path):
    path = tmp_path / "garbage.lock"
    path.write_text("not-a-pid")
    lock = FileLock(path)
    lock.acquire(timeout=2.0)
    assert path.read_text() == str(os.getpid())
    lock.release()


def test_dead_owners_sweep_lease_is_broken(tmp_path):
    store = ResultStore(tmp_path)
    stale = store.sweep_lease("fp-1")
    stale.path.write_text("999999999")  # a pid that cannot be alive
    with store.sweep_lease("fp-1"):  # must break it, not hang the build
        assert stale.path.read_text() == str(os.getpid())
    assert not stale.path.exists()


# ----------------------------------------------------------------------
# Checksummed store: corruption detection, quarantine, rebuild
# ----------------------------------------------------------------------
def test_save_embeds_checksum_and_round_trips(tmp_path):
    svc = _service(tmp_path)
    clients, facilities = _instance()
    handle = svc.build(clients, facilities, metric="l2")
    sidecar = json.loads((tmp_path / f"{handle}.stats.json").read_text())
    assert len(sidecar["npz_blake2b"]) == 32  # 16-byte blake2b, hex
    restored = svc.store.load(handle)
    assert restored is not None
    assert not hasattr(restored.stats, "npz_blake2b")  # filtered out
    assert restored.stats.algorithm == "crest-l2-batched"


def test_corrupt_entry_is_quarantined_and_rebuilt(tmp_path):
    clients, facilities = _instance()
    svc1 = _service(tmp_path)
    handle = svc1.build(clients, facilities, metric="l2")
    probe = np.asarray([[0.5, 0.5]])
    golden = float(svc1.heat_at_many(handle, probe)[0])

    npz = tmp_path / f"{handle}.npz"
    data = bytearray(npz.read_bytes())
    data[len(data) // 2] ^= 0xFF  # bit rot
    npz.write_bytes(bytes(data))

    svc2 = _service(tmp_path)  # a fresh replica promoting from disk
    handle2 = svc2.build(clients, facilities, metric="l2")
    assert handle2 == handle
    assert svc2.stats.builds == 1  # detected -> re-swept, not served
    assert svc2.stats.promotions == 0
    assert svc2.store.corruptions == 1
    assert svc2.store.quarantined() == [handle]
    assert (tmp_path / f"{handle}.npz.quarantined").exists()
    assert svc2.stats_snapshot()["store_corruptions"] == 1
    assert float(svc2.heat_at_many(handle, probe)[0]) == golden

    svc3 = _service(tmp_path)  # the re-sweep's save healed the entry
    svc3.build(clients, facilities, metric="l2")
    assert svc3.stats.promotions == 1 and svc3.stats.builds == 0
    assert svc3.store.corruptions == 0  # no crash-loop on the same bytes
    assert float(svc3.heat_at_many(handle, probe)[0]) == golden


def test_lone_npz_serves_with_placeholder_stats(tmp_path):
    svc = _service(tmp_path)
    clients, facilities = _instance(seed=8)
    handle = svc.build(clients, facilities, metric="linf")
    (tmp_path / f"{handle}.stats.json").unlink()
    restored = svc.store.load(handle)
    assert restored is not None
    assert restored.stats.algorithm == "restored"


def test_corrupt_sidecar_is_tolerated(tmp_path):
    svc = _service(tmp_path)
    clients, facilities = _instance(seed=9)
    handle = svc.build(clients, facilities, metric="l2")
    (tmp_path / f"{handle}.stats.json").write_text("{not json")
    restored = svc.store.load(handle)  # no checksum to check: still serves
    assert restored is not None
    assert restored.stats.algorithm == "restored"
    assert svc.store.corruptions == 0


def test_injected_store_failures_are_absorbed(tmp_path):
    clients, facilities = _instance(seed=10)
    inj = faults.install(FaultInjector(seed=2))

    inj.schedule("store-save", "fail", count=1)
    svc1 = _service(tmp_path)
    handle = svc1.build(clients, facilities, metric="l2")
    assert svc1.stats.store_write_failures == 1
    assert svc1.stats.builds == 1
    assert handle not in svc1.store  # the write was lost, build survived

    svc2 = _service(tmp_path)  # rule burned out: this save lands
    svc2.build(clients, facilities, metric="l2")
    assert handle in svc2.store

    inj.schedule("store-load", "fail", count=1)
    svc3 = _service(tmp_path)
    svc3.build(clients, facilities, metric="l2")
    assert svc3.stats.store_read_failures == 1
    assert svc3.stats.builds == 1  # unreadable store degrades to a miss
    assert svc3.stats.promotions == 0


def test_injected_save_corruption_is_caught_by_checksum(tmp_path):
    clients, facilities = _instance(seed=11)
    inj = faults.install(FaultInjector(seed=3))
    inj.schedule("store-save", "corrupt", count=1)
    svc1 = _service(tmp_path)
    handle = svc1.build(clients, facilities, metric="l2")
    assert inj.stats().get("store-save:corrupt") == 1

    svc2 = _service(tmp_path)
    svc2.build(clients, facilities, metric="l2")
    assert svc2.store.corruptions == 1  # torn write detected, not served
    assert svc2.stats.builds == 1
    assert svc2.store.quarantined() == [handle]


def test_sweep_batch_point_fires_during_a_build(tmp_path):
    inj = faults.install(FaultInjector(seed=4))
    inj.schedule("sweep-batch", "slow", delay=0.0, count=5)
    svc = _service(tmp_path)
    clients, facilities = _instance(seed=12)
    svc.build(clients, facilities, metric="l2")
    assert inj.stats().get("sweep-batch:slow", 0) >= 1
