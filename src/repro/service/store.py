"""Disk spill for built heat maps: LRU eviction becomes demotion.

``HeatMapService`` keeps a small LRU of built results in memory; with a
:class:`ResultStore` attached, an evicted result is written to disk (via
``core.serialize``) keyed by its build fingerprint instead of being thrown
away, and a later ``build`` with the same fingerprint reloads it instead of
re-sweeping.  Fingerprints are content-addressed, so a stored result can
never be stale — deleting entries is purely a space decision.

Layout: one ``<fingerprint>.npz`` per heat surface (a RegionSet's
fragments, or a circle surface's circles) plus a ``.stats.json`` sidecar
carrying the sweep counters when they are known, so a promoted result is
a full ``HeatMapResult`` (json round-trips ``Infinity`` for the empty-map
``max_heat``, and the RNN frozenset travels as a sorted list).

The store is a cache, never the source of truth: writes go through a
temp-file-and-rename so a crash mid-demotion cannot leave a half-written
entry under a live fingerprint, the sidecar carries a blake2b checksum of
the ``.npz`` bytes that ``load`` verifies, and an entry that fails its
checksum (or fails to parse) is *quarantined* — renamed aside, counted in
``corruptions`` — and loads as ``None`` (the service re-sweeps, and the
fresh save replaces the entry) instead of crash-looping every replica.

**Cross-process safety** (a ``store_dir`` shared by a fleet of replicas):
every save/load/delete of one fingerprint holds a :class:`FileLock` — an
``O_CREAT|O_EXCL`` sidecar (``<fingerprint>.lock``) carrying the owner's
pid — so two *processes* can no longer interleave the stats/npz rename
pair of a save with a delete or a load.  A second, long-held sidecar
(``<fingerprint>.sweep.lock``, via :meth:`ResultStore.sweep_lease`) is
the fleet-wide *build lease*: the service wraps
``load-or-sweep-and-save`` in it, so one fingerprint is swept exactly
once across every replica sharing the directory.  Stale locks from
crashed owners are broken by liveness-probing the recorded pid — never
by age, because a legitimate sweep lease can be held for minutes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from pathlib import Path

from ..core.heatmap import HeatMapResult
from ..core.serialize import load_region_set, save_region_set
from ..core.surface import NNCircleSurface
from ..core.sweep_linf import SweepStats
from .. import faults
from .flight import KeyedMutex

__all__ = ["FileLock", "ResultStore"]


class FileLock:
    """Cross-process mutex: an ``O_CREAT|O_EXCL`` sidecar file.

    ``O_EXCL`` makes creation the atomic acquire (works on every local
    filesystem and on NFSv3+); the file body records the owner's pid.  A
    waiter finding the file probes that pid — a lock whose owner is dead
    is *stale* and gets broken (unlinked, then re-raced).  Liveness, not
    age, decides staleness: long legitimate holds (a fleet build lease
    across a multi-minute sweep) must never be stolen.  The one age-based
    escape (``_ORPHAN_GRACE``) covers a file whose owner crashed between
    creating it and writing its pid — an empty sidecar older than the
    grace window cannot be a live acquisition.

    Within one process, threads contending the same path exclude each
    other too (creation is just as atomic), but holds are not reentrant —
    callers layer their own per-key mutex (the store does) or ensure a
    single holder.
    """

    #: Seconds after which an *empty* (pid-less) lock file is orphaned.
    _ORPHAN_GRACE = 5.0

    def __init__(self, path: "str | Path", *, poll: float = 0.01) -> None:
        self.path = Path(path)
        self.poll = float(poll)

    def acquire(self, timeout: "float | None" = None) -> None:
        """Block until the lock is held (``TimeoutError`` past ``timeout``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                self._break_if_stale()
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"could not acquire {self.path} within {timeout}s"
                    ) from None
                time.sleep(self.poll)
            else:
                try:
                    os.write(fd, str(os.getpid()).encode("ascii"))
                finally:
                    os.close(fd)
                return

    def release(self) -> None:
        """Drop the lock (no-op when not held — release must never raise)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - fs-level raciness
            pass

    def _break_if_stale(self) -> None:
        """Unlink the sidecar when its recorded owner is provably dead."""
        try:
            body = self.path.read_text(encoding="ascii").strip()
        except OSError:
            return  # released (or being created) under us: just re-race
        if not body:
            try:
                age = time.time() - self.path.stat().st_mtime
            except OSError:
                return
            if age > self._ORPHAN_GRACE:
                self.release()
            return
        try:
            pid = int(body)
        except ValueError:
            self.release()  # garbage body: not a live acquisition
            return
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            self.release()  # owner is gone; break the lock and re-race
        except PermissionError:  # pragma: no cover - other-user process
            pass  # alive but not ours: keep waiting

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _stats_to_json(stats: SweepStats) -> dict:
    d = dict(vars(stats))
    d["max_heat_rnn"] = sorted(stats.max_heat_rnn)
    if stats.max_heat_point is not None:
        d["max_heat_point"] = list(stats.max_heat_point)
    return d


def _stats_from_json(d: dict) -> "SweepStats | None":
    """The sidecar's counters, or None when it carries none (a surface
    saved before its sweep ran)."""
    d = {k: v for k, v in d.items() if k in SweepStats.__dataclass_fields__}
    if not d:
        return None
    d["max_heat_rnn"] = frozenset(d.get("max_heat_rnn", ()))
    point = d.get("max_heat_point")
    if point is not None:
        d["max_heat_point"] = (float(point[0]), float(point[1]))
    return SweepStats(**d)


#: Prefix of in-flight temp files, excluded from ``handles()``.
_TMP_PREFIX = ".tmp-"

#: Suffix appended to a corrupt entry's files when it is quarantined;
#: chosen so ``*.npz`` globs (``handles()``) no longer see the entry.
_QUARANTINE_SUFFIX = ".quarantined"

#: Sidecar key carrying the npz checksum (ignored by ``_stats_from_json``).
_CHECKSUM_KEY = "npz_blake2b"


def _digest(data: bytes) -> str:
    """The store's content checksum (short blake2b, hex)."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class ResultStore:
    """A directory of fingerprint-keyed heat-map results.

    Safe for concurrent use: a per-fingerprint mutex serializes this
    process's save/load/delete of one entry (a concurrent evict+rebuild of
    one fingerprint cannot interleave the two renames of a save with a
    delete or another save) while promotions/demotions of *different*
    fingerprints proceed in parallel, and temp files carry a per-writer
    unique suffix so even two *processes* demoting the same fingerprint
    never rename each other's half-written files into place.

    Safe *across* processes too: inside the per-process mutex, each
    operation on one fingerprint additionally holds that entry's
    :class:`FileLock` sidecar, so replicas sharing one ``store_dir``
    cannot interleave the stats/npz rename pair of a save with another
    replica's load or delete.  :meth:`sweep_lease` exposes the separate
    long-held build lease the service uses for fleet-wide sweep dedupe.
    """

    #: Process-wide source of unique temp-file suffixes.
    _seq = itertools.count()

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._locks = KeyedMutex()
        #: Entries this process quarantined after failing verification.
        self.corruptions = 0

    def _tmp_path(self, handle: str, suffix: str) -> Path:
        return self.root / (
            f"{_TMP_PREFIX}{handle}.{os.getpid()}.{next(self._seq)}{suffix}"
        )

    def _region_path(self, handle: str) -> Path:
        return self.root / f"{handle}.npz"

    def _stats_path(self, handle: str) -> Path:
        return self.root / f"{handle}.stats.json"

    def _entry_lock(self, handle: str) -> FileLock:
        return FileLock(self.root / f"{handle}.lock")

    def sweep_lease(self, handle: str) -> FileLock:
        """The fleet-wide build lease for one fingerprint (unacquired).

        Held (as a context manager) across a replica's whole
        ``load-or-sweep-and-save`` build section, it guarantees at most
        one process is sweeping this fingerprint at any moment — every
        other replica blocks, then finds the finished entry on disk and
        promotes it.  A distinct sidecar from the short per-operation
        entry lock, so ``save``/``load`` inside a held lease never
        self-deadlock.
        """
        return FileLock(self.root / f"{handle}.sweep.lock")

    def __contains__(self, handle: str) -> bool:
        return self._region_path(handle).exists()

    def handles(self) -> "list[str]":
        """Fingerprints currently stored, in no particular order."""
        return [
            p.stem for p in self.root.glob("*.npz")
            if not p.name.startswith(_TMP_PREFIX)
        ]

    def save(self, handle: str, result: HeatMapResult) -> Path:
        """Persist one result under its fingerprint; returns the .npz path.

        Both files are written to temp names and renamed into place, stats
        sidecar first — whatever prefix of the two renames survives a crash
        is loadable (a lone sidecar loads as absent; a lone .npz falls back
        to placeholder stats).  Temp names are unique per writer, so
        concurrent saves of one fingerprint cannot steal (and rename away)
        each other's in-flight files.

        The sidecar records a blake2b checksum of the .npz bytes; ``load``
        verifies it, so bit rot or a torn write is *detected* (and the
        entry quarantined), never silently served.
        """
        faults.fire("store-save")
        final = self._region_path(handle)
        tmp_stats = self._tmp_path(handle, ".stats.json")
        tmp = self._tmp_path(handle, ".npz")
        try:
            # The .npz suffix keeps np.savez from appending its own.
            save_region_set(result.region_set, tmp)
            # Saving never sweeps: an unswept surface's counters stay
            # unknown, and its promoted copy sweeps when asked.
            stats = result.known_stats()
            payload = {} if stats is None else _stats_to_json(stats)
            payload[_CHECKSUM_KEY] = _digest(tmp.read_bytes())
            tmp_stats.write_text(json.dumps(payload))
            faults.mangle_file("store-save", tmp)
            with self._locks.holding(handle), self._entry_lock(handle):
                os.replace(tmp_stats, self._stats_path(handle))
                os.replace(tmp, final)
        finally:
            tmp_stats.unlink(missing_ok=True)
            tmp.unlink(missing_ok=True)
        return final

    def _quarantine(self, handle: str) -> None:
        """Move a poison entry aside so it stops matching ``handles()``.

        Rename, not delete: the bytes stay on disk for forensics, but the
        fingerprint reads as absent, so every replica falls back to a
        re-sweep (whose save overwrites cleanly) instead of re-parsing the
        same bad file forever.
        """
        self.corruptions += 1
        for path in (self._region_path(handle), self._stats_path(handle)):
            try:
                if path.exists():
                    os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))
            except OSError:  # pragma: no cover - fs-level raciness
                pass

    def quarantined(self) -> "list[str]":
        """Fingerprints with a quarantined (corrupt) entry on disk."""
        return sorted(
            p.name[: -len(".npz" + _QUARANTINE_SUFFIX)]
            for p in self.root.glob("*.npz" + _QUARANTINE_SUFFIX)
        )

    def load(self, handle: str) -> "HeatMapResult | None":
        """The stored result, or None when absent *or unreadable*.

        A corrupt entry (torn write from a crash, bit rot, disk trouble)
        must degrade to a cache miss — the caller re-sweeps — not poison
        every future build of this fingerprint.  An entry that fails its
        checksum or fails to parse is quarantined (renamed aside) so the
        fleet rebuilds it once instead of crash-looping on the same bytes.
        """
        faults.fire("store-load")
        path = self._region_path(handle)
        with self._locks.holding(handle), self._entry_lock(handle):
            if not path.exists():
                return None
            stats_path = self._stats_path(handle)
            try:
                sidecar = json.loads(stats_path.read_text())
            except Exception:  # sidecar lost/corrupt: still serve the queries
                sidecar = None
            expected = (sidecar or {}).get(_CHECKSUM_KEY)
            try:
                if expected is not None and _digest(path.read_bytes()) != expected:
                    raise ValueError("npz checksum mismatch")
                region_set = load_region_set(path)
            except Exception:
                self._quarantine(handle)
                return None  # treat as a miss; the re-sweep overwrites it
            surface = isinstance(region_set, NNCircleSurface)
            stats = None
            if sidecar is not None:
                try:
                    stats = _stats_from_json(sidecar)
                except Exception:
                    sidecar = None
            if sidecar is None or (stats is None and not surface):
                stats = SweepStats(
                    n_fragments=0 if surface else len(region_set),
                    algorithm="restored",
                )
        return HeatMapResult(region_set, stats)

    def delete(self, handle: str) -> None:
        """Forget one stored result (no-op when absent)."""
        with self._locks.holding(handle), self._entry_lock(handle):
            self._region_path(handle).unlink(missing_ok=True)
            self._stats_path(handle).unlink(missing_ok=True)
