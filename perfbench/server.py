"""The server under test in its own process, and one keep-alive client.

:class:`ServerProcess` starts ``python -m repro serve-http --port 0`` from
the checkout's ``src`` tree with default flags on the given vCPUs (see
``calibrate.py`` for why), waits until
``/healthz?ready=1`` answers 200, reads the process's peak resident set
(``VmHWM``) and stops it with SIGTERM (SIGKILL after a grace period).

:class:`Client` is one persistent HTTP/1.1 connection.  Every request it
sends is one *operation*: it is counted as attempted, and as failed when it
raises, times out or answers a status outside 2xx/304.  Callers that find
a wrong answer in a successful response mark it failed with
:meth:`Ops.fail`.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = ["Client", "Ops", "ServerProcess", "OpFailed"]

_ANNOUNCE = re.compile(r"http://([0-9.]+):(\d+)")


class OpFailed(Exception):
    """An operation the benchmark cannot continue past (already counted)."""


class Ops:
    """Attempted/failed operation counters shared by every connection."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


class ServerProcess:
    """``python -m repro serve-http --port 0`` in a fresh process."""

    def __init__(
        self, root: Path, log_path: Path, cpus: "set[int]", *, timeout: float = 60.0
    ):
        if not (root / "src" / "repro").is_dir():
            raise FileNotFoundError(f"no program source under {root / 'src'}")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-http", "--port", "0"],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            self.host, self.port = self._await_announce(timeout)
            self._await_ready(timeout)
        except BaseException:
            self.stop()
            raise

    def _await_announce(self, timeout: float) -> "tuple[str, int]":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _ANNOUNCE.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before binding: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.005)
        raise TimeoutError("server did not announce its port in time")

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz?ready=1")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise TimeoutError("server did not become ready in time")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, a short drain, then SIGKILL; always waits for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One keep-alive connection whose requests are counted operations."""

    def __init__(self, server: ServerProcess, ops: Ops, *, timeout: float = 60.0):
        self.ops = ops
        self.conn = http.client.HTTPConnection(
            server.host, server.port, timeout=timeout
        )

    def close(self) -> None:
        self.conn.close()

    def request(
        self, method: str, path: str, payload=None, headers=None, *,
        body: "bytes | None" = None,
    ) -> "tuple[int, bytes, dict]":
        """One operation; raises :class:`OpFailed` after counting a failure."""
        send_headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode()
        if body is not None:
            send_headers["Content-Type"] = "application/json"
        self.ops.attempt()
        try:
            self.conn.request(method, path, body=body, headers=send_headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.ops.fail(f"{method} {path}: {exc!r}")
            raise OpFailed(str(exc)) from None
        if not (200 <= resp.status < 300 or resp.status == 304):
            self.ops.fail(f"{method} {path}: HTTP {resp.status} {data[:200]!r}")
            raise OpFailed(f"HTTP {resp.status}")
        return resp.status, data, {k.lower(): v for k, v in resp.getheaders()}

    def json(self, method: str, path: str, payload=None) -> dict:
        return json.loads(self.request(method, path, payload)[1])

    def build(self, dataset: str, *, poll_s: float = 0.005, **params) -> str:
        """``POST /build`` then poll ``/build/{handle}`` until ready."""
        kicked = self.json("POST", "/build", {"dataset": dataset, **params})
        handle = kicked["handle"]
        status = kicked["status"]
        while status != "ready":
            if status not in ("building",):
                self.ops.fail(f"build {handle} ended {status}")
                raise OpFailed(f"build {status}")
            time.sleep(poll_s)
            status = self.json("GET", f"/build/{handle}")["status"]
        return handle

    def stats(self) -> dict:
        return self.json("GET", "/stats")
