"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU VM each vCPU, on its own and independently of the
other, switches every few seconds between a fast and a slow mode in
which the same pure-Python loop takes about 1.65x longer; no steal time
is reported, so the host's other tenants slow the core itself.  A tile
render slows with the loop (its time tracks the loop's within about a
tenth, where the raw times swing by half).  A timing taken in a slow
stretch would read as a regression of the program.

So the generator times a fixed reference computation, code of this
file and not of the program, in short *bursts* on the server's vCPUs
while the server is idle: before and after every set-up, and about
every half second between the operations of the timed phase.  A burst runs on
each of those vCPUs in turn and its value is the mean of the per-vCPU
minima.  A server that answers one connection runs one request at a
time, so it is pinned to one vCPU and the bursts measure exactly that
one (:func:`placement`); a server that answers two connections at once
needs both vCPUs, so it is not pinned and the bursts measure both.
Each end-to-end sample is then scaled by
``NOMINAL_MS / reference``, with the reference taken as the mean of the
bursts just before and just after the sample: a timing in *ms at
reference speed*, the speed at which one reference pass takes
``NOMINAL_MS``.  The raw timings are printed and recorded too.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

__all__ = ["Calibrator", "NOMINAL_MS", "placement"]

#: One reference pass at reference speed (a fast period of the 2-vCPU VM
#: the benchmark was tuned on).
NOMINAL_MS = 3.5
#: Reference passes per vCPU in a burst; the fastest counts, so a stall
#: of the vCPU shorter than the burst does not read as a slow mode.
PASSES = 5
#: Target gap between bursts in the timed phase.
INTERVAL_S = 0.5

_KEYS = list(range(6000))


def _reference() -> int:
    """Interpreter work of the kinds the server does between numpy calls:
    arithmetic, dict and list traffic, calls and attribute lookups."""
    table: "dict[int, int]" = {}
    acc = []
    total = 0
    for k in _KEYS:
        slot = (k * 2654435761) & 1023
        table[slot] = table.get(slot, 0) + k
        total += k * k % 7
        acc.append((slot, total))
    acc.sort()
    return total + len(table) + acc[-1][0]


def placement(connections: int) -> "tuple[set[int], set[int]]":
    """``(generator vCPUs, server vCPUs)`` for a workload with this many
    connections: with one, the server gets the last vCPU this process may
    use and the generator the others (the same one on a single vCPU);
    with more, both may use every vCPU."""
    allowed = sorted(os.sched_getaffinity(0))
    if connections > 1:
        return set(allowed), set(allowed)
    return set(allowed[:-1]) or set(allowed), {allowed[-1]}


class Calibrator:
    """Reference bursts on the server's vCPUs, with their times, and the
    scale they give.  The calling thread runs on ``home`` otherwise."""

    def __init__(self, home: "set[int]", server: "set[int]") -> None:
        self.home = home
        self.cpus = sorted(server)
        self.times: "list[float]" = []
        self.refs: "list[float]" = []
        self.per_cpu: "list[list[float]]" = []

    def burst(self) -> float:
        """Time one burst now (the server must be idle); returns its ms."""
        fastest = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                passes = []
                for _ in range(PASSES):
                    t0 = time.perf_counter()
                    _reference()
                    passes.append((time.perf_counter() - t0) * 1e3)
                fastest.append(min(passes))
        finally:
            os.sched_setaffinity(0, self.home)
        ref = statistics.fmean(fastest)
        self.per_cpu.append(fastest)
        self.times.append(time.perf_counter())
        self.refs.append(ref)
        return ref

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def scale(self, t: float) -> float:
        """``NOMINAL_MS`` over the reference around time ``t``: the mean of
        the last burst before ``t`` and the first after it."""
        i = bisect.bisect_left(self.times, t)
        around = self.refs[max(i - 1, 0):i + 1]
        return NOMINAL_MS / statistics.fmean(around)
