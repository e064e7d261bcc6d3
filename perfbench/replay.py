"""Traced in-process replay of each workload: the per-layer breakdown.

The replay calls the same public functions the server runs for each
request, in the same order, on the same inputs as the first operations of
the workload's timed phase, and wraps every call in a span.  Spans live
only in this file, around the calls; the program itself is not changed.

A span is ``(name, start, end, parent, op, tag)``: ``op`` groups the
spans of one user-visible operation (``op.tile``, ``op.query``,
``op.build``, ``op.update``) the way one request id would, and ``tag``
names the metric being replayed.  A layer's *self time* is its
span's duration minus the time covered by its child spans.

The replay is deterministic in size (fixed numbers of maps, tiles, probe
batches and update cycles), so exact counts (events, labels, fragments,
rebuilds) repeat run after run for one seed.  It runs once untimed, so
lazy imports and other first-call costs are paid before any pass is
timed, then four times, with a tracer that records nothing and with one
that records, in the order off, on, on, off (so a steady drift in machine
speed cancels); the ratio of the traced to the untraced wall time is the
tracing overhead.  Spans and counts come from the first traced pass.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np
from repro import RNNHeatMap
from repro.dynamic import DynamicHeatMap
from repro.render.colormap import apply_colormap
from repro.render.png import encode_png
from repro.server.wire import decode_points, json_response
from repro.service.tiles import tile_bounds, world_bounds

import oracle
import workloads as wl

__all__ = ["Tracer", "NullTracer", "replay"]

REPLAY_FRESH_DATASETS = 2
REPLAY_PAN_STEPS = 3
REPLAY_PAN_QUERIES = 8
REPLAY_LIVE_CYCLES = 4


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []   # [name, start, end, parent, op, tag]
        self.tag: "str | None" = None
        self._stack: "list[int]" = []
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
            op = self._ops
        else:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, op, self.tag]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, tag: "str | None" = None) -> "dict[str, list[float]]":
        """Self time in milliseconds of every span (with ``tag``, if
        given), grouped by span name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _tag in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: "dict[str, list[float]]" = {}
        for i, (name, start, end, _p, _op, t) in enumerate(self.spans):
            if tag is None or t == tag:
                out.setdefault(name, []).append((end - start - child[i]) * 1e3)
        return out

    def durations(self, name: str, tag: "str | None" = None) -> "list[float]":
        """Wall time in milliseconds of every ``name`` span (with ``tag``)."""
        return [
            (s[2] - s[1]) * 1e3 for s in self.spans
            if s[0] == name and (tag is None or s[5] == tag)
        ]

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "tag")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """The untraced replay: same calls, nothing recorded."""

    _null = contextlib.nullcontext()
    tag = None

    def span(self, name: str):
        return self._null


class _Replay:
    """Shared per-operation replays (one public call per span)."""

    def __init__(self, tracer, counts: dict) -> None:
        self.t = tracer
        self.counts = counts
        #: Region sets whose fragment table exists (held, so ids stay unique).
        self._tabled: "dict[int, object]" = {}

    def build(self, clients, facilities, metric: str):
        t = self.t
        with t.span("op.build"):
            with t.span("nn.circles"):
                hm = RNNHeatMap(clients, facilities, metric=metric)
            with t.span("core.sweep"):
                result = hm.build()
            with t.span("core.bounds"):
                world = world_bounds(result.region_set)
        self.count_sweep(result, metric)
        return result, world

    def count_sweep(self, result, metric: str) -> None:
        st = result.stats
        for key, value in (
            ("core.events", st.n_events), ("core.labels", st.labels),
            ("core.fragments", len(result.region_set)),
        ):
            self.counts[key] = self.counts.get(key, 0) + value
            self.counts[f"{key}.{metric}"] = self.counts.get(f"{key}.{metric}", 0) + value

    def tile(self, result, world, z, tx, ty, vmax, *, first: bool = False):
        t = self.t
        with t.span("op.tile"):
            with t.span("render.raster.first" if first else "render.raster"):
                grid, _b = result.rasterize(wl.TILE, wl.TILE, tile_bounds(world, z, tx, ty))
            with t.span("render.colormap"):
                image = apply_colormap(grid, "heat", vmax=vmax)
            with t.span("render.png"):
                png = encode_png(image[::-1])
        self.counts.setdefault("render.png_bytes", []).append(len(png))
        return png

    def query(self, result, body: bytes, *, warm_repeat: bool):
        """One ``/query`` as the server runs it: decode, locate, encode.

        The first batch on a region set also builds its fragment table
        (``core.table_build``); later batches only locate.  ``warm_repeat``
        adds one untimed-by-the-op warm locate of the same batch, so the
        locate cost is measured on workloads whose every query is a first.
        """
        t = self.t
        rs = result.region_set
        first = id(rs) not in self._tabled
        with t.span("op.query"):
            with t.span("server.decode_points"):
                points = decode_points(json.loads(body), max_points=1_000_000)
            with t.span("core.table_build" if first else "core.locate"):
                heats = rs.heat_at_many(points)
            with t.span("server.encode_heats"):
                json_response({"kind": "heat", "n": len(heats), "heats": heats})
        self._tabled[id(rs)] = rs
        if warm_repeat:
            with t.span("core.locate"):
                rs.heat_at_many(points)
        return heats


def _fresh(seed: int, r: _Replay) -> None:
    for it in range(REPLAY_FRESH_DATASETS):
        clients, facilities = wl.fresh_dataset(seed, it)
        rng = np.random.default_rng([seed, 6, it])
        for k, metric in enumerate(wl.METRICS):
            radii = oracle.nn_radii(clients, facilities, metric)
            world_o = oracle.world_rect(clients, radii, metric)
            rows, cols = wl.sample_pixels(rng, wl.FRESH_PIXELS)
            centres = oracle.pixel_centres(world_o, wl.TILE, rows, cols)
            body = wl._body(wl.probe_batch(seed, 7, 3 * it + k, world_o, centres))
            r.t.tag = metric
            result, world = r.build(clients, facilities, metric)
            r.tile(result, world, 0, 0, 0, wl.FRESH_VMAX, first=True)
            r.query(result, body, warm_repeat=True)


def _pan(seed: int, r: _Replay) -> None:
    clients, facilities = wl.pan_dataset(seed)
    radii = oracle.nn_radii(clients, facilities, "l2")
    world_o = oracle.world_rect(clients, radii, "l2")
    result, world = r.build(clients, facilities, "l2")
    r.tile(result, world, 0, 0, 0, wl.PAN_VMAX, first=True)
    r.query(result, wl._body(wl.probe_batch(seed, 8, 0, world_o)), warm_repeat=False)
    path = wl.PanPath(seed)
    held: "set[tuple[int, int]]" = set()
    for _ in range(REPLAY_PAN_STEPS):
        for tx, ty in path.view():
            if (tx, ty) not in held:
                r.tile(result, world, wl.PAN_Z, tx, ty, wl.PAN_VMAX)
                held.add((tx, ty))
        path.step()
    for i in range(REPLAY_PAN_QUERIES):
        r.query(result, wl._body(wl.probe_batch(seed, 9, i, world_o)), warm_repeat=False)


def _live(seed: int, r: _Replay) -> None:
    t = r.t
    clients, facilities = wl.live_dataset(seed)
    clients = clients.copy()
    radii = oracle.nn_radii(clients, facilities, "l2")
    world_o = oracle.world_rect(clients, radii, "l2")
    with t.span("op.build"):
        with t.span("nn.circles"):
            dyn = DynamicHeatMap(clients, facilities, metric="l2")
        with t.span("core.sweep"):
            result = dyn.result()
        with t.span("core.bounds"):
            world = world_bounds(result.region_set)
    r.count_sweep(result, "l2")
    n = 1 << wl.LIVE_Z
    for ty in range(n):
        for tx in range(n):
            r.tile(result, world, wl.LIVE_Z, tx, ty, wl.LIVE_VMAX, first=(tx, ty) == (0, 0))
    dirty_fracs = []
    dirty_tiles = 0
    for cycle in range(REPLAY_LIVE_CYCLES):
        moves = wl.nudges(seed, cycle, clients, radii, facilities, world_o)
        version = dyn.version
        with t.span("op.update"):
            with t.span("dynamic.apply"):
                for h, new, _r, _tile in moves:
                    dyn.move_client(h, float(new[0]), float(new[1]))
            with t.span("dynamic.resweep"):
                result = dyn.result()
            with t.span("core.bounds"):
                world = world_bounds(result.region_set)
        rects = dyn.dirty_rects_since(version) or []
        dirty_fracs.append(result.stats.dirty_fraction)
        for ty in range(n):
            for tx in range(n):
                bounds = tile_bounds(world, wl.LIVE_Z, tx, ty)
                if any(bounds.intersects(rect) for rect in rects):
                    r.tile(result, world, wl.LIVE_Z, tx, ty, wl.LIVE_VMAX)
                    dirty_tiles += 1
        for h, new, r_new, _tile in moves:
            clients[h] = new
            radii[h] = r_new
        r.query(result, wl._body(wl.probe_batch(seed, 12, cycle, world_o)), warm_repeat=True)
    r.counts["dynamic.full_rebuilds"] = dyn.full_rebuilds
    r.counts["dynamic.incremental_rebuilds"] = dyn.incremental_rebuilds
    r.counts["dynamic.dirty_fraction"] = statistics.fmean(dirty_fracs)
    r.counts["dynamic.dirty_tiles_per_update"] = dirty_tiles / REPLAY_LIVE_CYCLES


_REPLAYS = {"fresh-map": _fresh, "viewer-pan": _pan, "live-update": _live}


def replay(workload: str, seed: int) -> "tuple[Tracer, dict, float, float]":
    """Replay once untimed, then off, on, on, off; returns (tracer, counts,
    wall_off, wall_on)."""
    fn = _REPLAYS[workload]
    fn(seed, _Replay(NullTracer(), {}))   # lazy imports and first-call costs
    walls = {False: 0.0, True: 0.0}
    first: "tuple[Tracer, dict] | None" = None
    for traced in (False, True, True, False):
        tracer = Tracer() if traced else NullTracer()
        counts: dict = {}
        t0 = time.perf_counter()
        fn(seed, _Replay(tracer, counts))
        walls[traced] += time.perf_counter() - t0
        if traced and first is None:
            first = (tracer, counts)
    return first[0], first[1], walls[False], walls[True]
