"""The three workloads, driven over HTTP against the server process.

Each workload has a *set-up* (everything before timing: uploads, builds,
warm-up) and a *timed phase* that runs closed-loop for a fixed number of
seconds: every connection sends its next request only after the previous
answer arrived.  Inputs come from ``numpy.random.default_rng([seed, ...])``
alone, so one seed always yields the same datasets, pan path, probe
batches and update moves.

Answers are recorded during the timed phase and checked after it by
:class:`Verifier` against :mod:`oracle`, so checking costs no time inside
any measured latency.  Between operations the timed phase lets the
:class:`calibrate.Calibrator` time a reference burst while the server is
idle; every sample keeps the time it was taken at, so it can be scaled
by the machine speed of its moment.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

import oracle
from calibrate import Calibrator
from server import Client, OpFailed, Ops, ServerProcess

__all__ = ["WORKLOADS", "Verifier", "Samples"]

METRICS = ("l2", "l1", "linf")
TILE = 256
QUERY_POINTS = 5000

# fresh-map: a new clustered dataset per iteration, built under each metric.
FRESH_CLIENTS, FRESH_FACILITIES, FRESH_CLUSTERS, FRESH_SIGMA = 200, 40, 16, 0.04
FRESH_VMAX = 12.0
FRESH_PIXELS = 256          # pixel centres of the z=0 tile checked per map

# viewer-pan: a stratified uniform 600 x 120 L2 instance, 3x3 viewports at z=5.
PAN_CLIENTS, PAN_FACILITIES, PAN_Z, PAN_VIEW = 600, 120, 5, 3
PAN_VMAX = 8.0
PAN_BATCHES = 16            # distinct probe batches connection B cycles over
PAN_CHECK_TILES, PAN_CHECK_PIXELS = 8, 64

# live-update: a dynamic stratified uniform 200 x 40 L2 map, 4x4 viewport at z=2.
LIVE_CLIENTS, LIVE_FACILITIES, LIVE_Z = 200, 40, 2
LIVE_VMAX = 8.0
LIVE_NUDGES, LIVE_STEP = 2, 0.01
LIVE_CHECK_TILES, LIVE_CHECK_PIXELS = 4, 16


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def clustered(rng, n: int, m: int) -> "tuple[np.ndarray, np.ndarray]":
    """Clients and facilities from one Gaussian mixture over the unit square.

    Cluster centres are jittered cells of a regular grid and points are
    dealt to clusters in turn, so every dataset has the same coarse
    structure and build cost varies little by seed.  Points are not
    clipped to the square: clipping stacks points on its edges, and on
    one such input (several clients and a facility at x = 0) the default
    L2 engine labelled a region with a wrong heat.
    """
    side = int(np.sqrt(FRESH_CLUSTERS))
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    centres = (grid + 0.5) / side + (rng.random((FRESH_CLUSTERS, 2)) - 0.5) * (0.5 / side)

    def draw(count: int) -> np.ndarray:
        pick = (np.arange(count) + rng.integers(0, FRESH_CLUSTERS)) % FRESH_CLUSTERS
        return centres[pick] + rng.normal(0, FRESH_SIGMA, (count, 2))

    return draw(n), draw(m)


def stratified(rng, n: int, m: int) -> "tuple[np.ndarray, np.ndarray]":
    """Uniform clients and facilities, one point per cell of a grid over
    the unit square (``rows`` the largest divisor of the count up to its
    square root).  Plain uniform draws clump differently from seed to
    seed: over eight seeds of 200 x 40 the fragment count ran from 7500
    to 11800 and a live-update cycle's median cost varied by 0.38
    (quartile spread over median); one point per cell brought that to
    0.10 at the same density.
    """
    def draw(count: int) -> np.ndarray:
        rows = max(d for d in range(1, int(np.sqrt(count)) + 1) if count % d == 0)
        cols = count // rows
        cells = np.stack(np.meshgrid(np.arange(cols), np.arange(rows)), -1).reshape(-1, 2)
        return (cells + rng.random((count, 2))) / [cols, rows]

    return draw(n), draw(m)


#: Dataset index of fresh-map's warm-up dataset (timed datasets count from 0).
WARMUP = 1 << 20


def fresh_dataset(seed: int, it: int):
    return clustered(np.random.default_rng([seed, 1, it]), FRESH_CLIENTS, FRESH_FACILITIES)


def pan_dataset(seed: int):
    return stratified(np.random.default_rng([seed, 2]), PAN_CLIENTS, PAN_FACILITIES)


def live_dataset(seed: int):
    return stratified(np.random.default_rng([seed, 3]), LIVE_CLIENTS, LIVE_FACILITIES)


def in_world(rng, world, n: int) -> np.ndarray:
    x_lo, x_hi, y_lo, y_hi = world
    return np.column_stack([
        x_lo + rng.random(n) * (x_hi - x_lo), y_lo + rng.random(n) * (y_hi - y_lo)
    ])


def probe_batch(seed: int, stream: int, i: int, world, extra=None) -> np.ndarray:
    """``QUERY_POINTS`` probes: uniform over the world plus ``extra`` rows."""
    extra = np.empty((0, 2)) if extra is None else extra
    rng = np.random.default_rng([seed, stream, i])
    return np.vstack([in_world(rng, world, QUERY_POINTS - len(extra)), extra])


def sample_pixels(rng, count: int) -> "tuple[np.ndarray, np.ndarray]":
    return rng.integers(0, TILE, count), rng.integers(0, TILE, count)


class PanPath:
    """A seeded serpentine walk of 3x3 viewports, one tile-step at a time.

    The walk runs along a band of rows to the level's edge, climbs one
    viewport height in single steps, and runs back along the next band.
    Every step therefore brings exactly three never-held tiles into view
    (cold) and keeps six held ones (revalidated), so one pan step costs
    the same all along the path.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        self.limit = (1 << PAN_Z) - PAN_VIEW
        self.x = int(rng.integers(0, self.limit + 1))
        self.y = int(rng.integers(0, PAN_VIEW))
        self.dx = int(rng.choice((-1, 1)))
        self.dy = 1
        self.climb = 0

    def view(self) -> "list[tuple[int, int]]":
        return [
            (self.x + dx, self.y + dy)
            for dy in range(PAN_VIEW) for dx in range(PAN_VIEW)
        ]

    def step(self) -> None:
        if not self.climb and 0 <= self.x + self.dx <= self.limit:
            self.x += self.dx
            return
        if not self.climb:
            self.climb = PAN_VIEW
            self.dx = -self.dx
        if not 0 <= self.y + self.dy <= self.limit:
            self.dy = -self.dy
        self.y += self.dy
        self.climb -= 1


def nudges(seed: int, cycle: int, clients, radii, facilities, world):
    """Cycle ``cycle``'s ``LIVE_NUDGES`` short client moves:
    ``(client, new position, new radius, tile)`` each.

    A client moves only when its NN circle lies strictly inside one
    viewport tile before and after the move, and each moved client sits
    in a different tile column.  The circles never touch the world edge,
    so the world rectangle (the level-0 tile) cannot change and the server
    may drop just the dirty tiles; every update dirties exactly the tiles
    of its moves.  The server re-sweeps one x-band per moved circle (bands
    that overlap merge) and re-renders the pixel window of each moved
    circle, so distinct columns and radii from the middle half of all
    radii keep the cycles' work alike.
    """
    rng = np.random.default_rng([seed, 5, cycle])
    n = 1 << LIVE_Z
    margin = 1e-3 * (world[1] - world[0])

    def tile_of(p, r):
        """The tile strictly containing the circle, or None."""
        for ty in range(n):
            for tx in range(n):
                x_lo, x_hi, y_lo, y_hi = oracle.tile_rect(world, LIVE_Z, tx, ty)
                if (p[0] - r > x_lo + margin and p[0] + r < x_hi - margin
                        and p[1] - r > y_lo + margin and p[1] + r < y_hi - margin):
                    return tx, ty
        return None

    r_lo, r_hi = np.quantile(radii, [0.25, 0.75])
    moves, used = [], set()
    for h in rng.permutation(len(clients)):
        if not r_lo <= radii[h] <= r_hi:
            continue
        tile = tile_of(clients[h], radii[h])
        if tile is None or tile[0] in used:
            continue
        new = clients[h] + rng.normal(0, LIVE_STEP, 2)
        r_new = oracle.nn_radii(new[None], facilities, "l2")[0]
        if tile_of(new, r_new) == tile:
            moves.append((int(h), new, r_new, tile))
            used.add(tile[0])
            if len(moves) == LIVE_NUDGES:
                return moves
    raise RuntimeError("too few clients can move inside one tile")


# ----------------------------------------------------------------------
# Measurement plumbing
# ----------------------------------------------------------------------
class Samples:
    """Latency samples in milliseconds, by name, each with the time of its
    midpoint (appends are thread-safe)."""

    def __init__(self) -> None:
        self.by_name: "dict[str, list[float]]" = {}
        self.at: "dict[str, list[float]]" = {}
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float) -> None:
        mid = time.perf_counter() - seconds / 2
        with self._lock:
            self.by_name.setdefault(name, []).append(seconds * 1e3)
            self.at.setdefault(name, []).append(mid)

    def get(self, name: str) -> "list[float]":
        """Raw milliseconds."""
        return self.by_name.get(name, [])

    def scaled(self, name: str, cal: Calibrator) -> "list[float]":
        """Milliseconds at reference speed (see :mod:`calibrate`)."""
        return [ms * cal.scale(t) for ms, t in zip(self.get(name), self.at.get(name, []))]


class Verifier:
    """Deferred correctness checks; every wrong answer is a failed op.

    * every ``/query`` answer equals the brute-force RNN count at each
      probe (ties within :data:`oracle._TIE` of a circle edge excluded);
    * sampled tile pixels carry the colour of the ``/query`` heat at their
      centres — exactly for L2 and L-infinity; for L1 the mismatch share
      is reported instead (``render.l1_pixel_mismatch_frac``).
    """

    def __init__(self, ops: Ops) -> None:
        self.ops = ops
        self._queries: list = []
        self._tiles: list = []
        self.queries_checked = 0
        self.points_checked = 0
        self.points_ambiguous = 0
        self.pixels = {m: [0, 0] for m in METRICS}   # metric -> [checked, bad]

    def query(self, label, points, answers, clients, radii, metric) -> None:
        self._queries.append((label, points, np.asarray(answers), clients, radii, metric))

    def tile(self, label, png, rows, cols, heats, metric, vmax) -> None:
        self._tiles.append((label, png, rows, cols, np.asarray(heats), metric, vmax))

    def run(self) -> None:
        from repro.render.colormap import apply_colormap
        from repro.render.png import decode_png

        for label, points, answers, clients, radii, metric in self._queries:
            want, tie = oracle.heat_counts(points, clients, radii, metric)
            self.queries_checked += 1
            self.points_checked += int((~tie).sum())
            self.points_ambiguous += int(tie.sum())
            if len(answers) != len(points):
                self.ops.fail(f"{label}: {len(answers)} answers for {len(points)} points")
                continue
            bad = np.nonzero((answers != want) & ~tie)[0]
            if bad.size:
                i = bad[0]
                self.ops.fail(
                    f"{label}: {bad.size} wrong heats, e.g. {points[i].tolist()} "
                    f"-> {answers[i]} (brute force {want[i]})"
                )
        for label, png, rows, cols, heats, metric, vmax in self._tiles:
            image = decode_png(png)
            got = image[rows, cols]
            want = apply_colormap(heats[None, :], "heat", vmax=vmax)[0]
            bad = int((got != want).any(axis=1).sum())
            self.pixels[metric][0] += len(rows)
            self.pixels[metric][1] += bad
            if bad and metric != "l1":
                self.ops.fail(f"{label}: {bad}/{len(rows)} pixels differ from /query")
        self._queries.clear()
        self._tiles.clear()

    def l1_mismatch_frac(self) -> "float | None":
        checked, bad = self.pixels["l1"]
        return bad / checked if checked else None


def tile_path(handle: str, z: int, tx: int, ty: int, vmax: float) -> str:
    return f"/tiles/{handle}/{z}/{tx}/{ty}.png?placeholder=0&vmax={vmax!r}"


def _body(points: np.ndarray) -> bytes:
    return json.dumps({"kind": "heat", "points": points.tolist()}).encode()


def _timed_query(client, samples, name, handle, body) -> np.ndarray:
    t0 = time.perf_counter()
    _s, data, _h = client.request("POST", f"/query/{handle}", body=body)
    samples.add(name, time.perf_counter() - t0)
    return np.asarray(json.loads(data)["heats"])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up and timed phase of one traffic mix over HTTP.

    ``setup`` runs on every fresh server (the benchmark repeats it to time
    set-up) and returns the state the timed phase starts from.  ``timed``
    runs until ``deadline``, and in any case through its first
    ``counted`` units (datasets, pan steps or update cycles): after that
    many it calls ``stats_hook(client, cold)``, if set, with the number of
    *cold* real tiles fetched so far, so ``/stats`` deltas cover a fixed
    amount of work and repeat run after run.  Between units it calls
    :meth:`pace`, which times a calibration burst when one is due.
    """

    name = ""
    setups = 3
    counted = 8
    connections = 1

    def __init__(
        self, seed: int, samples: Samples, verifier: Verifier, cal: Calibrator
    ) -> None:
        self.seed = seed
        self.samples = samples
        self.verifier = verifier
        self.cal = cal
        self.stats_hook = None
        self.info: dict = {}

    def setup(self, server: ServerProcess, client: Client):
        return None

    def timed(self, server, client, state, deadline: float) -> None:
        raise NotImplementedError

    def running(self, done: int, deadline: float) -> bool:
        return done < self.counted or time.perf_counter() < deadline

    def units_done(self, client, done: int, cold: int) -> None:
        if done == self.counted and self.stats_hook is not None:
            self.stats_hook(client, cold)

    def pace(self) -> None:
        if self.cal.due():
            self.cal.burst()


class FreshMap(Workload):
    """Post a new dataset, build it under each metric, look at it.

    One sample is one dataset viewed under all three metrics: *visible*
    is the sum of its three time-to-first-tile latencies, and *tile*,
    *revalidate* and *query* likewise sum that operation over the three
    maps (per-metric samples are kept too, for the printed breakdown).
    Summing keeps every sample the same mix of L2, L1 and L-infinity work.
    Set-up views one warm-up dataset, so the timed phase starts with
    every code path of the three builds already run once.
    """

    name = "fresh-map"
    counted = 2

    def setup(self, server, client):
        self.view(client, Samples(), WARMUP, None)

    def timed(self, server, client, state, deadline) -> None:
        maps = 0
        it = 0
        while self.running(it, deadline):
            self.pace()
            maps += self.view(client, self.samples, it, deadline if it >= self.counted else None)
            it += 1
            self.units_done(client, it, maps)
        self.info["datasets"] = it
        self.info["maps"] = maps

    def view(self, client, s: Samples, it: int, deadline) -> int:
        """Upload dataset ``it`` and view it under each metric in turn."""
        clients, facilities = fresh_dataset(self.seed, it)
        rng = np.random.default_rng([self.seed, 6, it])
        dataset = client.json("POST", "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })["dataset"]
        sums = dict.fromkeys(("visible", "tile", "revalidate", "query"), 0.0)
        viewed = 0
        for k, metric in enumerate(METRICS):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            radii = oracle.nn_radii(clients, facilities, metric)
            world = oracle.world_rect(clients, radii, metric)
            rows, cols = sample_pixels(rng, FRESH_PIXELS)
            centres = oracle.pixel_centres(world, TILE, rows, cols)
            points = probe_batch(self.seed, 7, 3 * it + k, world, centres)
            body = _body(points)
            t0 = time.perf_counter()
            handle = client.build(dataset, metric=metric)
            t_ready = time.perf_counter()
            path = tile_path(handle, 0, 0, 0, FRESH_VMAX)
            _s, png, headers = client.request("GET", path)
            t1 = time.perf_counter()
            status, _b, _h = client.request(
                "GET", path, headers={"If-None-Match": headers["etag"]}
            )
            t2 = time.perf_counter()
            if status != 304:
                client.ops.fail(f"{path}: revalidation answered {status}")
            heats = _timed_query(client, s, f"query.{metric}", handle, body)
            t3 = time.perf_counter()
            s.add(f"ttft.{metric}", t1 - t0)
            s.add(f"build_per_1k.{metric}", (t_ready - t0) / (len(clients) / 1000))
            s.add(f"tile.{metric}", t1 - t_ready)
            for name, dt in (("visible", t1 - t0), ("tile", t1 - t_ready),
                             ("revalidate", t2 - t1), ("query", t3 - t2)):
                sums[name] += dt
            viewed += 1
            label = f"fresh-map dataset {it} {metric}"
            self.verifier.query(label, points, heats, clients, radii, metric)
            self.verifier.tile(
                label, png, rows, cols, heats[-FRESH_PIXELS:], metric, FRESH_VMAX
            )
        if viewed == len(METRICS):
            for name, total in sums.items():
                s.add(name, total)
        return viewed


class ViewerPan(Workload):
    """Pan 3x3 viewports over z=5 on one connection; probe on another."""

    name = "viewer-pan"
    connections = 2

    def setup(self, server, client):
        clients, facilities = pan_dataset(self.seed)
        radii = oracle.nn_radii(clients, facilities, "l2")
        world = oracle.world_rect(clients, radii, "l2")
        dataset = client.json("POST", "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })["dataset"]
        t0 = time.perf_counter()
        handle = client.build(dataset, metric="l2")
        t_ready = time.perf_counter()
        client.request("GET", tile_path(handle, 0, 0, 0, PAN_VMAX))
        t1 = time.perf_counter()
        self.samples.add("ttft.l2", t1 - t0)
        self.samples.add("build_per_1k.l2", (t_ready - t0) / (len(clients) / 1000))
        warm = probe_batch(self.seed, 8, 0, world)
        heats = _timed_query(client, Samples(), "warm", handle, _body(warm))
        self.verifier.query("viewer-pan warm-up", warm, heats, clients, radii, "l2")
        return {"handle": handle, "clients": clients, "radii": radii, "world": world}

    def timed(self, server, client, state, deadline) -> None:
        handle, world = state["handle"], state["world"]
        batches = [probe_batch(self.seed, 9, i, world) for i in range(PAN_BATCHES)]
        bodies = [_body(b) for b in batches]
        answers: "list[list[np.ndarray]]" = [[] for _ in batches]
        held: "dict[tuple[int, int], tuple[str, bytes]]" = {}
        s = self.samples
        stop = threading.Event()
        # Connection B holds ``idle`` around each query and starts none
        # while ``want_idle`` is set, so A can time a calibration burst
        # on an idle server.
        want_idle = threading.Event()
        idle = threading.Lock()

        def prober(conn: Client) -> None:
            i = 0
            while not stop.is_set() and time.perf_counter() < deadline:
                while want_idle.is_set() and not stop.is_set():
                    time.sleep(0.001)
                with idle:
                    k = i % PAN_BATCHES
                    answers[k].append(_timed_query(conn, s, "query", handle, bodies[k]))
                i += 1

        def pan_step(path: PanPath, first: bool) -> None:
            t0 = time.perf_counter()
            for tx, ty in path.view():
                url = tile_path(handle, PAN_Z, tx, ty, PAN_VMAX)
                t = time.perf_counter()
                if (tx, ty) not in held:
                    _s, png, headers = client.request("GET", url)
                    s.add("tile", time.perf_counter() - t)
                    held[(tx, ty)] = (headers["etag"], png)
                else:
                    status, _b, _h = client.request(
                        "GET", url, headers={"If-None-Match": held[(tx, ty)][0]}
                    )
                    s.add("revalidate", time.perf_counter() - t)
                    if status != 304:
                        client.ops.fail(f"{url}: revalidation answered {status}")
            if not first:   # the initial viewport load is not a pan step
                s.add("visible", time.perf_counter() - t0)
            path.step()

        path = PanPath(self.seed)
        second = Client(server, client.ops)
        thread = threading.Thread(target=_guarded, args=(prober, second, stop))
        thread.start()
        try:
            steps = 0
            while self.running(steps, deadline) and not stop.is_set():
                if self.cal.due():
                    want_idle.set()
                    with idle:
                        self.cal.burst()
                    want_idle.clear()
                pan_step(path, steps == 0)
                steps += 1
                self.units_done(client, steps, len(held))
        finally:
            stop.set()
            thread.join()
            second.close()

        # The map is static: every answer to one batch must be identical,
        # so the first is checked by brute force and the rest against it.
        clients, radii = state["clients"], state["radii"]
        for k, batch in enumerate(batches):
            if not answers[k]:
                continue
            self.verifier.query(
                f"viewer-pan batch {k}", batch, answers[k][0], clients, radii, "l2"
            )
            for j, heats in enumerate(answers[k][1:], 1):
                if not np.array_equal(heats, answers[k][0]):
                    client.ops.fail(f"viewer-pan batch {k}#{j}: answer changed")
        self._check_tiles(client, state, held)
        self.info["pan_steps"] = len(s.get("visible"))
        self.info["tiles_held"] = len(held)

    def _check_tiles(self, client, state, held) -> None:
        """Sampled pixels of sampled held tiles against one /query."""
        rng = np.random.default_rng([self.seed, 10])
        keys = sorted(held)
        picks = [keys[i] for i in rng.permutation(len(keys))[:PAN_CHECK_TILES]]
        per_tile = []
        for tx, ty in picks:
            rows, cols = sample_pixels(rng, PAN_CHECK_PIXELS)
            rect = oracle.tile_rect(state["world"], PAN_Z, tx, ty)
            per_tile.append((tx, ty, rows, cols, oracle.pixel_centres(rect, TILE, rows, cols)))
        points = np.vstack([p[-1] for p in per_tile])
        heats = _timed_query(client, Samples(), "check", state["handle"], _body(points))
        self.verifier.query(
            "viewer-pan pixel check", points, heats, state["clients"], state["radii"], "l2"
        )
        for i, (tx, ty, rows, cols, _c) in enumerate(per_tile):
            part = heats[i * PAN_CHECK_PIXELS:(i + 1) * PAN_CHECK_PIXELS]
            self.verifier.tile(
                f"viewer-pan tile {tx},{ty}", held[(tx, ty)][1], rows, cols, part,
                "l2", PAN_VMAX,
            )


class LiveUpdate(Workload):
    """Nudge clients, revalidate the whole viewport, probe the new map."""

    name = "live-update"

    def setup(self, server, client):
        clients, facilities = live_dataset(self.seed)
        radii = oracle.nn_radii(clients, facilities, "l2")
        world = oracle.world_rect(clients, radii, "l2")
        dataset = client.json("POST", "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })["dataset"]
        t0 = time.perf_counter()
        handle = client.build(dataset, metric="l2", dynamic=True)
        t_ready = time.perf_counter()
        self.samples.add("build_per_1k.l2", (t_ready - t0) / (len(clients) / 1000))
        held = {}
        n = 1 << LIVE_Z
        for ty in range(n):
            for tx in range(n):
                _s, png, headers = client.request(
                    "GET", tile_path(handle, LIVE_Z, tx, ty, LIVE_VMAX)
                )
                if not held:
                    self.samples.add("ttft.l2", time.perf_counter() - t0)
                held[(tx, ty)] = (headers["etag"], png)
        return {
            "handle": handle, "clients": clients.copy(), "facilities": facilities,
            "radii": radii, "world": world, "held": held,
        }

    def timed(self, server, client, state, deadline) -> None:
        handle, world, held = state["handle"], state["world"], state["held"]
        clients, radii, facilities = state["clients"], state["radii"], state["facilities"]
        rng = np.random.default_rng([self.seed, 11])
        s = self.samples
        cold = 0
        cycle = 0
        while self.running(cycle, deadline):
            self.pace()
            moves = nudges(self.seed, cycle, clients, radii, facilities, world)
            for h, new, r_new, _tile in moves:
                clients[h] = new
                radii[h] = r_new
            body = {"updates": [
                {"op": "move_client", "handle": h, "x": float(p[0]), "y": float(p[1])}
                for h, p, _r, _tile in moves
            ]}
            t0 = time.perf_counter()
            client.request("POST", f"/update/{handle}", body)
            fetched = set()
            for (tx, ty), (etag, _png) in list(held.items()):
                url = tile_path(handle, LIVE_Z, tx, ty, LIVE_VMAX)
                t = time.perf_counter()
                status, png, headers = client.request(
                    "GET", url, headers={"If-None-Match": etag}
                )
                if status == 200:
                    s.add("tile", time.perf_counter() - t)
                    held[(tx, ty)] = (headers["etag"], png)
                    fetched.add((tx, ty))
                else:
                    s.add("revalidate", time.perf_counter() - t)
            s.add("visible", time.perf_counter() - t0)
            label = f"live-update cycle {cycle}"
            dirty = {tile for _h, _p, _r, tile in moves}
            if fetched != dirty:
                client.ops.fail(
                    f"{label}: tiles {sorted(fetched)} came back 200, "
                    f"the moves dirtied {sorted(dirty)}"
                )
            cold += len(fetched)
            keys = sorted(held)
            picks = [keys[i] for i in rng.permutation(len(keys))[:LIVE_CHECK_TILES]]
            checks = []
            for tx, ty in picks:
                rows, cols = sample_pixels(rng, LIVE_CHECK_PIXELS)
                rect = oracle.tile_rect(world, LIVE_Z, tx, ty)
                checks.append((tx, ty, rows, cols, oracle.pixel_centres(rect, TILE, rows, cols)))
            extra = np.vstack([c[-1] for c in checks])
            points = probe_batch(self.seed, 12, cycle, world, extra)
            self.pace()
            heats = _timed_query(client, s, "query", handle, _body(points))
            self.verifier.query(label, points, heats, clients.copy(), radii.copy(), "l2")
            base = QUERY_POINTS - len(extra)
            for i, (tx, ty, rows, cols, _c) in enumerate(checks):
                part = heats[base + i * LIVE_CHECK_PIXELS:base + (i + 1) * LIVE_CHECK_PIXELS]
                self.verifier.tile(
                    f"{label} tile {tx},{ty}", held[(tx, ty)][1], rows, cols, part,
                    "l2", LIVE_VMAX,
                )
            cycle += 1
            self.units_done(client, cycle, cold)
        self.info["cycles"] = cycle
        self.info["updates"] = cycle


def _guarded(fn, conn: Client, stop: threading.Event) -> None:
    """Run a connection's loop; a failed op ends it (already counted)."""
    try:
        fn(conn)
    except OpFailed:
        stop.set()


WORKLOADS = {w.name: w for w in (FreshMap, ViewerPan, LiveUpdate)}
