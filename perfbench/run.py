"""End-to-end benchmark of the heat-map HTTP server.

Run from the repository root::

    python3 perfbench/run.py --workload fresh-map --seed 1 --seconds 25 --trace 0

Each run starts ``python -m repro serve-http --port 0`` (default flags) in
a fresh process, drives it from this one process over real sockets in a
closed loop, and checks every answer (see ``README.md`` in this directory
for the workloads, metrics and what each layer metric should move).

``--trace 0`` repeats the set-up on fresh servers to time it, runs the
timed phase and reports the end-to-end metrics, in ms (or s) at reference
speed (see ``calibrate.py``; the raw timings are printed as ``raw.*``).
``--trace 1`` sets up once, runs the same timed phase with ``/stats``
deltas around its first units of work, then replays the workload
in-process with spans around each layer's calls and reports the
per-layer metrics.

Human-readable lines name every metric with its unit; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A record with provenance, every metric and the sample counts is written
to ``.perfbench/`` (and the spans, for ``--trace 1``).  The exit code is 0
when every answer was right, 1 when one was wrong, 2 when the server could
not be run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from calibrate import NOMINAL_MS, Calibrator, placement  # noqa: E402
from server import Client, OpFailed, Ops, ServerProcess  # noqa: E402

#: The whole run, set-ups and checks included, must end well inside this.
WATCHDOG_S = 170.0
HEALTHZ_PROBES = 40

#: Metrics reported on every workload with ``--trace 0`` (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "visible_p50_ms": "ms",
    "tile_p50_ms": "ms",
    "query_p75_ms": "ms",
    "server_rss_peak_mb": "MB",
}

#: Metrics reported on every workload with ``--trace 1`` (name -> unit).
PER_LAYER = {
    "nn.circles_ms": "ms",
    "core.sweep_s": "s",
    "core.events": "count",
    "core.labels": "count",
    "core.fragments": "count",
    "core.bounds_ms": "ms",
    "core.table_build_ms": "ms",
    "core.locate_ms": "ms",
    "render.raster_ms.p50": "ms",
    "render.raster_ms.p90": "ms",
    "render.raster_ms.first": "ms",
    "render.colormap_ms": "ms",
    "render.png_ms": "ms",
    "render.png_bytes": "bytes",
    "server.decode_points_ms": "ms",
    "server.encode_heats_ms": "ms",
    "server.healthz_ms": "ms",
    "server.overhead_ms.tile": "ms",
    "server.overhead_ms.query": "ms",
    "service.tile_renders": "count",
    "service.tile_cache_hits": "count",
    "service.coalesced_tiles": "count",
    "service.renders_per_cold_tile": "ratio",
    "service.builds": "count",
    "service.invalidations": "count",
    "service.partial_invalidations": "count",
    "service.tiles_dropped_partial": "count",
    "service.tile_rerenders_partial": "count",
    "server.not_modified": "count",
    "server.responses_5xx": "count",
    "server.shed_requests": "count",
    "trace.overhead_frac": "ratio",
}

_SERVICE_DELTAS = (
    "tile_renders", "tile_cache_hits", "coalesced_tiles", "builds",
    "invalidations", "partial_invalidations", "tiles_dropped_partial",
    "tile_rerenders_partial",
)
_HTTP_DELTAS = ("not_modified", "responses_5xx", "shed_requests")


def median(xs) -> float:
    if not xs:
        raise ValueError("no samples")
    return float(statistics.median(xs))


def p75(xs) -> float:
    if len(xs) < 2:
        return median(xs)
    return float(statistics.quantiles(xs, n=4, method="inclusive")[-1])


def p90(xs) -> float:
    if len(xs) < 2:
        return median(xs)
    return float(statistics.quantiles(xs, n=10, method="inclusive")[-1])


class Run:
    """One benchmark invocation: servers, counters, metrics, record."""

    def __init__(self, args) -> None:
        import workloads

        self.args = args
        self.out = ROOT / ".perfbench"
        self.out.mkdir(exist_ok=True)
        kind = workloads.WORKLOADS[args.workload]
        home, self.server_cpus = placement(kind.connections)
        os.sched_setaffinity(0, home)
        self.ops = Ops()
        self.cal = Calibrator(home, self.server_cpus)
        self.samples = workloads.Samples()
        self.verifier = workloads.Verifier(self.ops)
        self.workload = kind(args.seed, self.samples, self.verifier, self.cal)
        self.metrics: "dict[str, tuple[float, str]]" = {}
        self.extra: "dict[str, tuple[float, str]]" = {}
        self.counts: "dict[str, int]" = {}
        self.live: "list[ServerProcess]" = []
        self.record: dict = {}

    # -- servers ---------------------------------------------------------
    def spawn(self, k: int) -> ServerProcess:
        log = self.out / f"server-{self.args.workload}-{k}.log"
        server = ServerProcess(ROOT, log, self.server_cpus)
        self.live.append(server)
        return server

    def stop(self, server: ServerProcess) -> None:
        server.stop()
        self.live.remove(server)

    def stop_all(self) -> None:
        for server in list(self.live):
            self.stop(server)

    def abort(self) -> None:
        """Watchdog: kill every server this run started, then exit."""
        for server in list(self.live):
            server.proc.kill()
            server.proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr, flush=True)
        os._exit(3)

    # -- phases ----------------------------------------------------------
    def execute(self) -> None:
        trace = bool(self.args.trace)
        repeats = 1 if trace else self.workload.setups
        setup_times = []
        for k in range(repeats):
            ref_before = self.cal.burst()
            t0 = time.perf_counter()
            server = self.spawn(k)
            client = Client(server, self.ops)
            state = self.workload.setup(server, client)
            seconds = time.perf_counter() - t0
            ref_after = self.cal.burst()
            setup_times.append((seconds, seconds * 2 * NOMINAL_MS / (ref_before + ref_after)))
            if k < repeats - 1:
                client.close()
                self.stop(server)
        if trace:
            before = client.stats()
            self.workload.stats_hook = lambda conn, cold: self._stats_deltas(
                before, conn.stats(), cold
            )
        deadline = time.perf_counter() + self.args.seconds
        self.workload.timed(server, client, state, deadline)
        self.cal.burst()
        if trace:
            healthz = []
            for _ in range(HEALTHZ_PROBES):
                t = time.perf_counter()
                client.request("GET", "/healthz")
                healthz.append((time.perf_counter() - t) * 1e3)
            self._put("server.healthz_ms", median(healthz), "ms")
        rss = server.peak_rss_mb()
        client.close()
        self.stop_all()
        self.verifier.run()
        self._end_to_end(setup_times, rss)
        if trace:
            self._per_layer()

    def _put(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if name in END_TO_END or name in PER_LAYER:
            self.metrics[name] = (value, unit)
        else:
            self.extra[name] = (value, unit)

    def _value(self, name: str) -> float:
        return (self.metrics.get(name) or self.extra[name])[0]

    def _stats_deltas(self, before: dict, after: dict, cold_tiles: int) -> None:
        """Counter deltas over the timed phase's first ``counted`` units."""
        for key in _SERVICE_DELTAS:
            self._put(f"service.{key}", after["service"][key] - before["service"][key], "count")
        for key in _HTTP_DELTAS:
            self._put(f"server.{key}", after["http"][key] - before["http"][key], "count")
        renders = after["service"]["tile_renders"] - before["service"]["tile_renders"]
        self._put("service.renders_per_cold_tile", renders / max(cold_tiles, 1), "ratio")
        if self.args.workload == "live-update":
            updates = self.workload.counted
            dropped = (after["service"]["tiles_dropped_partial"]
                       - before["service"]["tiles_dropped_partial"])
            self._put("service.dirty_tiles_per_update", dropped / updates, "ratio")

    def _end_to_end(self, setup_times, rss: float) -> None:
        """Timings at reference speed; the raw ones as ``raw.<name>``."""
        def ms(name: str) -> "list[float]":
            return self.samples.scaled(name, self.cal)

        raw = self.samples.get
        self._put("setup_s", median([t for _raw, t in setup_times]), "s")
        self._put("raw.setup_s", median([t for t, _scaled in setup_times]), "s")
        for metric in ("l2", "l1", "linf"):
            if ms(f"ttft.{metric}"):
                self._put(f"ttft_ms.{metric}", median(ms(f"ttft.{metric}")), "ms")
                self._put(
                    f"build_s_per_1k_clients.{metric}",
                    median(ms(f"build_per_1k.{metric}")) / 1e3, "s",
                )
            for name in ("tile", "query"):
                if ms(f"{name}.{metric}"):
                    self._put(f"{name}_p50_ms.{metric}", median(ms(f"{name}.{metric}")), "ms")
        for name in ("visible", "tile", "revalidate", "query"):
            self._put(f"{name}_p50_ms", median(ms(name)), "ms")
            self._put(f"{name}_p90_ms", p90(ms(name)), "ms")
            self._put(f"raw.{name}_p50_ms", median(raw(name)), "ms")
            self._put(f"raw.{name}_p90_ms", p90(raw(name)), "ms")
            self.counts[f"{name}_samples"] = len(raw(name))
        self._put("query_p75_ms", p75(ms("query")), "ms")
        self._put("raw.query_p75_ms", p75(raw("query")), "ms")
        if self.args.workload == "live-update":
            self._put("update_visible_p50_ms", median(ms("visible")), "ms")
            self._put("update_visible_p90_ms", p90(ms("visible")), "ms")
        refs = self.cal.refs
        self._put("calibration.reference_p50_ms", median(refs), "ms")
        self._put("calibration.reference_max_over_min", max(refs) / min(refs), "ratio")
        self.counts["calibration_bursts"] = len(refs)
        self._put("server_rss_peak_mb", rss, "MB")
        self._put("failed_frac", self.ops.failed / max(self.ops.attempted, 1), "ratio")
        l1 = self.verifier.l1_mismatch_frac()
        if l1 is not None:
            self._put("render.l1_pixel_mismatch_frac", l1, "ratio")

    def _per_layer(self) -> None:
        import replay

        tracer, counts, wall_off, wall_on = replay.replay(self.args.workload, self.args.seed)
        tracer.dump(self.out / f"spans-{self.args.workload}-seed{self.args.seed}.json")
        self._put("trace.overhead_frac", wall_on / wall_off - 1.0, "ratio")
        self._put("trace.replay_untraced_s", wall_off, "s")
        self._put("trace.replay_traced_s", wall_on, "s")

        def layer_metrics(st: dict, suffix: str = "") -> None:
            def put_ms(name, span, scale=1.0, unit="ms"):
                if st.get(span):
                    self._put(name + suffix, median(st[span]) * scale, unit)

            put_ms("nn.circles_ms", "nn.circles")
            put_ms("core.sweep_s", "core.sweep", 1e-3, "s")
            put_ms("core.bounds_ms", "core.bounds")
            put_ms("core.table_build_ms", "core.table_build")
            put_ms("core.locate_ms", "core.locate")
            put_ms("render.raster_ms.first", "render.raster.first")
            put_ms("dynamic.apply_ms", "dynamic.apply")
            put_ms("dynamic.resweep_ms", "dynamic.resweep")

        st = tracer.self_times()
        layer_metrics(st)
        raster = st.get("render.raster", []) + st.get("render.raster.first", [])
        self._put("render.raster_ms.p50", median(raster), "ms")
        self._put("render.raster_ms.p90", p90(raster), "ms")
        self._put("render.colormap_ms", median(st["render.colormap"]), "ms")
        self._put("render.png_ms", median(st["render.png"]), "ms")
        self._put("render.png_bytes", median(counts.pop("render.png_bytes")), "bytes")
        self._put("server.decode_points_ms", median(st["server.decode_points"]), "ms")
        self._put("server.encode_heats_ms", median(st["server.encode_heats"]), "ms")
        def in_process(op: str) -> float:
            """The replay's counterpart of one end-to-end sample of ``op``
            (fresh-map samples sum the three metrics' operations)."""
            if self.args.workload == "fresh-map":
                return sum(median(tracer.durations(op, m)) for m in ("l2", "l1", "linf"))
            return median(tracer.durations(op))

        for name in ("tile", "query"):
            self._put(
                f"server.overhead_ms.{name}",
                self._value(f"raw.{name}_p50_ms") - in_process(f"op.{name}"), "ms",
            )
        for name, value in counts.items():
            unit = "ratio" if isinstance(value, float) else "count"
            self._put(name, value, unit)
        if self.args.workload == "fresh-map":
            for metric in ("l2", "l1", "linf"):
                layer_metrics(tracer.self_times(metric), f".{metric}")
        layers: "dict[str, float]" = {}
        for name, values in st.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + sum(values)
        for layer, total in layers.items():
            self.extra[f"self_ms.{layer}"] = (total, "ms")

    # -- output ----------------------------------------------------------
    def report(self) -> dict:
        wanted = PER_LAYER if self.args.trace else END_TO_END
        missing = [name for name in wanted if name not in self.metrics]
        if missing and not self.ops.failed:
            raise RuntimeError(f"metrics not measured: {missing}")
        shown = {
            name: self.metrics[name] for name in wanted if name in self.metrics
        }
        for name, (value, unit) in sorted({**self.metrics, **self.extra}.items()):
            tag = "" if name in shown else "  (not in the result line)"
            print(f"{name:36s} {value:14.4f} {unit}{tag}")
        for name, n in sorted(self.counts.items()):
            print(f"{name:36s} {n:14d} samples")
        print(
            f"checked {self.verifier.queries_checked} query answers "
            f"({self.verifier.points_checked} points, "
            f"{self.verifier.points_ambiguous} on a circle edge left out); "
            f"pixels checked/different: "
            + ", ".join(f"{m} {c}/{b}" for m, (c, b) in self.verifier.pixels.items())
        )
        for reason in self.ops.reasons:
            print(f"FAILED: {reason}")
        self.record.update(
            provenance=provenance(self.args),
            workload_info=self.workload.info,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            extra={k: {"value": v, "unit": u} for k, (v, u) in self.extra.items()},
            samples={k: v for k, v in self.samples.by_name.items()},
            sample_times={k: v for k, v in self.samples.at.items()},
            calibration={
                "times": self.cal.times, "reference_ms": self.cal.refs,
                "per_cpu_ms": self.cal.per_cpu,
            },
            attempted=self.ops.attempted,
            failed=self.ops.failed,
            failures=self.ops.reasons,
        )
        path = self.out / (
            f"record-{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}.json"
        )
        path.write_text(json.dumps(self.record, indent=1))
        return {
            "correct": self.ops.failed == 0,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        }


def provenance(args) -> dict:
    """Where and on what a record was measured."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fresh-map", "viewer-pan", "live-update"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args)
    watchdog = threading.Timer(WATCHDOG_S, run.abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        run.execute()
    except OpFailed:
        # Already counted: the run could not finish, so it has no metrics.
        for reason in run.ops.reasons:
            print(f"FAILED: {reason}")
        print(json.dumps({
            "correct": False, "attempted": run.ops.attempted,
            "failed": run.ops.failed, "metrics": {},
        }))
        return 1
    except (OSError, RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        run.stop_all()
        watchdog.cancel()
    result = run.report()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
