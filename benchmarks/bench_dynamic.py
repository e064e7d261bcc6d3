"""Benchmark: dynamic heat-map rebuilds, every answer checked by brute force.

The paper's 'clients move around' scenario: a ``DynamicHeatMap`` absorbs a
stream of single-client moves.  Under the size measure each rebuild is an
NN-circle surface over the current circles (no sweep), so a move costs
the NN update plus one grid index.  This script times each move's
``result()`` and checks heat and RNN answers at ``--probes`` random points
against brute force over freshly computed NN radii of the current points.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_dynamic.py
    PYTHONPATH=src python benchmarks/bench_dynamic.py \\
        --clients 600 --facilities 80 --metric linf \\
        --moves 3 --probes 2000                                    # CI smoke
    PYTHONPATH=src python benchmarks/bench_dynamic.py --json BENCH_dynamic.json

``--json`` writes a machine-readable record (per-move rebuild and check
timings) so the perf trajectory is tracked across changes.  Exit status
is non-zero when any answer differs from brute force.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.dynamic import DynamicHeatMap
from repro.nn.rnn import NaiveRNN


def brute_force(dyn: DynamicHeatMap, probes: np.ndarray) -> "list[frozenset]":
    """RNN sets (client handles) at ``probes`` over the current points."""
    handles, clients, facilities = dyn.points()
    sets = NaiveRNN(clients, facilities, metric=dyn.metric).query_many(probes)
    return [frozenset(handles[i] for i in s) for s in sets]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--clients", type=int, default=5000)
    ap.add_argument("--facilities", type=int, default=500)
    ap.add_argument("--metric", default="linf", choices=("l1", "l2", "linf"))
    ap.add_argument("--moves", type=int, default=5,
                    help="single-client moves to replay")
    ap.add_argument("--step", type=float, default=0.02,
                    help="move distance (fraction of the unit square)")
    ap.add_argument("--probes", type=int, default=5000,
                    help="random probes checked against brute force per move")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", type=str, default=None, metavar="PATH",
                    help="write a machine-readable result record here")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    clients = rng.random((args.clients, 2))
    facilities = rng.random((args.facilities, 2))
    probes = rng.random((args.probes, 2)) * 1.2 - 0.1

    dyn = DynamicHeatMap(clients, facilities, metric=args.metric)
    t0 = time.perf_counter()
    dyn.result()
    initial_s = time.perf_counter() - t0
    print(f"|O|={args.clients} |F|={args.facilities} metric={args.metric} "
          f"initial build {initial_s * 1e3:.1f} ms")

    moves = []
    failures = 0
    for i in range(args.moves):
        handle = int(rng.integers(0, args.clients))
        x, y = clients[handle] + rng.uniform(-args.step, args.step, size=2)
        clients[handle] = (x, y)
        dyn.move_client(handle, float(x), float(y))
        t0 = time.perf_counter()
        result = dyn.result()
        rebuild_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        want = brute_force(dyn, probes)
        ok = (
            result.rnn_at_many(probes) == want
            and np.array_equal(result.heat_at_many(probes), [len(s) for s in want])
        )
        check_s = time.perf_counter() - t0
        failures += 0 if ok else 1
        moves.append({
            "move": i,
            "rebuild_s": rebuild_s,
            "check_s": check_s,
            "answers_equal_brute_force": bool(ok),
        })
        verdict = "answers==brute force" if ok else "MISMATCH vs brute force"
        print(f"move {i}: rebuild {rebuild_s * 1e3:7.1f} ms  "
              f"check {check_s * 1e3:7.1f} ms  {verdict}")

    median_ms = (
        statistics.median(m["rebuild_s"] for m in moves) * 1e3 if moves else 0.0
    )
    print(f"median rebuild over {args.moves} single-client moves: "
          f"{median_ms:.1f} ms")

    if args.json:
        record = {
            "benchmark": "bench_dynamic",
            "params": {
                "clients": args.clients,
                "facilities": args.facilities,
                "metric": args.metric,
                "moves": args.moves,
                "step": args.step,
                "probes": args.probes,
                "seed": args.seed,
            },
            "initial_build_s": initial_s,
            "moves": moves,
            "median_rebuild_ms": median_ms,
            "failures": failures,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if failures:
        print(f"FAIL: {failures} move(s) diverged from brute force")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
