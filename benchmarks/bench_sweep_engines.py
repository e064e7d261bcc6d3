"""Benchmark: the L2 loop arc sweep vs the vectorized one 'crest' runs.

Under L2 ``crest`` runs the vectorized arc sweep
(:func:`~repro.core.sweep_batched.run_crest_l2_batched`); the loop sweep
it replaced stays registered as the non-public ``crest-l2``, the
reference the vectorized one must match bit for bit.  This script times
both on one instance and checks that the vectorized build answers a probe
batch and a top-k exactly like the loop build.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_sweep_engines.py
    PYTHONPATH=src python benchmarks/bench_sweep_engines.py --smoke \\
        --json BENCH_sweep.json                                # CI gate

``--smoke`` shrinks the instance and turns on the self-check gate: the
vectorized sweep must beat the loop sweep.  Exit status is non-zero on a
gate or equivalence failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from repro import RNNHeatMap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--clients", type=int, default=2000)
    ap.add_argument("--facilities", type=int, default=400)
    ap.add_argument("--probes", type=int, default=20_000,
                    help="random probes used by the equivalence check")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--no-check", dest="check", action="store_false",
                    help="skip checking that the vectorized build answers "
                         "like the loop build")
    ap.add_argument("--gate", action="store_true",
                    help="fail unless the vectorized sweep beats the loop")
    ap.add_argument("--smoke", action="store_true",
                    help="small CI instance with the --gate self-check on")
    ap.add_argument("--json", type=str, default=None, metavar="PATH",
                    help="write a machine-readable result record here")
    args = ap.parse_args(argv)
    if args.smoke:
        args.clients = min(args.clients, 500)
        args.facilities = min(args.facilities, 100)
        args.probes = min(args.probes, 2000)
        args.gate = True

    rng = np.random.default_rng(args.seed)
    clients = rng.random((args.clients, 2))
    facilities = rng.random((args.facilities, 2))

    # NN-circle computation happens once in the constructor; the timings
    # below isolate the sweep, mirroring the paper's benchmark setup.
    hm = RNNHeatMap(clients, facilities, metric="l2")
    print(f"|O|={args.clients} |F|={args.facilities} metric=l2 "
          f"({len(hm.circles)} NN-circles)")

    t0 = time.perf_counter()
    loop = hm.build("crest-l2")
    loop_s = time.perf_counter() - t0
    print(f"loop crest-l2:        {loop_s:8.2f}s  "
          f"({len(loop.region_set)} fragments, {loop.stats.labels} labels)")

    probes = rng.random((args.probes, 2)) * 1.2 - 0.1
    loop_heats = loop.heat_at_many(probes)
    loop_topk = loop.region_set.top_k_heats(10)
    # The reference build stays alive for the equivalence check — many
    # long-lived fragment objects the collector would otherwise rescan on
    # every allocation burst inside the timed run.  Freeze them out.
    gc.collect()
    gc.freeze()

    t0 = time.perf_counter()
    batched = hm.build("crest")
    batched_s = time.perf_counter() - t0
    answers_equal = None
    if args.check:
        answers_equal = (
            np.array_equal(batched.heat_at_many(probes), loop_heats)
            and batched.region_set.top_k_heats(10) == loop_topk
        )
    speedup = loop_s / batched_s if batched_s > 0 else float("inf")
    print(f"vectorized crest:     {batched_s:8.2f}s  speedup {speedup:5.2f}x"
          f"{'  answers==loop' if answers_equal else ''}")

    failures = 0
    if answers_equal is False:
        failures = 1
        print("MISMATCH: the vectorized sweep diverged from the loop sweep")

    gate_failures = []
    if args.gate:
        if batched_s >= loop_s:
            gate_failures.append(
                f"vectorized sweep ({batched_s:.2f}s) did not beat "
                f"the loop sweep ({loop_s:.2f}s)"
            )
        for msg in gate_failures:
            print(f"GATE FAIL: {msg}")
        if not gate_failures:
            print("gate passed: the vectorized sweep beats the loop")

    if args.json:
        record = {
            "benchmark": "bench_sweep_engines",
            "params": {
                "clients": args.clients,
                "facilities": args.facilities,
                "metric": "l2",
                "probes": args.probes,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "loop_s": loop_s,
            "batched_s": batched_s,
            "speedup": speedup,
            "answers_equal": answers_equal,
            "failures": failures,
            "gate_failures": gate_failures,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    return 1 if failures or gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
