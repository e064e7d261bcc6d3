"""A moving world: dynamic heat maps for a ride-hailing fleet.

The paper's Section I: "the heat map may change as clients move around and
need to be recomputed frequently. Therefore, an efficient algorithm to the
RNNHM problem is crucial."  This example simulates ticks of a fleet
scenario — passengers (clients) drift, cars (facilities) reposition, new
requests appear — and keeps an up-to-date heat map via incremental
NN-circle maintenance (``repro.dynamic``), printing how the best staging
location shifts over time.

Run:  python examples/dynamic_fleet.py
"""

import numpy as np

from repro import DynamicHeatMap
from repro.data import uniform_points


def main() -> None:
    rng = np.random.default_rng(21)
    passengers = uniform_points(150, seed=1)
    cars = uniform_points(20, seed=2)

    world = DynamicHeatMap(passengers, cars, metric="l2")

    print(f"{len(passengers)} passengers, {len(cars)} cars")
    for tick in range(6):
        # Passengers drift; a few new requests appear; one car repositions
        # toward the previous hot spot.
        for handle in rng.choice(150, size=12, replace=False):
            x, y = world.assignment.client_position(int(handle))
            world.move_client(int(handle),
                              float(np.clip(x + rng.normal(0, 0.03), 0, 1)),
                              float(np.clip(y + rng.normal(0, 0.03), 0, 1)))
        world.add_client(*rng.random(2))

        # The map is served from its NN-circles: the hot spot comes from
        # the exact maximum search, no sweep.
        heat, hot, _rnn = world.result().region_set.peak()
        print(f"tick {tick}: max influence {heat:g} at "
              f"({hot[0]:.3f}, {hot[1]:.3f}) (rebuild #{world.rebuilds})")

        # Reposition car 0 toward the hot spot (and watch the map react).
        world.move_facility(0, *hot)

    a = world.assignment
    print(f"incremental NN maintenance: {a.stat_nn_queries} single-point "
          f"queries, {a.stat_reassignments} reassignments — never a "
          f"from-scratch recompute of all {a.n_clients} clients per tick")


if __name__ == "__main__":
    main()
