"""Quickstart: build an RNN heat map and explore it.

Mirrors the paper's motivating setup (Fig. 2): clients cluster in a dense
corner, but the most *influential* locations are elsewhere because existing
facilities already serve the dense area — influence is about competition,
not density.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import RNNHeatMap
from repro.data import gaussian_cluster_points, uniform_points
from repro.render import ascii_heat_map


def main() -> None:
    rng = np.random.default_rng(42)

    # A dense client cluster in the upper-left + diffuse clients elsewhere.
    dense = gaussian_cluster_points(260, n_clusters=1, std=0.06, seed=7,
                                    bounds=(0.05, 0.35, 0.65, 0.95))
    diffuse = uniform_points(240, seed=8)
    clients = np.vstack([dense, diffuse])

    # Facilities: several already sit inside the dense cluster.
    facilities = np.vstack([
        gaussian_cluster_points(10, n_clusters=1, std=0.05, seed=9,
                                bounds=(0.05, 0.35, 0.65, 0.95)),
        uniform_points(6, seed=10),
    ])

    # Under L2 'crest' runs the vectorized arc sweep: the same regions and
    # heats as the paper's loop sweep, bit for bit, in a fraction of the
    # time.
    heat_map = RNNHeatMap(clients, facilities, metric="l2")
    result = heat_map.build("crest")

    print(f"clients={len(clients)}  facilities={len(facilities)}")
    print(f"region labelings (k) = {result.labels}, "
          f"fragments = {result.stats.n_fragments}")
    print(f"max influence = {result.stats.max_heat:g} at "
          f"{tuple(round(v, 3) for v in result.stats.max_heat_point)}")

    # Point queries: influence of candidate locations.
    for (x, y) in [(0.2, 0.8), (0.5, 0.5), (0.85, 0.2)]:
        print(f"heat at ({x}, {y}) = {result.heat_at(x, y):g} "
              f"(serves {len(result.rnn_at(x, y))} clients)")

    # Interactive post-processing: top-k influential regions.
    top = result.region_set.top_k_heats(5)
    print("top-5 heat values:", ", ".join(f"{h:g}" for h in top))

    # Density vs influence (the Fig. 2 lesson): compare the heat at the
    # densest spot against the global max.
    dense_heat = result.heat_at(0.2, 0.8)
    print(f"heat inside the dense cluster = {dense_heat:g} "
          f"(global max {result.stats.max_heat:g}) — "
          f"{'density wins' if dense_heat == result.stats.max_heat else 'competition moved the optimum elsewhere'}")

    grid, _bounds = result.rasterize(120, 120)
    print(ascii_heat_map(grid, width=64))


if __name__ == "__main__":
    main()
