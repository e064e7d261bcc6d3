"""Table II — dataset generation and NN-circle precomputation at scale.

The paper's datasets hold 128,547 (NYC) and 116,596 (LA) POIs.  These
benchmarks generate the full-cardinality synthetic stand-ins and time the
NN-circle precomputation step (which every RC experiment assumes done).
"""

import pytest

from repro.data.city import LA_SIZE, NYC_SIZE, la_like, nyc_like
from repro.data.sampling import sample_clients_facilities
from repro.nn.nncircles import compute_nn_circles


@pytest.mark.parametrize(
    "city,gen,size",
    [("nyc", nyc_like, NYC_SIZE), ("la", la_like, LA_SIZE)],
)
def test_generate_full_city(benchmark, city, gen, size):
    benchmark.group = "table2 generation"
    pts = benchmark.pedantic(gen, args=(size, 0), rounds=1, iterations=1)
    assert pts.shape == (size, 2)


@pytest.mark.parametrize("metric", ("l1", "l2", "linf"))
def test_nn_circle_precomputation(benchmark, metric):
    """20,000 clients vs 6,000 facilities — the paper's sampling sizes."""
    pool = nyc_like(30_000, seed=0)
    clients, facilities = sample_clients_facilities(pool, 20_000, 6_000, seed=1)
    benchmark.group = f"table2 nn-circles {metric}"

    def run():
        return compute_nn_circles(clients, facilities, metric)

    circles = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(circles) > 19_000
