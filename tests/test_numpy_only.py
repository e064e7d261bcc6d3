"""The runtime depends on numpy only: builds, tiles, queries and NN
assignments work where scipy cannot be imported, and a served build
never imports it."""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_serves_with_scipy_blocked():
    proc = _run("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises
        import numpy as np
        from repro.influence import CapacityConstrainedMeasure
        from repro.nn.nncircles import nn_assign
        from repro.service import HeatMapService

        rng = np.random.default_rng(7)
        clients, facilities = rng.random((200, 2)), rng.random((40, 2))
        service = HeatMapService()
        for metric in ("l2", "l1", "linf"):
            handle = service.build(clients, facilities, metric=metric)
            grid, _ = service.tile(handle, 1, 0, 1, tile_size=32)
            assert grid.shape == (32, 32) and grid.max() > 0, metric
            heat = service.heat_at_many(handle, [[0.5, 0.5], [0.25, 0.75]])
            assert heat.shape == (2,), metric
        measure = CapacityConstrainedMeasure(clients, facilities, 3, new_capacity=2)
        assert measure(frozenset({0, 1})) <= 2
        big = rng.random((2000, 2))
        index, dist = nn_assign(big, rng.random((300, 2)))
        assert index.shape == dist.shape == (2000,)
        print("ok")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_served_build_never_imports_scipy():
    proc = _run("""
        import sys
        import numpy as np
        from repro.service import HeatMapService

        rng = np.random.default_rng(8)
        service = HeatMapService()
        handle = service.build(rng.random((600, 2)), rng.random((120, 2)))
        service.tile(handle, 0, 0, 0, tile_size=64)
        print("scipy" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_served_tiles_and_queries_never_load_numpy_ma():
    """``np.unique`` loads ``numpy.ma`` on first use (10-17 ms): a served
    build, a tile with an explicit ``vmax`` and a heat query, under each
    metric, leave it unloaded."""
    proc = _run("""
        import json, sys, time, urllib.request
        import numpy as np
        from repro.server import ThreadedHTTPServer

        def call(url, payload=None):
            data = None if payload is None else json.dumps(payload).encode()
            with urllib.request.urlopen(url, data=data, timeout=30) as resp:
                return resp.read()

        rng = np.random.default_rng(9)
        with ThreadedHTTPServer(tile_size=64) as srv:
            ds = json.loads(call(srv.url + "/datasets", {
                "clients": rng.random((300, 2)).tolist(),
                "facilities": rng.random((60, 2)).tolist(),
            }))["dataset"]
            for metric in ("l2", "l1", "linf"):
                built = call(srv.url + "/build", {"dataset": ds, "metric": metric})
                status = f"{srv.url}/build/{json.loads(built)['handle']}"
                while json.loads(call(status))["status"] == "building":
                    time.sleep(0.01)
                tiles = status.replace("/build/", "/tiles/")
                call(tiles + "/1/0/1.png?vmax=5")
                call(status.replace("/build/", "/query/"), {"points": [[0.5, 0.5]]})
        print("numpy.ma" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
