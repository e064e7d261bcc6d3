"""No serving request sweeps.

Over HTTP, with the arrangement sweep patched to raise, every public
engine builds under every metric it accepts, and tiles, heat, RNN and
top-k queries and dynamic updates all answer 2xx.  Top-k lists every
region heat when k covers them.
"""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.core import heatmap
from repro.core.registry import REGISTRY
from repro.core.surface import NNCircleSurface
from repro.server import ThreadedHTTPServer
from repro.service import HeatMapService


def _swept(*_args, **_kwargs):
    raise AssertionError("a serving request swept")


def _call(url, payload=None):
    """GET (or POST ``payload``); a non-2xx answer raises."""
    data = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(url, data=data, timeout=60) as resp:
        assert 200 <= resp.status < 300
        body = resp.read()
    return body if url.endswith(".png") or ".png?" in url else json.loads(body)


def _ready(url, handle):
    deadline = time.time() + 60
    while time.time() < deadline:
        state = _call(f"{url}/build/{handle}")
        if state["status"] != "building":
            assert state["status"] == "ready", state
            return handle
        time.sleep(0.01)
    raise AssertionError(f"build {handle} never finished")


def _engines(metric: str):
    """Public engines that accept ``metric`` (exact ones run L1 rotated)."""
    for name in REGISTRY.names():
        spec = REGISTRY.get(name)
        internal = "linf" if metric == "l1" and spec.builder is None else metric
        if spec.supports_metric(internal):
            yield name


def test_no_serving_request_sweeps(monkeypatch):
    monkeypatch.setattr(NNCircleSurface, "sweep", _swept)
    monkeypatch.setattr(heatmap, "sweep_circles", _swept)
    rng = np.random.default_rng(23)
    clients, facilities = rng.random((80, 2)), rng.random((14, 2))
    probes = rng.random((40, 2)).tolist()
    with ThreadedHTTPServer(tile_size=16, max_results=16) as srv:
        url = srv.url
        ds = _call(url + "/datasets", {
            "clients": clients.tolist(), "facilities": facilities.tolist(),
        })["dataset"]
        handles = [
            _ready(url, _call(url + "/build", {
                "dataset": ds, "metric": metric, "algorithm": engine,
            })["handle"])
            for metric in ("l2", "l1", "linf") for engine in _engines(metric)
        ]
        assert len(handles) == 12  # 3 engines under L2, 4 under L1, 5 under L-inf
        dyn = _ready(url, _call(url + "/build", {"dataset": ds, "dynamic": True})["handle"])
        service = HeatMapService()
        local = service.build(clients, facilities, metric="l2")
        top = _call(f"{url}/query/{handles[0]}", {"kind": "top-k", "k": 10**9})["heats"]
        assert top == service.top_k_heats(local, 10**9)  # the whole list
        for handle in [*handles, dyn]:
            _call(f"{url}/tiles/{handle}/0/0/0.png")
            _call(f"{url}/tiles/{handle}/1/0/1.png?vmax=4")
            heat = _call(f"{url}/query/{handle}", {"points": probes})["heats"]
            _call(f"{url}/query/{handle}", {"kind": "rnn", "points": probes})
            top = _call(f"{url}/query/{handle}", {"kind": "top-k", "k": 10**9})["heats"]
            assert top == sorted(set(top), reverse=True) and top[-1] == 0
            assert set(heat) <= set(top)
            three = _call(f"{url}/query/{handle}", {"kind": "top-k", "k": 3})
            assert three["heats"] == top[:3]
        _call(f"{url}/update/{dyn}", {"updates": [
            {"op": "move_client", "handle": 0, "x": 0.5, "y": 0.5},
        ]})
        top = _call(f"{url}/query/{dyn}", {"kind": "top-k", "k": 5})["heats"]
        assert top == sorted(set(top), reverse=True)


@pytest.mark.parametrize("metric", ["l2", "l1", "linf"])
def test_library_calls_still_sweep(monkeypatch, metric):
    """Fragments stay a library product: asking a surface for them runs
    the patched sweep."""
    monkeypatch.setattr(NNCircleSurface, "sweep", _swept)
    rng = np.random.default_rng(5)
    surface = heatmap.RNNHeatMap(
        rng.random((30, 2)), rng.random((6, 2)), metric=metric
    ).surface().region_set
    assert surface.top_k_heats(2)
    with pytest.raises(AssertionError, match="swept"):
        surface.fragments
