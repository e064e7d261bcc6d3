"""The examples must actually run — each is executed once, as a subprocess,
and its output must carry the lines that show it did its job.

``city_exploration`` is excluded here (tens of seconds at its default
scale; exercised by the figure harness and CLI instead).
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "taxi_sharing.py",
    "courier_capacity.py",
    "dynamic_fleet.py",
    "batch_serving.py",
    "async_serving.py",
    "http_serving.py",
]


@functools.lru_cache(maxsize=None)
def _run(script):
    """Run ``script`` once; every test that reads its output shares the run."""
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )


def _output(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    assert _output(script).strip(), "example produced no output"


def test_quickstart_explains_the_fig2_lesson():
    out = _output("quickstart.py")
    assert "region labelings" in out
    assert "heat at" in out


def test_taxi_sharing_contrasts_superimposition():
    out = _output("taxi_sharing.py")
    assert "superimposition" in out
    assert "connectivity" in out


def test_http_serving_walks_the_full_lifecycle():
    out = _output("http_serving.py")
    assert "revalidation -> 304" in out
    assert "all assertions passed" in out


def test_dynamic_fleet_reports_incremental_work():
    out = _output("dynamic_fleet.py")
    assert "incremental NN maintenance" in out
    assert "tick 5" in out
