"""Fixtures for the perf-lab tests.

Same isolation contract as ``tests/obs``: every test runs with the
global observability state saved and restored, so a session cannot
leak an enabled runtime into the rest of the suite.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.obs import runtime


@pytest.fixture(autouse=True)
def isolated_obs() -> Iterator[None]:
    previous = runtime.current()
    runtime.disable()
    try:
        yield
    finally:
        runtime.restore(previous)


@pytest.fixture
def manifest_pair() -> tuple[dict, dict]:
    """Two hand-built manifests with known drift between them."""
    a = {
        "type": "manifest",
        "format": "repro/manifest",
        "version": 1,
        "command": "place",
        "config": {"algorithm": "gbsc", "runs": 5},
        "git": "aaa1111",
        "unix_time": 0.0,
        "elapsed": 2.0,
        "timings": [
            {
                "name": "build_context",
                "duration": 1.0,
                "children": [{"name": "build_wcg", "duration": 0.4}],
            },
            {"name": "simulate", "duration": 0.5},
            {"name": "simulate", "duration": 0.25},
        ],
        "metrics": {
            "cache.sim.misses": {"kind": "counter", "value": 100},
            "queue.depth": {"kind": "gauge", "value": 4},
            "gap.sizes": {
                "kind": "histogram",
                "edges": [32, 256],
                "counts": [1, 2, 0],
                "count": 3,
                "sum": 300,
            },
            "a.only": {"kind": "counter", "value": 1},
        },
    }
    b = {
        "type": "manifest",
        "format": "repro/manifest",
        "version": 1,
        "command": "place",
        "config": {"algorithm": "gbsc", "runs": 9, "seed": 7},
        "git": "bbb2222",
        "unix_time": 0.0,
        "elapsed": 3.0,
        "timings": [
            {
                "name": "build_context",
                "duration": 1.5,
                "children": [{"name": "build_wcg", "duration": 0.6}],
            },
            {"name": "simulate", "duration": 0.5},
            {"name": "report", "duration": 0.1},
        ],
        "metrics": {
            "cache.sim.misses": {"kind": "counter", "value": 150},
            "queue.depth": {"kind": "gauge", "value": 2},
            "gap.sizes": {
                "kind": "histogram",
                "edges": [32, 256],
                "counts": [2, 2, 1],
                "count": 5,
                "sum": 700,
            },
            "b.only": {"kind": "counter", "value": 1},
        },
    }
    return a, b
