"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper has a bench module here; each
prints its regenerated rows/series, appends them to
``benchmarks/results/<name>.txt``, and asserts the paper's qualitative
*shape* (who wins, roughly by how much) — absolute numbers differ
because the substrate is a simulator over synthetic analogs, not the
authors' testbed (see DESIGN.md).

Environment knobs:

``REPRO_FAST=1``
    Quarter-length traces and fewer perturbation runs (smoke mode).
``REPRO_RUNS=<n>``
    Perturbed profiles per algorithm for Figure 5 (paper: 40;
    default here: 12, fast: 4).
``REPRO_SCALE=<f>``
    Trace-length scale factor applied to every workload.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

import pytest

from repro.cache.config import PAPER_CACHE
from repro.eval.experiment import build_context
from repro.obs import RunSession
from repro.placement.base import PlacementContext
from repro.workloads.spec import Workload
from repro.workloads.suite import SUITE

FAST = os.environ.get("REPRO_FAST") == "1"
RUNS = int(os.environ.get("REPRO_RUNS", "4" if FAST else "12"))
SCALE = float(os.environ.get("REPRO_SCALE", "0.25" if FAST else "1.0"))

RESULTS_DIR = Path(__file__).parent / "results"


def scaled_suite() -> list[Workload]:
    return [
        w.scaled(SCALE) if SCALE != 1.0 else w for w in SUITE
    ]


#: Reports written so far this session; the first write truncates.
_written: set[str] = set()


def write_report(name: str, text: str) -> None:
    """Print a report block and persist it under benchmarks/results/.

    A session's first block replaces the report left by an earlier
    session; later blocks append.  Reports of benches that did not run
    are left as they are.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    mode = "a" if name in _written else "w"
    _written.add(name)
    with path.open(mode) as handle:
        handle.write(text)
        handle.write("\n")
    print(f"\n{text}")


def record_bench(bench: str, metrics: dict) -> None:
    """Append one bench result to the history ledger.

    Every bench module funnels its headline numbers through here, so
    ``benchmarks/results/HISTORY.jsonl`` accumulates one record per
    bench per session (bench id, flat numeric metrics, git describe,
    host fingerprint) and ``repro-layout perf check`` can gate the
    latest records against ``benchmarks/baselines.json``.  Unlike the
    reports, the ledger is never truncated: history only works if it
    outlives the session that wrote it.

    Fast (``REPRO_FAST=1``) sessions run quarter-length traces, so
    their numbers live under a distinct ``<bench>:fast`` id — fast and
    full results must never be compared to each other, and the
    committed baselines gate the fast ids CI actually runs.
    """
    from repro.obs.perf import append_record, bench_record

    if FAST:
        bench = f"{bench}:fast"
    RESULTS_DIR.mkdir(exist_ok=True)
    append_record(RESULTS_DIR / "HISTORY.jsonl", bench_record(bench, metrics))


_context_cache: dict[tuple[str, bool], PlacementContext] = {}


def cached_context(
    workload: Workload, with_pair_db: bool = False
) -> PlacementContext:
    """Build (once per session) the placement context of a workload."""
    key = (workload.name, with_pair_db)
    context = _context_cache.get(key)
    if context is None:
        context = build_context(
            workload.trace("train"),
            PAPER_CACHE,
            with_pair_db=with_pair_db,
        )
        _context_cache[key] = context
    return context


@pytest.fixture(scope="session")
def suite() -> list[Workload]:
    return scaled_suite()


@pytest.fixture(scope="session", autouse=True)
def bench_manifest() -> Iterator[RunSession]:
    """Observe the whole bench session; the run file (span events plus
    the final manifest) lands next to the textual reports."""
    RESULTS_DIR.mkdir(exist_ok=True)
    session = RunSession(
        command="benchmarks",
        config={"fast": FAST, "runs": RUNS, "scale": SCALE},
        metrics_out=RESULTS_DIR / "bench_manifest.jsonl",
    )
    try:
        yield session
    finally:
        session.finish()
