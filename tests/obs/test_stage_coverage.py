"""Every pipeline stage has a span, whichever entry point ran it.

``compare m88ksim --fast --runs 1`` runs through three entry points:
the direct CLI path, the batch runner (``--checkpoint``) and
:func:`repro.service.run_compare`.  Folded with
:func:`repro.obs.self_times`, all three manifests name the same
stages; the runner's own ``runner.*`` bookkeeping spans aside.
"""

from __future__ import annotations

import pytest

from repro import service
from repro.analysis import load_run_manifest
from repro.cli import main
from repro.obs import RunSession, self_times
from repro.store import ArtifactStore
from repro.workloads.spec import _cached_call_graph, clear_trace_memo

#: Stages a compare run must show, with or without a store, from cold
#: in-process caches and a fresh store.
PIPELINE_STAGES = {
    "random_call_graph",
    "gen_trace",
    "build_context",
    "select_popular",
    "build_wcg",
    "build_trgs",
    "perturb",
    "place.default",
    "place.PH",
    "place.HKC",
    "place.GBSC",
    "gbsc_merge",
    "linearize",
    "line_stream",
    "simulate",
}

STORE_STAGES = {"store.get", "store.put", "store.build"}


def _stages(manifest: dict) -> set[str]:
    return {
        key
        for key in self_times(manifest["timings"])
        if not key.startswith("runner.")
    }


def _cold_caches() -> None:
    clear_trace_memo()
    _cached_call_graph.cache_clear()


def _cli(tmp_path, name: str, *extra: str) -> set[str]:
    _cold_caches()
    run = tmp_path / f"{name}.jsonl"
    argv = [
        "compare", "m88ksim", "--fast", "--runs", "1",
        "--metrics-out", str(run), *extra,
    ]
    assert main(argv) == 0
    return _stages(load_run_manifest(run))


def _service(store) -> set[str]:
    _cold_caches()
    session = RunSession("compare", with_git=False)
    service.run_compare(
        service.CompareRequest(
            workload="m88ksim", runs=1, fast=True, store=store
        )
    )
    return _stages(session.finish())


@pytest.mark.parametrize("with_store", [False, True])
def test_entry_points_yield_the_same_stages(tmp_path, capsys, with_store):
    def store_args(name: str) -> tuple[str, ...]:
        return ("--cache", str(tmp_path / name)) if with_store else ()

    direct = _cli(tmp_path, "direct", *store_args("direct-store"))
    runner = _cli(
        tmp_path, "runner",
        "--checkpoint", str(tmp_path / "ckpt"),
        *store_args("runner-store"),
    )
    via_service = _service(
        ArtifactStore(tmp_path / "service-store") if with_store else None
    )
    capsys.readouterr()
    assert direct == runner == via_service
    expected = PIPELINE_STAGES | (STORE_STAGES if with_store else set())
    assert expected <= direct
    if not with_store:
        assert not direct & STORE_STAGES
