"""Every pipeline stage has a span, with or without a checkpoint.

``compare m88ksim --fast --runs 1`` always runs the task grid; with
``--checkpoint`` the batch runner journals it.  Folded with
:func:`repro.obs.self_times`, both manifests name the same stages;
the runner's own ``runner.*`` bookkeeping spans aside.
"""

from __future__ import annotations

import pytest

from repro.analysis import load_run_manifest
from repro.cli import main
from repro.obs import self_times
from tests.conftest import cold_process_caches

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


def _cli(tmp_path, name: str, *extra: str) -> set[str]:
    cold_process_caches()
    run = tmp_path / f"{name}.jsonl"
    argv = [
        "compare", "m88ksim", "--fast", "--runs", "1",
        "--metrics-out", str(run), *extra,
    ]
    assert main(argv) == 0
    return _stages(load_run_manifest(run))


@pytest.mark.parametrize("with_store", [False, True])
def test_entry_points_yield_the_same_stages(tmp_path, capsys, with_store):
    def store_args(name: str) -> tuple[str, ...]:
        return ("--cache", str(tmp_path / name)) if with_store else ()

    plain = _cli(tmp_path, "plain", *store_args("plain-store"))
    checkpointed = _cli(
        tmp_path, "checkpointed",
        "--checkpoint", str(tmp_path / "ckpt"),
        *store_args("checkpointed-store"),
    )
    capsys.readouterr()
    assert plain == checkpointed
    expected = PIPELINE_STAGES | (STORE_STAGES if with_store else set())
    assert expected <= plain
    if not with_store:
        assert not plain & STORE_STAGES
