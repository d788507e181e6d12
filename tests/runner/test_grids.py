"""The comparison grid and the Figure 5 sweep are folds over one
kernel, so a grid run through the batch runner reproduces the sweep."""

from repro.cache.config import PAPER_CACHE
from repro.eval.experiment import build_context
from repro.eval.randomization import perturbation_sweep
from repro.runner import BatchRunner, compare_batch, default_algorithms
from repro.workloads.suite import by_name


def test_grid_cells_reproduce_the_sweep(tmp_path):
    workload = by_name("m88ksim").scaled(0.02)
    runs = 2
    context = build_context(workload.trace("train"), PAPER_CACHE)
    sweeps = perturbation_sweep(
        context,
        workload.trace("test"),
        default_algorithms(),
        runs=runs,
        base_seed=0,
    )
    outcome = BatchRunner(
        compare_batch(workload, PAPER_CACHE, runs=runs), tmp_path
    ).run()
    assert outcome.ok
    for sweep in sweeps:
        prefix = f"cell:{workload.name}:{sweep.algorithm}"
        rates = sorted(
            outcome.results[f"{prefix}:p{run:03d}"]["miss_rate"]
            for run in range(runs)
        )
        assert tuple(rates) == sweep.miss_rates
        clean = outcome.results[f"{prefix}:clean"]["miss_rate"]
        assert clean == sweep.unperturbed
