"""Perturbation sweeps: the Figure 5 methodology.

Greedy layout algorithms amplify statistically insignificant
differences in profile weights (Section 5.1), so a single
train/test run says little.  The paper therefore runs each algorithm on
40 multiplicatively perturbed copies of the profile data and reports
the *distribution* of resulting miss rates.  A
:class:`SweepResult` holds one algorithm's sorted miss-rate series —
exactly one Figure 5 curve — plus the unperturbed miss rate reported in
each panel's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.eval.experiment import place_and_simulate
from repro.placement.base import PlacementAlgorithm, PlacementContext
from repro.profiles.perturb import PAPER_SCALE
from repro.trace.trace import Trace

#: Number of perturbed runs per algorithm in the paper.
PAPER_RUNS = 40

#: Seed stride between perturbed runs: keeps the per-run noise streams
#: disjoint while staying reproducible from ``base_seed`` alone.
SEED_STRIDE = 1009


@dataclass(frozen=True)
class SweepResult:
    """One algorithm's Figure 5 curve for one benchmark."""

    algorithm: str
    miss_rates: tuple[float, ...]  # sorted ascending
    unperturbed: float

    @property
    def best(self) -> float:
        return self.miss_rates[0]

    @property
    def worst(self) -> float:
        return self.miss_rates[-1]

    @property
    def median(self) -> float:
        rates = self.miss_rates
        mid = len(rates) // 2
        if len(rates) % 2:
            return rates[mid]
        return (rates[mid - 1] + rates[mid]) / 2

    @property
    def mean(self) -> float:
        return sum(self.miss_rates) / len(self.miss_rates)

    def cdf_points(self) -> list[tuple[float, float]]:
        """(miss rate, fraction of placements at or below it) pairs —
        the exact coordinates plotted in Figure 5."""
        n = len(self.miss_rates)
        return [(rate, (i + 1) / n) for i, rate in enumerate(self.miss_rates)]


def perturbation_sweep(
    context: PlacementContext,
    test_trace: Trace,
    algorithms: Iterable[PlacementAlgorithm],
    runs: int = PAPER_RUNS,
    scale: float = PAPER_SCALE,
    base_seed: int = 0,
) -> list[SweepResult]:
    """Run every algorithm on *runs* perturbed profiles plus one clean
    profile, simulating each layout on the test trace."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    algorithms = list(algorithms)
    results = []
    perturbed_contexts = [
        context.perturbed(scale, base_seed + SEED_STRIDE * run)
        for run in range(runs)
    ]
    for algorithm in algorithms:
        rates = [
            place_and_simulate(cell, test_trace, algorithm).miss_rate
            for cell in perturbed_contexts
        ]
        clean = place_and_simulate(context, test_trace, algorithm)
        results.append(
            SweepResult(
                algorithm=algorithm.name,
                miss_rates=tuple(sorted(rates)),
                unperturbed=clean.miss_rate,
            )
        )
    return results


def dominates(left: SweepResult, right: SweepResult) -> bool:
    """True when *left*'s distribution is clearly better than *right*'s.

    "Clearly better" here means a lower median and a lower mean — the
    visual criterion of one Figure 5 curve sitting left of another.
    """
    return left.median < right.median and left.mean < right.mean


def overlap_fraction(left: SweepResult, right: SweepResult) -> float:
    """Fraction of *left*'s runs that are worse than *right*'s median.

    0 means total separation in left's favour; around 0.5 means the
    ranges overlap heavily (the paper's m88ksim/perl situation).
    """
    threshold = right.median
    worse = sum(1 for rate in left.miss_rates if rate > threshold)
    return worse / len(left.miss_rates)


def summarize(results: Sequence[SweepResult]) -> str:
    """A compact text table of sweep distributions."""
    lines = [
        f"{'algorithm':<10} {'best':>8} {'median':>8} {'mean':>8} "
        f"{'worst':>8} {'clean':>8}"
    ]
    for result in results:
        lines.append(
            f"{result.algorithm:<10} {result.best:>8.4%} "
            f"{result.median:>8.4%} {result.mean:>8.4%} "
            f"{result.worst:>8.4%} {result.unperturbed:>8.4%}"
        )
    return "\n".join(lines)
