"""Training-input quality: how well do layouts transfer?

Section 5.3's m88ksim observation — "dcrand is a poor training set for
dhry" — is about profile generalization.  This module measures it
directly: given one program and several inputs, train a layout on each
input and evaluate it on every input.  The diagonal of the resulting
matrix is self-performance; off-diagonal entries show transfer, and a
row whose off-diagonal entries are much worse than its diagonal marks
a poor training input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.errors import ConfigError
from repro.eval.experiment import build_context, place_and_simulate
from repro.placement.base import PlacementAlgorithm
from repro.trace.callgraph import CallGraphModel
from repro.trace.generator import TraceInput, generate_trace


@dataclass(frozen=True)
class TransferMatrix:
    """Train-on-row, test-on-column miss rates."""

    inputs: tuple[str, ...]
    miss_rates: dict[tuple[str, str], float]

    def rate(self, train: str, test: str) -> float:
        return self.miss_rates[(train, test)]

    def self_rate(self, name: str) -> float:
        return self.miss_rates[(name, name)]

    def transfer_penalty(self, train: str, test: str) -> float:
        """How much worse the transferred layout is than the layout
        trained on the test input itself (1.0 = no penalty)."""
        native = self.miss_rates[(test, test)]
        if native == 0:
            return 1.0
        return self.miss_rates[(train, test)] / native

    def worst_training_input(self) -> str:
        """The input whose layouts transfer worst on average."""
        def average_penalty(train: str) -> float:
            others = [n for n in self.inputs if n != train]
            if not others:
                return 1.0
            return sum(
                self.transfer_penalty(train, test) for test in others
            ) / len(others)

        return max(self.inputs, key=average_penalty)

    def format(self) -> str:
        header = "train\\test " + " ".join(
            f"{name:>10}" for name in self.inputs
        )
        lines = [header]
        for train in self.inputs:
            cells = " ".join(
                f"{self.miss_rates[(train, test)]:>10.4%}"
                for test in self.inputs
            )
            lines.append(f"{train:<11}{cells}")
        return "\n".join(lines)


def input_transfer_matrix(
    graph: CallGraphModel,
    inputs: Sequence[TraceInput],
    config: CacheConfig,
    algorithm: PlacementAlgorithm,
    **context_kwargs,
) -> TransferMatrix:
    """Train the algorithm on every input, evaluate on every input."""
    if len(inputs) < 2:
        raise ConfigError("need at least two inputs for a matrix")
    names = [inp.name for inp in inputs]
    if len(set(names)) != len(names):
        raise ConfigError("trace inputs must have unique names")

    traces = {inp.name: generate_trace(graph, inp) for inp in inputs}
    miss_rates: dict[tuple[str, str], float] = {}
    for train in names:
        context = build_context(traces[train], config, **context_kwargs)
        native = place_and_simulate(context, traces[train], algorithm)
        for test in names:
            miss_rates[(train, test)] = (
                native.miss_rate
                if test == train
                else simulate(native.layout, traces[test], config).miss_rate
            )
    return TransferMatrix(inputs=tuple(names), miss_rates=miss_rates)
