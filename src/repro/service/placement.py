"""``run_placement``: the library-level ``PlacementRequest -> Layout``
entry point.

This is the exact pipeline ``repro-layout place`` used to run inline —
resolve the trace, profile it into a
:class:`~repro.placement.base.PlacementContext` (WCG + TRGs + the
popular set), place under an ``obs`` span, simulate the layout on the
training trace — extracted so the CLI, tests and the HTTP service all
drive one implementation.  A layout produced here is byte-identical
(via :func:`repro.io.save_layout`) to one produced by the pre-service
CLI path.

Deadlines are *soft*: an overrunning request is detected when it
completes, its layout is discarded and a
:class:`~repro.errors.TaskTimeout` raised instead (the HTTP frontend
maps that to a 504-style status).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.cache.stats import MissStats
from repro.errors import TaskTimeout
from repro.eval.experiment import build_context, place_and_simulate
from repro.obs.clock import monotonic
from repro.placement.base import PlacementContext
from repro.program.layout import Layout
from repro.service.requests import PlacementRequest, make_algorithm
from repro.trace.trace import Trace

__all__ = ["PlacementResult", "run_placement"]


@dataclass(frozen=True)
class PlacementResult:
    """What one placement job produced."""

    algorithm: str
    layout: Layout
    context: PlacementContext
    trace: Trace
    train_stats: MissStats
    elapsed: float


def _place_once(request: PlacementRequest) -> dict[str, Any]:
    trace = request.resolve_trace()
    context = build_context(trace, request.config, store=request.store)
    # The layout is scored on the trace it was trained on.
    outcome = place_and_simulate(
        context, trace, make_algorithm(request.algorithm)
    )
    obs.set_gauge("place.procedures", len(context.program))
    return {
        "algorithm": outcome.algorithm,
        "layout": outcome.layout,
        "context": context,
        "trace": trace,
        "train_stats": outcome.stats,
    }


def run_placement(request: PlacementRequest) -> PlacementResult:
    """Execute *request* and return the placed layout with its stats.

    Raises :class:`~repro.errors.ServiceError` on an invalid request,
    :class:`~repro.errors.TaskTimeout` when a ``deadline`` was given
    and the job overran it, and whatever the pipeline itself raises
    (all :class:`~repro.errors.ReproError` subclasses) otherwise.
    """
    request.validate()
    started = monotonic()
    value = _place_once(request)
    elapsed = monotonic() - started
    if request.deadline is not None and elapsed > request.deadline:
        raise TaskTimeout(
            f"task service:place:{request.algorithm} took "
            f"{elapsed:.3f}s, over its soft deadline of "
            f"{request.deadline:.3f}s"
        )
    return PlacementResult(**value, elapsed=elapsed)
