"""The process-wide observability switch and its no-op-fast facade.

Observability is **disabled by default**: until something calls
:func:`enable` (a CLI run session, the benchmark harness, a test), the
module-level helpers — :func:`span`, :func:`inc`, :func:`set_gauge`,
:func:`observe` — reduce to a single ``None`` check and return, so
instrumented hot paths pay essentially nothing.  Instrumentation may
therefore be sprinkled through the pipeline unconditionally; it must
never alter a computation, only watch it.

The state is a plain module global rather than a context variable:
the pipeline is single-threaded by design (determinism contract), and
a global keeps the disabled-path cost at one attribute load.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Tracer


class Observability:
    """One enabled observability universe: a tracer plus a registry."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()


_STATE: Observability | None = None


def enable(state: Observability | None = None) -> Observability:
    """Install (and return) an observability state; fresh by default."""
    global _STATE
    _STATE = state if state is not None else Observability()
    return _STATE


def disable() -> None:
    """Return to the no-op default."""
    global _STATE
    _STATE = None


def restore(state: Observability | None) -> None:
    """Reinstall a state captured earlier with :func:`current`."""
    global _STATE
    _STATE = state


def current() -> Observability | None:
    """The active state, or ``None`` when disabled."""
    return _STATE


def is_enabled() -> bool:
    return _STATE is not None


class _NullSpan:
    """Shared allocation-free context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attributes: Any):
    """Open a tracing span, or a shared no-op when disabled."""
    state = _STATE
    if state is None:
        return _NULL_SPAN
    return state.tracer.span(name, **attributes)


def inc(name: str, amount: int | float = 1) -> None:
    """Increment a counter; no-op when disabled."""
    state = _STATE
    if state is not None:
        state.registry.counter(name).inc(amount)


def set_gauge(name: str, value: int | float) -> None:
    """Set a gauge; no-op when disabled."""
    state = _STATE
    if state is not None:
        state.registry.gauge(name).set(value)


def observe(
    name: str,
    value: int | float,
    edges: Sequence[int | float] | None = None,
) -> None:
    """Record into a histogram; no-op when disabled.

    *edges* is consulted only when the histogram does not exist yet.
    """
    state = _STATE
    if state is not None:
        state.registry.histogram(name, edges).observe(value)


def merge_snapshot(
    snapshot: Mapping[str, Mapping[str, Any]],
) -> None:
    """Fold a metric-registry snapshot (say, the HTTP service's
    private registry) into the active registry; no-op when disabled."""
    state = _STATE
    if state is not None:
        state.registry.merge_snapshot(snapshot)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "current",
    "disable",
    "enable",
    "inc",
    "is_enabled",
    "merge_snapshot",
    "observe",
    "restore",
    "set_gauge",
    "span",
]
