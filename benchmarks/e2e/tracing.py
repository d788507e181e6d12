"""Outside-in span tracer for the traced pass of the benchmark.

End-to-end metrics are measured with the library untouched.  The
per-layer numbers come from one more set-up and repetition run under
:meth:`Tracer.installed`, which replaces every entry of
:data:`PATCH_POINTS` with a wrapper that records a span around the
original; the benchmark also opens spans around its own direct calls
into the library.  A span records its name, start, end, parent id and
cell id (the placement cell that was running).  :func:`fold` turns
spans into per-layer self times: a span's duration minus the time its
child spans cover.

A patch target that no longer exists is listed in
:attr:`Tracer.missing` instead of being skipped silently, and every
original is restored when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.obs.clock import monotonic

#: ``(args, kwargs, result)`` of a traced call -> numeric span attributes.
Measure = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class PatchPoint:
    """One traced library function.

    *target* is ``"module:function"`` or ``"module:Class.method"``;
    *span* names the span, or computes the name from the call's
    ``(args, kwargs)``.
    """

    target: str
    span: str | Callable[[tuple, dict], str]
    measure: Measure | None = None


def _argument(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _simulate_span(args: tuple, kwargs: dict) -> str:
    """``cache.simulate_stream.<engine>``, resolving ``auto`` the way
    :func:`repro.cache.simulator.simulate_stream` does."""
    config = _argument(args, kwargs, 1, "config")
    engine = args[2] if len(args) > 2 else kwargs.get("engine", "auto")
    if engine == "auto":
        engine = "fast" if config.is_direct_mapped else "lru"
    return f"cache.simulate_stream.{engine}"


def _lines_out(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"lines": len(result.lines)}


def _lines_in(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"lines": len(_argument(args, kwargs, 0, "stream").lines)}


def _events(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"events": len(result)}


def _hits(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"hits": int(result is not None)}


def _put_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(_argument(args, kwargs, 3, "data"))}


#: Every library boundary the traced pass records, and its span name
#: (``<repro subpackage>.<public function>``).
PATCH_POINTS: tuple[PatchPoint, ...] = (
    PatchPoint("repro.eval.experiment:select_popular", "profiles.select_popular"),
    PatchPoint("repro.eval.experiment:get_or_build_wcg", "profiles.build_wcg"),
    PatchPoint("repro.eval.experiment:get_or_build_trgs", "profiles.build_trgs"),
    PatchPoint(
        "repro.eval.experiment:get_or_build_pair_database",
        "profiles.build_pair_database",
    ),
    PatchPoint("repro.cache.simulator:line_stream", "cache.line_stream", _lines_out),
    PatchPoint("repro.cache.simulator:simulate_stream", _simulate_span, _lines_in),
    PatchPoint("repro.core.gbsc:gbsc_nodes", "core.gbsc_nodes"),
    PatchPoint("repro.core.gbsc:merge_nodes", "core.merge_nodes"),
    PatchPoint("repro.core.gbsc:linearize", "core.linearize"),
    PatchPoint("repro.core.setassoc:merge_nodes_sa", "core.merge_nodes_sa"),
    PatchPoint("repro.core.setassoc:linearize", "core.linearize"),
    PatchPoint(
        "repro.trace.generator:generate_trace", "trace.generate_trace", _events
    ),
    PatchPoint("repro.placement.base:PlacementContext.perturbed", "profiles.perturbed"),
    PatchPoint("repro.store.store:ArtifactStore.get", "store.get", _hits),
    PatchPoint("repro.store.store:ArtifactStore.put", "store.put", _put_bytes),
    PatchPoint(
        "repro.placement.identity:DefaultPlacement.place", "placement.default.place"
    ),
    PatchPoint("repro.placement.ph:PettisHansenPlacement.place", "placement.ph.place"),
    PatchPoint(
        "repro.placement.hkc:HashemiKaeliCalderPlacement.place",
        "placement.hkc.place",
    ),
    PatchPoint("repro.core.gbsc:GBSCPlacement.place", "core.gbsc.place"),
    PatchPoint(
        "repro.core.setassoc:GBSCSetAssociativePlacement.place",
        "core.gbsc_sa.place",
    ),
)


class Tracer:
    """Records spans in memory; patches the library while installed."""

    def __init__(self, points: Sequence[PatchPoint] = PATCH_POINTS) -> None:
        self.points = tuple(points)
        self.spans: list[dict[str, Any]] = []
        self.missing: list[str] = []
        self.cell: int | None = None
        self._next_cell = 0
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def next_cell(self) -> None:
        """Mark the start of a new placement cell."""
        self.cell = self._next_cell
        self._next_cell += 1

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Record one span; yields its attribute dict for counts."""
        record: dict[str, Any] = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "cell": self.cell,
            "name": name,
            "start": monotonic(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["attrs"]
        except BaseException as error:
            record["error"] = type(error).__name__
            raise
        finally:
            self._stack.pop()
            record["end"] = monotonic()

    def _wrap(self, point: PatchPoint, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name = point.span if isinstance(point.span, str) else point.span(
                args, kwargs
            )
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if point.measure is not None:
                    attrs.update(point.measure(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every point for the duration of the block."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            for point in self.points:
                self._patch(point)
            yield self
        finally:
            while self._restore:
                self._restore.pop()()

    def _patch(self, point: PatchPoint) -> None:
        module_name, _, path = point.target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
            for name in owner_path:
                owner = getattr(owner, name)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(point.target)
            return
        if not inspect.isfunction(original):
            self.missing.append(point.target)
            return
        own = attr in vars(owner)
        setattr(owner, attr, self._wrap(point, original))

        def restore() -> None:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(restore)


def fold(spans: Sequence[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-name totals: ``self_s``, ``total_s``, ``calls`` and the sum
    of every numeric span attribute."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    layers: dict[str, dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        layer = layers.setdefault(
            span["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        layer["self_s"] += duration - covered.get(span["id"], 0.0)
        layer["total_s"] += duration
        layer["calls"] += 1
        for key, value in span["attrs"].items():
            layer[key] = layer.get(key, 0) + value
    return {name: layers[name] for name in sorted(layers)}


def subtree(spans: Sequence[dict[str, Any]], root: int) -> list[dict[str, Any]]:
    """The span with id *root* and all its descendants."""
    keep = {root}
    chosen = []
    for span in spans:  # parents are always recorded before children
        if span["id"] == root or span["parent"] in keep:
            keep.add(span["id"])
            chosen.append(span)
    return chosen


def write_spans(path: Path, spans: Sequence[dict[str, Any]]) -> None:
    """One JSON object per span, in start order."""
    path.write_text("".join(json.dumps(span) + "\n" for span in spans))
