"""Named counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` maps dotted metric names
(``"gbsc.merge.offsets_evaluated"``) to one of three instrument kinds:

* **counters** — monotonically non-decreasing totals (``inc``);
* **gauges** — last-value-wins observations (``set``);
* **histograms** — fixed-bucket distributions (``observe``), where
  bucket ``i`` counts values in ``(edges[i-1], edges[i]]`` and one
  overflow bucket collects everything above the last edge.

Instruments are created on first use and type-checked on every later
lookup, so two call sites can never silently disagree about what a
name means.  ``snapshot()`` renders the whole registry as a
JSON-serialisable dict in sorted name order — the ``metrics`` section
of a run manifest.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping, Sequence

from repro.errors import ObservabilityError


class Counter:
    """A monotonically non-decreasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-value-wins observation."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """A fixed-bucket distribution with count/sum/min/max."""

    kind = "histogram"
    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[int | float]) -> None:
        if not edges:
            raise ObservabilityError(
                f"histogram {self.__class__.__name__} {name!r} needs at "
                "least one bucket edge"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ObservabilityError(
                f"histogram {name!r} edges must be strictly increasing: "
                f"{list(edges)}"
            )
        self.name = name
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total: int | float = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def observe(self, value: int | float) -> None:
        # bucket i holds (edges[i-1], edges[i]]; the final bucket is
        # the overflow above the last edge.
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_dict(self, entry: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_dict` snapshot of a same-shaped histogram
        into this one (the cross-process metric merge).

        Bucket edges must match exactly: two processes observing the
        same name with different bucketing is a programming error, not
        something a merge can paper over.
        """
        edges = tuple(entry.get("edges") or ())
        if edges != self.edges:
            raise ObservabilityError(
                f"histogram {self.name!r} bucket edges differ between "
                f"processes: {list(self.edges)} vs {list(edges)}"
            )
        counts = entry.get("counts") or []
        if len(counts) != len(self.counts):
            raise ObservabilityError(
                f"histogram {self.name!r} snapshot has {len(counts)} "
                f"buckets, expected {len(self.counts)}"
            )
        for index, value in enumerate(counts):
            self.counts[index] += value
        self.count += entry.get("count") or 0
        self.total += entry.get("sum") or 0
        other_min = entry.get("min")
        if other_min is not None and (
            self.min is None or other_min < self.min
        ):
            self.min = other_min
        other_max = entry.get("max")
        if other_max is not None and (
            self.max is None or other_max > self.max
        ):
            self.max = other_max

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _lookup(self, name: str, kind: str) -> Metric | None:
        metric = self._metrics.get(name)
        if metric is not None and metric.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._lookup(name, "counter")
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        return metric  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        metric = self._lookup(name, "gauge")
        if metric is None:
            metric = self._metrics[name] = Gauge(name)
        return metric  # type: ignore[return-value]

    def histogram(
        self, name: str, edges: Sequence[int | float] | None = None
    ) -> Histogram:
        metric = self._lookup(name, "histogram")
        if metric is None:
            if edges is None:
                raise ObservabilityError(
                    f"histogram {name!r} does not exist yet; bucket "
                    "edges are required on first use"
                )
            metric = self._metrics[name] = Histogram(name, edges)
        return metric  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-serialisable state of every instrument, sorted by name."""
        return {
            name: self._metrics[name].to_dict() for name in self.names()
        }

    def merge_snapshot(
        self, snapshot: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The HTTP service folds its private registry into a run
        session's this way when it shuts down.  Counters add, gauges
        take the incoming value (last-wins — callers must merge
        snapshots in a deterministic order), histograms require identical
        edges and add per-bucket counts.  Instruments are created on
        demand, with the usual kind checking.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(name).inc(entry.get("value") or 0)
            elif kind == "gauge":
                gauge = self.gauge(name)
                value = entry.get("value")
                if value is not None:
                    gauge.set(value)
            elif kind == "histogram":
                self.histogram(name, edges=entry.get("edges")).merge_dict(
                    entry
                )
            else:
                raise ObservabilityError(
                    f"cannot merge metric {name!r} of unknown kind "
                    f"{kind!r}"
                )
