"""Text reporting mirroring the paper's tables and figure data.

The benchmark harness prints through these helpers so every table and
figure of the paper has a recognisable textual counterpart: Table 1
rows, Figure 5 CDF series, and Figure 6 scatter data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.cache.simulator import simulate
from repro.eval.asciiplot import ascii_bars
from repro.eval.randomization import SweepResult
from repro.obs import format_duration
from repro.placement.base import PlacementContext
from repro.program.layout import Layout
from repro.trace.trace import Trace


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's row of Table 1."""

    name: str
    total_size: int
    total_count: int
    popular_size: int
    popular_count: int
    train_events: int
    test_events: int
    default_miss_rate: float
    avg_q_size: float


def table1_row(
    name: str,
    context: PlacementContext,
    train_events: int,
    test_trace: Trace,
) -> Table1Row:
    """Measure one Table 1 row: program and profile sizes plus the
    default layout's miss rate on the test trace (nothing is placed)."""
    program = context.program
    default_stats = simulate(
        Layout.default(program), test_trace, context.config
    )
    return Table1Row(
        name=name,
        total_size=program.total_size,
        total_count=len(program),
        popular_size=program.subset_size(context.popular),
        popular_count=len(context.popular),
        train_events=train_events,
        test_events=len(test_trace),
        default_miss_rate=default_stats.miss_rate,
        avg_q_size=(
            context.trgs.select_stats.avg_q_entries if context.trgs else 0.0
        ),
    )


TABLE1_HEADER = (
    f"{'program':<12} {'size':>9} {'count':>6} {'pop size':>9} "
    f"{'pop cnt':>7} {'train':>8} {'test':>8} {'def MR':>8} {'avg Q':>6}"
)


def format_table1_row(row: Table1Row) -> str:
    return (
        f"{row.name:<12} {row.total_size:>9} {row.total_count:>6} "
        f"{row.popular_size:>9} {row.popular_count:>7} "
        f"{row.train_events:>8} {row.test_events:>8} "
        f"{row.default_miss_rate:>8.2%} {row.avg_q_size:>6.1f}"
    )


def format_table1(rows: Sequence[Table1Row]) -> str:
    lines = [TABLE1_HEADER]
    lines.extend(format_table1_row(row) for row in rows)
    return "\n".join(lines)


def format_figure5_panel(
    benchmark: str, results: Sequence[SweepResult]
) -> str:
    """One Figure 5 panel as text: sorted series plus the MR table."""
    lines = [f"== {benchmark} =="]
    for result in results:
        series = " ".join(f"{rate:.4%}" for rate in result.miss_rates)
        lines.append(f"{result.algorithm:<6} {series}")
    lines.append("unperturbed miss rates:")
    for result in results:
        lines.append(f"  {result.algorithm:<6} MR = {result.unperturbed:.4%}")
    return "\n".join(lines)


def format_scatter(
    label: str, points: Sequence[tuple[float, float]], correlation: float
) -> str:
    """Figure 6-style scatter data: (miss rate, metric) pairs."""
    lines = [f"== {label} (pearson r = {correlation:+.3f}) =="]
    for miss_rate, metric in points:
        lines.append(f"  {miss_rate:.4%}  {metric:.1f}")
    return "\n".join(lines)


def _format_metric_value(entry: Mapping[str, Any]) -> str:
    kind = entry.get("kind")
    if kind == "histogram":
        return (
            f"count={entry.get('count')} sum={entry.get('sum')} "
            f"min={entry.get('min')} max={entry.get('max')} "
            f"buckets={entry.get('counts')}"
        )
    value = entry.get("value")
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _timing_lines(
    node: Mapping[str, Any], depth: int, out: list[str]
) -> None:
    indent = "  " * depth
    attributes = node.get("attributes") or {}
    suffix = ""
    if attributes:
        rendered = " ".join(f"{k}={v}" for k, v in attributes.items())
        suffix = f"  ({rendered})"
    error = node.get("error")
    if error:
        suffix += f"  [error: {error}]"
    out.append(
        f"  {indent}{node['name']}: "
        f"{format_duration(node.get('duration') or 0.0)}{suffix}"
    )
    for child in node.get("children") or ():
        _timing_lines(child, depth + 1, out)


def format_manifest_report(
    manifest: Mapping[str, Any], width: int = 40
) -> str:
    """Human-readable rendering of a run manifest (``report`` command).

    Three sections: a header echoing the run identity, the phase timing
    tree with a bar chart of the top-level phases, and the final metric
    snapshot.
    """
    command = manifest.get("command", "?")
    git = manifest.get("git")
    elapsed = manifest.get("elapsed") or 0.0
    lines = [
        f"run: {command}"
        + (f"  (git {git})" if git else "")
        + f"  elapsed {format_duration(elapsed)}"
    ]
    config = manifest.get("config") or {}
    if config:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
        lines.append(f"config: {rendered}")

    timings = manifest.get("timings") or []
    if timings:
        lines.append("")
        lines.append("phases:")
        items = [
            (t["name"], float(t.get("duration") or 0.0)) for t in timings
        ]
        bars = ascii_bars(items, width=width)
        for bar, (_, duration) in zip(bars, items):
            lines.append(f"  {bar} {format_duration(duration)}")
        lines.append("")
        lines.append("timings:")
        for root in timings:
            _timing_lines(root, 0, lines)

    metrics = manifest.get("metrics") or {}
    if metrics:
        lines.append("")
        lines.append("metrics:")
        name_width = max(len(name) for name in metrics)
        for name, entry in metrics.items():
            lines.append(
                f"  {name:<{name_width}}  {entry.get('kind', '?'):<9}  "
                f"{_format_metric_value(entry)}"
            )
        hit_rate_line = _store_hit_rate_line(metrics)
        if hit_rate_line is not None:
            lines.append(hit_rate_line)
    profile = manifest.get("profile")
    if isinstance(profile, Mapping):
        functions = profile.get("functions") or {}
        lines.append("")
        lines.append(
            f"profile: {len(functions)} repro.* function(s) sampled "
            "(render with 'repro-layout perf profile')"
        )
    return "\n".join(lines)


def _store_hit_rate_line(
    metrics: Mapping[str, Mapping[str, Any]]
) -> str | None:
    """Derived ``store.hit_rate`` from the store access counters.

    Returns ``None`` when the run never touched a store; renders the
    zero-access case explicitly rather than dividing by zero.
    """
    hit_entry = metrics.get("store.hit")
    miss_entry = metrics.get("store.miss")
    if hit_entry is None and miss_entry is None:
        return None
    hits = (hit_entry or {}).get("value") or 0
    misses = (miss_entry or {}).get("value") or 0
    accesses = hits + misses
    if not accesses:
        return "  store.hit_rate: n/a (no store accesses)"
    return (
        f"  store.hit_rate: {hits / accesses:.1%} "
        f"({hits} of {accesses} lookups)"
    )
