"""``compare PARENT_DIR CHANGE_DIR``: verdicts for two sets of runs.

Each directory holds the result directories of several invocations
(``<workload>.json`` files anywhere below it).  Runs pair up in path
order.  Per workload and metric the tool prints each side's median and
quartiles and a verdict:

* ``better`` — the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``unresolved`` — the parent's spread (quartile distance over median)
  exceeds the metric's bound;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

Metrics with bound 0 (``miss_rate``, ``error_rate``) are deterministic
per seed, so both sides must run the same seeds in the same order:
they are ``identical`` when every pair is equal, ``worse`` when any
pair is worse, and ``better`` otherwise.  Layer metrics have no bound
and get no verdict.  Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.e2e.spec import BY_NAME, Metric


def collect(root: Path) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values``, one value per run."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in sorted(root.rglob("*.json")):
        if path.name.endswith(".layers.json"):
            continue
        data = json.loads(path.read_text())
        if not isinstance(data, dict) or "workload" not in data:
            continue
        runs = values.setdefault(data["workload"], {})
        for name, entry in data["metrics"].items():
            runs.setdefault(name, []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric: Metric, parent: list[float], change: list[float]) -> str:
    """Judge *change* against *parent* by the rule in the module doc."""
    sign = 1 if metric.better == "lower" else -1  # sign * (c - p) > 0: worse
    pairs = list(zip(parent, change))
    if metric.bound == 0:  # deterministic per seed: compare run by run
        if any(sign * (c - p) > 0 for p, c in pairs):
            return "worse"
        return "identical" if all(p == c for p, c in pairs) else "better"
    p_q1, _, p_q3 = quartiles(parent)
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (p_median - c_median) > (
        p_q3 - p_q1
    ):
        return "better"
    scale = abs(p_median)
    spread = (p_q3 - p_q1) / scale if scale else float(p_q3 > p_q1)
    worse_by = sign * (c_median - p_median)
    worse_by = worse_by / scale if scale else float(worse_by > 0)
    assert metric.bound is not None
    if spread > metric.bound:
        return "unresolved"
    return "worse" if worse_by > metric.bound else "within bound"


def compare(parent_dir: Path, change_dir: Path) -> int:
    parent = collect(parent_dir)
    change = collect(change_dir)
    worse = False
    header = (
        f"{'workload':<13} {'metric':<42} {'parent median [q1, q3] n':>36} "
        f"{'change median [q1, q3] n':>36}  verdict"
    )
    print(header)
    for workload in sorted(set(parent) & set(change)):
        names = sorted(set(parent[workload]) & set(change[workload]))
        for name in names:
            p_values = parent[workload][name]
            c_values = change[workload][name]
            metric = BY_NAME.get(name)
            result = "-" if metric is None else verdict(metric, p_values, c_values)
            worse = worse or result == "worse"
            print(
                f"{workload:<13} {name:<42} {_summary(p_values):>36} "
                f"{_summary(c_values):>36}  {result}"
            )
    return 1 if worse else 0


def _summary(values: list[float]) -> str:
    q1, _, q3 = quartiles(values)
    return (
        f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] {len(values)}"
    )
