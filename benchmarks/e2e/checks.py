"""Output checks, written independently of ``repro.analysis``.

Every layout a repetition produces is checked structurally, every
simulated ``MissStats`` arithmetically, every repetition must
reproduce the first one's fingerprint, and the fingerprint must match
the committed ``expected.json`` (all of it at seed 0, the part no seed
changes at other seeds).  Each check counts as one attempt; each failed
check as one failure (``error_rate``).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Golden fingerprints of every workload at seed 0.
EXPECTED_PATH = Path(__file__).with_name("expected.json")


class Checks:
    """Counts attempted and failed checks, keeping failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def layout_digest(spans: Iterable[tuple[str, int, int]]) -> str:
    """sha256 of the sorted ``(name, start, end)`` triples."""
    canonical = json.dumps(sorted([list(span) for span in spans]))
    return hashlib.sha256(canonical.encode()).hexdigest()


def layout_problems(
    spans: Iterable[tuple[str, int, int]],
    sizes: Mapping[str, int],
    cache_size: int,
) -> list[str]:
    """Problems of one layout given as ``(name, start, end)`` triples.

    Every procedure of *sizes* placed exactly once and nothing else,
    each ``[start, end)`` as long as its procedure (sizes conserved),
    no two ranges overlapping, and every gap between neighbours smaller
    than one cache size.
    """
    spans = list(spans)
    problems: list[str] = []
    placed = Counter(name for name, _, _ in spans)
    missing = [name for name in sorted(sizes) if placed[name] == 0]
    if missing:
        problems.append(f"{len(missing)} procedures unplaced (first {missing[0]})")
    for name, count in sorted(placed.items()):
        if name not in sizes:
            problems.append(f"{name} is not a procedure of the program")
        elif count > 1:
            problems.append(f"{name} placed {count} times")
    for name, start, end in spans:
        if start < 0:
            problems.append(f"{name} starts at negative address {start}")
        if name in sizes and end - start != sizes[name]:
            problems.append(
                f"{name} occupies {end - start} bytes, its size is {sizes[name]}"
            )
    ordered = sorted((start, end, name) for name, start, end in spans)
    for (_, prev_end, prev), (start, _, name) in zip(ordered, ordered[1:]):
        if start < prev_end:
            problems.append(f"{prev} and {name} overlap at {start}")
        elif start - prev_end >= cache_size:
            problems.append(
                f"gap of {start - prev_end} bytes after {prev} is not "
                f"smaller than the cache ({cache_size})"
            )
    return problems


def stats_problems(stats: Any) -> list[str]:
    """Arithmetic problems of one ``MissStats``."""
    problems = []
    if stats.hits + stats.misses != stats.line_accesses:
        problems.append(
            f"hits {stats.hits} + misses {stats.misses} != "
            f"line accesses {stats.line_accesses}"
        )
    if not 0 <= stats.miss_rate <= 1:
        problems.append(f"miss rate {stats.miss_rate} outside [0, 1]")
    return problems


def load_expected() -> dict[str, Any]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def update_expected(workload: str, fingerprint: Mapping[str, Any]) -> None:
    """Record *fingerprint* as the golden output of *workload*."""
    golden = load_expected()
    golden[workload] = dict(fingerprint)
    EXPECTED_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
