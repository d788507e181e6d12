"""The site registry and the process-wide fault hook.

Every durable write in the repo is tagged with a **stable site id**
from :data:`WRITE_SITES`, so fault plans address writes symbolically
("the store's index replace") instead of by call stack.  The batch
runner's task protocol is one more site, in :data:`TASK_SITES`.
The ``conc/unregistered-write-site`` lint rule keeps the registry and
the code in sync: any ``repro.io`` writer call that does not pass a
registered literal ``site=`` is a finding.

At runtime this module is a near-zero-cost hook: :func:`fire` is
called at each write-protocol point and does nothing unless a plan is
installed (fault injection) or a recorder is active (campaign
enumeration).  The batch runner installs its plan once per run.  It
deliberately imports nothing above :mod:`repro.errors` — the hook sits
*below* ``repro.io`` and ``repro.obs`` in the layering, so it cannot
emit metrics or perform I/O of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.chaos.plan import FaultPlan
from repro.errors import ChaosError

#: Stable id -> human description of every registered write site.
WRITE_SITES: dict[str, str] = {
    "chaos.findings": "campaign findings JSON written by `chaos run`",
    "cli.lint-output": "lint findings payload written by `lint --output`",
    "io.atomic_writer": "generic atomic write (default for untagged callers)",
    "io.graph": "WCG/TRG graph JSON written by repro.io.save_graph",
    "io.layout": "layout JSON written by repro.io.save_layout",
    "io.program": "program JSON written by repro.io.save_program",
    "io.trace": "compressed trace npz written by repro.io.save_trace",
    "obs.sink": "JSONL event/manifest lines streamed by repro.obs sinks",
    "perf.history": "perf history ledger appends (benchmarks/results)",
    "runner.journal": "checkpoint journal appends (fsync per record)",
    "store.blob": "content-addressed blob writes under objects/",
    "store.index": "the store's index.json atomic replace",
    "workloads.spec": "custom workload spec JSON (save_workload)",
}

#: Sites that are not writes, fired with the task key.
TASK_SITES: dict[str, str] = {
    "runner.task": "batch task attempt entry (start) and body exit (finish)",
}

_GLOB_CHARS = "*?["

_PLAN: FaultPlan | None = None
_RECORDER: list[tuple[str, str]] | None = None


def active() -> FaultPlan | None:
    """The currently installed fault plan, if any."""
    return _PLAN


def install(plan: FaultPlan | None) -> None:
    """Install *plan* as the process-wide fault plan.

    Literal (non-glob) injection sites must name a registered site — a
    typo in a fault plan should fail loudly, not silently never fire.
    """
    global _PLAN
    if plan is not None:
        if not isinstance(plan, FaultPlan):
            raise ChaosError(
                f"install expects a FaultPlan, not {type(plan).__name__}"
            )
        registered = WRITE_SITES.keys() | TASK_SITES.keys()
        for spec in plan.injections:
            is_glob = any(ch in spec.site for ch in _GLOB_CHARS)
            if not is_glob and spec.site not in registered:
                raise ChaosError(
                    f"unknown site {spec.site!r}; registered sites: "
                    + ", ".join(sorted(registered))
                )
    _PLAN = plan


def uninstall() -> None:
    """Remove any installed fault plan."""
    global _PLAN
    _PLAN = None


@contextmanager
def installed(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Install *plan* for the duration of the block.

    ``installed(None)`` is an explicit no-op that leaves any already
    installed plan active — callers thread an optional plan through
    without special-casing.  The previous plan is restored on exit.
    """
    if plan is None:
        yield None
        return
    global _PLAN
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        _PLAN = previous


@contextmanager
def recording(
    events: list[tuple[str, str]],
) -> Iterator[list[tuple[str, str]]]:
    """Append every ``(site, point)`` firing to *events*.

    The campaign driver records a fault-free baseline run to enumerate
    its crash points before choosing where to inject.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = events
    try:
        yield events
    finally:
        _RECORDER = previous


def fire(
    site: str,
    point: str,
    handle: Any = None,
    payload: str | bytes | None = None,
    key: str | None = None,
) -> None:
    """Notify the chaos hook of a site protocol point.

    No-op unless a recorder or plan is active.  *handle* and *payload*
    are forwarded so ``torn`` injections can corrupt the in-flight
    write, *key* so task-filtered injections can match; see
    :meth:`repro.chaos.plan.FaultPlan.fire`.
    """
    if _RECORDER is not None:
        _RECORDER.append((site, point))
    if _PLAN is not None:
        _PLAN.fire(site, point, handle=handle, payload=payload, key=key)
