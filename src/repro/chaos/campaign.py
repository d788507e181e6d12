"""Crash campaigns: enumerate, inject, crash, recover, verify.

A campaign turns the recovery contract of ``docs/crash-consistency.md``
into an executable experiment.  It first runs the batch **fault-free**
under :func:`repro.chaos.sites.recording` to enumerate every write-site
firing — the campaign's address space — then picks crash points
(stratified across site families so the store does not drown out the
journal), and replays the run once per point with a single scheduled
:class:`~repro.chaos.plan.Injection` installed.

After each simulated crash the driver re-opens the tree and asserts
the contract:

* the durable surfaces still parse (:func:`audit_crash_scene`);
* a ``resume`` run completes and reproduces the uninterrupted
  baseline report **byte for byte**;
* after ``gc``, no stranded temp files, error-severity store findings
  or unreadable journal (a resume that corrupts it) survive.

Violations become :class:`~repro.analysis.findings.Finding` objects
(the ``chaos/*`` family), so campaign results flow through the same
formatters, JSON export and CI gates as every other auditor.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
import random as _random
from typing import Any, Callable, Sequence

from repro import obs
from repro.analysis.crash_audit import audit_crash_scene, find_stale_tmp
from repro.analysis.findings import Finding, Location, Severity, sort_findings
from repro.chaos import sites
from repro.chaos.plan import ERROR_KINDS, FaultPlan, Injection
from repro.errors import ChaosError, ReproError, SimulatedKill
from repro.io import atomic_write_text
from repro.resilience import best_effort, null_sleep
from repro.runner import BatchRunner
from repro.store import ArtifactStore
from repro.workloads.spec import clear_trace_memo

FINDINGS_FORMAT = "repro/chaos-campaign"
FINDINGS_VERSION = 1

#: The error kinds a campaign rotates through by default: the ways a
#: write can fail.
CRASH_ERRORS = ("enospc", "eio", "torn", "kill", "crash")


@dataclass(frozen=True)
class CrashPoint:
    """One scheduled crash: a write-site firing plus an error kind."""

    index: int
    site: str
    point: str
    occurrence: int
    error: str

    @property
    def label(self) -> str:
        """Stable human id, e.g. ``store.index/replace#2:torn``."""
        return f"{self.site}/{self.point}#{self.occurrence}:{self.error}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "site": self.site,
            "point": self.point,
            "occurrence": self.occurrence,
            "error": self.error,
        }


@dataclass
class CampaignResult:
    """Everything one finished campaign measured."""

    command: str
    seed: int
    baseline_report: str
    points: tuple[CrashPoint, ...]
    crashed: int
    degraded: int
    clean: int
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        """True when every crash point honoured the recovery contract."""
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FINDINGS_FORMAT,
            "version": FINDINGS_VERSION,
            "command": self.command,
            "seed": self.seed,
            "points": [point.to_dict() for point in self.points],
            "summary": {
                "points": len(self.points),
                "crashed": self.crashed,
                "degraded": self.degraded,
                "clean": self.clean,
                "ok": self.ok,
            },
            "findings": [
                {
                    "rule": finding.rule,
                    "severity": finding.severity.value,
                    "message": finding.message,
                    "file": finding.location.file,
                    "line": finding.location.line,
                    "object": finding.location.obj,
                }
                for finding in sort_findings(self.findings)
            ],
        }


def write_findings(result: CampaignResult, path: str | Path) -> None:
    """Persist *result* as the campaign findings artifact."""
    atomic_write_text(
        path,
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        site="chaos.findings",
    )


def select_crash_points(
    events: Sequence[tuple[str, str]],
    points: int,
    seed: int,
    errors: Sequence[str] = CRASH_ERRORS,
) -> tuple[CrashPoint, ...]:
    """Choose up to *points* crash points from recorded firings.

    Selection is stratified round-robin over site *families* (the
    prefix before the first dot: ``store``, ``io``, ``runner``,
    ``obs``…) so a store-heavy run still crashes the journal and the
    sinks.  Within each family the order is shuffled by a
    :class:`random.Random` seeded with *seed* — same seed, same
    campaign.  Error kinds rotate through *errors* in selection order.
    """
    if points < 1:
        raise ChaosError(f"campaign needs at least one point, got {points}")
    if not errors:
        raise ChaosError("campaign needs at least one error kind")
    for kind in errors:
        if kind not in ERROR_KINDS:
            raise ChaosError(
                f"unknown injection error {kind!r}; "
                f"expected one of {ERROR_KINDS}"
            )
    counts: dict[tuple[str, str], int] = {}
    families: dict[str, list[tuple[str, str, int]]] = {}
    for site, point in events:
        occurrence = counts.get((site, point), 0)
        counts[(site, point)] = occurrence + 1
        families.setdefault(site.split(".")[0], []).append(
            (site, point, occurrence)
        )
    rng = _random.Random(seed)
    queues = []
    for name in sorted(families):
        rng.shuffle(families[name])
        queues.append(families[name])
    ordered: list[tuple[str, str, int]] = []
    while len(ordered) < points and any(queues):
        for queue in queues:
            if queue and len(ordered) < points:
                ordered.append(queue.pop())
    return tuple(
        CrashPoint(
            index=index,
            site=site,
            point=point,
            occurrence=occurrence,
            error=errors[index % len(errors)],
        )
        for index, (site, point, occurrence) in enumerate(ordered)
    )


def _point_finding(rule: str, message: str, cp: CrashPoint) -> Finding:
    return Finding(
        rule=rule,
        severity=Severity.ERROR,
        message=f"[{cp.label}] {message}",
        location=Location(obj=cp.label),
    )


def _tag_scene_findings(
    scene: Sequence[Finding], cp: CrashPoint
) -> list[Finding]:
    return [
        Finding(
            rule=finding.rule,
            severity=finding.severity,
            message=f"[{cp.label}] {finding.message}",
            location=Location(
                file=finding.location.file,
                line=finding.location.line,
                obj=cp.label,
            ),
        )
        for finding in scene
    ]


def run_campaign(
    batch_factory: Callable[[Any], Any],
    workdir: str | Path,
    *,
    command: str,
    points: int = 20,
    seed: int = 0,
    errors: Sequence[str] = CRASH_ERRORS,
    echo: Callable[[str], None] | None = None,
    keep: bool = False,
) -> CampaignResult:
    """Run one crash campaign; see the module docstring.

    *batch_factory* takes an :class:`~repro.store.ArtifactStore` and
    returns a fresh batch bound to it — every crash point (and its
    resume) runs against its own store and checkpoint directory under
    *workdir*, so points are independent and replayable in isolation.
    Point directories are removed as they pass unless *keep* is set;
    findings always survive in the returned :class:`CampaignResult`.
    """
    say = echo if echo is not None else (lambda line: None)
    base = Path(workdir)
    base.mkdir(parents=True, exist_ok=True)

    baseline_dir = base / "baseline"
    if baseline_dir.exists():
        shutil.rmtree(baseline_dir)
    events: list[tuple[str, str]] = []
    store = ArtifactStore(baseline_dir / "store")
    runner = BatchRunner(
        batch_factory(store),
        baseline_dir / "ckpt",
        store=store,
        sleep=null_sleep,
    )
    say(f"chaos: baseline {command} run (fault-free, recording)")
    # Every campaign run models a fresh process: the in-process trace
    # memo would otherwise elide store writes the baseline performed,
    # drifting the write-site enumeration between record and replay.
    clear_trace_memo()
    with sites.recording(events):
        with obs.RunSession(
            command=command,
            config={"chaos": "baseline"},
            metrics_out=baseline_dir / "run.jsonl",
            with_git=False,
        ):
            baseline = runner.run()
    if not baseline.ok:
        raise ChaosError(
            f"baseline {command} run degraded "
            f"({len(baseline.failures)} failed, "
            f"{len(baseline.pending)} pending); a campaign needs a "
            "clean run to crash"
        )
    # Campaigns crash writes; the runner's task site is not one.
    events = [event for event in events if event[0] in sites.WRITE_SITES]
    say(
        f"chaos: recorded {len(events)} write-site firings across "
        f"{len({site for site, _ in events})} sites"
    )

    selected = select_crash_points(events, points, seed, errors)
    findings: list[Finding] = []
    crashed = degraded = clean = 0
    for cp in selected:
        point_dir = base / f"point-{cp.index:03d}"
        if point_dir.exists():
            shutil.rmtree(point_dir)
        ckpt = point_dir / "ckpt"
        store_dir = point_dir / "store"
        run_file = point_dir / "run.jsonl"
        plan = FaultPlan(
            [
                Injection(
                    site=cp.site,
                    point=cp.point,
                    error=cp.error,
                    times=1,
                    skip=cp.occurrence,
                )
            ]
        )
        point_store = ArtifactStore(store_dir)
        point_runner = BatchRunner(
            batch_factory(point_store),
            ckpt,
            store=point_store,
            sleep=null_sleep,
        )
        outcome_word = "clean"
        clear_trace_memo()
        with sites.installed(plan):
            session = obs.RunSession(
                command=command,
                config={"chaos": cp.label},
                metrics_out=run_file,
                with_git=False,
            )
            try:
                outcome = point_runner.run()
                if not outcome.ok:
                    outcome_word = "degraded"
                # The manifest emit is a write site too: a kill during
                # session teardown is one more crash point.
                session.finish()
            except SimulatedKill:
                # Covers SimulatedCrash too: the "process" died here,
                # so no manifest is written (power-cut teardown).
                outcome_word = "crashed"
                session.abort()
            except ReproError:
                # The injection already fired (and is spent), so the
                # teardown below cannot re-raise.
                outcome_word = "degraded"
                session.finish()
            except Exception as error:  # noqa: BLE001 — contract gate
                outcome_word = "escaped"
                findings.append(
                    _point_finding(
                        "chaos/unexpected-error",
                        f"injected {cp.error} escaped the error "
                        "taxonomy as "
                        f"{type(error).__name__}: {error}",
                        cp,
                    )
                )
                session.finish()
            if outcome_word == "crashed":
                crashed += 1
            elif outcome_word == "degraded":
                degraded += 1
            elif outcome_word == "clean":
                clean += 1
        if not plan.fired:
            findings.append(
                _point_finding(
                    "chaos/unexpected-error",
                    "injection never fired; write-site enumeration "
                    "drifted between baseline and replay",
                    cp,
                )
            )
        say(f"chaos: [{cp.index:03d}] {cp.label} -> {outcome_word}")

        findings.extend(
            _tag_scene_findings(
                audit_crash_scene(
                    checkpoint=ckpt, store=store_dir, run_file=run_file
                ),
                cp,
            )
        )

        resume_store = ArtifactStore(store_dir)
        resume_runner = BatchRunner(
            batch_factory(resume_store),
            ckpt,
            resume=True,
            store=resume_store,
            sleep=null_sleep,
        )
        clear_trace_memo()
        try:
            with obs.RunSession(
                command=command,
                config={"chaos": f"{cp.label}/resume"},
                metrics_out=point_dir / "resume.jsonl",
                with_git=False,
            ):
                resumed = resume_runner.run()
        except ReproError as error:
            findings.append(
                _point_finding(
                    "chaos/resume-failed",
                    f"resume raised {type(error).__name__}: {error}",
                    cp,
                )
            )
        else:
            if not resumed.ok:
                findings.append(
                    _point_finding(
                        "chaos/resume-failed",
                        f"resume degraded: {len(resumed.failures)} "
                        f"failed, {len(resumed.pending)} pending",
                        cp,
                    )
                )
            elif resumed.report != baseline.report:
                findings.append(
                    _point_finding(
                        "chaos/resume-mismatch",
                        "resumed report differs from the "
                        "uninterrupted baseline report",
                        cp,
                    )
                )
        resume_store.gc()
        for stale in find_stale_tmp(point_dir):
            findings.append(
                _point_finding(
                    "chaos/temp-orphan",
                    "temp file survives resume sweep and gc: "
                    f"{stale.relative_to(point_dir).as_posix()}",
                    cp,
                )
            )
        findings.extend(
            _tag_scene_findings(
                audit_crash_scene(checkpoint=ckpt, store=store_dir), cp
            )
        )
        if not keep:
            best_effort(shutil.rmtree, point_dir)
    if not keep:
        best_effort(shutil.rmtree, baseline_dir)

    return CampaignResult(
        command=command,
        seed=seed,
        baseline_report=baseline.report,
        points=selected,
        crashed=crashed,
        degraded=degraded,
        clean=clean,
        findings=tuple(sort_findings(findings)),
    )
