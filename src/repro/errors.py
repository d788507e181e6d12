"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting programming errors (``TypeError``,
``KeyError`` from misuse of plain dicts, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value (cache geometry, chunk size, ...)."""


class ProgramError(ReproError):
    """An invalid program model (duplicate procedures, bad sizes, ...)."""


class LayoutError(ReproError):
    """An invalid layout (overlapping procedures, missing addresses, ...)."""


class TraceError(ReproError):
    """An invalid trace (references to unknown procedures, bad extents)."""


class PlacementError(ReproError):
    """A placement algorithm was driven with inconsistent inputs."""


class ObservabilityError(ReproError):
    """The observability layer was misused (metric kind clash, bad
    histogram edges, writing to a closed sink)."""


class PerfError(ReproError):
    """The perf lab was driven with unusable inputs (a history ledger
    that does not parse, a malformed baselines file)."""


class AnalysisError(ReproError):
    """The static-analysis subsystem was driven with invalid inputs
    (unauditable artifact, missing program model, unknown lint rule)."""


class ManifestMissingError(AnalysisError):
    """A run file holds no manifest line: the run never finished."""


class AuditFailure(AnalysisError):
    """An artifact audit reported error-severity findings.

    Raised by :func:`repro.analysis.require_clean` when callers want a
    hard failure instead of a findings list.
    """


class StoreError(ReproError):
    """The artifact store was misused or found an unusable cache
    directory (corrupt index, blob path collisions, writes to a
    read-only store)."""


class RunnerError(ReproError):
    """The fault-tolerant batch runner was misused or found a corrupt
    checkpoint (grid mismatch on resume, unreadable journal, bad fault
    plan)."""


class TransientTaskError(RunnerError):
    """A task failed in a way expected to succeed on retry.

    The fault-injection harness's ``transient`` kind raises this;
    :class:`repro.runner.TaskGuard` re-runs the task at once, up to
    its retry bound, before recording a failure.
    """


class TaskTimeout(RunnerError):
    """A placement request exceeded its soft deadline.

    Deadlines are *soft*: :func:`repro.service.run_placement` detects
    the overrun when the request completes and discards its result.
    The batch runner records one (e.g. the fault harness's ``timeout``
    kind) as a permanent failure.  Never retried.
    """


class ChaosError(ReproError):
    """The chaos layer was misused (malformed io fault plan, unknown
    write site, a campaign driven without a runnable baseline)."""


class ServiceError(ReproError):
    """The library-level placement API was driven with an unusable
    request (no trace source, unknown algorithm, bad deadline) or the
    placement service received a request it cannot honour."""


class SimulatedKill(BaseException):
    """Injected by a fault plan to simulate a hard kill (SIGKILL).

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    ordinary ``except Exception`` recovery paths cannot swallow it —
    exactly the semantics of a process that disappears mid-task.  It
    still unwinds ``finally`` blocks and context managers, so graceful
    cleanup (temp-file removal, journal close) *does* run; use
    :class:`SimulatedCrash` to model a crash where it must not.
    """


class SimulatedCrash(SimulatedKill):
    """Injected to simulate a power cut / un-trappable crash.

    Like :class:`SimulatedKill` it unwinds as a ``BaseException``, but
    cleanup paths that a real ``SIGKILL`` would never reach — notably
    :func:`repro.io.atomic_writer`'s temp-file unlink — deliberately
    skip their tidy-up for this type, so the on-disk state after the
    exception is exactly what a hard crash would strand (orphan
    ``*.tmp`` files, torn journal tails).  Recovery code is then tested
    against that state, not an idealised one.
    """
