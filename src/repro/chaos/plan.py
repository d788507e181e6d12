"""Deterministic fault schedules: the ``repro/faultplan`` format.

Robustness code that is only exercised by real failures is untested
code.  A :class:`FaultPlan` schedules failures instead: each
:class:`Injection` names a registered site (see
:mod:`repro.chaos.sites`), a point within that site's protocol, an
error kind, and exactly which occurrences to hit — so "the third index
write" or "the GBSC cells' first attempt" is a declarative, replayable
schedule rather than a monkeypatch.

Write sites follow the atomic-write protocol; streaming writers
(journal, sinks, ledger) use the subset that applies to them:

``before``
    before any filesystem effect (temp file creation / lazy open);
``data``
    after payload bytes reach the open handle (atomic writers) or
    just before the payload line is written (streaming appends —
    which lets ``torn`` write half the line first);
``fsync``
    before the fsync;
``replace``
    before the atomic rename commits the file;
``after``
    after the write committed (models a crash whose outcome the
    writer never observed).

The batch runner's ``runner.task`` site has two more points, ``start``
(attempt entry) and ``finish`` (the body returned, before the task is
journaled).  It fires with the task key, which an injection's *task*
glob filters on.

Error kinds: ``transient`` raises
:class:`~repro.errors.TransientTaskError` (the guard retries it),
``permanent`` :class:`~repro.errors.RunnerError`, ``timeout``
:class:`~repro.errors.TaskTimeout`, ``interrupt`` ``KeyboardInterrupt``;
``enospc`` and ``eio`` raise the matching ``OSError``; ``kill`` raises
:class:`~repro.errors.SimulatedKill` (graceful unwind); ``crash``
raises :class:`~repro.errors.SimulatedCrash` (cleanup suppressed);
``torn`` first tears the in-flight payload — half the line for
streaming writers, a truncated temp file for atomic ones — and then
crashes.

The JSON form has two entry shapes.  Version 1 lists ``injections``
addressed by task key glob at a task point (``start`` or ``finish``;
see :data:`TASK_POINTS` for the site each one fires at).
Version 2 adds an ``io`` array addressed by site.  Both load into the
same :class:`Injection`, and :meth:`FaultPlan.to_dict` writes each
back in the shape it came from, so plan files round-trip byte for
byte.
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import (
    ChaosError,
    RunnerError,
    SimulatedCrash,
    SimulatedKill,
    TaskTimeout,
    TransientTaskError,
)

FAULTPLAN_FORMAT = "repro/faultplan"
FAULTPLAN_VERSION = 2

#: Fault plan versions :meth:`FaultPlan.from_dict` accepts.
SUPPORTED_VERSIONS = (1, 2)

#: Every point an injection can target: the write protocol's, then the
#: ``runner.task`` site's.
POINTS = ("before", "data", "fsync", "replace", "after", "start", "finish")

#: Faultplan v1 task point -> the (site, point) it fires at.
TASK_POINTS: dict[str, tuple[str, str]] = {
    "start": ("runner.task", "start"),
    "finish": ("runner.task", "finish"),
}

_TASK_POINT_NAMES = {target: name for name, target in TASK_POINTS.items()}

#: Injectable failure kinds.
ERROR_KINDS = (
    "transient",
    "permanent",
    "timeout",
    "interrupt",
    "kill",
    "enospc",
    "eio",
    "torn",
    "crash",
)

#: Plan section -> (the key its entries are addressed by, default
#: point, default error).
_SECTIONS = {
    "injections": ("task", "start", "transient"),
    "io": ("site", "data", "eio"),
}

_ENTRY_KEYS = {"point", "error", "times", "skip", "message"}


@dataclass(frozen=True)
class Injection:
    """One scheduled fault.

    *site* may be a literal site id or an ``fnmatch`` glob
    (``store.*``).  *task*, when given, is a task-key glob the firing
    must also match; it applies only to the task points of
    :data:`TASK_POINTS`.  *skip* passes over that many matching
    firings before injecting; *times* injects on that many consecutive
    matches afterwards.
    """

    site: str
    point: str = "data"
    error: str = "eio"
    times: int = 1
    skip: int = 0
    message: str = ""
    task: str | None = None

    def __post_init__(self) -> None:
        if not self.site or not isinstance(self.site, str):
            raise ChaosError(
                f"injection site must be a non-empty string: {self.site!r}"
            )
        if self.point not in POINTS:
            raise ChaosError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {POINTS}"
            )
        if self.error not in ERROR_KINDS:
            raise ChaosError(
                f"unknown injection error {self.error!r}; "
                f"expected one of {ERROR_KINDS}"
            )
        if not isinstance(self.times, int) or self.times < 1:
            raise ChaosError(
                f"injection times must be a positive int: {self.times!r}"
            )
        if not isinstance(self.skip, int) or self.skip < 0:
            raise ChaosError(
                f"injection skip must be a non-negative int: {self.skip!r}"
            )
        if self.task is not None:
            if not self.task or not isinstance(self.task, str):
                raise ChaosError(
                    "injection task must be a non-empty string: "
                    f"{self.task!r}"
                )
            if (self.site, self.point) not in _TASK_POINT_NAMES:
                raise ChaosError(
                    f"a task filter needs a task point, not "
                    f"{self.site}/{self.point}"
                )

    @classmethod
    def from_entry(
        cls, entry: Any, section: str = "io"
    ) -> "Injection":
        """Parse one entry of the plan's ``injections`` (addressed by
        ``task``) or ``io`` (addressed by ``site``) array."""
        address, point, error = _SECTIONS[section]
        if not isinstance(entry, Mapping):
            raise ChaosError(
                f"malformed {section} entry {entry!r}: not an object"
            )
        unknown = set(entry) - _ENTRY_KEYS - {address}
        if unknown:
            raise ChaosError(
                f"malformed {section} entry {entry!r}: "
                f"unknown keys {sorted(unknown)}"
            )
        if address not in entry:
            raise ChaosError(
                f"malformed {section} entry {entry!r}: missing {address!r}"
            )
        point = entry.get("point", point)
        fields = {
            "error": entry.get("error", error),
            "times": entry.get("times", 1),
            "skip": entry.get("skip", 0),
            "message": entry.get("message", ""),
        }
        if address == "site":
            return cls(site=entry["site"], point=point, **fields)
        if not isinstance(point, str) or point not in TASK_POINTS:
            raise ChaosError(
                f"malformed {section} entry {entry!r}: unknown task "
                f"point {point!r} (expected one of {', '.join(TASK_POINTS)})"
            )
        site, point = TASK_POINTS[point]
        return cls(site=site, point=point, task=entry["task"], **fields)

    def to_entry(self) -> dict[str, Any]:
        """The JSON entry :meth:`from_entry` reads back, in the shape
        it was declared in (v1 task entries always carry every key)."""
        if self.task is None:
            entry: dict[str, Any] = {
                "site": self.site,
                "point": self.point,
                "error": self.error,
                "times": self.times,
            }
        else:
            entry = {
                "task": self.task,
                "point": _TASK_POINT_NAMES[(self.site, self.point)],
                "error": self.error,
                "times": self.times,
                "message": self.message,
            }
        if self.skip:
            entry["skip"] = self.skip
        if self.message:
            entry["message"] = self.message
        return entry


class FaultPlan:
    """A consumable schedule of :class:`Injection` specs.

    Injections are consumed in declaration order, every firing is
    appended to :attr:`fired` for post-run assertions.
    """

    def __init__(self, injections: Iterable[Injection] = ()) -> None:
        self.injections = tuple(injections)
        for spec in self.injections:
            if not isinstance(spec, Injection):
                raise ChaosError(
                    "fault plan entries must be Injection, not "
                    f"{type(spec).__name__}"
                )
        self._to_skip = [spec.skip for spec in self.injections]
        self._remaining = [spec.times for spec in self.injections]
        #: Log of every injected fault as ``(site, point, error)``.
        self.fired: list[tuple[str, str, str]] = []

    @property
    def exhausted(self) -> bool:
        """True once every scheduled injection has fired."""
        return all(remaining == 0 for remaining in self._remaining)

    def fire(
        self,
        site: str,
        point: str,
        handle: Any = None,
        payload: str | bytes | None = None,
        key: str | None = None,
    ) -> None:
        """Raise the first matching scheduled fault, if any.

        Called by :func:`repro.chaos.sites.fire` at every site event.
        *key* is the task key of ``runner.task`` firings;
        *handle*/*payload* give ``torn`` something to tear.
        """
        for index, spec in enumerate(self.injections):
            if self._remaining[index] <= 0:
                continue
            if spec.point != point or not fnmatchcase(site, spec.site):
                continue
            if spec.task is not None and (
                key is None or not fnmatchcase(key, spec.task)
            ):
                continue
            if self._to_skip[index] > 0:
                self._to_skip[index] -= 1
                continue
            self._remaining[index] -= 1
            self.fired.append((site, point, spec.error))
            where = f"{site}/{point}" if key is None else f"{key} {site}/{point}"
            message = spec.message or f"injected {spec.error} fault at {where}"
            _raise(spec.error, message, handle, payload)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ChaosError("fault plan must be a JSON object")
        if data.get("format") != FAULTPLAN_FORMAT:
            raise ChaosError(
                "fault plan payload is not "
                f"{FAULTPLAN_FORMAT!r} (found "
                f"format={data.get('format')!r})"
            )
        version = data.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise ChaosError(f"unsupported fault plan version {version!r}")
        if version < 2 and data.get("io"):
            raise ChaosError("fault plan 'io' section requires version 2")
        return cls(
            Injection.from_entry(entry, section)
            for section in _SECTIONS
            for entry in data.get(section) or ()
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON form; emits version 1 unless an ``io`` entry exists, so
        pre-existing v1 plan files round-trip byte-identically."""
        io = [spec.to_entry() for spec in self.injections if spec.task is None]
        payload: dict[str, Any] = {
            "format": FAULTPLAN_FORMAT,
            "version": FAULTPLAN_VERSION if io else 1,
            "injections": [
                spec.to_entry()
                for spec in self.injections
                if spec.task is not None
            ],
        }
        if io:
            payload["io"] = io
        return payload


def load_plan(path: str | Path) -> FaultPlan:
    """Read a JSON fault plan (the CLI's ``--inject`` argument)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ChaosError(
            f"cannot read fault plan from {path}: {error}"
        ) from error
    return FaultPlan.from_dict(data)


def _raise(
    kind: str,
    message: str,
    handle: Any,
    payload: str | bytes | None,
) -> None:
    if kind == "transient":
        raise TransientTaskError(message)
    if kind == "permanent":
        raise RunnerError(message)
    if kind == "timeout":
        raise TaskTimeout(message)
    if kind == "interrupt":
        raise KeyboardInterrupt(message)
    if kind == "enospc":
        raise OSError(errno.ENOSPC, message)
    if kind == "eio":
        raise OSError(errno.EIO, message)
    if kind == "kill":
        raise SimulatedKill(message)
    if kind == "torn":
        _tear(handle, payload)
    raise SimulatedCrash(message)


def _tear(handle: Any, payload: str | bytes | None) -> None:
    """Leave a half-written payload behind, as a power cut would.

    With a *payload* (streaming appends), the first half of the line is
    written to the handle; without one (atomic writers, data already on
    the handle), the temp file is truncated to half its length.  All
    failures here are swallowed: the point is to corrupt, not to raise
    a second error.
    """
    if handle is None:
        return
    try:
        if payload is not None:
            handle.write(payload[: max(1, len(payload) // 2)])
        else:
            handle.flush()
            handle.truncate(max(0, handle.tell() // 2))
        handle.flush()
    except (OSError, ValueError):
        pass
