"""repro.chaos — deterministic fault injection and crash campaigns.

Three pieces, layered so the hook sits below the writers it
instruments:

* :mod:`repro.chaos.plan` — the fault schedule (:class:`Injection` /
  :class:`FaultPlan`) and its ``repro/faultplan`` v1/v2 loader;
* :mod:`repro.chaos.sites` — the site registry (:data:`WRITE_SITES`,
  :data:`TASK_SITES`) and the process-wide :func:`fire` hook every
  durable writer and the batch runner's task protocol call;
* :mod:`repro.chaos.campaign` — the crash-campaign driver behind
  ``repro-layout chaos run``: enumerate crash points in a real batch,
  inject one fault per point, and verify the recovery contract
  (audit-clean store, byte-identical resumed report, parseable
  ledgers, no orphan temp files after gc).

This package init exports only the plan and registry layers;
``campaign`` imports the runner stack and is imported lazily by the
CLI so that ``import repro.io`` (which registers its write sites) does
not drag the whole runner in.
"""

from repro.chaos.plan import (
    ERROR_KINDS,
    POINTS,
    TASK_POINTS,
    TASK_SITE,
    FaultPlan,
    Injection,
    load_plan,
)
from repro.chaos.sites import (
    TASK_SITES,
    WRITE_SITES,
    active,
    fire,
    install,
    installed,
    recording,
    uninstall,
)

__all__ = [
    "ERROR_KINDS",
    "FaultPlan",
    "Injection",
    "POINTS",
    "TASK_POINTS",
    "TASK_SITE",
    "TASK_SITES",
    "WRITE_SITES",
    "active",
    "fire",
    "install",
    "installed",
    "load_plan",
    "recording",
    "uninstall",
]
