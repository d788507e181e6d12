"""The machine-readable layering table and the ``arch/*`` rules.

:data:`LAYERS` is the single source of truth for which ``repro``
layer may import which — the prose table in ``docs/architecture.md``
mirrors it and ``tools/check_docs.py`` fails when the two drift.
Each entry is one rank; imports must point at a strictly lower rank,
except between members of the same rank tuple (``placement`` and
``core`` are deliberately mutually aware: GBSC *is* a placement, and
the local-search comparator reuses the merge kernels).

Names are ``repro``-relative module prefixes, longest-prefix matched,
so a single module can be pinned below its package: ``cache.config``
(pure geometry, imports nothing but ``errors``) sits at the bottom so
``program.layout`` may consume cache geometry without the cache
*simulators* — which need ``program`` and ``trace`` — dropping below
them.  ``chaos.plan``/``chaos.sites`` use the same trick: the fault
hook must sit *below* every writer it instruments (``io``, ``obs``,
``store``, ``runner``), while the campaign driver in the ``chaos``
package proper sits near the top, above ``runner`` and ``analysis``
which it orchestrates.  ``resilience`` (pure policy over ``errors``)
shares the bottom utility rank.  ``service`` (the library-level
placement API) sits directly above ``runner``, whose grids and task
guard it reuses, and ``serve`` (the HTTP frontend) directly above
``service``, below the ``analysis``/``chaos`` tooling and the CLI.

Lazy (function-local) imports are the sanctioned escape hatch for the
few documented upward references, each carried by an explicit
:data:`LAZY_ALLOWLIST` entry with a one-line justification.  A lazy
upward import without an entry is a finding (``arch/lazy-upward-
import``); an entry whose importer module no longer performs the
import is also a finding (``arch/stale-allowlist``), so the allowlist
cannot accrete dead sanctions.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.imports import ImportEdge, build_import_graph
from repro.analysis.linter import (
    ProjectContext,
    ProjectRule,
    register_rule,
)

#: Rank groups, lowest first.  Modules in the same tuple may import
#: each other; otherwise imports must point at a lower rank.
#: ``<root>`` is the ``repro`` package __init__ (re-exports, top).
LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors",),
    (
        "obs",
        "fastpath",
        "cache.config",
        "resilience",
        "chaos.plan",
        "chaos.sites",
    ),
    ("program",),
    ("trace",),
    ("workloads",),
    ("cache",),
    ("profiles",),
    ("io",),
    ("store",),
    ("placement", "core"),
    ("blocks",),
    ("eval",),
    ("runner",),
    ("service",),
    ("serve",),
    ("analysis",),
    ("chaos",),
    ("cli", "<root>"),
)

#: Sanctioned lazy upward imports: (importer module, imported module)
#: -> one-line justification.  The trace generator accepts a store
#: instance from callers above and defers the fingerprint import to
#: the call, so the static arrow still points left.  Profile builders
#: know nothing of the store: ``eval.experiment.build_context``, which
#: ranks above it, keys and fetches their artifacts.
LAZY_ALLOWLIST: dict[tuple[str, str], str] = {
    ("repro.trace.generator", "repro.store.fingerprint"):
        "get_or_generate_trace keys the store; instance supplied by caller",
    ("repro.workloads.custom", "repro.io"):
        "save_workload defers to the atomic writer at call time only",
}

_RANK_BY_NAME: dict[str, int] = {
    name: rank
    for rank, group in enumerate(LAYERS)
    for name in group
}

_GROUP_BY_NAME: dict[str, tuple[str, ...]] = {
    name: group for group in LAYERS for name in group
}


def layer_of(module: str) -> str | None:
    """The layer name governing *module* (longest prefix wins)."""
    if module == "repro":
        return "<root>"
    if not module.startswith("repro."):
        return None
    relative = module[len("repro."):]
    best: str | None = None
    for name in _RANK_BY_NAME:
        if name == "<root>":
            continue
        if relative == name or relative.startswith(name + "."):
            if best is None or len(name) > len(best):
                best = name
    return best


def rank_of(layer: str) -> int:
    """The rank of *layer* in :data:`LAYERS`."""
    return _RANK_BY_NAME[layer]


def is_allowed_import(importer: str, imported: str) -> bool | None:
    """Whether a static *importer* -> *imported* edge obeys the table.

    ``None`` when either side has no layer (unmapped module — its own
    finding).  Same-layer and same-rank-group imports are allowed.
    """
    source, target = layer_of(importer), layer_of(imported)
    if source is None or target is None:
        return None
    if source == target:
        return True
    if _GROUP_BY_NAME[source] is _GROUP_BY_NAME[target]:
        return True
    return _RANK_BY_NAME[target] < _RANK_BY_NAME[source]


def _edge_location(edge: ImportEdge, project: ProjectContext) -> Location:
    sm = project.modules.get(edge.importer)
    return Location(
        file=str(sm.path) if sm is not None else None,
        line=edge.line,
        obj=f"{edge.importer} -> {edge.imported}",
    )


@register_rule
class LayerCycleRule(ProjectRule):
    """Flag module-level static import cycles."""

    rule_id = "arch/cycle"
    description = (
        "static imports must be acyclic at module granularity; a "
        "cycle makes import order (and therefore behaviour) "
        "load-sequence dependent"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        graph = build_import_graph(project)
        for component in graph.cycles():
            anchor = project.modules.get(component[0])
            yield Finding(
                rule=self.rule_id,
                severity=self.severity,
                message=(
                    "static import cycle between "
                    + ", ".join(component)
                ),
                location=Location(
                    file=str(anchor.path) if anchor else None,
                    obj=" <-> ".join(component),
                ),
            )


@register_rule
class UpwardImportRule(ProjectRule):
    """Flag static imports that point at a higher layer."""

    rule_id = "arch/upward-import"
    description = (
        "module-level imports must point at a lower (or same-group) "
        "layer of the layering table in repro.analysis.layering"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        graph = build_import_graph(project)
        for edge in graph.static_edges():
            if is_allowed_import(edge.importer, edge.imported) is False:
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"{edge.importer} (layer "
                        f"{layer_of(edge.importer)!r}) imports "
                        f"{edge.imported} (layer "
                        f"{layer_of(edge.imported)!r}) at module "
                        "level; imports must point down the layering "
                        "table"
                    ),
                    location=_edge_location(edge, project),
                )


@register_rule
class LazyUpwardImportRule(ProjectRule):
    """Flag lazy upward imports missing an allowlist entry."""

    rule_id = "arch/lazy-upward-import"
    description = (
        "a function-local import of a higher layer needs an explicit "
        "LAZY_ALLOWLIST entry in repro.analysis.layering with a "
        "justification"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        graph = build_import_graph(project)
        for edge in graph.lazy_edges():
            if is_allowed_import(edge.importer, edge.imported) is not False:
                continue
            if (edge.importer, edge.imported) in LAZY_ALLOWLIST:
                continue
            yield Finding(
                rule=self.rule_id,
                severity=self.severity,
                message=(
                    f"{edge.importer} lazily imports the higher-layer "
                    f"module {edge.imported} without a LAZY_ALLOWLIST "
                    "entry; sanction it explicitly or invert the "
                    "dependency"
                ),
                location=_edge_location(edge, project),
            )


@register_rule
class StaleAllowlistRule(ProjectRule):
    """Flag allowlist entries no longer backed by a lazy import."""

    rule_id = "arch/stale-allowlist"
    severity = Severity.WARNING
    description = (
        "a LAZY_ALLOWLIST entry whose importer module is scanned but "
        "no longer performs the lazy import is dead sanction; remove "
        "it"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        graph = build_import_graph(project)
        live = {
            (edge.importer, edge.imported)
            for edge in graph.lazy_edges()
        }
        for importer, imported in sorted(LAZY_ALLOWLIST):
            if importer not in project.modules:
                continue  # fixture trees scan subsets of the package
            if (importer, imported) not in live:
                sm = project.modules[importer]
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"LAZY_ALLOWLIST entry {importer} -> "
                        f"{imported} matches no lazy import in the "
                        "tree; remove the stale sanction"
                    ),
                    location=Location(
                        file=str(sm.path),
                        obj=f"{importer} -> {imported}",
                    ),
                )


@register_rule
class UnmappedModuleRule(ProjectRule):
    """Flag ``repro`` modules absent from the layering table."""

    rule_id = "arch/unmapped-module"
    description = (
        "every module of the repro package must resolve to a layer in "
        "repro.analysis.layering.LAYERS; add the new package to the "
        "table (and to docs/architecture.md)"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        for name in sorted(project.modules):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if layer_of(name) is None:
                sm = project.modules[name]
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"module {name} maps to no layer in "
                        "repro.analysis.layering.LAYERS"
                    ),
                    location=Location(file=str(sm.path), obj=name),
                )
