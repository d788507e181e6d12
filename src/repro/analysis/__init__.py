"""Static verification of pipeline artifacts and source determinism.

Two independent halves:

* **Artifact auditors** — pure, non-executing validators that take
  finished artifacts (layouts, TRGs, the working set, merge nodes, a
  whole GBSC run) and return structured :class:`Finding` lists instead
  of trusting the optimizer that produced them:
  :func:`audit_layout`, :func:`audit_profiles`, :func:`audit_graph`,
  :func:`audit_working_set`, :func:`audit_pair_db`,
  :func:`audit_placement`, :func:`audit_nodes`,
  :func:`audit_offset_costs`, for the observability layer's
  JSONL run files — :func:`audit_manifest` / :func:`audit_run_path` —
  for batch-runner checkpoint directories, :func:`audit_checkpoint`,
  for artifact-store directories, :func:`audit_store` (the
  ``cache/*`` rule family), for benchmark history ledgers,
  :func:`audit_perf_history` (the ``perf/*`` rule family), and for
  post-crash trees, :func:`audit_crash_scene` (the ``chaos/*`` rule
  family, driven by :mod:`repro.chaos.campaign`).
* **A conformance analyzer** — a non-executing pass over ``src/repro``
  and ``benchmarks/`` enforcing the project's contracts
  (:func:`run_linter` / :func:`run_linter_detailed`).  Per-file rules
  in :mod:`repro.analysis.rules` cover the determinism contract
  (``det/*``); whole-program rules cover the layering table
  (``arch/*``, :mod:`repro.analysis.layering` over the import graph
  of :mod:`repro.analysis.imports`), fork/IO safety (``conc/*``,
  :mod:`repro.analysis.concsafety`) and fast-path/scalar-twin parity
  (``parity/*``, :mod:`repro.analysis.parity`).  Findings render as
  text, plain JSON or SARIF 2.1.0 (:mod:`repro.analysis.sarif`).

Both are wired into the CLI (``repro-layout check`` / ``repro-layout
lint``) and into CI via ``tests/analysis``.
"""

from repro.analysis.checkpoint_audit import audit_checkpoint
from repro.analysis.findings import (
    Finding,
    Location,
    Severity,
    format_findings,
    require_clean,
    sort_findings,
)
from repro.analysis.layout_audit import audit_layout, audit_layout_payload
from repro.analysis.manifest_audit import audit_manifest, audit_run_path
from repro.analysis.imports import ImportEdge, ImportGraph, build_import_graph
from repro.analysis.linter import (
    LintRule,
    LintRun,
    ProjectContext,
    ProjectRule,
    all_rules,
    lint_file,
    lint_source,
    register_rule,
    rule_descriptions,
    run_linter,
    run_linter_detailed,
)
from repro.analysis.sarif import (
    findings_to_json,
    findings_to_sarif,
    format_stats,
    render_sarif,
)
from repro.analysis.placement_audit import (
    audit_nodes,
    audit_offset_costs,
    audit_offset_realisation,
    audit_partition,
    audit_placement,
)
from repro.analysis.profile_audit import (
    audit_graph,
    audit_pair_db,
    audit_profiles,
    audit_trgs,
    audit_working_set,
)
from repro.analysis.crash_audit import (
    CHAOS_RULES,
    audit_crash_scene,
    find_stale_tmp,
)
from repro.analysis.perf_audit import PERF_RULES, audit_perf_history
from repro.analysis.store_audit import audit_store

__all__ = [
    "CHAOS_RULES",
    "Finding",
    "PERF_RULES",
    "ImportEdge",
    "ImportGraph",
    "LintRule",
    "LintRun",
    "Location",
    "ProjectContext",
    "ProjectRule",
    "Severity",
    "all_rules",
    "build_import_graph",
    "audit_checkpoint",
    "audit_crash_scene",
    "audit_graph",
    "audit_layout",
    "audit_layout_payload",
    "audit_manifest",
    "audit_nodes",
    "audit_offset_costs",
    "audit_offset_realisation",
    "audit_pair_db",
    "audit_partition",
    "audit_perf_history",
    "audit_placement",
    "audit_profiles",
    "audit_run_path",
    "audit_store",
    "audit_trgs",
    "audit_working_set",
    "find_stale_tmp",
    "findings_to_json",
    "findings_to_sarif",
    "format_findings",
    "format_stats",
    "lint_file",
    "lint_source",
    "register_rule",
    "render_sarif",
    "require_clean",
    "rule_descriptions",
    "run_linter",
    "run_linter_detailed",
    "sort_findings",
]
