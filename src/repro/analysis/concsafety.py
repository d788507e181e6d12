"""The ``conc/*`` IO-safety and global-state rules.

Three whole-program passes machine-check the write discipline the
batch runner and the artifact store are built on:

* ``conc/raw-write`` — every file write in ``src/repro`` goes through
  :mod:`repro.io`'s atomic writers.  A bare ``open(path, "w")`` is a
  torn-artifact bug waiting for a kill signal; the two deliberate
  streaming writers (the fsync-per-record checkpoint journal and the
  JSONL span sink) are allowlisted by module with a justification.
* ``conc/global-mutation`` — module-level mutable state is mutated
  only at sanctioned sites.  Hidden module state makes behaviour
  depend on call order and leaks between requests of one server
  process.  Sanctioned: the :mod:`repro.obs` runtime switch, the
  bounded trace memo, and the import-time rule/fast-path registries.
* ``conc/unregistered-write-site`` — every call of the three atomic
  write primitives outside :mod:`repro.io` must pass a literal
  ``site=`` registered in
  :data:`repro.chaos.sites.WRITE_SITES`.  The registry is what makes
  crash campaigns addressable ("tear the store index replace"); an
  untagged writer is a durable surface fault injection cannot reach.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Location
from repro.analysis.linter import (
    ProjectContext,
    ProjectRule,
    SourceModule,
    register_rule,
)

#: Modules whose raw writes are part of the durability design.
RAW_WRITE_ALLOWLIST: dict[str, str] = {
    "repro.io":
        "home of the atomic writers themselves",
    "repro.runner.journal":
        "append-only fsync-per-record journal; torn tails are "
        "detected and dropped on replay",
    "repro.obs.sinks":
        "streaming JSONL span sink; one line per finished span, "
        "terminated by the manifest record",
    "repro.obs.perf.history":
        "append-only benchmark ledger; rewriting the file would "
        "falsify history, and the obs layer may not import repro.io",
}

#: Sanctioned module-level mutable state: (module, name) -> why.
GLOBAL_MUTATION_ALLOWLIST: dict[tuple[str, str], str] = {
    ("repro.obs.runtime", "_STATE"):
        "the observability on/off switch; single-threaded by design",
    ("repro.workloads.spec", "_TRACE_MEMO"):
        "bounded per-process trace memo with an explicit clear hook; "
        "holds deterministic derived data only",
    ("repro.analysis.linter", "_REGISTRY"):
        "import-time rule registration only",
    ("repro.fastpath", "_REGISTRY"):
        "import-time fast-path registration only",
    ("repro.chaos.sites", "_PLAN"):
        "process-wide io fault hook; installed/uninstalled via "
        "context managers, single-threaded by design",
    ("repro.chaos.sites", "_RECORDER"):
        "campaign enumeration recorder; scoped by the recording() "
        "context manager, single-threaded by design",
}

_WRITE_MODES = ("w", "a", "x")


def _mode_is_write(call: ast.Call, mode_position: int) -> bool:
    """Whether an ``open``-style call names a write/append/create mode."""
    mode: ast.expr | None = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and mode.value.startswith(_WRITE_MODES)
    )


def _raw_write_reason(node: ast.Call) -> str | None:
    """Why *node* is a raw write, or ``None`` when it is not one."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        if _mode_is_write(node, 1):
            return "open(..., mode with write/append/create)"
    elif isinstance(func, ast.Attribute):
        if func.attr == "open" and _mode_is_write(node, 0):
            return ".open(...) with a write mode"
        if func.attr in ("write_text", "write_bytes"):
            return f".{func.attr}(...)"
        if func.attr == "fdopen" and _mode_is_write(node, 1):
            return "os.fdopen(..., write mode)"
    return None


@register_rule
class RawWriteRule(ProjectRule):
    """Flag file writes not routed through the atomic writers."""

    rule_id = "conc/raw-write"
    description = (
        "file writes in src/repro must go through repro.io's atomic "
        "writers (temp + fsync + os.replace); streaming writers need "
        "a RAW_WRITE_ALLOWLIST entry"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        for sm in project.files:
            module = sm.module
            if module is None or not module.startswith("repro"):
                continue
            if module in RAW_WRITE_ALLOWLIST:
                continue
            for node in ast.walk(sm.tree):
                if not isinstance(node, ast.Call):
                    continue
                reason = _raw_write_reason(node)
                if reason is None:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"{reason} bypasses the atomic writers; use "
                        "repro.io.atomic_write_text / atomic_writer "
                        "(or add a justified RAW_WRITE_ALLOWLIST "
                        "entry for a streaming writer)"
                    ),
                    location=Location(
                        file=str(sm.path), line=node.lineno, obj=module
                    ),
                )


_MUTABLE_VALUE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter",
     "deque", "OrderedDict", "WeakKeyDictionary"}
)

_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault",
     "pop", "popitem", "remove", "discard", "clear"}
)


def _is_mutable_value(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        return name in _MUTABLE_VALUE_CALLS
    return False


def _module_level_mutables(tree: ast.Module) -> set[str]:
    """Names bound at module level to mutable containers."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and _is_mutable_value(
            stmt.value
        ):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _locally_bound_names(func: ast.AST) -> set[str]:
    """Names bound inside *func*: params, assignments, loop targets."""
    bound: set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            # global names are *not* local bindings.
            for name in node.names:
                bound.discard(name)
    return bound


@register_rule
class GlobalMutationRule(ProjectRule):
    """Flag mutation of module-level state outside sanctioned sites."""

    rule_id = "conc/global-mutation"
    description = (
        "module-level mutable state may only be mutated at "
        "GLOBAL_MUTATION_ALLOWLIST sites (the repro.obs runtime "
        "switch and the import-time registries); hidden globals "
        "make behaviour depend on call order"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        for sm in project.files:
            module = sm.module
            if module is None or not module.startswith("repro"):
                continue
            mutables = _module_level_mutables(sm.tree)
            for func in ast.walk(sm.tree):
                if not isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                yield from self._check_function(
                    sm, module, func, mutables
                )

    def _check_function(
        self,
        sm: SourceModule,
        module: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        mutables: set[str],
    ) -> Iterator[Finding]:
        declared_global: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        local = _locally_bound_names(func)
        exposed = (mutables - local) | declared_global

        def finding(node: ast.AST, name: str, how: str) -> Finding:
            return Finding(
                rule=self.rule_id,
                severity=self.severity,
                message=(
                    f"{func.name}() {how} module-level state "
                    f"{name!r}; route it through an explicit object "
                    "or add a GLOBAL_MUTATION_ALLOWLIST entry"
                ),
                location=Location(
                    file=str(sm.path),
                    line=getattr(node, "lineno", None),
                    obj=f"{module}.{name}",
                ),
            )

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                        and (module, target.id)
                        not in GLOBAL_MUTATION_ALLOWLIST
                    ):
                        yield finding(node, target.id, "reassigns")
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in exposed
                        and (module, target.value.id)
                        not in GLOBAL_MUTATION_ALLOWLIST
                    ):
                        yield finding(
                            node, target.value.id, "writes into"
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in exposed
                        and (module, target.value.id)
                        not in GLOBAL_MUTATION_ALLOWLIST
                    ):
                        yield finding(
                            node, target.value.id, "deletes from"
                        )
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in _MUTATOR_METHODS
                    and isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in exposed
                    and func_expr.value.id in mutables
                    and (module, func_expr.value.id)
                    not in GLOBAL_MUTATION_ALLOWLIST
                ):
                    yield finding(
                        node, func_expr.value.id, "mutates"
                    )


#: The atomic write primitives that take a ``site=`` tag.  The named
#: convenience savers (``save_layout`` & co) tag their own sites
#: inside ``repro.io`` and need no caller-side tag.
_SITE_PRIMITIVES = frozenset(
    {"atomic_writer", "atomic_write_text", "atomic_write_bytes"}
)

#: The module holding the write-site registry.
_SITE_REGISTRY_MODULE = "repro.chaos.sites"


def _registered_write_sites(
    project: ProjectContext,
) -> frozenset[str] | None:
    """The literal keys of ``WRITE_SITES``, or ``None`` when the
    registry module is not in the scanned tree (fixture subsets skip
    unknown-id validation but still require a literal tag)."""
    sm = project.modules.get(_SITE_REGISTRY_MODULE)
    if sm is None:
        return None
    for stmt in sm.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        if not any(
            isinstance(t, ast.Name) and t.id == "WRITE_SITES"
            for t in targets
        ):
            continue
        try:
            value = ast.literal_eval(stmt.value)
        except ValueError:
            return None
        if isinstance(value, dict):
            return frozenset(
                key for key in value if isinstance(key, str)
            )
    return None


@register_rule
class UnregisteredWriteSiteRule(ProjectRule):
    """Flag atomic-writer calls missing a registered ``site=`` tag."""

    rule_id = "conc/unregistered-write-site"
    description = (
        "calls of repro.io's atomic write primitives outside repro.io "
        "must pass a literal site= registered in "
        "repro.chaos.sites.WRITE_SITES, so crash campaigns can "
        "address every durable write symbolically"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        registry = _registered_write_sites(project)
        for sm in project.files:
            module = sm.module
            if module is None or not module.startswith("repro"):
                continue
            if module == "repro.io":
                # The primitives live here; the defaults and the
                # site-forwarding helpers are the registry's anchors.
                continue
            for node in ast.walk(sm.tree):
                problem = self._call_problem(node, registry)
                if problem is None:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    message=problem,
                    location=Location(
                        file=str(sm.path),
                        line=getattr(node, "lineno", None),
                        obj=module,
                    ),
                )

    @staticmethod
    def _call_problem(
        node: ast.AST, registry: frozenset[str] | None
    ) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        callee = node.func
        name = (
            callee.id if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute)
            else None
        )
        if name not in _SITE_PRIMITIVES:
            return None
        site: ast.expr | None = None
        for keyword in node.keywords:
            if keyword.arg == "site":
                site = keyword.value
        if site is None:
            return (
                f"{name}() call passes no site=; tag the write with a "
                "registered id from repro.chaos.sites.WRITE_SITES"
            )
        if not (
            isinstance(site, ast.Constant)
            and isinstance(site.value, str)
        ):
            return (
                f"{name}() call passes a non-literal site=; the tag "
                "must be a string literal so the registry stays "
                "statically checkable"
            )
        if registry is not None and site.value not in registry:
            return (
                f"{name}() call tags unregistered write site "
                f"{site.value!r}; add it to "
                "repro.chaos.sites.WRITE_SITES"
            )
        return None
