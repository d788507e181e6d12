"""The import graph: edge extraction and the golden package snapshot.

The golden snapshot pins the package-level import structure of
``src/repro``.  When an edge appears or disappears the diff below
reads as plain set arithmetic — update the snapshot *and* check the
layering table in ``repro.analysis.layering`` still holds (the
``arch/*`` rules enforce it; this test makes the change reviewable).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import repro
from repro.analysis import build_import_graph
from repro.analysis.linter import (
    ProjectContext,
    SourceModule,
    _module_name,
    _parse_module,
    iter_python_files,
)

SRC_ROOT = Path(repro.__file__).resolve().parent


def project_of(paths) -> ProjectContext:
    sources = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        tree, parse_error = _parse_module(source, path)
        assert parse_error is None, parse_error
        sources.append(
            SourceModule(
                path=path,
                module=_module_name(path),
                tree=tree,
                source=source,
            )
        )
    return ProjectContext(sources)


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, body in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return root


#: Golden package-level static import edges of src/repro.  Keys and
#: values are top-level sub-packages; "<root>" is repro/__init__.py.
GOLDEN_STATIC = {
    "<root>": {"analysis", "cache", "core", "errors", "eval", "io",
               "placement", "profiles", "program", "store", "trace"},
    "analysis": {"cache", "core", "errors", "obs", "placement",
                 "profiles", "program", "runner", "store"},
    "blocks": {"errors", "profiles", "program", "trace"},
    "cache": {"errors", "fastpath", "obs", "program", "trace"},
    "chaos": {"analysis", "errors", "io", "obs", "resilience",
              "runner", "store", "workloads"},
    "cli": {"cache", "core", "errors", "eval", "obs", "service",
            "workloads"},
    "core": {"cache", "errors", "fastpath", "obs", "placement",
             "profiles", "program", "trace"},
    "eval": {"cache", "core", "errors", "obs", "placement", "profiles",
             "program", "store", "trace", "workloads"},
    "fastpath": {"errors"},
    "io": {"chaos", "errors", "profiles", "program", "resilience",
           "trace"},
    "obs": {"chaos", "errors"},
    "placement": {"cache", "core", "errors", "obs", "profiles",
                  "program"},
    "profiles": {"cache", "errors", "fastpath", "obs", "program", "trace"},
    "program": {"cache", "errors"},
    "resilience": {"errors"},
    "runner": {"cache", "chaos", "core", "errors", "eval", "io", "obs",
               "placement", "profiles", "resilience", "workloads"},
    "serve": {"cache", "errors", "io", "obs", "service", "store"},
    "service": {"cache", "core", "errors", "eval", "obs", "placement",
                "program", "runner", "store", "trace", "workloads"},
    "store": {"cache", "errors", "io", "obs", "profiles", "program",
              "resilience", "trace"},
    "trace": {"errors", "obs", "program"},
    "workloads": {"errors", "program", "trace"},
}

#: Golden package-level lazy (function-local) edges.  Every upward
#: entry here is carried by a LAZY_ALLOWLIST justification.
GOLDEN_LAZY = {
    "analysis": {"errors", "io", "obs", "runner", "store"},
    "cli": {"analysis", "chaos", "errors", "eval", "io", "obs",
            "serve", "store", "workloads"},
    "runner": {"obs"},
    "service": {"io", "placement"},
    "workloads": {"io"},
}


class TestGoldenSnapshot:
    def test_static_package_edges_match_snapshot(self):
        graph = build_import_graph(project_of([SRC_ROOT]))
        assert graph.package_edges() == GOLDEN_STATIC

    def test_lazy_package_edges_match_snapshot(self):
        graph = build_import_graph(project_of([SRC_ROOT]))
        assert graph.package_edges(lazy=True) == GOLDEN_LAZY

    def test_module_graph_is_acyclic(self):
        graph = build_import_graph(project_of([SRC_ROOT]))
        assert graph.cycles() == []


class TestEdgeExtraction:
    def test_static_vs_lazy_classification(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": """
                import repro.b

                def f():
                    import repro.c
            """,
            "repro/b.py": "",
            "repro/c.py": "",
        })
        graph = build_import_graph(project_of([tmp_path]))
        static = {(e.importer, e.imported) for e in graph.static_edges()}
        lazy = {(e.importer, e.imported) for e in graph.lazy_edges()}
        assert ("repro.a", "repro.b") in static
        assert ("repro.a", "repro.c") in lazy
        assert ("repro.a", "repro.c") not in static

    def test_type_checking_imports_are_excluded(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    import repro.b
            """,
            "repro/b.py": "",
        })
        graph = build_import_graph(project_of([tmp_path]))
        assert graph.imports_of("repro.a") == []

    def test_from_import_resolves_bound_submodule(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/pkg/__init__.py": "",
            "repro/pkg/sub.py": "",
            "repro/a.py": """
                from repro.pkg import sub
                from repro.pkg import NotAModule
            """,
        })
        graph = build_import_graph(project_of([tmp_path]))
        targets = {e.imported for e in graph.imports_of("repro.a")}
        # A bound submodule resolves fully; an attribute falls back to
        # the defining module.
        assert targets == {"repro.pkg.sub", "repro.pkg"}

    def test_relative_imports_resolve(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/pkg/__init__.py": "from .sub import thing\n",
            "repro/pkg/sub.py": "thing = 1\n",
            "repro/pkg/other.py": "from . import sub\n",
        })
        graph = build_import_graph(project_of([tmp_path]))
        pkg_targets = {e.imported for e in graph.imports_of("repro.pkg")}
        other_targets = {
            e.imported for e in graph.imports_of("repro.pkg.other")
        }
        assert pkg_targets == {"repro.pkg.sub"}
        assert other_targets == {"repro.pkg.sub"}

    def test_cycles_reports_each_component_once(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": "import repro.b\n",
            "repro/b.py": "import repro.a\n",
            "repro/c.py": "import repro.a\n",
        })
        graph = build_import_graph(project_of([tmp_path]))
        assert graph.cycles() == [["repro.a", "repro.b"]]
