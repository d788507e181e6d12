"""The ``arch/*`` layering rules on fixture trees and the real one."""

from __future__ import annotations

import textwrap

from repro.analysis import run_linter
from repro.analysis.layering import (
    LAYERS,
    LAZY_ALLOWLIST,
    is_allowed_import,
    layer_of,
)


def write_tree(root, files):
    for relative, body in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return root


def arch_findings(tmp_path, files):
    write_tree(tmp_path, files)
    return run_linter([tmp_path], select=["arch/*"])


def rules_of(findings):
    return {f.rule for f in findings}


class TestLayerTable:
    def test_every_layer_name_is_unique(self):
        names = [name for group in LAYERS for name in group]
        assert len(names) == len(set(names))

    def test_layer_of_uses_longest_prefix(self):
        # cache.config is pinned below the cache simulators.
        assert layer_of("repro.cache.config") == "cache.config"
        assert layer_of("repro.cache.fast") == "cache"
        assert layer_of("repro") == "<root>"
        assert layer_of("notrepro.x") is None

    def test_same_rank_group_imports_are_allowed(self):
        assert is_allowed_import(
            "repro.placement.gbsc", "repro.core.merge"
        ) is True
        assert is_allowed_import(
            "repro.core.merge", "repro.placement.base"
        ) is True

    def test_upward_import_is_rejected(self):
        assert is_allowed_import(
            "repro.program.layout", "repro.cli"
        ) is False

    def test_profile_builders_know_nothing_of_the_store(self):
        """``build_context`` keys and fetches profile artifacts; no
        module under ``repro.profiles`` imports ``repro.store``, not
        even lazily, and only the trace generator's and the custom
        workload writer's lazy upward imports are sanctioned."""
        from repro.analysis import build_import_graph
        from tests.analysis.test_imports import SRC_ROOT, project_of

        graph = build_import_graph(project_of([SRC_ROOT]))
        assert [
            (edge.importer, edge.imported)
            for edge in graph.edges
            if layer_of(edge.importer) == "profiles"
            and layer_of(edge.imported) == "store"
        ] == []
        assert set(LAZY_ALLOWLIST) == {
            ("repro.trace.generator", "repro.store.fingerprint"),
            ("repro.workloads.custom", "repro.io"),
        }

    def test_allowlist_entries_map_to_real_layers(self):
        for importer, imported in LAZY_ALLOWLIST:
            assert layer_of(importer) is not None, importer
            assert layer_of(imported) is not None, imported
            # Only *upward* references need sanctioning.
            assert is_allowed_import(importer, imported) is False


class TestCycleRule:
    def test_static_cycle_fires(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/cache/__init__.py": "",
            "repro/cache/a.py": "import repro.cache.b\n",
            "repro/cache/b.py": "import repro.cache.a\n",
        })
        assert "arch/cycle" in rules_of(findings)
        cycle = next(f for f in findings if f.rule == "arch/cycle")
        assert "repro.cache.a" in cycle.message
        assert "repro.cache.b" in cycle.message

    def test_lazy_back_edge_is_not_a_cycle(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/cache/__init__.py": "",
            "repro/cache/a.py": "import repro.cache.b\n",
            "repro/cache/b.py": (
                "def f():\n    import repro.cache.a\n"
            ),
        })
        assert "arch/cycle" not in rules_of(findings)


class TestUpwardImportRule:
    def test_static_upward_import_fires(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/program/__init__.py": "import repro.cli\n",
            "repro/cli.py": "",
        })
        assert "arch/upward-import" in rules_of(findings)

    def test_downward_import_is_clean(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/errors.py": "",
            "repro/program/__init__.py": "import repro.errors\n",
        })
        assert findings == []


class TestLazyUpwardRule:
    def test_unsanctioned_lazy_upward_fires(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/program/__init__.py": (
                "def f():\n    import repro.cli\n"
            ),
            "repro/cli.py": "",
        })
        assert rules_of(findings) == {"arch/lazy-upward-import"}

    def test_allowlisted_lazy_upward_is_clean(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/io.py": "",
            "repro/workloads/__init__.py": "",
            "repro/workloads/custom.py": (
                "def save():\n    from repro.io import atomic_write_text\n"
            ),
        })
        assert findings == []


class TestStaleAllowlistRule:
    def test_sanction_without_import_fires(self, tmp_path):
        # repro.workloads.custom is allowlisted for repro.io but this
        # tree's copy no longer performs the lazy import.
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/workloads/__init__.py": "",
            "repro/workloads/custom.py": "x = 1\n",
        })
        assert "arch/stale-allowlist" in rules_of(findings)

    def test_absent_importer_module_is_skipped(self, tmp_path):
        # Fixture trees that never contain the allowlisted importer
        # must not report its entries as stale.
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/errors.py": "",
        })
        assert findings == []


class TestUnmappedModuleRule:
    def test_unknown_package_fires(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/mystery/__init__.py": "",
        })
        assert "arch/unmapped-module" in rules_of(findings)

    def test_mapped_modules_are_clean(self, tmp_path):
        findings = arch_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/errors.py": "",
            "repro/obs/__init__.py": "",
        })
        assert findings == []
