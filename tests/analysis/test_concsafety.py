"""The ``conc/*`` IO-safety and global-state rules on fixture trees."""

from __future__ import annotations

import textwrap

from repro.analysis import run_linter


def write_tree(root, files):
    for relative, body in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return root


def conc_findings(tmp_path, files):
    write_tree(tmp_path, files)
    return run_linter([tmp_path], select=["conc/*"])


def rules_of(findings):
    return {f.rule for f in findings}


class TestRawWriteRule:
    def test_bare_open_write_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/maker.py": """
                def emit(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
            """,
        })
        assert rules_of(findings) == {"conc/raw-write"}

    def test_write_text_method_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/maker.py": """
                from pathlib import Path

                def emit(path, text):
                    Path(path).write_text(text)
            """,
        })
        assert rules_of(findings) == {"conc/raw-write"}

    def test_read_mode_open_is_clean(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/maker.py": """
                def load(path):
                    with open(path) as handle:
                        return handle.read()

                def load_binary(path):
                    with open(path, "rb") as handle:
                        return handle.read()
            """,
        })
        assert findings == []

    def test_allowlisted_streaming_module_is_clean(self, tmp_path):
        # repro.obs.sinks carries a RAW_WRITE_ALLOWLIST entry.
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            "repro/obs/sinks.py": """
                def start(path):
                    return open(path, "w")
            """,
        })
        assert findings == []


class TestGlobalMutationRule:
    def test_module_dict_write_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/memo.py": """
                _CACHE = {}

                def put(key, value):
                    _CACHE[key] = value
            """,
        })
        assert rules_of(findings) == {"conc/global-mutation"}

    def test_weak_memo_write_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/memo.py": """
                import weakref

                _DIGESTS = weakref.WeakKeyDictionary()

                def remember(model, digest):
                    _DIGESTS[model] = digest
            """,
        })
        assert rules_of(findings) == {"conc/global-mutation"}

    def test_global_reassignment_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/state.py": """
                _MODE = None

                def set_mode(mode):
                    global _MODE
                    _MODE = mode
            """,
        })
        assert rules_of(findings) == {"conc/global-mutation"}

    def test_allowlisted_state_is_clean(self, tmp_path):
        # (repro.obs.runtime, _STATE) is the sanctioned switch.
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            "repro/obs/runtime.py": """
                _STATE = None

                def enable(state):
                    global _STATE
                    _STATE = state
            """,
        })
        assert findings == []

    def test_local_shadowing_is_clean(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/memo.py": """
                _CACHE = {}

                def rebuild(items):
                    _CACHE = {}
                    for key, value in items:
                        _CACHE[key] = value
                    return _CACHE
            """,
        })
        assert findings == []


SITES_MODULE = {
    "repro/chaos/__init__.py": "",
    "repro/chaos/sites.py": """
        WRITE_SITES = {
            "io.atomic_writer": "generic atomic write",
            "store.index": "the index replace",
        }
    """,
}


class TestUnregisteredWriteSiteRule:
    def test_missing_site_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            **SITES_MODULE,
            "repro/maker.py": """
                from repro.io import atomic_write_text

                def emit(path, text):
                    atomic_write_text(path, text)
            """,
        })
        assert rules_of(findings) == {"conc/unregistered-write-site"}
        (finding,) = findings
        assert "no site=" in finding.message

    def test_unknown_literal_site_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            **SITES_MODULE,
            "repro/maker.py": """
                from repro.io import atomic_write_text

                def emit(path, text):
                    atomic_write_text(path, text, site="maker.out")
            """,
        })
        assert rules_of(findings) == {"conc/unregistered-write-site"}
        (finding,) = findings
        assert "maker.out" in finding.message

    def test_non_literal_site_fires(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            **SITES_MODULE,
            "repro/maker.py": """
                from repro.io import atomic_write_text

                def emit(path, text, site):
                    atomic_write_text(path, text, site=site)
            """,
        })
        assert rules_of(findings) == {"conc/unregistered-write-site"}

    def test_registered_literal_site_is_clean(self, tmp_path):
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            **SITES_MODULE,
            "repro/maker.py": """
                from repro.io import atomic_write_text

                def emit(path, text):
                    atomic_write_text(path, text, site="store.index")
            """,
        })
        assert findings == []

    def test_repro_io_itself_is_exempt(self, tmp_path):
        # The primitives' own module defines the defaults.
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            **SITES_MODULE,
            "repro/io.py": """
                def atomic_write_text(path, text, site="io.atomic_writer"):
                    ...

                def save(path, text):
                    atomic_write_text(path, text)
            """,
        })
        assert findings == []

    def test_registry_absent_skips_unknown_id_check(self, tmp_path):
        # Fixture trees without repro.chaos.sites still require a
        # literal tag but cannot validate it against the registry.
        findings = conc_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/maker.py": """
                from repro.io import atomic_write_text

                def emit(path, text):
                    atomic_write_text(path, text, site="anything.goes")
            """,
        })
        assert findings == []
