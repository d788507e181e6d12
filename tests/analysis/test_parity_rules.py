"""The ``parity/*`` fast-path/scalar-twin rules on fixture trees."""

from __future__ import annotations

import textwrap

from repro.analysis import run_linter

KERNEL_OK = """
    from repro.fastpath import fast_path

    @fast_path(scalar="repro.kernels.ref.count_reference")
    def count_fast(xs):
        return len(xs)
"""

REFERENCE = """
    def count_reference(xs):
        total = 0
        for _ in xs:
            total += 1
        return total
"""


def write_tree(root, files):
    for relative, body in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return root


def parity_findings(tmp_path, files, tests=None):
    write_tree(tmp_path / "src", files)
    tests_root = tmp_path / "tests"
    tests_root.mkdir(exist_ok=True)
    for relative, body in (tests or {}).items():
        path = tests_root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return run_linter(
        [tmp_path / "src"],
        select=["parity/*"],
        tests_root=tests_root,
    )


def rules_of(findings):
    return {f.rule for f in findings}


class TestUnregisteredRule:
    def test_public_function_in_fast_module_fires(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": """
                def count_fast(xs):
                    return len(xs)
            """,
        })
        assert "parity/unregistered" in rules_of(findings)

    def test_fast_suffix_outside_fast_module_fires(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/merge.py": """
                def offsets_fast(xs):
                    return xs
            """,
        })
        assert "parity/unregistered" in rules_of(findings)

    def test_private_helper_in_fast_module_is_clean(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": """
                def _chunk(xs):
                    return xs
            """,
        })
        assert findings == []


class TestUnresolvedScalarRule:
    def test_dangling_scalar_path_fires(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": """
                from repro.fastpath import fast_path

                @fast_path(scalar="repro.kernels.ref.missing_reference")
                def count_fast(xs):
                    return len(xs)
            """,
            "repro/kernels/ref.py": REFERENCE,
        })
        assert "parity/unresolved-scalar" in rules_of(findings)

    def test_non_literal_scalar_fires(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": """
                from repro.fastpath import fast_path

                TWIN = "repro.kernels.ref.count_reference"

                @fast_path(scalar=TWIN)
                def count_fast(xs):
                    return len(xs)
            """,
            "repro/kernels/ref.py": REFERENCE,
        })
        assert "parity/unresolved-scalar" in rules_of(findings)

    def test_resolvable_class_scalar_is_clean(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": """
                from repro.fastpath import fast_path

                @fast_path(scalar="repro.kernels.ref.Reference")
                def count_fast(xs):
                    return len(xs)
            """,
            "repro/kernels/ref.py": """
                class Reference:
                    def count(self, xs):
                        return len(xs)
            """,
        }, tests={
            "test_parity.py": """
                def test_pair():
                    assert "count_fast" and "Reference"
            """,
        })
        assert findings == []


class TestUntestedRule:
    def test_pair_without_test_fires(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": KERNEL_OK,
            "repro/kernels/ref.py": REFERENCE,
        })
        assert rules_of(findings) == {"parity/untested"}

    def test_split_mentions_across_files_still_fire(self, tmp_path):
        # Both names must appear in a *single* test module.
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": KERNEL_OK,
            "repro/kernels/ref.py": REFERENCE,
        }, tests={
            "test_fast.py": "from repro.kernels.fast import count_fast\n",
            "test_ref.py": (
                "from repro.kernels.ref import count_reference\n"
            ),
        })
        assert rules_of(findings) == {"parity/untested"}

    def test_covered_pair_is_clean(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/__init__.py": "",
            "repro/kernels/__init__.py": "",
            "repro/kernels/fast.py": KERNEL_OK,
            "repro/kernels/ref.py": REFERENCE,
        }, tests={
            "test_parity.py": """
                from repro.kernels.fast import count_fast
                from repro.kernels.ref import count_reference

                def test_pair():
                    xs = [1, 2, 3]
                    assert count_fast(xs) == count_reference(xs)
            """,
        })
        assert findings == []


class TestRealTreePairs:
    def test_shipped_registrations_are_verified(self):
        # Importing the kernels populates the runtime registry; the
        # static analyzer must agree with it on the shipped tree.
        import repro.cache.fast  # noqa: F401
        import repro.core.merge  # noqa: F401
        import repro.core.setassoc  # noqa: F401
        from repro.fastpath import fast_path_registry

        registry = fast_path_registry()
        assert registry[
            "repro.cache.fast.count_direct_mapped_misses"
        ] == "repro.cache.direct.DirectMappedCache"
        assert registry[
            "repro.cache.fast.count_two_way_lru_misses"
        ] == "repro.cache.setassoc.SetAssociativeCache"
        assert registry[
            "repro.core.merge.offset_costs_fast"
        ] == "repro.core.merge.offset_costs_reference"
        assert registry[
            "repro.core.setassoc.sa_offset_costs"
        ] == "repro.core.setassoc.sa_offset_costs_reference"

    def test_lint_sees_the_count_kernels(self, tmp_path):
        """Statically, ``parity/*`` finds each cache count kernel: with
        no tests it reports them untested, with the real tests clean."""
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parent
        untested = run_linter(
            [src], select=["parity/untested"], tests_root=tmp_path
        )
        flagged = {f.location.obj for f in untested}
        assert {
            "repro.cache.fast.count_direct_mapped_misses",
            "repro.cache.fast.count_two_way_lru_misses",
        } <= flagged
        assert run_linter([src], select=["parity/*"]) == []
