"""Determinism linter: each rule fires on a fixture, stays quiet on
idiomatic code, and honours suppression comments."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_file, lint_source, run_linter
from repro.analysis.linter import select_rules
from repro.errors import AnalysisError


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


def lint(source: str, filename: str = "module.py") -> set[str]:
    return rules_of(
        lint_source(textwrap.dedent(source), Path(filename), all_rules())
    )


class TestUnseededRandom:
    def test_module_level_draw_flagged(self):
        assert lint(
            """
            import random

            x = random.random()
            """
        ) == {"det/unseeded-random"}

    def test_from_import_of_draw_flagged(self):
        assert lint("from random import shuffle\n") == {
            "det/unseeded-random"
        }

    def test_unseeded_generator_flagged(self):
        assert lint(
            """
            import numpy as np

            rng = np.random.default_rng()
            """
        ) == {"det/unseeded-random"}

    def test_seeded_generator_allowed(self):
        assert (
            lint(
                """
                import numpy as np
                import random

                rng = np.random.default_rng(42)
                state = random.Random(7)
                """
            )
            == set()
        )


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert lint("def f(xs=[]):\n    return xs\n") == {
            "det/mutable-default"
        }

    def test_dict_and_set_defaults_flagged(self):
        findings = lint(
            """
            def f(a={}, b=set(), c=dict()):
                return a, b, c
            """
        )
        assert findings == {"det/mutable-default"}

    def test_none_and_tuple_defaults_allowed(self):
        assert lint("def f(a=None, b=(), c=0):\n    return a\n") == set()


class TestFloatEquality:
    def test_flagged_in_metric_files(self):
        source = "ok = value == 0.95\n"
        assert lint(source, "metrics.py") == {"det/float-equality"}

    def test_ignored_outside_metric_files(self):
        source = "ok = value == 0.95\n"
        assert lint(source, "cli.py") == set()

    def test_integer_comparison_allowed_in_metric_files(self):
        assert lint("ok = count == 3\n", "stats.py") == set()


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        assert lint(
            """
            for item in {"a", "b"}:
                print(item)
            """
        ) == {"det/set-iteration"}

    def test_comprehension_over_set_call_flagged(self):
        assert lint("xs = [x for x in set(items)]\n") == {
            "det/set-iteration"
        }

    def test_sorted_set_allowed(self):
        assert lint(
            """
            for item in sorted({"a", "b"}):
                print(item)
            """
        ) == set()


class TestDictMutation:
    def test_del_during_iteration_flagged(self):
        assert lint(
            """
            for key in table:
                del table[key]
            """
        ) == {"det/dict-mutation"}

    def test_pop_during_items_iteration_flagged(self):
        assert lint(
            """
            for key, value in table.items():
                table.pop(key)
            """
        ) == {"det/dict-mutation"}

    def test_iterating_a_sorted_copy_allowed(self):
        assert lint(
            """
            for key in sorted(table):
                del table[key]
            """
        ) == set()


class TestWallclock:
    def test_time_call_flagged(self):
        assert lint(
            """
            import time

            started = time.time()
            """
        ) == {"det/wallclock"}

    def test_perf_counter_and_alias_flagged(self):
        assert lint(
            """
            import time as _t

            a = _t.perf_counter()
            b = _t.monotonic_ns()
            """
        ) == {"det/wallclock"}

    def test_from_import_flagged(self):
        assert lint("from time import perf_counter\n") == {
            "det/wallclock"
        }

    def test_time_ns_variants_flagged(self):
        assert lint(
            """
            import time

            a = time.monotonic_ns()
            b = time.process_time_ns()
            """
        ) == {"det/wallclock"}

    def test_datetime_now_and_utcnow_flagged(self):
        assert lint(
            """
            import datetime

            a = datetime.datetime.now()
            b = datetime.datetime.utcnow()
            """
        ) == {"det/wallclock"}

    def test_datetime_class_alias_flagged(self):
        assert lint(
            """
            from datetime import datetime

            stamp = datetime.now()
            """
        ) == {"det/wallclock"}

    def test_date_today_flagged(self):
        assert lint(
            """
            from datetime import date

            day = date.today()
            """
        ) == {"det/wallclock"}

    def test_datetime_pure_constructors_allowed(self):
        assert (
            lint(
                """
                import datetime
                from datetime import datetime as DateTime

                a = datetime.datetime(2024, 1, 1)
                b = DateTime.fromtimestamp(0)
                c = datetime.timedelta(seconds=3)
                """
            )
            == set()
        )

    def test_sleep_and_struct_time_allowed(self):
        assert (
            lint(
                """
                import time

                time.sleep(0.1)
                t = time.gmtime(0)
                """
            )
            == set()
        )

    def test_exempt_inside_repro_obs(self):
        source = "import time\n\nnow = time.time()\n"
        assert lint(source, "src/repro/obs/clock.py") == set()
        assert lint(source, "src/repro/trace/generator.py") == {
            "det/wallclock"
        }


class TestSuppression:
    def test_disable_comment_silences_rule(self):
        source = (
            "from random import shuffle"
            "  # lint: disable=det/unseeded-random\n"
        )
        assert lint(source) == set()

    def test_disable_for_other_rule_does_not_silence(self):
        source = (
            "from random import shuffle"
            "  # lint: disable=det/mutable-default\n"
        )
        assert lint(source) == {"det/unseeded-random"}


class TestHarness:
    def test_syntax_error_becomes_finding(self):
        assert lint("def broken(:\n") == {"lint/syntax-error"}

    def test_select_rules_unknown_id_raises(self):
        with pytest.raises(AnalysisError):
            select_rules(["det/no-such-rule"])

    def test_select_restricts_to_chosen_rules(self):
        source = textwrap.dedent(
            """
            import random

            def f(xs=[]):
                return random.random()
            """
        )
        selected = select_rules(["det/mutable-default"])
        findings = lint_source(source, Path("m.py"), selected)
        assert rules_of(findings) == {"det/mutable-default"}

    def test_run_linter_over_directory(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("from random import choice\n")
        findings = run_linter([tmp_path])
        assert rules_of(findings) == {"det/unseeded-random"}
        assert findings[0].location.file == str(dirty)

    def test_lint_file_on_single_module(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("def f(xs=[]):\n    return xs\n")
        findings = lint_file(module, all_rules())
        assert rules_of(findings) == {"det/mutable-default"}

    def test_every_registered_rule_has_fixture_coverage(self):
        """Every registered rule must have a firing fixture test, so a
        new rule cannot land without one.  Per-file det/* rules are
        covered above; the whole-program families live in
        test_arch_rules.py, test_concsafety.py and
        test_parity_rules.py."""
        covered = {
            "det/unseeded-random",
            "det/mutable-default",
            "det/float-equality",
            "det/set-iteration",
            "det/dict-mutation",
            "det/wallclock",
            # tests/analysis/test_arch_rules.py
            "arch/cycle",
            "arch/upward-import",
            "arch/lazy-upward-import",
            "arch/stale-allowlist",
            "arch/unmapped-module",
            # tests/analysis/test_concsafety.py
            "conc/raw-write",
            "conc/global-mutation",
            "conc/unregistered-write-site",
            # tests/analysis/test_parity_rules.py
            "parity/unregistered",
            "parity/unresolved-scalar",
            "parity/untested",
        }
        assert {rule.rule_id for rule in all_rules()} == covered
