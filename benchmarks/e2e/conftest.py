"""Keep ``pytest benchmarks/e2e`` away from ``benchmarks/results``.

The parent ``benchmarks/conftest.py`` truncates the tracked report
files and records a run manifest for every bench session.  These tests
write only under pytest's ``tmp_path``, so both autouse fixtures are
replaced by no-ops here.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def fresh_results_dir() -> None:
    """No-op: the e2e tests write no report files."""


@pytest.fixture(scope="session", autouse=True)
def bench_manifest() -> None:
    """No-op: the e2e tests record no run manifest."""
