"""Benchmark entry point that needs no ``PYTHONPATH``.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T
--trace 0|1`` from the repository root is
``python -m benchmarks.e2e run`` with the same arguments.  Outside a
full checkout (no ``src/repro``) it fails with status 2 and prints no
result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    library = ROOT / "src" / "repro"
    if not library.is_dir():
        print(f"error: {library} not found; run from a full checkout", file=sys.stderr)
        return 2
    # Replace this script's directory, whose modules would shadow others.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.__main__ import main as cli

    return cli(["run", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
