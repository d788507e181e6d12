"""Command line: ``run`` the workloads, ``compare`` two sets of runs.

``run`` starts each workload in a fresh child interpreter, one at a
time, so the load is one process running one Python thread and the
memo caches and ``ru_maxrss`` belong to one workload.  Children run
with ``PYTHONHASHSEED=0`` so set iteration order, and the work that
depends on it, is the same in every run, and with one BLAS thread: the
pipeline's matrices are small, so a second OpenBLAS thread only spins
(on fig5-gcc it cost 10% more wall time, 70% more CPU time and twice
the rep-to-rep spread on a 2-core host).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.compare import compare
from benchmarks.e2e.spec import WORKLOADS
from repro.obs.clock import monotonic

ROOT = Path(__file__).resolve().parents[2]

#: Seconds of timed repetitions per run (``BENCHMARK.json`` run_seconds).
DEFAULT_SECONDS = 20

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


def run(args: argparse.Namespace) -> int:
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(filter(None, path)),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    status = 0
    for name in args.workload or list(WORKLOADS):
        command = [
            sys.executable,
            "-m",
            "benchmarks.e2e.child",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(args.out.resolve()),
        ]
        if args.update_expected:
            command.append("--update-expected")
        sys.stdout.flush()
        try:
            child = subprocess.run(
                [*command, "--spawned-at", repr(monotonic())],
                cwd=ROOT,
                env=env,
                timeout=CHILD_TIMEOUT_S,
                check=False,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            status = 1
            continue
        if child.returncode != 0:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run workloads, check outputs")
    run_parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run_parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced set-up and repetition (per-layer metrics)",
    )
    run_parser.add_argument(
        "--out", type=Path, default=ROOT / "benchmarks" / "e2e" / "out"
    )
    run_parser.add_argument(
        "--update-expected",
        action="store_true",
        help="at seed 0, record the outputs as expected.json",
    )
    compare_parser = commands.add_parser("compare", help="compare two sets of runs")
    compare_parser.add_argument("parent", type=Path)
    compare_parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.parent, args.change)
    if args.update_expected and args.seed != 0:
        parser.error("--update-expected records seed 0 outputs; pass --seed 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
