"""End-to-end and per-layer benchmark of the placement pipeline.

Run it from the repository root::

    PYTHONPATH=src:. python -m benchmarks.e2e run --seed 0 --out DIR
    PYTHONPATH=src:. python -m benchmarks.e2e compare PARENT_DIR CHANGE_DIR

See ``benchmarks/e2e/README.md`` for the workloads, the metrics and
their bounds.
"""
