"""The library-level placement API: ``PlacementRequest -> Layout``.

One implementation behind three frontends.  ``repro-layout place``
(and ``compare``/``table1``) translate argparse namespaces into the
request dataclasses here; the HTTP service (:mod:`repro.serve`)
translates JSON bodies into the same dataclasses; library callers
build them directly::

    from repro.service import PlacementRequest, run_placement

    result = run_placement(
        PlacementRequest(workload="m88ksim", algorithm="gbsc")
    )
    result.layout            # the placed Layout
    result.train_stats       # MissStats on the training trace

The ``compare`` and Table 1 experiments are :mod:`repro.runner` task
grids: :func:`build_compare_batch`/:func:`build_table1_batch` build
one and :func:`execute_batch` runs it, in process or journaled into a
checkpoint directory.
"""

from repro.service.experiments import (
    build_compare_batch,
    build_table1_batch,
    check_runner_flags,
    execute_batch,
    has_journal,
)
from repro.service.placement import PlacementResult, run_placement
from repro.service.requests import (
    ALGORITHMS,
    CompareRequest,
    PlacementRequest,
    Table1Request,
    make_algorithm,
)

__all__ = [
    "ALGORITHMS",
    "CompareRequest",
    "PlacementRequest",
    "PlacementResult",
    "Table1Request",
    "build_compare_batch",
    "build_table1_batch",
    "check_runner_flags",
    "execute_batch",
    "has_journal",
    "make_algorithm",
    "run_placement",
]
