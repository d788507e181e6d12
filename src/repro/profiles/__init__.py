"""Profile summaries: WCG, TRG, the working set Q, pair DB, perturbation."""

from repro.profiles.fast import (
    build_pair_database_fast,
    build_trg_fast,
    build_trgs_fast,
    chunk_ref_codes,
    procedure_ref_codes,
)
from repro.profiles.graph import (
    FrozenGraph,
    ProfileGraph,
    WeightedGraph,
    coalesce,
    freeze,
    structural_node_key,
)
from repro.profiles.pairdb import PairDatabase, build_pair_database
from repro.profiles.perturb import PAPER_SCALE, perturbed
from repro.profiles.qset import WorkingSet
from repro.profiles.trg import (
    DEFAULT_Q_MULTIPLIER,
    TRGBuildStats,
    TRGPair,
    build_trg,
    build_trgs,
    chunk_refs,
    procedure_refs,
)
from repro.profiles.wcg import build_wcg, build_wcg_from_refs, collapse_consecutive

__all__ = [
    "DEFAULT_Q_MULTIPLIER",
    "FrozenGraph",
    "PAPER_SCALE",
    "PairDatabase",
    "ProfileGraph",
    "TRGBuildStats",
    "TRGPair",
    "WeightedGraph",
    "WorkingSet",
    "build_pair_database",
    "build_pair_database_fast",
    "build_trg",
    "build_trg_fast",
    "build_trgs",
    "build_trgs_fast",
    "build_wcg",
    "build_wcg_from_refs",
    "chunk_ref_codes",
    "chunk_refs",
    "coalesce",
    "collapse_consecutive",
    "freeze",
    "perturbed",
    "procedure_ref_codes",
    "procedure_refs",
    "structural_node_key",
]
