"""Schema matching by constrained clustering (paper §3)."""

from .cluster import LINKAGES, Cluster, cluster_similarity
from .compound import (
    CompoundMapping,
    CompoundSpec,
    NMMatch,
    apply_compounds,
    compound_label,
    suggest_compounds,
)
from .greedy import greedy_constrained_clustering, run_clustering_rounds
from .operator import MatchOperator, MatchResult, coalesce_ga_constraints
from .reference import sequential_clustering

__all__ = [
    "Cluster",
    "CompoundMapping",
    "CompoundSpec",
    "LINKAGES",
    "MatchOperator",
    "MatchResult",
    "NMMatch",
    "apply_compounds",
    "cluster_similarity",
    "coalesce_ga_constraints",
    "compound_label",
    "greedy_constrained_clustering",
    "run_clustering_rounds",
    "sequential_clustering",
    "suggest_compounds",
]
