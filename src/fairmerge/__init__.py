"""Closest fair clustering and fair consensus clustering of red/blue point sets."""

from .balance_fractional import balance_pq
from .balance_integral import balance_p
from .distance import ConsensusObjective, dist, dist_fast, lmean
from .errors import FairmergeError
from .exact import find_closest_fair_11
from .fairify import make_clusters_fair
from .generators import ReductionInstance, SplitMix64, gen_3partition_reduction, gen_random
from .model import (
    Clustering,
    Color,
    ColoredInstance,
    StatsColumns,
    all_stats,
    is_balanced,
    is_fair,
    normalize,
    validate_feasible,
)
from .oracle import (
    BELL_NUMBERS,
    OracleResult,
    enum_partitions,
    oracle_closest_balanced,
    oracle_closest_fair,
    oracle_consensus,
)
from .pipeline import ConsensusResult, GuaranteeReport, closest_fair, fair_consensus
from .transcript import ClusterState, Move, Transcript

__version__ = "0.1.0"

__all__ = [
    "BELL_NUMBERS",
    "ClusterState",
    "Clustering",
    "Color",
    "ColoredInstance",
    "ConsensusObjective",
    "ConsensusResult",
    "FairmergeError",
    "GuaranteeReport",
    "Move",
    "OracleResult",
    "ReductionInstance",
    "SplitMix64",
    "StatsColumns",
    "Transcript",
    "all_stats",
    "balance_p",
    "balance_pq",
    "closest_fair",
    "dist",
    "dist_fast",
    "enum_partitions",
    "fair_consensus",
    "find_closest_fair_11",
    "gen_3partition_reduction",
    "gen_random",
    "is_balanced",
    "is_fair",
    "lmean",
    "make_clusters_fair",
    "normalize",
    "oracle_closest_balanced",
    "oracle_closest_fair",
    "oracle_consensus",
    "validate_feasible",
]
