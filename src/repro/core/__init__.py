"""CDRW core: the paper's community detection algorithm and its building blocks."""

from ..execution import block_ranges, parallel_map_blocks, resolve_workers
from .parameters import CDRWParameters
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet, deviation_values
from .stopping import GrowthStoppingRule, StoppingDecision
from .result import CommunityResult, DetectionResult
from .cdrw import detect_communities, detect_community
from .batched import detect_communities_batched, detect_community_batch
from .parallel import detect_communities_parallel, select_spread_seeds

__all__ = [
    "CDRWParameters",
    "block_ranges",
    "parallel_map_blocks",
    "resolve_workers",
    "BatchedMixingSetSearch",
    "LargestMixingSet",
    "deviation_values",
    "GrowthStoppingRule",
    "StoppingDecision",
    "CommunityResult",
    "DetectionResult",
    "detect_communities",
    "detect_communities_batched",
    "detect_community",
    "detect_community_batch",
    "detect_communities_parallel",
    "select_spread_seeds",
]
