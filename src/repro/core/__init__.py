"""CDRW core: the building blocks of the paper's community detection algorithm.

The algorithm itself runs through :func:`repro.api.detect`.
"""

from ..execution import block_ranges, parallel_map_blocks, resolve_workers
from .parameters import CDRWParameters
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet, deviation_values
from .stopping import GrowthStoppingRule, StoppingDecision
from .result import CommunityResult, DetectionResult
from .parallel import select_spread_seeds

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
    "select_spread_seeds",
]
