"""CDRW core: the building blocks of the paper's community detection algorithm.

The algorithm itself runs through :func:`repro.api.detect`.
"""

from .parameters import CDRWParameters
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet, deviation_values
from .stopping import GrowthStoppingRule, StoppingDecision
from .result import CommunityResult, DetectionResult
from .parallel import select_spread_seeds

__all__ = [
    "CDRWParameters",
    "BatchedMixingSetSearch",
    "LargestMixingSet",
    "deviation_values",
    "GrowthStoppingRule",
    "StoppingDecision",
    "CommunityResult",
    "DetectionResult",
    "select_spread_seeds",
]
