"""k-machine model: random vertex partition, simulator, Conversion Theorem, CDRW."""

from .partition import BalanceReport, RandomVertexPartition
from .simulator import KMachineCost, KMachineNetwork
from .conversion import (
    cdrw_kmachine_round_bound,
    conversion_theorem_rounds,
    dominant_term,
)
from .cdrw_kmachine import (
    KMachineCommunityResult,
    KMachineDetectionResult,
    detect_community_kmachine,
)

__all__ = [
    "BalanceReport",
    "RandomVertexPartition",
    "KMachineCost",
    "KMachineNetwork",
    "cdrw_kmachine_round_bound",
    "conversion_theorem_rounds",
    "dominant_term",
    "KMachineCommunityResult",
    "KMachineDetectionResult",
    "detect_community_kmachine",
]
