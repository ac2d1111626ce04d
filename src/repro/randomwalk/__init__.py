"""Random-walk substrate: transition operators, walk distributions and the stationary distribution."""

from .transition import (
    lazy_transition_matrix,
    reverse_transition_matrix,
    transition_matrix,
)
from .distribution import WalkDistribution
from .batched import BatchedWalkDistribution
from .stationary import stationary_distribution

__all__ = [
    "lazy_transition_matrix",
    "reverse_transition_matrix",
    "transition_matrix",
    "WalkDistribution",
    "BatchedWalkDistribution",
    "stationary_distribution",
]
