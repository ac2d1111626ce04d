"""Accuracy and quality metrics for detected communities."""

from .scores import (
    CommunityScore,
    average_f_score,
    community_f_score,
    community_precision,
    community_recall,
    partition_average_f_score,
    score_community,
    score_detection,
)
from .clustering import contingency_table, normalized_mutual_information

__all__ = [
    "CommunityScore",
    "average_f_score",
    "community_f_score",
    "community_precision",
    "community_recall",
    "partition_average_f_score",
    "score_community",
    "score_detection",
    "contingency_table",
    "normalized_mutual_information",
]
