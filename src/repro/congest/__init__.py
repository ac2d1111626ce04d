"""CONGEST-model simulator and the distributed implementation of CDRW."""

from .message import MAX_WORDS_PER_MESSAGE, Message, message_size_in_words
from .network import CongestNetwork, CostReport
from .bfs import distributed_bfs, distributed_bfs_counted
from .aggregation import broadcast, convergecast, select_k_smallest, tree_edge_count
from .cdrw_congest import (
    CongestCommunityResult,
    CongestDetectionResult,
    detect_community_congest,
)
from .complexity import (
    expected_edges,
    message_bound_all_communities,
    message_bound_single_community,
    round_bound_all_communities,
    round_bound_single_community,
)

__all__ = [
    "MAX_WORDS_PER_MESSAGE",
    "Message",
    "message_size_in_words",
    "CongestNetwork",
    "CostReport",
    "distributed_bfs",
    "distributed_bfs_counted",
    "broadcast",
    "convergecast",
    "select_k_smallest",
    "tree_edge_count",
    "CongestCommunityResult",
    "CongestDetectionResult",
    "detect_community_congest",
    "expected_edges",
    "message_bound_all_communities",
    "message_bound_single_community",
    "round_bound_all_communities",
    "round_bound_single_community",
]
