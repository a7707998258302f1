"""Temporal top-k recommendation: query expansion, brute-force scan,
Threshold-Algorithm retrieval (Section 4 of the paper) and the batch
serving engine with bounded LRU caches, quantized candidate selection
and snapshots mapped in place for million-item catalogues."""

from .bruteforce import bruteforce_topk
from .paramstore import ParamStore
from .quantize import QuantizedMatrix, quantize_matrix, selection_margins
from .ranking import QuerySpace, Recommendation, TopKResult, rank_order
from .recommender import ServingStatus, TemporalRecommender
from .serving import BatchScorer, CacheStats, LRUCache, ServingCache
from .threshold import SortedTopicLists, batched_ta_topk, classic_ta_topk, ta_topk

__all__ = [
    "bruteforce_topk",
    "ParamStore",
    "QuantizedMatrix",
    "quantize_matrix",
    "selection_margins",
    "QuerySpace",
    "Recommendation",
    "TopKResult",
    "rank_order",
    "ServingStatus",
    "TemporalRecommender",
    "BatchScorer",
    "CacheStats",
    "LRUCache",
    "ServingCache",
    "SortedTopicLists",
    "batched_ta_topk",
    "classic_ta_topk",
    "ta_topk",
]
