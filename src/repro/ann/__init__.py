"""ann — approximate nearest-neighbor indexes (HNSW) plus an exact baseline."""

from .brute import BruteForceIndex, Neighbor
from .hnsw import HNSWIndex
from .metrics import METRICS, cosine_distance, inner_product_distance, l2_distance, resolve_metric

__all__ = [
    "HNSWIndex",
    "BruteForceIndex",
    "Neighbor",
    "METRICS",
    "resolve_metric",
    "cosine_distance",
    "l2_distance",
    "inner_product_distance",
]
