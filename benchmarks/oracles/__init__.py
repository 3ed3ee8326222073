"""Reference engines kept outside the package: the pre-kernel retrieval
indexes and the tuple-at-a-time SQL executor.

``src/repro`` holds one implementation per concern.  These are the
older implementations each kernel replaced.  They stay here as the
baselines the kernel benchmarks time against and as the oracles the
tier-1 equivalence batteries compare against.
"""

from .bm25_legacy import LegacyBM25Index
from .hnsw_legacy import LegacyHNSWIndex
from .hybrid_legacy import LegacyHybridIndex
from .row_executor import RowExecutor

__all__ = ["LegacyBM25Index", "LegacyHNSWIndex", "LegacyHybridIndex", "RowExecutor"]
