"""The original hybrid index: legacy halves plus dict-over-doc_id fusion.

:class:`~repro.retriever.index.HybridIndex` fuses over interned int ids
from the first add.  This class is the pre-kernel shape it replaced:
:class:`LegacyBM25Index` and :class:`LegacyHNSWIndex` return doc_id
strings, and weighted reciprocal-rank fusion accumulates in a dict keyed
by those strings.  It is kept for two reasons:

* **semantic oracle** — the equivalence battery requires the kernel
  index, frozen or not, to return the same hits, scores and per-half
  ranks as this class;
* **benchmark baseline** — ``benchmarks/bench_retrieval_kernel.py``
  reports the frozen kernel's ``search_batch`` speedup over this class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.retriever.index import HybridHit
from repro.text.embedding import HashingEmbedder

from .bm25_legacy import LegacyBM25Index
from .hnsw_legacy import LegacyHNSWIndex


class LegacyHybridIndex:
    """Dual lexical/dense index over (doc_id, text) pairs, dict fusion."""

    def __init__(
        self,
        dim: int = 192,
        rrf_k: int = 60,
        bm25_weight: float = 1.0,
        vector_weight: float = 1.0,
        seed: int = 13,
        embedder=None,
        fusion_pool: Optional[int] = None,
    ):
        self.embedder = embedder if embedder is not None else HashingEmbedder(dim=dim)
        self.bm25 = LegacyBM25Index()
        self.vectors = LegacyHNSWIndex(
            dim=self.embedder.dim, metric="cosine", m=12, ef_construction=64, seed=seed
        )
        self.rrf_k = rrf_k
        self.bm25_weight = bm25_weight
        self.vector_weight = vector_weight
        self.fusion_pool = fusion_pool
        self._texts: Dict[str, str] = {}

    def add(self, doc_id: str, text: str) -> None:
        self._add_one(doc_id, text, self.embedder.embed(text))

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        items = list(items)
        if not items:
            return
        matrix = self.embedder.embed_batch([text for _, text in items])
        for (doc_id, text), vector in zip(items, matrix):
            self._add_one(doc_id, text, vector)

    def _add_one(self, doc_id: str, text: str, vector) -> None:
        self.bm25.add(doc_id, text)
        if doc_id in self.vectors:
            self.vectors.update(doc_id, vector)
        else:
            self.vectors.add(doc_id, vector)
        self._texts[doc_id] = text

    def freeze(self) -> "LegacyHybridIndex":
        """No compile step exists on this path; kept for API parity."""
        return self

    def __len__(self) -> int:
        return len(self._texts)

    def _pool(self, k: int) -> int:
        if self.fusion_pool is not None:
            return max(self.fusion_pool, k)
        return max(k * 3, 10)

    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[HybridHit]:
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[HybridHit]]:
        if mode not in ("hybrid", "bm25", "vector"):
            raise ValueError(f"unknown search mode {mode!r}")
        queries = list(queries)
        if not queries:
            return []
        pool = self._pool(k)
        batch_bm25: List[Dict[str, int]] = [{} for _ in queries]
        batch_vector: List[Dict[str, int]] = [{} for _ in queries]
        if mode in ("hybrid", "bm25"):
            for ranks, hits in zip(batch_bm25, self.bm25.search_batch(queries, k=pool)):
                for rank, hit in enumerate(hits):
                    ranks[hit.doc_id] = rank
        if mode in ("hybrid", "vector"):
            vectors = self.embedder.embed_batch(queries)
            for ranks, hits in zip(batch_vector, self.vectors.search_batch(vectors, k=pool)):
                for rank, hit in enumerate(hits):
                    ranks[hit.key] = rank

        results: List[List[HybridHit]] = []
        for bm25_ranks, vector_ranks in zip(batch_bm25, batch_vector):
            fused: Dict[str, float] = {}
            for doc_id, rank in bm25_ranks.items():
                fused[doc_id] = fused.get(doc_id, 0.0) + self.bm25_weight / (self.rrf_k + rank + 1)
            for doc_id, rank in vector_ranks.items():
                fused[doc_id] = (
                    fused.get(doc_id, 0.0) + self.vector_weight / (self.rrf_k + rank + 1)
                )
            ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
            results.append(
                [
                    HybridHit(
                        doc_id,
                        score,
                        bm25_rank=bm25_ranks.get(doc_id),
                        vector_rank=vector_ranks.get(doc_id),
                    )
                    for doc_id, score in ranked[:k]
                ]
            )
        return results
