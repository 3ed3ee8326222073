"""Pneuma-Retriever's hybrid index: HNSW vector store + BM25 inverted index.

Scores from the two halves are fused by weighted reciprocal-rank fusion,
which is robust to their incomparable score scales.

The index is built for the serving layer's sharing model: mutation
(:meth:`add` / :meth:`add_batch`) is serialized by an internal lock, and
:meth:`freeze` makes the index immutable-after-build so any number of
sessions can search it concurrently without coordination.

Every document gets a hybrid int id on its first add, and each half's
slot/node maps to it from then on, so RRF accumulates over ints and maps
back to doc_id strings only for the final top-k — frozen or not, one
fusion routine serves every search.  :meth:`freeze` is the compile step:
both halves run their kernel compilation (impact-sorted BM25 postings
with max-score bounds, compacted HNSW matrix with CSR links).

The pre-kernel halves and their dict-over-doc_id fusion live in
``benchmarks/oracles/`` — the benchmark baseline and the ranking oracle
this index is tested against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann.hnsw import HNSWIndex
from ..obs import trace as obs
from ..text.bm25 import BM25Index
from ..text.embedding import HashingEmbedder


@dataclass
class HybridHit:
    doc_id: str
    score: float
    bm25_rank: Optional[int] = None
    vector_rank: Optional[int] = None


class FrozenIndexError(RuntimeError):
    """Raised when mutating an index that :meth:`HybridIndex.freeze` sealed."""


class HybridIndex:
    """Dual lexical/dense index over (doc_id, text) pairs."""

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
        if fusion_pool is not None and fusion_pool < 1:
            raise ValueError(f"fusion_pool must be >= 1, got {fusion_pool}")
        self.embedder = embedder if embedder is not None else HashingEmbedder(dim=dim)
        self.bm25 = BM25Index()
        self.vectors = HNSWIndex(
            dim=self.embedder.dim, metric="cosine", m=12, ef_construction=64, seed=seed
        )
        self.rrf_k = rrf_k
        self.bm25_weight = bm25_weight
        self.vector_weight = vector_weight
        self.seed = seed
        #: Fusion candidate depth per half; ``None`` keeps the adaptive
        #: default ``max(k * 3, 10)``.  Deeper pools let lower-ranked
        #: agreement between the halves surface at higher fusion cost.
        self.fusion_pool = fusion_pool
        self._texts: Dict[str, str] = {}
        self._write_lock = threading.Lock()
        self._frozen = False
        # The hybrid int id space, grown by every first add: hybrid id ->
        # doc_id, doc_id -> hybrid id, and each half's slot/node -> hybrid
        # id (lists while building; int64 arrays once hydrated).
        self._doc_list: List[str] = []
        self._hybrid_of: Dict[str, int] = {}
        self._bm25_map: Sequence[int] = []
        self._vector_map: Sequence[int] = []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        """Index a document under both halves (re-add replaces both sides)."""
        with self._write_lock:
            self._check_mutable()
            self._add_one(doc_id, text, self.embedder.embed(text))

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """Index many ``(doc_id, text)`` pairs; embeddings computed as a batch."""
        items = list(items)
        if not items:
            return
        with self._write_lock:
            self._check_mutable()
            matrix = self.embedder.embed_batch([text for _, text in items])
            for (doc_id, text), vector in zip(items, matrix):
                self._add_one(doc_id, text, vector)

    def _add_one(self, doc_id: str, text: str, vector) -> None:
        self.bm25.add(doc_id, text)
        hybrid = self._hybrid_of.get(doc_id)
        if hybrid is None:
            hybrid = self._hybrid_of[doc_id] = len(self._doc_list)
            self._doc_list.append(doc_id)
            self.vectors.add(doc_id, vector)
        else:
            # Re-add with changed content: swap the dense vector in place
            # so both halves rank by the current text.
            self.vectors.update(doc_id, vector)
        _assign(self._bm25_map, self.bm25.slot_of(doc_id), hybrid)
        _assign(self._vector_map, self.vectors.node_of(doc_id), hybrid)
        self._texts[doc_id] = text

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenIndexError(
                "this HybridIndex is frozen (shared by the serving layer); "
                "build a new index instead of mutating it"
            )

    def freeze(self) -> "HybridIndex":
        """Compile and seal the index: all further mutation raises
        :class:`FrozenIndexError`.

        Compiles both halves (impact-sorted BM25 postings, compacted HNSW
        matrix + CSR links); the hybrid id maps are already live.
        Searches on a frozen index are lock-free — the structure can no
        longer change, so concurrent readers need no coordination.
        """
        with self._write_lock:
            if not self._frozen:
                self._frozen = True
                self.bm25.compile()
                self.vectors.compile()
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # Persistence (the storage subsystem's segment codec drives these)
    # ------------------------------------------------------------------
    def export_fusion(self) -> Dict[str, object]:
        """The fusion layer's file-ready view: the hybrid id space, both
        halves' slot→hybrid maps, and every document's indexed text (the
        rebuild source should a half's segment be quarantined).  Requires
        a frozen index."""
        if not self._frozen:
            raise RuntimeError("export_fusion requires a frozen index")
        return {
            "meta": {
                "rrf_k": self.rrf_k,
                "bm25_weight": self.bm25_weight,
                "vector_weight": self.vector_weight,
                "fusion_pool": self.fusion_pool,
                "seed": self.seed,
                "dim": self.embedder.dim,
            },
            "doc_list": list(self._doc_list),
            "texts": [self._texts[doc_id] for doc_id in self._doc_list],
            "bm25_map": np.asarray(self._bm25_map, dtype=np.int64),
            "vector_map": np.asarray(self._vector_map, dtype=np.int64),
        }

    @classmethod
    def hydrate_fusion(
        cls,
        meta: Dict[str, object],
        bm25: BM25Index,
        vectors: HNSWIndex,
        doc_list: List[str],
        texts: List[str],
        bm25_map: np.ndarray,
        vector_map: np.ndarray,
        embedder=None,
    ) -> "HybridIndex":
        """Assemble a frozen hybrid index from restored (or rebuilt)
        halves plus the fusion arrays.  The result serves the compiled
        int-fusion search path exactly as the index it was exported from."""
        pool = meta.get("fusion_pool")
        index = cls(
            dim=int(meta["dim"]),
            rrf_k=int(meta["rrf_k"]),
            bm25_weight=float(meta["bm25_weight"]),
            vector_weight=float(meta["vector_weight"]),
            seed=int(meta.get("seed", 13)),
            embedder=embedder,
            fusion_pool=None if pool is None else int(pool),
        )
        index.bm25 = bm25
        index.vectors = vectors
        index._texts = dict(zip(doc_list, texts))
        index._doc_list = list(doc_list)
        index._hybrid_of = {doc_id: i for i, doc_id in enumerate(index._doc_list)}
        index._bm25_map = np.asarray(bm25_map, dtype=np.int64)
        index._vector_map = np.asarray(vector_map, dtype=np.int64)
        index._frozen = True
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._texts

    def text_of(self, doc_id: str) -> str:
        return self._texts[doc_id]

    def kernel_stats(self) -> Dict[str, object]:
        """Which kernel serves this index, and how fusion is tuned."""
        return {
            "kernel": "array",
            "compiled": self._frozen,
            "frozen": self._frozen,
            "fusion_pool": self.fusion_pool,
            "docs": len(self._texts),
        }

    def _pool(self, k: int) -> int:
        if self.fusion_pool is not None:
            return max(self.fusion_pool, k)
        return max(k * 3, 10)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[HybridHit]:
        """Top-k fusion search.

        ``mode`` supports the retrieval ablation: 'hybrid' (default),
        'bm25' (lexical only), or 'vector' (dense only).
        """
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[HybridHit]]:
        """Top-k fusion search for each query in one call.

        Exactly equivalent to N :meth:`search` calls, but the two halves
        are driven through their own batch entry points so per-call setup
        (corpus statistics, query embedding) is shared.
        """
        if mode not in ("hybrid", "bm25", "vector"):
            raise ValueError(f"unknown search mode {mode!r}")
        queries = list(queries)
        if not queries:
            return []
        # Both halves return rank-ordered int ids, RRF accumulates over
        # hybrid ints, and doc_id strings materialize only for the top-k.
        pool = self._pool(k)
        n = len(queries)
        empty = np.empty(0, dtype=np.int64)
        bm25_lists: Sequence[np.ndarray] = [empty] * n
        vector_lists: Sequence[np.ndarray] = [empty] * n
        if mode in ("hybrid", "bm25"):
            with obs.span("retrieval.bm25", queries=n, pool=pool):
                bm25_lists = self.bm25.search_slots(queries, k=pool)
        if mode in ("hybrid", "vector"):
            with obs.span("retrieval.vector", queries=n, pool=pool):
                vectors = self.embedder.embed_batch(queries)
                vector_lists = self.vectors.search_batch_ids(vectors, k=pool)

        bm25_map, vector_map, doc_list = self._bm25_map, self._vector_map, self._doc_list
        results: List[List[HybridHit]] = []
        with obs.span("retrieval.fusion", queries=n):
            for bm25_ids, vector_ids in zip(bm25_lists, vector_lists):
                fused: Dict[int, float] = {}
                bm25_ranks: Dict[int, int] = {}
                vector_ranks: Dict[int, int] = {}
                for rank, slot in enumerate(bm25_ids.tolist()):
                    hybrid = int(bm25_map[slot])
                    bm25_ranks[hybrid] = rank
                    fused[hybrid] = fused.get(hybrid, 0.0) + self.bm25_weight / (
                        self.rrf_k + rank + 1
                    )
                for rank, node in enumerate(vector_ids.tolist()):
                    hybrid = int(vector_map[node])
                    vector_ranks[hybrid] = rank
                    fused[hybrid] = fused.get(hybrid, 0.0) + self.vector_weight / (
                        self.rrf_k + rank + 1
                    )
                ranked = sorted(fused.items(), key=lambda kv: (-kv[1], doc_list[kv[0]]))
                results.append(
                    [
                        HybridHit(
                            doc_list[hybrid],
                            score,
                            bm25_rank=bm25_ranks.get(hybrid),
                            vector_rank=vector_ranks.get(hybrid),
                        )
                        for hybrid, score in ranked[:k]
                    ]
                )
        return results


def _assign(mapping: List[int], position: int, hybrid: int) -> None:
    """Point a half's slot/node at its hybrid id, growing the map with
    -1 (no document) as needed."""
    if position >= len(mapping):
        mapping.extend([-1] * (position + 1 - len(mapping)))
    mapping[position] = hybrid
