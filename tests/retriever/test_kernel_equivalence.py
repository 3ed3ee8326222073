"""Ranking-equivalence battery: the array-native retrieval kernel must
reproduce the legacy kernel's rankings identically (scores within 1e-9)
across corpus sizes, seeds, metrics, and fusion modes.

The legacy classes (``benchmarks/oracles/``) are the semantic oracles the
kernel swap is held to — same contract as ``RowExecutor`` for the SQL
engine.
"""

import random

import numpy as np
import pytest

from oracles import LegacyBM25Index, LegacyHNSWIndex, LegacyHybridIndex
from repro.ann import HNSWIndex
from repro.retriever import HybridIndex
from repro.text import BM25Index

TOL = 1e-9


def corpus(n_docs: int, vocab_size: int, seed: int):
    """Zipf-ish synthetic docs over a stem-stable vocabulary."""
    rng = random.Random(seed)
    vocab = [f"t{i}x" for i in range(vocab_size)]
    weights = [1.0 / (i + 1) ** 0.7 for i in range(vocab_size)]
    return [
        (f"doc{i}", " ".join(rng.choices(vocab, weights=weights, k=rng.randint(4, 12))))
        for i in range(n_docs)
    ]


def queries_for(docs, n: int, seed: int):
    rng = random.Random(seed + 777)
    out = []
    for _ in range(n):
        _, text = docs[rng.randrange(len(docs))]
        words = text.split()
        out.append(" ".join(rng.sample(words, min(len(words), rng.randint(1, 4)))))
    out += ["", "nomatchzzz", "t0x"]
    return out


def assert_hits_equal(legacy_hits, kernel_hits, context: str):
    assert [h.doc_id for h in legacy_hits] == [h.doc_id for h in kernel_hits], context
    for lhit, khit in zip(legacy_hits, kernel_hits):
        assert abs(lhit.score - khit.score) <= TOL * max(1.0, abs(lhit.score)), (
            context,
            lhit,
            khit,
        )


class TestBM25Equivalence:
    @pytest.mark.parametrize("n_docs,vocab,seed", [(60, 40, 0), (400, 120, 1), (1500, 300, 2)])
    def test_rankings_match_on_both_paths(self, n_docs, vocab, seed):
        docs = corpus(n_docs, vocab, seed)
        qs = queries_for(docs, 25, seed)
        legacy = LegacyBM25Index()
        legacy.add_batch(docs)
        kernel = BM25Index()
        kernel.add_batch(docs)
        # Lazy (uncompiled) kernel path.
        for query in qs:
            assert_hits_equal(
                legacy.search(query, k=10), kernel.search(query, k=10), f"lazy:{query!r}"
            )
        # Compiled path (impact-sorted postings + max-score early exit).
        kernel.compile()
        assert kernel.compiled
        for query in qs:
            assert_hits_equal(
                legacy.search(query, k=10),
                kernel.search(query, k=10),
                f"compiled:{query!r}",
            )

    def test_search_batch_and_k_sweep(self):
        docs = corpus(500, 150, 5)
        qs = queries_for(docs, 15, 5)
        legacy = LegacyBM25Index()
        legacy.add_batch(docs)
        kernel = BM25Index()
        kernel.add_batch(docs)
        kernel.compile()
        for k in (1, 3, 10, 50, 1000):
            for legacy_hits, kernel_hits in zip(
                legacy.search_batch(qs, k=k), kernel.search_batch(qs, k=k)
            ):
                assert_hits_equal(legacy_hits, kernel_hits, f"k={k}")

    def test_score_method_matches(self):
        docs = corpus(200, 60, 7)
        legacy = LegacyBM25Index()
        legacy.add_batch(docs)
        kernel = BM25Index()
        kernel.add_batch(docs)
        for query in queries_for(docs, 10, 7):
            for doc_id in ("doc0", "doc50", "doc199"):
                assert kernel.score(query, doc_id) == pytest.approx(
                    legacy.score(query, doc_id), abs=1e-9
                )

    def test_after_mutation_churn(self):
        """Remove/re-add churn must leave the kernel equivalent to a legacy
        index that saw the same history."""
        docs = corpus(300, 80, 9)
        legacy = LegacyBM25Index()
        legacy.add_batch(docs)
        kernel = BM25Index()
        kernel.add_batch(docs)
        rng = random.Random(9)
        for _ in range(50):
            doc_id, text = docs[rng.randrange(len(docs))]
            legacy.remove(doc_id)
            kernel.remove(doc_id)
            legacy.add(doc_id, text + " t1x")
            kernel.add(doc_id, text + " t1x")
        kernel.compile()
        for query in queries_for(docs, 15, 9):
            assert_hits_equal(legacy.search(query, k=8), kernel.search(query, k=8), query)


class TestHNSWEquivalence:
    @pytest.mark.parametrize("metric", ["cosine", "l2", "ip"])
    @pytest.mark.parametrize("n,seed", [(40, 0), (250, 1), (600, 2)])
    def test_same_graph_same_rankings(self, metric, n, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, 16))
        legacy = LegacyHNSWIndex(dim=16, metric=metric, m=8, ef_construction=64, seed=7)
        kernel = HNSWIndex(dim=16, metric=metric, m=8, ef_construction=64, seed=7)
        for i, vec in enumerate(vectors):
            legacy.add(f"v{i}", vec)
            kernel.add(f"v{i}", vec)
        qs = rng.normal(size=(12, 16))
        for compiled in (False, True):
            if compiled:
                kernel.compile()
            for legacy_hits, kernel_hits in zip(
                legacy.search_batch(qs, k=8), kernel.search_batch(qs, k=8)
            ):
                assert [h.key for h in legacy_hits] == [h.key for h in kernel_hits]
                for lhit, khit in zip(legacy_hits, kernel_hits):
                    assert abs(lhit.distance - khit.distance) <= TOL

    def test_discrete_embeddings_with_exact_ties(self):
        """Hashing embeddings produce distances that tie in exact
        arithmetic; grid quantization must make both engines break the
        ties by node id, not float noise."""
        from repro.text import HashingEmbedder

        docs = corpus(500, 60, 3)
        embedder = HashingEmbedder(dim=32)
        matrix = embedder.embed_batch([text for _, text in docs])
        legacy = LegacyHNSWIndex(dim=32, m=8, ef_construction=64, seed=13)
        kernel = HNSWIndex(dim=32, m=8, ef_construction=64, seed=13)
        for (doc_id, _), vec in zip(docs, matrix):
            legacy.add(doc_id, vec)
            kernel.add(doc_id, vec)
        kernel.compile()
        query_vectors = embedder.embed_batch(queries_for(docs, 20, 3))
        for legacy_hits, kernel_hits in zip(
            legacy.search_batch(query_vectors, k=10), kernel.search_batch(query_vectors, k=10)
        ):
            assert [h.key for h in legacy_hits] == [h.key for h in kernel_hits]


class TestHybridEquivalence:
    @pytest.mark.parametrize("n_docs,vocab,seed", [(80, 50, 0), (300, 100, 4)])
    @pytest.mark.parametrize("mode", ["hybrid", "bm25", "vector"])
    def test_fusion_matches_across_modes(self, n_docs, vocab, seed, mode):
        docs = corpus(n_docs, vocab, seed)
        qs = queries_for(docs, 20, seed)
        legacy = LegacyHybridIndex(dim=48)
        legacy.add_batch(docs)
        kernel = HybridIndex(dim=48)
        kernel.add_batch(docs)
        # Unfrozen kernel: lazy halves, int-id fusion.
        for legacy_hits, kernel_hits in zip(
            legacy.search_batch(qs, k=5, mode=mode), kernel.search_batch(qs, k=5, mode=mode)
        ):
            assert_hits_equal(legacy_hits, kernel_hits, f"unfrozen:{mode}")
        # Frozen kernel: compiled halves + int-id fusion.
        kernel.freeze()
        assert kernel.kernel_stats()["compiled"]
        for legacy_hits, kernel_hits in zip(
            legacy.search_batch(qs, k=5, mode=mode), kernel.search_batch(qs, k=5, mode=mode)
        ):
            assert_hits_equal(legacy_hits, kernel_hits, f"frozen:{mode}")
            for lhit, khit in zip(legacy_hits, kernel_hits):
                assert lhit.bm25_rank == khit.bm25_rank
                assert lhit.vector_rank == khit.vector_rank

    def test_fusion_pool_respected_by_both_kernels(self):
        docs = corpus(300, 80, 6)
        qs = queries_for(docs, 15, 6)
        legacy = LegacyHybridIndex(dim=48, fusion_pool=25)
        legacy.add_batch(docs)
        kernel = HybridIndex(dim=48, fusion_pool=25)
        kernel.add_batch(docs)
        kernel.freeze()
        for legacy_hits, kernel_hits in zip(
            legacy.search_batch(qs, k=5), kernel.search_batch(qs, k=5)
        ):
            assert_hits_equal(legacy_hits, kernel_hits, "fusion_pool=25")

    def test_reindexed_docs_fuse_correctly_after_freeze(self):
        """Re-adding changed content recycles BM25 slots and updates HNSW
        in place; the freeze-time id interning must still fuse right."""
        docs = corpus(120, 50, 8)
        legacy = LegacyHybridIndex(dim=48)
        kernel = HybridIndex(dim=48)
        for index in (legacy, kernel):
            index.add_batch(docs)
            # Replace a third of the corpus with new content.
            for doc_id, text in docs[::3]:
                index.add(doc_id, text + " t2x t3x")
            index.freeze()
        for query in queries_for(docs, 15, 8):
            assert_hits_equal(legacy.search(query, k=5), kernel.search(query, k=5), query)

    def test_unfrozen_growth_with_readds_matches_after_every_add(self):
        """Grow an unfrozen index one document at a time, the way the
        Document Database does, re-adding some ids with new text; every
        search in between must match the legacy hybrid exactly."""
        docs = corpus(60, 40, 11)
        qs = queries_for(docs, 6, 11)
        rng = random.Random(11)
        legacy = LegacyHybridIndex(dim=48)
        kernel = HybridIndex(dim=48)
        added = []
        for step, (doc_id, text) in enumerate(docs):
            if added and step % 4 == 0:
                # Re-add an earlier id with changed content.
                doc_id = rng.choice(added)
                text = text + " t2x"
            else:
                added.append(doc_id)
            legacy.add(doc_id, text)
            kernel.add(doc_id, text)
            assert not kernel.frozen
            for mode in ("hybrid", "bm25", "vector"):
                for legacy_hits, kernel_hits in zip(
                    legacy.search_batch(qs, k=5, mode=mode),
                    kernel.search_batch(qs, k=5, mode=mode),
                ):
                    context = f"step {step}:{mode}"
                    assert [h.doc_id for h in legacy_hits] == [h.doc_id for h in kernel_hits]
                    for lhit, khit in zip(legacy_hits, kernel_hits):
                        assert lhit.score == khit.score, context
                        assert lhit.bm25_rank == khit.bm25_rank, context
                        assert lhit.vector_rank == khit.vector_rank, context
        assert len(kernel) == len(added)
