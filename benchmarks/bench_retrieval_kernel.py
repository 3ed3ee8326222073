"""Retrieval kernel throughput: the array-native BM25/HNSW/hybrid kernel
vs. the legacy pure-Python kernel (the ``oracles/`` classes).

The claim under test (ROADMAP's "as fast as the hardware allows" applied
to the per-turn retrieval cost every Conductor session pays):

1. The compiled BM25 kernel (interned int doc ids, per-term numpy
   postings, dense-accumulator scoring, argpartition top-k, max-score
   early exit) beats the dict-at-a-time :class:`LegacyBM25Index` by
   >= 3x on top-k search over a >= 50k-document corpus.
2. The matrix-backed HNSW kernel (contiguous vector matrix, vectorized
   neighbor evaluation, per-thread visited tags, CSR links after
   ``compile()``) beats :class:`LegacyHNSWIndex` by >= 3x on batch
   search.
3. Frozen-``HybridIndex`` fusion over int ids beats
   :class:`LegacyHybridIndex` (dict-over-doc_id fusion) by >= 3x on
   ``search_batch``.
4. Building the kernel index costs no more than 1.5x the legacy build
   (in practice the HNSW half makes it *faster*).

Every measurement double-checks equivalence first: the kernel must
reproduce the legacy rankings identically (scores/distances within
1e-9) on the exact workload being timed.

Writes ``BENCH_retrieval_kernel.json`` (timings + speedups) next to the
repo root so CI can archive the perf trajectory.  Also runnable
standalone:

    PYTHONPATH=src python benchmarks/bench_retrieval_kernel.py --smoke
"""

import argparse
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import LegacyBM25Index, LegacyHNSWIndex, LegacyHybridIndex
from repro.ann import HNSWIndex
from repro.retriever import HybridIndex
from repro.text import BM25Index

#: Workload scales: paper-adjacent (default) and CI smoke.  The BM25
#: corpus must be >= 50k docs at full scale (the acceptance floor).
FULL = {
    "bm25_docs": 50_000,
    "bm25_vocab": 1_200,
    "bm25_queries": 200,
    "hnsw_vectors": 4_000,
    "hnsw_dim": 48,
    "hnsw_queries": 200,
    "hybrid_docs": 5_000,
    "hybrid_vocab": 800,
    "hybrid_queries": 150,
    "k": 10,
}
SMOKE = {
    "bm25_docs": 1_500,
    "bm25_vocab": 300,
    "bm25_queries": 30,
    "hnsw_vectors": 300,
    "hnsw_dim": 16,
    "hnsw_queries": 20,
    "hybrid_docs": 300,
    "hybrid_vocab": 120,
    "hybrid_queries": 20,
    "k": 5,
}

#: Acceptance floors, asserted at full scale only (smoke proves the path
#: runs and the kernels agree — tiny N cannot show stable speedups).
SPEEDUP_FLOORS = {"bm25": 3.0, "hnsw": 3.0, "hybrid": 3.0}
BUILD_CEILING = 1.5


# ----------------------------------------------------------------------
# Synthetic workload
# ----------------------------------------------------------------------
def synth_corpus(n_docs: int, vocab_size: int, seed: int) -> list:
    """Zipf-ish ``(doc_id, text)`` pairs over a stem-stable vocabulary."""
    rng = random.Random(seed)
    vocab = [f"t{i}x" for i in range(vocab_size)]
    weights = [1.0 / (i + 1) ** 0.7 for i in range(vocab_size)]
    return [
        (f"doc{i}", " ".join(rng.choices(vocab, weights=weights, k=rng.randint(6, 14))))
        for i in range(n_docs)
    ]


def synth_queries(docs: list, n: int, seed: int) -> list:
    """Queries sampled from real documents (so postings are actually hit)."""
    rng = random.Random(seed + 4242)
    queries = []
    for _ in range(n):
        _, text = docs[rng.randrange(len(docs))]
        words = text.split()
        queries.append(" ".join(rng.sample(words, min(len(words), rng.randint(2, 5)))))
    return queries


def best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Equivalence checks (identical rankings, scores within 1e-9)
# ----------------------------------------------------------------------
def assert_same_rankings(legacy_lists, kernel_lists, what: str) -> None:
    assert len(legacy_lists) == len(kernel_lists), what
    for legacy_hits, kernel_hits in zip(legacy_lists, kernel_lists):
        legacy_ids = [getattr(h, "doc_id", None) or getattr(h, "key") for h in legacy_hits]
        kernel_ids = [getattr(h, "doc_id", None) or getattr(h, "key") for h in kernel_hits]
        assert legacy_ids == kernel_ids, f"{what}: rankings diverge ({legacy_ids[:3]} vs {kernel_ids[:3]})"
        for lhit, khit in zip(legacy_hits, kernel_hits):
            lscore = getattr(lhit, "score", None)
            lscore = lscore if lscore is not None else lhit.distance
            kscore = getattr(khit, "score", None)
            kscore = kscore if kscore is not None else khit.distance
            assert abs(lscore - kscore) <= 1e-9 * max(1.0, abs(lscore)), (
                f"{what}: scores diverge beyond 1e-9 ({lscore} vs {kscore})"
            )


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_bm25(cfg: dict, reps: int) -> dict:
    docs = synth_corpus(cfg["bm25_docs"], cfg["bm25_vocab"], seed=11)
    queries = synth_queries(docs, cfg["bm25_queries"], seed=11)
    k = cfg["k"]

    # Build timings are best-of (fresh index per rep): tokenization noise
    # dominates a single add_batch pass and can swamp the ratio.
    def build_legacy():
        index = LegacyBM25Index()
        index.add_batch(docs)
        return index

    def build_kernel():
        index = BM25Index()
        index.add_batch(docs)
        index.compile()
        return index

    legacy_build = best_of(build_legacy, reps)
    kernel_build = best_of(build_kernel, reps)
    legacy = build_legacy()
    kernel = build_kernel()

    assert_same_rankings(
        legacy.search_batch(queries, k=k), kernel.search_batch(queries, k=k), "bm25"
    )
    legacy_search = best_of(lambda: legacy.search_batch(queries, k=k), reps)
    kernel_search = best_of(lambda: kernel.search_batch(queries, k=k), reps)
    return {
        "docs": cfg["bm25_docs"],
        "queries": cfg["bm25_queries"],
        "k": k,
        "legacy_build_s": legacy_build,
        "kernel_build_s": kernel_build,
        "build_ratio": kernel_build / max(legacy_build, 1e-9),
        "legacy_search_ms": legacy_search * 1000,
        "kernel_search_ms": kernel_search * 1000,
        "speedup": legacy_search / max(kernel_search, 1e-9),
    }


def bench_hnsw(cfg: dict, reps: int) -> dict:
    rng = np.random.default_rng(23)
    vectors = rng.normal(size=(cfg["hnsw_vectors"], cfg["hnsw_dim"]))
    items = [(f"v{i}", vec) for i, vec in enumerate(vectors)]
    queries = rng.normal(size=(cfg["hnsw_queries"], cfg["hnsw_dim"]))
    k = cfg["k"]

    legacy = LegacyHNSWIndex(dim=cfg["hnsw_dim"], m=8, ef_construction=64, seed=7)
    legacy_build = timed(lambda: legacy.add_batch(items))
    kernel = HNSWIndex(dim=cfg["hnsw_dim"], m=8, ef_construction=64, seed=7)
    kernel_build = timed(lambda: (kernel.add_batch(items), kernel.compile()))

    assert_same_rankings(
        legacy.search_batch(queries, k=k), kernel.search_batch(queries, k=k), "hnsw"
    )
    legacy_search = best_of(lambda: legacy.search_batch(queries, k=k), reps)
    kernel_search = best_of(lambda: kernel.search_batch(queries, k=k), reps)
    return {
        "vectors": cfg["hnsw_vectors"],
        "dim": cfg["hnsw_dim"],
        "queries": cfg["hnsw_queries"],
        "k": k,
        "legacy_build_s": legacy_build,
        "kernel_build_s": kernel_build,
        "build_ratio": kernel_build / max(legacy_build, 1e-9),
        "legacy_search_ms": legacy_search * 1000,
        "kernel_search_ms": kernel_search * 1000,
        "speedup": legacy_search / max(kernel_search, 1e-9),
    }


def bench_hybrid(cfg: dict, reps: int) -> dict:
    docs = synth_corpus(cfg["hybrid_docs"], cfg["hybrid_vocab"], seed=37)
    queries = synth_queries(docs, cfg["hybrid_queries"], seed=37)
    k = max(cfg["k"] // 2, 3)

    legacy = LegacyHybridIndex(dim=64)
    legacy_build = timed(lambda: (legacy.add_batch(docs), legacy.freeze()))
    kernel = HybridIndex(dim=64)
    kernel_build = timed(lambda: (kernel.add_batch(docs), kernel.freeze()))

    assert_same_rankings(
        legacy.search_batch(queries, k=k), kernel.search_batch(queries, k=k), "hybrid"
    )
    legacy_search = best_of(lambda: legacy.search_batch(queries, k=k), reps)
    kernel_search = best_of(lambda: kernel.search_batch(queries, k=k), reps)
    return {
        "docs": cfg["hybrid_docs"],
        "queries": cfg["hybrid_queries"],
        "k": k,
        "legacy_build_s": legacy_build,
        "kernel_build_s": kernel_build,
        "build_ratio": kernel_build / max(legacy_build, 1e-9),
        "legacy_search_ms": legacy_search * 1000,
        "kernel_search_ms": kernel_search * 1000,
        "speedup": legacy_search / max(kernel_search, 1e-9),
    }


def run_all(cfg: dict, reps: int) -> dict:
    return {
        "bm25": bench_bm25(cfg, reps),
        "hnsw": bench_hnsw(cfg, reps),
        "hybrid": bench_hybrid(cfg, reps),
    }


def report(label: str, results: dict) -> None:
    print()
    print(f"Retrieval kernel ({label}):")
    for name, r in results.items():
        print(
            f"  {name:7s} legacy {r['legacy_search_ms']:9.1f} ms   "
            f"kernel {r['kernel_search_ms']:9.1f} ms   "
            f"speedup {r['speedup']:5.1f}x   "
            f"build {r['kernel_build_s']:.2f}s vs {r['legacy_build_s']:.2f}s "
            f"({r['build_ratio']:.2f}x)"
        )


def write_json(label: str, results: dict, path: Path) -> None:
    payload = {"benchmark": "retrieval_kernel", "mode": label, "workloads": results}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {path}")


def _assert_floors(results: dict) -> None:
    for name, floor in SPEEDUP_FLOORS.items():
        speedup = results[name]["speedup"]
        assert speedup >= floor, (
            f"{name}: expected >= {floor}x over the legacy kernel, got {speedup:.2f}x"
        )
        ratio = results[name]["build_ratio"]
        assert ratio <= BUILD_CEILING, (
            f"{name}: kernel build {ratio:.2f}x legacy exceeds the {BUILD_CEILING}x ceiling"
        )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_smoke_retrieval_kernel():
    """Tiny-N smoke: kernels agree with the legacy oracle, JSON is emitted."""
    results = run_all(SMOKE, reps=1)
    report("smoke", results)
    write_json("smoke", results, Path("BENCH_retrieval_kernel.json"))


def test_retrieval_kernel_speedup(benchmark):
    """Full scale: >= 3x on BM25 (50k docs), HNSW, and hybrid search."""
    results = run_all(FULL, reps=3)
    report("full", results)
    write_json("full", results, Path("BENCH_retrieval_kernel.json"))
    _assert_floors(results)
    docs = synth_corpus(2_000, 400, seed=99)
    index = HybridIndex(dim=64)
    index.add_batch(docs)
    index.freeze()
    queries = synth_queries(docs, 20, seed=99)
    benchmark(index.search_batch, queries, 5)


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny N, finishes in seconds")
    parser.add_argument(
        "--json", type=Path, default=Path("BENCH_retrieval_kernel.json"),
        help="where to write the results JSON",
    )
    args = parser.parse_args()

    label = "smoke" if args.smoke else "full"
    results = run_all(SMOKE if args.smoke else FULL, reps=1 if args.smoke else 3)
    report(label, results)
    write_json(label, results, args.json)
    if args.smoke:
        print("note: speedup floors asserted only at full scale")
    else:
        _assert_floors(results)
        print("OK: >= 3x over the legacy kernel on BM25, HNSW, and hybrid search")


if __name__ == "__main__":
    main()
