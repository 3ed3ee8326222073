"""text — tokenization, the BM25 index, embeddings."""

from .bm25 import BM25Hit, BM25Index
from .embedding import CachedEmbedder, HashingEmbedder, cosine_similarity
from .tokenize import (
    STOPWORDS,
    char_ngrams,
    char_ngrams_cached,
    stem,
    token_cache_stats,
    tokenize,
    tokenize_cached,
)

__all__ = [
    "BM25Index",
    "BM25Hit",
    "HashingEmbedder",
    "CachedEmbedder",
    "cosine_similarity",
    "tokenize",
    "tokenize_cached",
    "char_ngrams_cached",
    "token_cache_stats",
    "stem",
    "char_ngrams",
    "STOPWORDS",
]
