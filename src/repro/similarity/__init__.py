"""Attribute-name similarity: n-grams, measures, caching, matrices."""

from .blocking import blocked_scores, build_gram_index
from .cache import CachedSimilarity
from .instance import HybridSimilarity, InstanceSimilarity
from .matrix import NameSimilarityMatrix
from .measures import (
    ExactMatch,
    LevenshteinSimilarity,
    NGramCosine,
    NGramDice,
    NGramJaccard,
    NGramOverlap,
    SetSimilarityMeasure,
    SimilarityMeasure,
    TokenJaccard,
    available_measures,
    default_measure,
    get_measure,
    levenshtein_distance,
)
from .ngram import ngrams, normalize_name, word_tokens

__all__ = [
    "CachedSimilarity",
    "ExactMatch",
    "HybridSimilarity",
    "InstanceSimilarity",
    "LevenshteinSimilarity",
    "NGramCosine",
    "NGramDice",
    "NGramJaccard",
    "NGramOverlap",
    "NameSimilarityMatrix",
    "SetSimilarityMeasure",
    "SimilarityMeasure",
    "TokenJaccard",
    "available_measures",
    "blocked_scores",
    "build_gram_index",
    "default_measure",
    "get_measure",
    "levenshtein_distance",
    "ngrams",
    "normalize_name",
    "word_tokens",
]
