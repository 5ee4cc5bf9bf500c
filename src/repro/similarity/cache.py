"""Memoized pairwise similarity.

Attribute names repeat heavily across an Internet-scale universe (perturbed
copies of the same query interface keep most names verbatim), so caching by
unordered name pair turns the clustering algorithm's similarity lookups into
dictionary hits.
"""

from __future__ import annotations

from ..telemetry import get_profiler
from .measures import SimilarityMeasure


class CachedSimilarity:
    """Wrap a :class:`SimilarityMeasure` with an unordered-pair memo table.

    The wrapper is itself a valid measure (same call signature, same
    ``name``), so it can be passed anywhere a raw measure is accepted.
    ``hits``/``misses`` count the memo traffic; they are plain ints so the
    hot lookup path stays a dict probe plus an increment.
    """

    __slots__ = (
        "measure", "name", "_cache", "hits", "misses",
        "_retire_cache_probe", "__weakref__",
    )

    def __init__(self, measure: SimilarityMeasure):
        self._retire_cache_probe = get_profiler().add_cache_probe(
            "similarity.memo", self.stats
        )
        self.measure = measure
        self.name = measure.name
        self._cache: dict[tuple[str, str], float] = {}
        self.hits = 0
        self.misses = 0

    def __del__(self) -> None:
        # The profiler holds stats weakly: hand it the final totals.
        self._retire_cache_probe(self.stats)

    def __call__(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is None:
            self.misses += 1
            cached = self.measure(a, b)
            self._cache[key] = cached
        else:
            self.hits += 1
        return cached

    def cache_size(self) -> int:
        """Number of memoized pairs."""
        return len(self._cache)

    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Memo statistics: hits, misses, size and hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._cache),
            "hit_rate": self.hit_rate(),
        }

    def clear(self) -> None:
        """Drop all memoized pairs and reset the traffic counters."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"CachedSimilarity({self.measure!r}, cached={len(self._cache)}, "
            f"hit_rate={self.hit_rate():.1%})"
        )
