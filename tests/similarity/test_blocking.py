"""Property tests: the blocked build is bit-identical to the dense build.

Blocking is *exact* by construction — a pair sharing no gram scores
exactly 0.0 for every set-based measure, and both-empty token sets score
1.0 — so the blocked similarity matrix must equal the dense all-pairs
matrix bit for bit, not approximately, over arbitrary vocabularies:
short names (below the gram width), names that normalize to nothing,
and near-duplicates.  ``extended()`` over a
blocked matrix must likewise equal a cold blocked build on the union
vocabulary.  Hypothesis drives the vocabularies; every comparison is
``assert_array_equal``, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.similarity import (
    NameSimilarityMatrix,
    NGramCosine,
    NGramDice,
    NGramJaccard,
    NGramOverlap,
    TokenJaccard,
    blocked_scores,
)
from repro.similarity.blocking import build_gram_index, exact_candidates
from repro.telemetry import InMemoryExporter, Telemetry, use_telemetry

MEASURES = [
    NGramJaccard(3),
    NGramJaccard(2),
    NGramDice(3),
    NGramOverlap(3),
    NGramCosine(3),
    TokenJaccard(),
]

#: Names that stress every special case: empty after normalization,
#: shorter than the gram width, duplicates after normalization,
#: multi-word, unicode-adjacent punctuation.
NAME = st.one_of(
    st.sampled_from(
        [
            "", " ", "-", "a", "ab", "abc", "title", "Title ", "book_title",
            "book title", "price(usd)", "PRICE_USD", "isbn13", "isbn-13",
            "x" * 12, "the publisher name", "éé",
        ]
    ),
    st.text(
        alphabet="abcdefgh_ -123", min_size=0, max_size=12
    ),
)
VOCABULARY = st.lists(NAME, min_size=0, max_size=30, unique=True)


def dense_build(names, measure):
    return NameSimilarityMatrix.build(names, measure, blocked=False)


class TestBlockedEqualsDense:
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    @given(names=VOCABULARY)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_blocked_build_bit_identical(self, measure, names):
        blocked = NameSimilarityMatrix.build(names, measure)
        dense = dense_build(names, measure)
        np.testing.assert_array_equal(blocked.matrix, dense.matrix)
        assert blocked.names == dense.names

    @given(names=VOCABULARY, split=st.integers(min_value=0, max_value=30))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_extended_equals_cold_union_build(self, names, split):
        """extended() over a blocked matrix ≡ cold blocked union build."""
        split = min(split, len(names))
        measure = NGramJaccard(3)
        base = NameSimilarityMatrix.build(names[:split], measure)
        extended = base.extended(names[split:], measure)
        cold = NameSimilarityMatrix.build(names, measure)
        np.testing.assert_array_equal(extended.matrix, cold.matrix)
        assert extended.names == cold.names

    def test_forced_sparse_storage_is_still_bit_identical(self):
        names = [f"attr_{i}_{'xyz'[i % 3]}" for i in range(60)] + ["", "a"]
        measure = NGramJaccard(3)
        sparse = NameSimilarityMatrix.build(names, measure, storage="sparse")
        dense = dense_build(names, measure)
        assert sparse.is_sparse
        np.testing.assert_array_equal(sparse.matrix, dense.matrix)


class TestCandidates:
    def test_no_shared_gram_means_no_candidate(self):
        index = build_gram_index(["abcd", "wxyz"], NGramJaccard(3))
        rows, cols, inter = exact_candidates(index)
        assert len(rows) == len(cols) == len(inter) == 0

    def test_intersection_sizes_are_exact(self):
        measure = NGramJaccard(3)
        names = ["title", "subtitle", "tight", "unrelated_zzz"]
        index = build_gram_index(names, measure)
        rows, cols, inter = exact_candidates(index)
        grams = [measure.grams(n) for n in names]
        for i, j, k in zip(rows, cols, inter):
            assert i < j
            assert k == len(grams[i] & grams[j])

    def test_row_limit_only_emits_pairs_touching_fresh_rows(self):
        names = ["title", "titles", "subtitle", "title_x"]
        index = build_gram_index(names, NGramJaccard(3))
        rows, cols, _ = exact_candidates(index, row_limit=3)
        assert len(rows) > 0
        assert (cols >= 3).all()
        assert (rows < cols).all()


class TestTelemetry:
    def test_build_records_blocking_counters(self):
        telemetry = Telemetry(exporters=[InMemoryExporter()])
        names = [f"name_{i}" for i in range(20)] + ["zzzz", "qqqq"]
        with use_telemetry(telemetry):
            scores = blocked_scores(names, NGramJaccard(3))
        telemetry.close()
        metrics = telemetry.metrics
        total = len(names) * (len(names) - 1) // 2
        assert metrics.counter_value("similarity.blocking.builds") == 1
        assert metrics.counter_value("similarity.blocking.names") == len(names)
        candidates = metrics.counter_value(
            "similarity.blocking.candidate_pairs"
        )
        pruned = metrics.counter_value("similarity.blocking.pruned_pairs")
        assert candidates == scores.candidates
        assert candidates + pruned == total
        assert scores.total_pairs == total
        assert metrics.gauge_value(
            "similarity.blocking.candidate_ratio"
        ) == pytest.approx(scores.candidate_ratio)
