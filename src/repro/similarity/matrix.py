"""Precomputed name-pair similarity matrices.

The optimizer evaluates the matching QEF thousands of times per run, and
each evaluation clusters a fresh attribute set.  Because the *vocabulary* of
distinct attribute names in a universe is small (hundreds) even when the
number of attributes is large (thousands), precomputing the full
vocabulary-by-vocabulary similarity matrix once per universe makes every
later lookup an O(1) array read and lets the clustering algorithm gather
whole cluster-pair blocks with numpy fancy indexing.

Two build paths exist:

* **Blocked** (set-based measures — the paper's 3-gram Jaccard included):
  candidate pairs come from an inverted gram index and are scored
  vectorized (:mod:`repro.similarity.blocking`), so construction cost
  scales with the pairs that can be nonzero instead of all ``n²`` — and is
  bit-identical to the dense build, because a pair sharing no gram scores
  exactly zero.
* **Dense fallback** (arbitrary measures): the classic upper-triangle
  loop, with each name tokenized once when the measure exposes the
  :meth:`~repro.similarity.measures.SetSimilarityMeasure.grams` hook.

Storage is auto-selected by nonzero density: large sparse vocabularies are
kept in CSR form (the similarity of "internet scale" name vocabularies is
overwhelmingly zero), small or dense ones as a plain ndarray.  Either way
the read contracts — :meth:`~NameSimilarityMatrix.pair`,
:meth:`~NameSimilarityMatrix.block`, :meth:`~NameSimilarityMatrix.max_cross`,
pickling — are identical, so the clustering layer and the delta-solve
``extended()`` path never notice which backing store they hit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Sized

import numpy as np

from ..exceptions import ReproError
from ..telemetry import get_profiler, get_telemetry
from .blocking import blocked_scores
from .measures import SetSimilarityMeasure, SimilarityMeasure

#: Below this vocabulary size the dense array always wins (a few hundred
#: KiB at most, and dense fancy-indexing is faster for the clusterer).
SPARSE_MIN_NAMES = 512

#: Auto-storage keeps the dense array while more than this fraction of the
#: full matrix (diagonal included) is nonzero.
SPARSE_MAX_DENSITY = 0.25


class _CsrMatrix:
    """Minimal symmetric CSR storage for a similarity matrix.

    Row-sliced reads only — exactly what :meth:`NameSimilarityMatrix.pair`
    / ``block`` need.  The diagonal is stored explicitly (always 1.0 for a
    similarity matrix), so every stored row is self-contained.
    """

    __slots__ = ("n", "indptr", "indices", "data")

    def __init__(
        self, n: int, indptr: np.ndarray, indices: np.ndarray,
        data: np.ndarray,
    ):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @classmethod
    def from_upper_coo(
        cls,
        n: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "_CsrMatrix":
        """Build from strict-upper-triangle entries, symmetrized + unit diag."""
        nonzero = values != 0.0
        rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
        diagonal = np.arange(n, dtype=np.int64)
        all_rows = np.concatenate((rows, cols, diagonal))
        all_cols = np.concatenate((cols, rows, diagonal))
        all_values = np.concatenate(
            (values, values, np.ones(n, dtype=np.float64))
        )
        order = np.lexsort((all_cols, all_rows))
        all_rows = all_rows[order]
        all_cols = all_cols[order]
        all_values = all_values[order]
        counts = np.bincount(all_rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n, indptr, all_cols, all_values)

    @property
    def nnz(self) -> int:
        return int(len(self.data))

    def pair(self, i: int, j: int) -> float:
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        slot = np.searchsorted(row, j)
        if slot < len(row) and row[slot] == j:
            return float(self.data[self.indptr[i] + slot])
        return 0.0

    def rows_dense(self, ids: np.ndarray) -> np.ndarray:
        """The requested rows, densified: a ``(len(ids), n)`` array."""
        out = np.zeros((len(ids), self.n), dtype=np.float64)
        for slot, i in enumerate(ids):
            start, end = self.indptr[i], self.indptr[i + 1]
            out[slot, self.indices[start:end]] = self.data[start:end]
        return out

    def to_dense(self) -> np.ndarray:
        return self.rows_dense(np.arange(self.n, dtype=np.int64))

    def upper_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Strict-upper-triangle entries (the inverse of the builder)."""
        row_ids = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
        )
        keep = self.indices > row_ids
        return row_ids[keep], self.indices[keep], self.data[keep]

    def nbytes(self) -> int:
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
        )


def _unwrap_set_measure(
    measure: SimilarityMeasure,
) -> SetSimilarityMeasure | None:
    """The set-based core of a measure, seeing through the pair memo.

    A :class:`~repro.similarity.cache.CachedSimilarity` wrapping a
    set-based measure routes through the blocked path on its *inner*
    measure — the memo is pointless for a build that touches each pair at
    most once, and the blocked result is bit-identical by the memo's
    pure-function contract.
    """
    if isinstance(measure, SetSimilarityMeasure):
        return measure
    inner = getattr(measure, "measure", None)
    if inner is not None and isinstance(inner, SetSimilarityMeasure):
        return inner
    return None


def _pair_scorer(vocabulary: Sequence[str], measure: SimilarityMeasure):
    """An ``(i, j) -> float`` scorer over vocabulary positions.

    For set-based measures the names are tokenized once up front — O(n)
    tokenizations instead of the O(n²) of calling ``measure(a, b)`` per
    pair — via the same :meth:`~repro.similarity.measures.
    SetSimilarityMeasure.grams` hook the blocked path uses.  Arbitrary
    measures fall back to per-pair name calls.
    """
    set_measure = _unwrap_set_measure(measure)
    if set_measure is None:
        return lambda i, j: measure(vocabulary[i], vocabulary[j])
    gram_sets = [set_measure.grams(name) for name in vocabulary]
    return lambda i, j: set_measure.score_sets(gram_sets[i], gram_sets[j])


def _choose_sparse(n: int, upper_nnz: int, storage: str) -> bool:
    """Auto-select CSR storage for large, sparse vocabularies."""
    if storage == "dense":
        return False
    if storage == "sparse":
        return True
    if storage != "auto":
        raise ReproError(
            f"storage must be auto, dense or sparse, got {storage!r}"
        )
    if n < SPARSE_MIN_NAMES:
        return False
    density = (2 * upper_nnz + n) / (n * n)
    return density <= SPARSE_MAX_DENSITY


class NameSimilarityMatrix:
    """Symmetric similarity matrix over a fixed name vocabulary."""

    __slots__ = ("names", "_index", "_dense", "_sparse", "measure_name")

    def __init__(
        self,
        names: Sequence[str],
        matrix: np.ndarray,
        measure_name: str = "custom",
    ):
        if matrix.shape != (len(names), len(names)):
            raise ReproError(
                f"matrix shape {matrix.shape} does not match vocabulary "
                f"size {len(names)}"
            )
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ReproError("vocabulary names must be unique")
        self._dense = matrix
        self._sparse = None
        self.measure_name = measure_name

    @classmethod
    def from_sparse(
        cls,
        names: Sequence[str],
        sparse: _CsrMatrix,
        measure_name: str = "custom",
    ) -> "NameSimilarityMatrix":
        """Wrap CSR storage without densifying (values identical to dense)."""
        if sparse.n != len(names):
            raise ReproError(
                f"sparse storage is {sparse.n}x{sparse.n} but the "
                f"vocabulary has {len(names)} names"
            )
        instance = cls.__new__(cls)
        instance.names = tuple(names)
        instance._index = {
            name: i for i, name in enumerate(instance.names)
        }
        if len(instance._index) != len(instance.names):
            raise ReproError("vocabulary names must be unique")
        instance._dense = None
        instance._sparse = sparse
        instance.measure_name = measure_name
        return instance

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        names: Iterable[str],
        measure: SimilarityMeasure,
        blocked: bool | None = None,
        storage: str = "auto",
    ) -> "NameSimilarityMatrix":
        """Compute the full matrix for a vocabulary under a measure.

        The measure is assumed symmetric with self-similarity 1.0; only
        the upper triangle is computed.  Set-based measures route through
        the blocked sub-quadratic path by default (``blocked=None``
        auto-detects; ``False`` forces the dense all-pairs loop, which is
        bit-identical but quadratic).  ``storage`` picks the backing
        store (``auto``/``dense``/``sparse``).
        """
        telemetry = get_telemetry()
        vocabulary = tuple(dict.fromkeys(names))
        size = len(vocabulary)
        set_measure = _unwrap_set_measure(measure)
        if blocked is None:
            use_blocked = set_measure is not None
        elif blocked and set_measure is None:
            raise ReproError(
                f"measure {measure.name!r} is not set-based; the blocked "
                f"build path needs a SetSimilarityMeasure"
            )
        else:
            use_blocked = blocked
        with get_profiler().phase("similarity"), telemetry.span(
            "similarity.matrix_build", vocabulary=size,
            measure=measure.name, blocked=use_blocked,
        ):
            if use_blocked:
                scores = blocked_scores(vocabulary, set_measure)
                result = cls._assemble(
                    vocabulary,
                    scores.rows,
                    scores.cols,
                    scores.values,
                    measure.name,
                    storage,
                )
            else:
                matrix = np.eye(size, dtype=np.float64)
                score = _pair_scorer(vocabulary, measure)
                for i in range(size):
                    for j in range(i + 1, size):
                        value = score(i, j)
                        matrix[i, j] = value
                        matrix[j, i] = value
                result = cls(vocabulary, matrix, measure_name=measure.name)
        telemetry.metrics.gauge("similarity.vocabulary_size").set(size)
        return result

    @classmethod
    def _assemble(
        cls,
        vocabulary: tuple[str, ...],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        measure_name: str,
        storage: str,
    ) -> "NameSimilarityMatrix":
        """Materialize upper-triangle scores as dense or CSR storage."""
        size = len(vocabulary)
        nonzero = values != 0.0
        if _choose_sparse(size, int(nonzero.sum()), storage):
            sparse = _CsrMatrix.from_upper_coo(size, rows, cols, values)
            return cls.from_sparse(
                vocabulary, sparse, measure_name=measure_name
            )
        matrix = np.eye(size, dtype=np.float64)
        matrix[rows, cols] = values
        matrix[cols, rows] = values
        return cls(vocabulary, matrix, measure_name=measure_name)

    def extended(
        self,
        names: Iterable[str],
        measure: SimilarityMeasure,
        storage: str = "auto",
    ) -> "NameSimilarityMatrix":
        """A matrix over this vocabulary plus ``names``, reusing this block.

        Only the new rows/columns are computed — for set-based measures
        through the same blocked candidate generation as :meth:`build`
        (restricted to pairs touching a fresh name), otherwise O(new ×
        total) tokenize-once measure calls instead of the O(total²) of a
        cold build — which is what makes adding a source to a large
        universe cheap.  Values are identical to a cold build over the
        union vocabulary (the measure is a pure pair function), but the
        new names are *appended* rather than re-sorted, so existing name
        ids stay valid for any cached clustering state.  Names already in
        the vocabulary are ignored; with nothing new to add, ``self`` is
        returned unchanged.
        """
        fresh = tuple(
            name for name in dict.fromkeys(names) if name not in self._index
        )
        if not fresh:
            return self
        telemetry = get_telemetry()
        old = len(self.names)
        size = old + len(fresh)
        vocabulary = self.names + fresh
        set_measure = _unwrap_set_measure(measure)
        with get_profiler().phase("similarity"), telemetry.span(
            "similarity.matrix_extend", vocabulary=size,
            added=len(fresh), measure=self.measure_name,
            blocked=set_measure is not None,
        ):
            if set_measure is not None:
                scores = blocked_scores(
                    vocabulary, set_measure, row_limit=old
                )
                old_rows, old_cols, old_values = self._upper_entries()
                result = type(self)._assemble(
                    vocabulary,
                    np.concatenate((old_rows, scores.rows)),
                    np.concatenate((old_cols, scores.cols)),
                    np.concatenate((old_values, scores.values)),
                    self.measure_name,
                    storage,
                )
            else:
                matrix = np.eye(size, dtype=np.float64)
                matrix[:old, :old] = self.matrix
                score = _pair_scorer(vocabulary, measure)
                for i in range(old, size):
                    for j in range(i):
                        value = score(i, j)
                        matrix[i, j] = value
                        matrix[j, i] = value
                result = NameSimilarityMatrix(
                    vocabulary, matrix, measure_name=self.measure_name
                )
        telemetry.metrics.gauge("similarity.vocabulary_size").set(size)
        return result

    def _upper_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This matrix's strict-upper-triangle nonzeros as COO arrays."""
        if self._sparse is not None:
            return self._sparse.upper_coo()
        rows, cols = np.nonzero(np.triu(self._dense, k=1))
        return (
            rows.astype(np.int64),
            cols.astype(np.int64),
            self._dense[rows, cols],
        )

    # -- storage -------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The dense similarity array (materialized on demand for CSR).

        Internal readers go through :meth:`pair`/:meth:`block`, which
        never densify; touching this property on a sparse-stored matrix
        materializes — and keeps — the full dense array, so treat it as a
        compatibility escape hatch, not a hot path.
        """
        if self._dense is None:
            self._dense = self._sparse.to_dense()
        return self._dense

    @property
    def is_sparse(self) -> bool:
        """True while the matrix is backed by CSR storage only."""
        return self._dense is None

    def density(self) -> float:
        """Fraction of matrix cells (diagonal included) that are nonzero."""
        n = len(self.names)
        if n == 0:
            return 0.0
        if self._sparse is not None:
            return self._sparse.nnz / (n * n)
        return float(np.count_nonzero(self._dense)) / (n * n)

    def nbytes(self) -> int:
        """Size of the backing store in bytes."""
        if self._sparse is not None and self._dense is None:
            return self._sparse.nbytes()
        return int(self._dense.nbytes)

    # -- reads ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """The row/column index of a vocabulary name.

        Raises
        ------
        ReproError
            If the name is not in the vocabulary.
        """
        try:
            return self._index[name]
        except KeyError:
            raise ReproError(
                f"name {name!r} is not in the similarity vocabulary"
            ) from None

    def name_ids(self, names: Iterable[str]) -> np.ndarray:
        """Vectorized :meth:`name_id` returning an int64 array.

        Sized inputs pass ``count`` to :func:`numpy.fromiter`, so the
        output is allocated once instead of through the growth-
        reallocation path — this is a hot call during clustering.
        """
        if isinstance(names, Sized):
            return np.fromiter(
                (self.name_id(n) for n in names),
                dtype=np.int64,
                count=len(names),
            )
        return np.fromiter(
            (self.name_id(n) for n in names), dtype=np.int64
        )

    def pair(self, a_id: int, b_id: int) -> float:
        """Similarity of two vocabulary ids."""
        if self._dense is not None:
            return float(self._dense[a_id, b_id])
        return self._sparse.pair(a_id, b_id)

    def block(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """The |A|×|B| sub-matrix of similarities between two id sets."""
        if self._dense is not None:
            return self._dense[np.ix_(a_ids, b_ids)]
        return self._sparse.rows_dense(np.asarray(a_ids))[:, b_ids]

    def max_cross(self, a_ids: np.ndarray, b_ids: np.ndarray) -> float:
        """Single-linkage similarity: max over all cross pairs."""
        if len(a_ids) == 0 or len(b_ids) == 0:
            return 0.0
        return float(self.block(a_ids, b_ids).max())

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle names, storage and measure; the name index is derived.

        Built matrices ship to portfolio worker processes so the O(vocab²)
        measure evaluation runs once per solve, not once per worker; CSR
        storage travels as its three arrays, never densified.  (The large
        arrays themselves usually ride :mod:`repro.search.shm` shared
        memory instead of this pickle — see ``WorkerContext``.)
        """
        if self._sparse is not None and self._dense is None:
            sparse = self._sparse
            return {
                "names": self.names,
                "sparse": (
                    sparse.n, sparse.indptr, sparse.indices, sparse.data
                ),
                "measure_name": self.measure_name,
            }
        return {
            "names": self.names,
            "matrix": self._dense,
            "measure_name": self.measure_name,
        }

    def __setstate__(self, state: dict) -> None:
        # Re-run construction to rebuild the name→index map and keep
        # unpickled matrices under the same invariants as fresh ones.
        if "sparse" in state:
            n, indptr, indices, data = state["sparse"]
            rebuilt = type(self).from_sparse(
                state["names"],
                _CsrMatrix(n, indptr, indices, data),
                state["measure_name"],
            )
            for slot in self.__slots__:
                setattr(self, slot, getattr(rebuilt, slot))
            return
        self.__init__(
            state["names"], state["matrix"], state["measure_name"]
        )

    # -- misc ----------------------------------------------------------------

    def __call__(self, a: str, b: str) -> float:
        """Measure-compatible call interface on raw names."""
        return self.pair(self.name_id(a), self.name_id(b))

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return (
            f"NameSimilarityMatrix({len(self.names)} names, "
            f"measure={self.measure_name!r}, {kind})"
        )
