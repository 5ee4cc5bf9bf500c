"""The schema matching operator ``Match(S, C, G)`` (paper §3).

``Match`` determines the best matching between the schemas of the sources in
``S``, returning the mediated schema ``M`` and the matching-quality QEF
value ``F1(S)``.  It must honour the user's source constraints ``C`` (the
result must be valid on ``C``) and GA constraints ``G`` (``G ⊑ M``).

:class:`MatchOperator` binds a universe, a similarity matrix and the problem
parameters once, then evaluates arbitrary selections with memoization —
the operator is a pure function of the selection, so caching by source-set
is sound and is what makes iterative search affordable.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..core import (
    GlobalAttribute,
    MediatedSchema,
    Problem,
    Universe,
)
from ..exceptions import ConstraintError
from ..similarity.matrix import NameSimilarityMatrix
from ..similarity.measures import SimilarityMeasure, default_measure
from ..telemetry import get_profiler, get_telemetry
from .cluster import Cluster
from .greedy import greedy_constrained_clustering


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of one ``Match(S, C, G)`` call.

    Attributes
    ----------
    schema:
        The mediated schema, or None when the constraints are unsatisfiable
        for this selection (the paper's NULL result).
    quality:
        ``F1(S)`` — the mean internal matching quality over the schema's
        GAs (0 for a NULL or empty schema).
    unspanned_source_ids:
        Selected sources that contribute no attribute to any GA.  Only
        constrained sources among these make the result NULL; the rest are
        diagnostic.
    reasons:
        Human-readable explanations when ``schema`` is None.
    """

    schema: MediatedSchema | None
    quality: float
    unspanned_source_ids: frozenset[int] = frozenset()
    reasons: tuple[str, ...] = ()

    @property
    def is_null(self) -> bool:
        """True when Match returned the paper's NULL result."""
        return self.schema is None


class MatchOperator:
    """``Match(S)`` with the constraints and parameters bound at creation."""

    def __init__(
        self,
        universe: Universe,
        source_constraints: Iterable[int] = (),
        ga_constraints: Sequence[GlobalAttribute] = (),
        theta: float = 0.65,
        beta: int = 2,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None = None,
        linkage: str = "single",
        prune: bool = True,
        cache_size: int = 200_000,
    ):
        self._retire_cache_probe = get_profiler().add_cache_probe(
            "match.memo", self.cache_info
        )
        self.universe = universe
        self.theta = theta
        self.beta = beta
        self.linkage = linkage
        self.prune = prune
        self.matrix = _resolve_matrix(universe, similarity)
        self.seeds = coalesce_ga_constraints(ga_constraints)
        implied = {
            attr.source_id for seed in self.seeds for attr in seed
        }
        self._implied_ids = frozenset(implied)
        self.required_source_ids = (
            frozenset(source_constraints) | self._implied_ids
        )
        self._cache: OrderedDict[frozenset[int], MatchResult] = (
            OrderedDict()
        )
        self._cache_size = cache_size
        self.memo_evictions = 0
        #: Plain-int memo traffic counters; kept independent of telemetry so
        #: SearchStats can report them even under the no-op tracer.
        self.memo_hits = 0
        self.memo_misses = 0
        get_telemetry().metrics.gauge("match.constraint_seeds").set(
            len(self.seeds)
        )

    def __del__(self) -> None:
        # The profiler holds cache_info weakly: hand it the final totals.
        self._retire_cache_probe(self.cache_info)

    @classmethod
    def for_problem(
        cls,
        problem: Problem,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None = None,
        linkage: str = "single",
        prune: bool = True,
        **kwargs,
    ) -> "MatchOperator":
        """Build the operator a :class:`~repro.core.Problem` describes."""
        return cls(
            problem.universe,
            source_constraints=problem.source_constraints,
            ga_constraints=problem.ga_constraints,
            theta=problem.theta,
            beta=problem.beta,
            similarity=similarity,
            linkage=linkage,
            prune=prune,
            **kwargs,
        )

    def match(self, source_ids: Iterable[int]) -> MatchResult:
        """Evaluate ``Match(S)`` for the given selection (memoized)."""
        telemetry = get_telemetry()
        selection = frozenset(source_ids)
        cached = self._cache.get(selection)
        if cached is not None:
            self._cache.move_to_end(selection)
            self.memo_hits += 1
            telemetry.metrics.counter("match.memo_hits").inc()
            return cached
        self.memo_misses += 1
        telemetry.metrics.counter("match.memo_misses").inc()
        with get_profiler().phase("matching"), telemetry.span(
            "match.evaluate", size=len(selection)
        ) as span:
            result = self._match_uncached(selection)
            span.set(null=result.is_null)
        while self._cache and len(self._cache) >= self._cache_size:
            # LRU eviction: drop the stalest selection, never the whole
            # memo — a warm solve loop keeps its hot neighborhoods.
            self._cache.popitem(last=False)
            self.memo_evictions += 1
            telemetry.metrics.counter("match.cache_evictions").inc()
        self._cache[selection] = result
        return result

    def ga_quality(self, ga: GlobalAttribute) -> float:
        """``F1({g})`` — internal matching quality of a single GA."""
        cluster = Cluster.from_ga(ga, self.matrix)
        return cluster.internal_quality(self.matrix)

    def cache_info(self) -> dict[str, int]:
        """Cache statistics for diagnostics."""
        return {
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
        }

    # -- delta retargeting ---------------------------------------------------

    def retarget_constraints(
        self, source_constraints: Iterable[int]
    ) -> dict[str, int]:
        """Re-point the source constraints ``C`` without losing the memo.

        Clustering never looks at ``C`` — only the pre-check (are all
        constrained sources selected?) and the post-check (did every
        constrained source span the schema?) do — so a cached result can
        be *rewritten* for new constraints instead of recomputed:

        * a selection now missing a constrained source becomes the exact
          NULL result the cold path would produce;
        * a cached schema whose recorded unspanned set hits the new
          constraints becomes the exact θ-NULL result, and one that does
          not keeps its schema and quality verbatim;
        * a cached NULL that would now need the schema (its selection
          satisfies the new constraints) is dropped and re-scored on
          demand.

        θ, β and the GA constraints must be unchanged (they shape the
        clustering itself); the session's delta planner rebuilds the
        operator when they move.  Returns kept/rederived/dropped entry
        counts.
        """
        old_required = self.required_source_ids
        new_required = (
            frozenset(source_constraints) | self._implied_ids
        )
        stats = {"kept": 0, "rederived": 0, "dropped": 0}
        if new_required == old_required:
            stats["kept"] = len(self._cache)
            return stats
        self.required_source_ids = new_required
        fresh: OrderedDict[frozenset[int], MatchResult] = OrderedDict()
        for selection, result in self._cache.items():
            rewritten = self._retargeted_result(
                selection, result, old_required, new_required
            )
            if rewritten is None:
                stats["dropped"] += 1
                continue
            stats["kept" if rewritten is result else "rederived"] += 1
            fresh[selection] = rewritten
        self._cache = fresh
        metrics = get_telemetry().metrics
        for key, value in stats.items():
            if value:
                metrics.counter(f"match.retarget.{key}").inc(value)
        return stats

    @staticmethod
    def _retargeted_result(
        selection: frozenset[int],
        result: MatchResult,
        old_required: frozenset[int],
        new_required: frozenset[int],
    ) -> MatchResult | None:
        """``result`` rewritten for new constraints, or None to drop it."""
        missing = new_required - selection
        if missing:
            rewritten = MatchResult(
                None,
                0.0,
                reasons=(
                    f"selection omits constrained source(s) "
                    f"{sorted(missing)}",
                ),
            )
            return result if rewritten == result else rewritten
        if result.schema is not None:
            constrained_unspanned = (
                result.unspanned_source_ids & new_required
            )
            if not constrained_unspanned:
                return result
            return MatchResult(
                None,
                0.0,
                unspanned_source_ids=result.unspanned_source_ids,
                reasons=(
                    "no matching satisfies θ for constrained source(s) "
                    f"{sorted(constrained_unspanned)}",
                ),
            )
        if old_required - selection:
            # NULL because constrained sources were absent: the selection
            # was never clustered, so there is no schema or unspanned
            # record to rewrite from.
            return None
        constrained_unspanned = result.unspanned_source_ids & new_required
        if constrained_unspanned:
            rewritten = MatchResult(
                None,
                0.0,
                unspanned_source_ids=result.unspanned_source_ids,
                reasons=(
                    "no matching satisfies θ for constrained source(s) "
                    f"{sorted(constrained_unspanned)}",
                ),
            )
            return result if rewritten == result else rewritten
        return None

    def retarget_universe(
        self,
        universe: Universe,
        similarity: SimilarityMeasure | NameSimilarityMatrix | None,
        removed_ids: Iterable[int] = (),
    ) -> dict[str, int]:
        """Re-point the operator at an edited universe, keeping the memo.

        ``Match(S)`` reads only the *selected* sources, so adding a source
        invalidates nothing: every cached selection still evaluates
        identically under the grown universe.  Removing sources drops
        exactly the entries whose selection touches a removed id.  The
        similarity matrix may only *grow* its vocabulary (appended names
        keep existing ids stable — see
        :meth:`~repro.similarity.NameSimilarityMatrix.extended`); pass
        the extended matrix here.  Constraints must not reference removed
        sources — release them first.
        """
        removed = frozenset(removed_ids)
        conflicted = self.required_source_ids & removed
        if conflicted:
            raise ConstraintError(
                f"cannot retarget: removed source(s) {sorted(conflicted)} "
                f"are still constrained"
            )
        self.universe = universe
        self.matrix = _resolve_matrix(universe, similarity)
        stats = {"kept": len(self._cache), "dropped": 0}
        if removed:
            fresh: OrderedDict[frozenset[int], MatchResult] = OrderedDict()
            for selection, result in self._cache.items():
                if selection & removed:
                    stats["dropped"] += 1
                else:
                    fresh[selection] = result
            stats["kept"] = len(fresh)
            self._cache = fresh
        metrics = get_telemetry().metrics
        metrics.counter("match.retarget.universe").inc()
        if stats["dropped"]:
            metrics.counter("match.retarget.dropped").inc(stats["dropped"])
        return stats

    # -- internals ----------------------------------------------------------

    def _match_uncached(self, selection: frozenset[int]) -> MatchResult:
        reasons: list[str] = []
        missing = self.required_source_ids - selection
        if missing:
            reasons.append(
                f"selection omits constrained source(s) {sorted(missing)}"
            )
            return MatchResult(None, 0.0, reasons=tuple(reasons))

        seed_attrs = {attr for seed in self.seeds for attr in seed}
        free_attrs = [
            attr
            for sid in sorted(selection)
            for attr in self.universe.source(sid).attributes
            if attr not in seed_attrs
        ]
        clusters = greedy_constrained_clustering(
            free_attrs,
            self.seeds,
            self.matrix,
            self.theta,
            linkage=self.linkage,
            prune=self.prune,
        )
        gas = [
            cluster.to_ga()
            for cluster in clusters
            if cluster.keep or len(cluster) >= self.beta
        ]
        schema = MediatedSchema(gas)

        unspanned = schema.unspanned_source_ids(selection)
        constrained_unspanned = unspanned & self.required_source_ids
        if constrained_unspanned:
            # M is not valid on C: a constrained source matched nothing.
            reasons.append(
                "no matching satisfies θ for constrained source(s) "
                f"{sorted(constrained_unspanned)}"
            )
            return MatchResult(
                None, 0.0, unspanned_source_ids=unspanned,
                reasons=tuple(reasons),
            )

        quality = self._schema_quality(schema)
        return MatchResult(schema, quality, unspanned_source_ids=unspanned)

    def _schema_quality(self, schema: MediatedSchema) -> float:
        if not len(schema):
            return 0.0
        total = 0.0
        for ga in schema:
            cluster = Cluster.from_ga(ga, self.matrix)
            total += cluster.internal_quality(self.matrix)
        return total / len(schema)


def coalesce_ga_constraints(
    ga_constraints: Sequence[GlobalAttribute],
) -> tuple[GlobalAttribute, ...]:
    """Merge GA constraints that share attributes into disjoint seeds.

    Two constraints sharing an attribute necessarily describe one concept,
    so their union must be a single seed.  If that union is not a valid GA
    (it would take two attributes from one source) the constraints are
    contradictory and a :class:`ConstraintError` is raised.
    """
    groups: list[set] = []
    for ga in ga_constraints:
        attrs = set(ga.attributes)
        touching = [g for g in groups if g & attrs]
        for g in touching:
            attrs |= g
            groups.remove(g)
        groups.append(attrs)
    seeds = []
    for group in groups:
        sources = [a.source_id for a in group]
        if len(set(sources)) != len(sources):
            raise ConstraintError(
                "GA constraints are contradictory: their union would take "
                "two attributes from one source"
            )
        seeds.append(GlobalAttribute(group))
    return tuple(
        sorted(
            seeds,
            key=lambda ga: sorted((a.source_id, a.index) for a in ga),
        )
    )


def _resolve_matrix(
    universe: Universe,
    similarity: SimilarityMeasure | NameSimilarityMatrix | None,
) -> NameSimilarityMatrix:
    if isinstance(similarity, NameSimilarityMatrix):
        return similarity
    measure = similarity if similarity is not None else default_measure()
    return NameSimilarityMatrix.build(universe.attribute_names(), measure)
