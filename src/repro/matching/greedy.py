"""Greedy constrained similarity clustering (Algorithm 1 of the paper).

The algorithm proceeds in rounds.  Each round collects every pair of active
clusters whose similarity reaches the matching threshold θ into a priority
queue and pops pairs in descending similarity.  A popped pair merges if
neither side has merged this round and the union is a valid GA.  If exactly
one side has already merged, the other is kept for the next round (it is a
*merge candidate*).  At the end of a round, clusters that neither merged nor
were merge candidates — and are not user-GA seeds (``keep``) — are
*eliminated*: under single linkage their similarity to every other cluster
is below θ and can never rise, so they are frozen into the output.  The
algorithm stops when a round makes no progress.

One deviation from the published pseudocode, noted in DESIGN.md: when a
popped pair finds *both* sides already merged this round, the pseudocode
does nothing, which can terminate the loop while the two union clusters are
still mergeable.  We schedule another round in that case (``done = False``),
matching the paper's prose ("the algorithm terminates when it cannot find
any more pairs of clusters to merge").
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence

import numpy as np

from ..core import AttributeRef, GlobalAttribute
from ..explain.events import (
    ClusterEliminated,
    MergeDeferred,
    PairMerged,
    SeedPlanted,
    attr_key,
    cluster_members,
    get_event_log,
)
from ..similarity.matrix import NameSimilarityMatrix
from ..telemetry import get_telemetry
from .cluster import Cluster, cluster_similarity


def greedy_constrained_clustering(
    attributes: Sequence[AttributeRef],
    seeds: Sequence[GlobalAttribute],
    matrix: NameSimilarityMatrix,
    theta: float,
    linkage: str = "single",
    prune: bool = True,
) -> list[Cluster]:
    """Cluster attributes into candidate GAs.

    Parameters
    ----------
    attributes:
        The free attributes (not covered by any seed) of the selected
        sources.
    seeds:
        Coalesced user GA constraints; each becomes a ``keep`` cluster that
        is never eliminated and may keep growing (the *bridging effect*).
    matrix:
        Precomputed name-pair similarities covering every attribute name.
    theta:
        The matching threshold θ.
    linkage:
        Cluster-pair similarity rule; the paper uses ``"single"``.
    prune:
        Apply the elimination step.  Disabling it changes running time but
        not the result under single linkage; it exists for ablation.

    Returns
    -------
    list[Cluster]
        All final clusters, including singletons.  Callers filter by the
        minimum GA size β.
    """
    initial: list[Cluster] = [Cluster.from_ga(ga, matrix) for ga in seeds]
    initial.extend(Cluster.singleton(attr, matrix) for attr in attributes)
    return run_clustering_rounds(
        initial, matrix, theta, linkage=linkage, prune=prune
    )


def run_clustering_rounds(
    initial_clusters: Sequence[Cluster],
    matrix: NameSimilarityMatrix,
    theta: float,
    linkage: str = "single",
    prune: bool = True,
) -> list[Cluster]:
    """Algorithm 1's round loop, from an arbitrary starting cluster state.

    :func:`greedy_constrained_clustering` starts it from seeds +
    singletons.
    """
    log = get_event_log()
    explain = log.enabled
    active: dict[int, Cluster] = {}
    ids = itertools.count()
    seed_index = 0
    for cluster in initial_clusters:
        active[next(ids)] = cluster
        if explain and cluster.keep:
            log.emit(
                SeedPlanted(
                    seed_index=seed_index, members=cluster_members(cluster)
                )
            )
            seed_index += 1
    finished: list[Cluster] = []
    rounds = 0
    merges = 0
    eliminated = 0

    while True:
        rounds += 1
        done = True
        heap = _similar_pairs(active, matrix, theta, linkage)
        merged_away: set[int] = set()
        merge_candidates: set[int] = set()
        new_ids: set[int] = set()
        while heap:
            neg_sim, _, id_a, id_b = heapq.heappop(heap)
            a_merged = id_a in merged_away
            b_merged = id_b in merged_away
            if a_merged and b_merged:
                # Both partners merged with other clusters this round; their
                # unions may still be mergeable, so run another round.
                done = False
                continue
            if a_merged or b_merged:
                # The losing side survives to the next round.
                survivor = id_b if a_merged else id_a
                merge_candidates.add(survivor)
                done = False
                if explain:
                    log.emit(
                        MergeDeferred(
                            round=rounds,
                            similarity=-neg_sim,
                            members=cluster_members(active[survivor]),
                        )
                    )
                continue
            cluster_a, cluster_b = active[id_a], active[id_b]
            if not cluster_a.can_merge(cluster_b):
                # Invalid union (two attributes from one source): skip.
                continue
            merged_away.add(id_a)
            merged_away.add(id_b)
            merges += 1
            new_id = next(ids)
            active[new_id] = cluster_a.merged_with(cluster_b)
            new_ids.add(new_id)
            if explain:
                pair_a, pair_b = _best_pair(cluster_a, cluster_b, matrix)
                log.emit(
                    PairMerged(
                        round=rounds,
                        similarity=-neg_sim,
                        left=cluster_members(cluster_a),
                        right=cluster_members(cluster_b),
                        pair_a=pair_a,
                        pair_b=pair_b,
                        seeded=cluster_a.keep or cluster_b.keep,
                    )
                )
        for cluster_id in merged_away:
            del active[cluster_id]
        if prune:
            for cluster_id in list(active):
                if cluster_id in new_ids or cluster_id in merge_candidates:
                    continue
                cluster = active[cluster_id]
                if cluster.keep:
                    continue
                finished.append(cluster)
                del active[cluster_id]
                eliminated += 1
                if explain:
                    log.emit(
                        ClusterEliminated(
                            round=rounds, members=cluster_members(cluster)
                        )
                    )
        if done:
            break

    metrics = get_telemetry().metrics
    metrics.counter("match.clustering.rounds").inc(rounds)
    metrics.counter("match.clustering.merges").inc(merges)
    metrics.counter("match.clustering.pruned").inc(eliminated)

    finished.extend(active.values())
    return finished


def _best_pair(
    cluster_a: Cluster, cluster_b: Cluster, matrix: NameSimilarityMatrix
):
    """The max-similarity attribute pair across two clusters.

    Under single linkage this is the pair whose similarity *is* the
    cluster-pair similarity — the pair that justifies the merge.  Only
    called when the decision-event log is live.
    """
    block = matrix.block(cluster_a.name_ids, cluster_b.name_ids)
    row, col = np.unravel_index(int(np.argmax(block)), block.shape)
    return attr_key(cluster_a.attrs[row]), attr_key(cluster_b.attrs[col])


def _similar_pairs(
    active: dict[int, Cluster],
    matrix: NameSimilarityMatrix,
    theta: float,
    linkage: str,
) -> list[tuple[float, int, int, int]]:
    """Heap of ``(-similarity, tiebreak, id_a, id_b)`` for pairs ≥ θ.

    The tiebreak makes pop order deterministic when similarities are equal.
    Single/complete linkage are vectorized: one dense gather over all
    member attributes followed by two segment reductions yields the whole
    cluster-pair similarity matrix.
    """
    entries: list[tuple[float, int, int, int]] = []
    items = sorted(active.items())
    if len(items) < 2:
        return entries
    if linkage in ("single", "complete"):
        cluster_ids = [cid for cid, _ in items]
        sizes = [len(c.name_ids) for _, c in items]
        name_ids = np.concatenate([c.name_ids for _, c in items])
        offsets = np.zeros(len(items), dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        block = matrix.block(name_ids, name_ids)
        reduce = np.maximum if linkage == "single" else np.minimum
        rows_reduced = reduce.reduceat(block, offsets, axis=0)
        pair = reduce.reduceat(rows_reduced, offsets, axis=1)
        rows, cols = np.nonzero(np.triu(pair >= theta, k=1))
        for row, col in zip(rows.tolist(), cols.tolist()):
            entries.append(
                (
                    -float(pair[row, col]),
                    len(entries),
                    cluster_ids[row],
                    cluster_ids[col],
                )
            )
    else:
        for (id_a, cluster_a), (id_b, cluster_b) in itertools.combinations(
            items, 2
        ):
            sim = cluster_similarity(cluster_a, cluster_b, matrix, linkage)
            if sim >= theta:
                entries.append((-sim, len(entries), id_a, id_b))
    heapq.heapify(entries)
    return entries
