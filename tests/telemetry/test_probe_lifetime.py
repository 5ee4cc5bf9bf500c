"""A profiler must not keep the caches it probes alive.

The service installs one profiler for its whole lifetime; every session
it serves registers memo probes with it.  Probes are held weakly, so a
closed session's objective and match operator are collectable, and an
owner reports its final totals on the way out so that
``profile.cache.*`` counts it as if it had lived until ``close``.
"""

from __future__ import annotations

import gc
import weakref

from repro.search import OptimizerConfig
from repro.session import Session
from repro.telemetry import (
    PhaseProfiler,
    Telemetry,
    use_profiler,
    use_telemetry,
)
from repro.telemetry.profiler import cache_totals


def solved_session(universe) -> Session:
    session = Session(
        universe,
        max_sources=5,
        optimizer_config=OptimizerConfig(max_iterations=4, seed=0),
        record_runs=False,
    )
    session.solve()
    return session


def test_closed_session_operator_is_collectable(books_workload):
    profiler = PhaseProfiler()
    with use_profiler(profiler), profiler:
        session = solved_session(books_workload.universe)
        objective = weakref.ref(session._objective)
        operator = weakref.ref(session._objective.match_operator)
        del session
        gc.collect()
        assert operator() is None
        assert objective() is None
        profiler.sample_caches(force=True)
        assert not profiler._probes


def test_collected_owners_still_count_in_totals(books_workload):
    def totals(keep_alive: bool) -> dict:
        telemetry = Telemetry()
        profiler = PhaseProfiler()
        with use_telemetry(telemetry), use_profiler(profiler), profiler:
            session = solved_session(books_workload.universe)
            if not keep_alive:
                del session
                gc.collect()
        return cache_totals(telemetry.metrics.snapshot())

    alive = totals(keep_alive=True)
    assert alive["match.memo"]["misses"] > 0
    assert totals(keep_alive=False) == alive
