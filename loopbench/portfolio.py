"""``portfolio``: in-process ``Session.solve(jobs=2)`` over a 4-worker
tabu+local portfolio, with a checkpoint file and one retry, no faults.

Each round solves one seed of a fixed pair twice: with ``jobs=2``
(worker processes, shared memory, checkpoint writes, the deterministic
merge) and with ``jobs=1`` (the same portfolio in-process).  The two
winners must be identical, and so must every repeat of a seed.  The
universe is the same in every run; ``--seed`` picks the optimizer seeds.
"""

from __future__ import annotations

import time

import checks
from common import Sample, figure
from harness import Context, Outcome, in_process_setup

SOURCES = 200
UNIVERSE_SEED = 0
BUDGET = 10
ITERATIONS = 6
PORTFOLIO = "tabu:2,local:2"


class Bench:
    def __init__(self, ctx: Context):
        from repro.workload import generate_books_universe

        self.ctx = ctx
        self.universe = generate_books_universe(
            n_sources=SOURCES, seed=UNIVERSE_SEED
        ).universe
        self.seeds = (ctx.seed, ctx.seed + 1)
        self.names = checks.attribute_names(self.universe)
        self.posed = checks.Posed(
            max_sources=BUDGET, theta=0.65, beta=2,
            weights=dict(checks.MTTF_WEIGHTS), names=self.names,
        )
        self.answers: dict[tuple[int, int], checks.Answer] = {}
        self.solves = 0

    def session(self, seed: int):
        from repro.core import CharacteristicSpec
        from repro.search import OptimizerConfig
        from repro.session import Session

        spec = CharacteristicSpec("mttf", "mttf")
        return Session(
            self.universe,
            max_sources=BUDGET,
            weights=dict(checks.MTTF_WEIGHTS),
            characteristic_qefs=[spec],
            optimizer_config=OptimizerConfig(max_iterations=ITERATIONS, seed=seed),
        )

    def solve(self, session, jobs: int):
        checkpoint = self.ctx.tmp / f"checkpoint-{self.solves}.json"
        self.solves += 1
        try:
            return session.solve(
                jobs=jobs, portfolio=PORTFOLIO, checkpoint=str(checkpoint),
                retries=1,
            )
        finally:
            checkpoint.unlink(missing_ok=True)

    def check(self, iteration, seed: int, jobs: int) -> None:
        stats = iteration.result.portfolio
        if stats is None or stats.jobs != jobs or len(stats.workers) != 4:
            raise checks.CheckFailed(f"jobs={jobs}: no 4-worker portfolio stats")
        faults = (
            stats.failed_workers, stats.retries, stats.timeouts,
            stats.requeues, stats.pool_rebuilds,
        )
        if any(faults):
            raise checks.CheckFailed(
                f"fault-free portfolio reported failed/retries/timeouts/"
                f"requeues/rebuilds {faults}"
            )
        answer = checks.from_solution(iteration.solution)
        # jobs=2 answers were scored in a worker over its own copy of the
        # GA set, so F1 may be summed in another order there.
        checks.check_answer(
            answer, self.posed, f1_tolerance=1e-12 if jobs > 1 else 0.0
        )
        for key in ((seed, 1), (seed, 2)):
            if key in self.answers:
                checks.same_answer(
                    self.answers[key], answer,
                    f"seed {seed}: jobs={jobs} vs earlier jobs={key[1]}",
                )
        self.answers[(seed, jobs)] = answer


def run(ctx: Context) -> Outcome:
    cal = ctx.calibrator

    def build():
        bench = Bench(ctx)
        seed = bench.seeds[0]
        iteration = bench.solve(bench.session(seed), 2)
        return bench, iteration

    (bench, first), setup = in_process_setup(ctx, build, lambda _: None)
    bench.check(first, bench.seeds[0], 2)
    parallel: list[Sample] = []
    inline: list[Sample] = []
    records = []
    extra = {"portfolio.worker_busy_s": [], "portfolio.overhead_s": []}
    tracer = ctx.tracer
    step = 0
    before = cal.point()
    started = time.perf_counter()
    while ctx.clock_running(started):
        seed = bench.seeds[(step // 2) % 2]
        jobs = 2 if step % 2 == 0 else 1
        session = bench.session(seed)
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.root("op") as record:
                iteration = bench.solve(session, jobs)
        else:
            iteration = bench.solve(session, jobs)
        raw = time.perf_counter() - t0
        after = cal.point()
        sample = Sample(f"jobs{jobs}", raw, cal.factor(before, after))
        (parallel if jobs == 2 else inline).append(sample)
        bench.check(iteration, seed, jobs)
        if jobs == 2:
            elapsed = [
                o.result.stats.elapsed_seconds
                for o in iteration.result.portfolio.workers
            ]
            extra["portfolio.worker_busy_s"].append(sum(elapsed) * sample.factor)
            extra["portfolio.overhead_s"].append(
                (raw - max(elapsed)) * sample.factor
            )
        if tracer is not None:
            records.append((record, sample.factor))
        before = after
        step += 1
    ops = parallel + inline
    return Outcome(
        setup=setup,
        headline=parallel,
        aux=inline,
        load_s=sum(s.norm for s in parallel),
        rate_ops=len(parallel),
        attempted=len(ops),
        failed=0,
        detail={
            "portfolio_p50_s": figure(parallel),
            "portfolio_jobs1_p50_s": figure(inline),
        },
        records=records,
        extra_layers=extra,
    )
