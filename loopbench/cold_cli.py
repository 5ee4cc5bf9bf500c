"""``cold_cli``: one fresh ``mube`` child process at a time.

Each operation is a ``mube solve`` child (Books 200, m=10, 20 tabu
iterations, seeds cycling through a fixed set), timed from spawn to exit.
The search time the CLI prints for each solve is the second figure: what
the cold path costs beyond it is start-up.  After the window one
``mube runs --json --limit 1`` reads back the run registry the solves
appended to (in the run's temp dir).  Every child runs under a deadline.

``mube solve --seed`` picks both the universe and the optimizer seed, and
solve cost differs by ±15% between universes.  So every run cycles
through the same fixed set of seeds and ``--seed`` only picks where the
cycle starts: runs with different seeds then do the same work.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import checks
from common import Sample, child_env, figure, run_child
from harness import SETUP_REPEATS, Context, Outcome, setup_sample
from tracing import Record

SOURCES = 200
BUDGET = 10
ITERATIONS = 20
SEED_SET = (0, 1, 2, 3)
#: The CLI's closing line: "tabu: 20 iterations, 653 evaluations, 0.87s, …".
_SEARCH_LINE = re.compile(r"^tabu: \d+ iterations, \d+ evaluations, ([0-9.]+)s,", re.M)


class Bench:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.env = child_env(ctx.root, ctx.tmp)
        start = ctx.seed % len(SEED_SET)
        self.seeds = SEED_SET[start:] + SEED_SET[:start]
        self.universes: dict[int, dict] = {}
        self.last_selected: frozenset[int] | None = None

    def argv(self, args: list[str], record: str | None) -> list[str]:
        if record is None:
            return [sys.executable, "-m", "repro.cli", *args]
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        return [sys.executable, child, record, *args]

    def solve_args(self, seed: int) -> list[str]:
        return [
            "solve", "--sources", str(SOURCES), "--choose", str(BUDGET),
            "--iterations", str(ITERATIONS), "--seed", str(seed),
        ]

    def run(self, args: list[str], traced: bool):
        record_path = str(self.ctx.tmp / "child-record.json") if traced else None
        elapsed, out = run_child(self.argv(args, record_path), self.env, self.ctx.tmp)
        record = None
        if traced:
            with open(record_path, encoding="utf-8") as stream:
                data = json.load(stream)
            record = Record("op", 0, 0.0, elapsed)
            record.selfs.update(data["selfs"])
            record.selfs.pop("op", None)
            record.selfs["cli.import"] = data["import_s"]
            record.selfs["op"] = elapsed - sum(record.selfs.values())
            record.counts.update(data["counts"])
        return elapsed, out, record

    def load_universes(self) -> None:
        """The inputs the children generated, for the answer checks."""
        from repro.workload import generate_books_universe

        for seed in self.seeds:
            universe = generate_books_universe(n_sources=SOURCES, seed=seed).universe
            self.universes[seed] = {
                "sources": {s.name: (s.source_id, s.schema) for s in universe},
                "names": checks.attribute_names(universe),
            }

    def check_solve(self, out: str, seed: int) -> None:
        universe = self.universes[seed]
        answer = checks.from_cli(out, universe["sources"])
        posed = checks.Posed(
            max_sources=BUDGET, theta=0.65, beta=2,
            weights=checks.MTTF_WEIGHTS, names=universe["names"],
        )
        # Q is printed with 4 decimals, the QEF scores with 3.
        checks.check_answer(answer, posed, f1_digits=3, q_tolerance=6e-4)
        self.last_selected = answer.selected

    @staticmethod
    def search_seconds(out: str) -> float:
        match = _SEARCH_LINE.search(out)
        if match is None:
            raise checks.CheckFailed("mube solve printed no search summary")
        return float(match.group(1))

    def check_runs(self, out: str) -> None:
        records = json.loads(out)
        if len(records) != 1:
            raise checks.CheckFailed(f"mube runs --limit 1 listed {len(records)}")
        if frozenset(records[0]["selection"]) != self.last_selected:
            raise checks.CheckFailed("the newest run record is not the last solve")


def run(ctx: Context) -> Outcome:
    cal = ctx.calibrator
    bench = Bench(ctx)
    seeds = iter(bench.seeds * SETUP_REPEATS)
    _, setup = setup_sample(
        cal, ((lambda: bench.run(bench.solve_args(next(seeds)), False), None),)
    )
    bench.load_universes()
    traced = ctx.tracer is not None
    solves: list[Sample] = []
    searches: list[Sample] = []
    records = []
    before = cal.point()
    started = time.perf_counter()
    while ctx.clock_running(started):
        seed = bench.seeds[len(solves) % len(SEED_SET)]
        elapsed, out, record = bench.run(bench.solve_args(seed), traced)
        after = cal.point()
        sample = Sample("solve", elapsed, cal.factor(before, after))
        before = after
        bench.check_solve(out, seed)
        solves.append(sample)
        searches.append(Sample("search", bench.search_seconds(out), sample.factor))
        if record is not None:
            records.append((record, sample.factor))
    _, out, _ = bench.run(["runs", "--json", "--limit", "1"], False)
    bench.check_runs(out)
    return Outcome(
        setup=setup,
        headline=solves,
        aux=searches,
        load_s=sum(s.norm for s in solves),
        rate_ops=len(solves),
        attempted=len(solves),
        failed=0,
        detail={
            "cold_solve_p50_s": figure(solves),
            "cold_search_p50_s": figure(searches),
        },
        records=records,
    )
