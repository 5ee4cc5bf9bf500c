"""``edit_loop``: one in-process session, a fixed script of user edits.

The session is configured as ``mube solve`` configures it (Books, m=10,
θ=0.65, the MTTF characteristic QEF, tabu; 12 iterations per solve).  Each edit is followed by a
warm re-solve; only the solve is timed.  Structural edits change the
problem's constraints, θ or universe; weight-only edits reweigh.

The universe is the same in every run (solve cost differs by ±15%
between Books universes, which would swamp a 10% bound); ``--seed``
picks the optimizer seeds, the pinned sources and the added source.  The
optimizer is reseeded at the start of every pass through the script, so a
run's medians average several search trajectories instead of resting on
one.
"""

from __future__ import annotations

import time

import checks
from common import Sample, figure
from harness import Context, Outcome, in_process_setup

SOURCES = 200
UNIVERSE_SEED = 0
BUDGET = 10
THETA = 0.65
ITERATIONS = 12
#: Solves replayed with ``delta=False`` after the window (cold, then
#: this many edits): they must reproduce the loop's answers bit for bit.
REPLAY_PREFIX = 4

#: (edit, kind); kind "S" is structural, "W" weight-only.
SCRIPT = (
    ("require", "S"),
    ("emphasize:coverage:0.35", "W"),
    ("accept", "S"),
    ("add_source", "S"),
    ("emphasize:cardinality:0.35", "W"),
    ("theta:0.7", "S"),
    ("drop", "S"),
    ("emphasize:mttf:0.3", "W"),
    ("remove_source", "S"),
    ("release", "S"),
    ("emphasize:redundancy:0.3", "W"),
    ("theta:0.65", "S"),
    ("emphasize:matching:0.25", "W"),
)


def smallest_ga(answer: checks.Answer):
    """The answer's smallest GA; ties go to the smallest attribute ids.

    Accepting a GA pins every source it draws on, so the smallest one
    constrains the next solves least, as a user accepting one mapping
    would.  The schema is a set whose order differs between processes, so
    the choice must not depend on it.
    """
    best = min(answer.gas, key=lambda ga: (len(ga), sorted(ga)))
    return frozenset((sid, index) for sid, index, _ in best)


class Loop:
    """The session plus the problem as the benchmark believes it stands."""

    def __init__(self, seed: int, delta: bool = True):
        from repro.core import CharacteristicSpec
        from repro.session import Session
        from repro.workload import generate_books_universe

        self.seed = seed
        universe = generate_books_universe(
            n_sources=SOURCES, seed=UNIVERSE_SEED
        ).universe
        extra = generate_books_universe(n_sources=SOURCES + 1, seed=seed + 1)
        self.new_source = extra.universe.source(SOURCES)
        spec = CharacteristicSpec("mttf", "mttf")
        self.session = Session(
            universe,
            max_sources=BUDGET,
            theta=THETA,
            weights=dict(checks.MTTF_WEIGHTS),
            characteristic_qefs=[spec],
            optimizer="tabu",
            optimizer_config=_config(seed, 0),
            delta=delta,
        )
        self.names = checks.attribute_names(universe)
        self.weights = dict(checks.MTTF_WEIGHTS)
        self.theta = THETA
        self.pinned: set[int] = set()
        self.accepted: list = []
        self.pin = None
        self.ga = None
        self.answers: list[checks.Answer] = []

    def solve(self):
        iteration = self.session.solve()
        self.answers.append(checks.from_solution(iteration.solution))
        return iteration

    def posed(self) -> checks.Posed:
        return checks.Posed(
            max_sources=BUDGET, theta=self.theta, beta=2,
            weights=dict(self.weights), pinned=frozenset(self.pinned),
            accepted=tuple(self.accepted), names=self.names,
        )

    def check_last(self) -> None:
        checks.check_answer(self.answers[-1], self.posed())

    def edit(self, step: int) -> str:
        """Apply script step ``step``; returns its kind."""
        name, kind = SCRIPT[step % len(SCRIPT)]
        session = self.session
        last = self.answers[-1]
        if step % len(SCRIPT) == 0:
            session.optimizer_config = _config(self.seed, step // len(SCRIPT))
        if name == "require":
            ids = sorted(last.selected)
            self.pin = ids[(self.seed + step) % len(ids)]
            session.require_source(self.pin)
            self.pinned.add(self.pin)
        elif name == "release":
            session.release_source(self.pin)
            self.pinned.discard(self.pin)
        elif name == "accept":
            self.ga = smallest_ga(last)
            session.accept_ga(_global_attribute(self.ga, self.names))
            self.accepted.append(self.ga)
        elif name == "drop":
            session.drop_ga_constraint(_global_attribute(self.ga, self.names))
            self.accepted.remove(self.ga)
        elif name == "add_source":
            session.add_source(self.new_source)
            self.names.update(checks.attribute_names([self.new_source]))
        elif name == "remove_source":
            session.remove_source(self.new_source.source_id)
        elif name.startswith("theta:"):
            self.theta = float(name.split(":")[1])
            session.set_theta(self.theta)
        else:
            _, qef, weight = name.split(":")
            session.emphasize(qef, float(weight))
            self.weights = checks.emphasized(self.weights, qef, float(weight))
        return kind


def _config(seed: int, cycle: int):
    from repro.search import OptimizerConfig

    return OptimizerConfig(max_iterations=ITERATIONS, seed=seed * 1000 + cycle)


def _global_attribute(refs, names):
    from repro.core import AttributeRef, GlobalAttribute

    return GlobalAttribute(
        AttributeRef(sid, index, names[(sid, index)]) for sid, index in sorted(refs)
    )


def run(ctx: Context) -> Outcome:
    cal = ctx.calibrator

    def build():
        loop = Loop(ctx.seed)
        loop.solve()
        return loop

    loop, setup = in_process_setup(ctx, build, lambda _: None)
    loop.check_last()
    structural: list[Sample] = []
    reweigh: list[Sample] = []
    records = []
    tracer = ctx.tracer
    step = 0
    before = cal.point()
    started = time.perf_counter()
    while ctx.clock_running(started):
        kind = loop.edit(step)
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.root("op") as record:
                loop.solve()
        else:
            loop.solve()
        raw = time.perf_counter() - t0
        after = cal.point()
        sample = Sample(kind, raw, cal.factor(before, after))
        (structural if kind == "S" else reweigh).append(sample)
        if tracer is not None:
            records.append((record, sample.factor))
        loop.check_last()
        before = after
        step += 1
    replay(loop, min(step, REPLAY_PREFIX))
    ops = structural + reweigh
    return Outcome(
        setup=setup,
        headline=structural,
        aux=reweigh,
        load_s=sum(s.norm for s in ops),
        rate_ops=len(ops),
        attempted=len(ops),
        failed=0,
        detail={
            "resolve_p50_s": figure(structural),
            "reweigh_p50_s": figure(reweigh),
        },
        records=records,
    )


def replay(loop: Loop, prefix: int) -> None:
    """A ``delta=False`` session replaying the first edits answers the same."""
    cold = Loop(loop.seed, delta=False)
    cold.solve()
    for step in range(prefix):
        cold.edit(step)
        cold.solve()
    for index, answer in enumerate(cold.answers):
        checks.same_answer(
            loop.answers[index], answer, f"delta=False replay of solve {index}"
        )
