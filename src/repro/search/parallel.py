"""Multi-process portfolio search over a shared compiled universe.

µBE's interactive loop lives or dies on re-solve latency, and after the
columnar batch core every solve still occupies one CPU core.  This module
turns the single-threaded optimizers into a *portfolio*: K workers —
seeded restarts of one strategy, heterogeneous strategies, or any mix —
run concurrently across a :class:`~concurrent.futures.ProcessPoolExecutor`
and the engine deterministically merges their results.

Design points:

* **Compile once, ship once.**  The :class:`Problem` (universe, sketches,
  constraints) and optionally the prebuilt
  :class:`~repro.similarity.matrix.NameSimilarityMatrix` are pickled into
  a :class:`WorkerContext` that travels to each worker process exactly
  once, through the pool initializer.  Everything derived — `Objective`,
  `EvalContext`, `StackedSketches`, match operator — is rebuilt lazily
  *inside* the worker, because the numpy state is cheap to recompute but
  expensive to serialize.  Under ``fork`` the context is shared
  copy-on-write for free; under ``spawn`` it is pickled, which the
  explicit ``__getstate__`` hooks on `Universe` and friends keep lean.

* **Deterministic merge.**  Workers are merged in *submission* order, the
  winner chosen by ``(objective, feasible)`` with ties broken by the
  canonical selection key (the sorted source-id tuple) and then the lower
  worker index — never by completion order, so a loaded machine returns
  the same answer as an idle one.

* **jobs=1 ≡ sequential.**  With one job the engine runs every worker in
  this process, seed for seed through the very same
  :meth:`~repro.search.base.Optimizer.optimize` path a plain solve uses,
  so single-job portfolio output is bit-identical to today's sequential
  solves (tests/search/test_parallel_determinism.py holds this line).

* **Early stop is advisory.**  A worker whose solution reaches
  ``stop_quality`` sets a shared event; siblings observe it at their next
  ``clock.expired()`` check (see
  :func:`~repro.search.base.install_stop_check`).  Losing the signal only
  costs runtime, never correctness.

* **Failure is survivable — and recoverable.**  A crashing worker is
  logged into its :class:`WorkerOutcome` and counted in
  :attr:`PortfolioStats.failed_workers`; the solve returns the best
  surviving result.  With a :class:`~repro.search.resilience.
  ResilienceConfig` the engine goes further: hung workers are cancelled
  on a per-worker wall-clock timeout (``timed_out`` outcomes), failed
  and timed-out workers are retried on a bounded deterministic schedule
  (:class:`~repro.search.resilience.RetryPolicy` — same seed by default,
  or the pure ``(base_seed, worker_index, attempt)`` derivation under
  ``reseed``), a broken process pool is rebuilt once with its unfinished
  workers requeued (degrading to in-process execution if the rebuilt
  pool breaks too), and best-so-far state is checkpointed atomically
  after every worker outcome so a killed solve resumes instead of
  restarting.  Only a portfolio with zero survivors raises
  :class:`~repro.exceptions.SearchError`, with per-worker reasons.

* **Telemetry folds back.**  Each worker traces into its own in-memory
  tracer and returns ``(spans, metrics snapshot)``; the parent re-indexes
  the spans under its open ``portfolio.solve`` span and merges the
  counters, so ``--trace`` and ``mube trace-report`` see the whole run.
  Recovery actions add ``portfolio.retry`` spans and the
  ``portfolio.retries`` / ``portfolio.timeouts`` / ``portfolio.requeues``
  / ``portfolio.pool_rebuilds`` / ``portfolio.checkpoints`` /
  ``portfolio.resumed_workers`` counters (docs/observability.md).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from ..core import Problem
from ..exceptions import SearchError
from ..quality.overall import Objective
from ..similarity.matrix import NameSimilarityMatrix
from ..telemetry import (
    InMemoryExporter,
    PhaseProfiler,
    Telemetry,
    get_profiler,
    get_telemetry,
    set_profiler,
    set_telemetry,
    use_profiler,
)
from ..telemetry.observatory.heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HEARTBEAT_QUEUE_SIZE,
    HeartbeatEmitter,
    queue_sink,
)
from ..telemetry.observatory.status import RunStatus
from .base import (
    OptimizerConfig,
    SearchResult,
    SearchStats,
    install_stop_check,
    progress_hook_scope,
    stop_check_scope,
)
from .resilience import (
    Checkpoint,
    ResilienceConfig,
    WorkerProgress,
    load_checkpoint,
    problem_fingerprint,
    respec_for_attempt,
    write_checkpoint,
)
from .shm import SharedSegmentSet, attach_array, shm_available


@dataclass(frozen=True, slots=True)
class WorkerSpec:
    """One worker's marching orders: which optimizer, how, from where.

    Everything here is plain picklable data — the worker process rebuilds
    the optimizer via :meth:`~repro.search.base.Optimizer.run_from_config`
    from the registry name, the config and the extra constructor
    ``params`` (an item tuple so the spec stays hashable).  The optimizer
    name may also be a ``"module.path:ClassName"`` reference to an
    :class:`~repro.search.base.Optimizer` subclass outside the registry —
    resolved inside the worker process, so it works under ``spawn`` too;
    the fault-injection harness (:mod:`repro.testing.faults`) rides this.
    """

    optimizer: str
    config: OptimizerConfig
    params: tuple[tuple[str, object], ...] = ()
    label: str = ""
    #: Per-worker warm-start selection (sorted source-id tuple).  None
    #: falls back to the context-wide ``initial``.  The session's
    #: neighborhood seeding (``Session.solve(neighborhood=True)``) uses
    #: this to fan workers out around the previous answer.
    initial: tuple[int, ...] | None = None

    @property
    def seed(self) -> int:
        """The worker's RNG seed (from its config)."""
        return self.config.seed

    def describe(self) -> str:
        """Human-readable identity for logs and reports."""
        return self.label or f"{self.optimizer}(seed={self.seed})"


@dataclass(frozen=True, slots=True)
class WorkerOutcome:
    """What one portfolio worker produced: a result or a failure reason.

    ``attempts`` counts every try this run spent on the worker (1 when
    nothing went wrong); ``timed_out`` marks workers whose last attempt
    exceeded the per-worker wall-clock budget; ``resumed`` marks outcomes
    restored from a checkpoint instead of being recomputed.
    """

    index: int
    label: str
    optimizer: str
    seed: int
    result: SearchResult | None = None
    error: str | None = None
    timed_out: bool = False
    attempts: int = 1
    resumed: bool = False

    @property
    def ok(self) -> bool:
        """True iff the worker completed and returned a result."""
        return self.result is not None


@dataclass(frozen=True, slots=True)
class PortfolioStats:
    """Aggregate statistics over one portfolio solve.

    Attached to the winning :class:`~repro.search.base.SearchResult` as
    its ``portfolio`` field, so callers that ignore parallelism see a
    plain result and callers that care can drill into every worker.
    The resilience counters (``retries`` … ``resumed_workers``) stay 0
    on runs with no :class:`~repro.search.resilience.ResilienceConfig`.
    """

    jobs: int
    workers: tuple[WorkerOutcome, ...]
    winner_index: int
    elapsed_seconds: float
    early_stopped: bool
    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    resumed_workers: int = 0

    @property
    def failed_workers(self) -> int:
        """How many workers crashed instead of returning a result."""
        return sum(1 for outcome in self.workers if not outcome.ok)

    @property
    def succeeded_workers(self) -> int:
        """How many workers returned a result."""
        return sum(1 for outcome in self.workers if outcome.ok)

    @property
    def timed_out_workers(self) -> int:
        """How many workers' final attempt exceeded the wall-clock budget."""
        return sum(1 for outcome in self.workers if outcome.timed_out)

    @property
    def total_iterations(self) -> int:
        """Optimizer iterations summed over the surviving workers."""
        return sum(o.result.stats.iterations for o in self.workers if o.ok)

    @property
    def total_evaluations(self) -> int:
        """Objective evaluations summed over the surviving workers."""
        return sum(o.result.stats.evaluations for o in self.workers if o.ok)

    @property
    def winner(self) -> WorkerOutcome:
        """The outcome whose result the engine returned."""
        for outcome in self.workers:
            if outcome.index == self.winner_index:
                return outcome
        raise SearchError(
            f"winner index {self.winner_index} not among the outcomes"
        )


class WorkerContext:
    """The pickle-once payload every portfolio worker shares.

    Carries the compiled problem (and, when available, the prebuilt
    similarity matrix) plus the run parameters common to all workers.
    The expensive derived state — :class:`Objective` with its
    `EvalContext`, stacked sketches and match operator — is *not*
    shipped: :meth:`build_objective` reconstructs it fresh inside the
    worker, per run, so results never depend on which process a task
    landed in.
    """

    def __init__(
        self,
        problem: Problem,
        similarity: NameSimilarityMatrix | None = None,
        initial: frozenset[int] | None = None,
        stop_quality: float | None = None,
        collect_telemetry: bool = False,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        profile: bool = False,
        profile_memory: bool = False,
        eval_context=None,
    ):
        self.problem = problem
        self.similarity = similarity
        self.initial = initial
        self.stop_quality = stop_quality
        self.collect_telemetry = collect_telemetry
        self.heartbeat_interval = heartbeat_interval
        self.profile = profile
        self.profile_memory = profile_memory
        self.eval_context = eval_context

    def build_objective(self) -> Objective:
        """A fresh objective compiled from the shipped problem.

        When the caller attached a pre-compiled
        :class:`~repro.quality.compiled.EvalContext` (the session's delta
        pipeline does, so a patched compile is not redone per worker),
        the objective adopts it instead of compiling cold — bit-identical
        either way, by the context-patching contract.
        """
        return Objective(
            self.problem,
            similarity=self.similarity,
            context=self.eval_context,
        )

    def __getstate__(self) -> dict:
        return {
            "problem": self.problem,
            "similarity": self.similarity,
            "initial": self.initial,
            "stop_quality": self.stop_quality,
            "collect_telemetry": self.collect_telemetry,
            "heartbeat_interval": self.heartbeat_interval,
            "profile": self.profile,
            "profile_memory": self.profile_memory,
            "eval_context": self.eval_context,
        }

    def __setstate__(self, state: dict) -> None:
        state.setdefault("heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL)
        state.setdefault("profile", False)
        state.setdefault("profile_memory", False)
        state.setdefault("eval_context", None)
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return f"WorkerContext({len(self.problem.universe)} sources)"


class _SharedContextPayload:
    """A :class:`WorkerContext` whose big arrays ride shared memory.

    Built parent-side by :func:`export_context`: the similarity matrix
    (dense array or CSR triple), the compiled ``EvalContext`` vectors and
    the stacked PCSA word matrix are copied into
    :class:`~repro.search.shm.SharedSegmentSet` segments, and this pickle
    carries only their :class:`~repro.search.shm.SharedArrayRef`
    descriptors plus the context's small fields.  :meth:`materialize`
    runs inside the pool initializer and reassembles an equivalent
    context over zero-copy read-only views of the segments — every
    worker and every pool generation attaches the same bytes, so the
    solve is bit-identical to the plain-pickle transport.
    """

    def __init__(self, context: WorkerContext, segments: SharedSegmentSet):
        self.problem = context.problem
        self.fields = {
            "initial": context.initial,
            "stop_quality": context.stop_quality,
            "collect_telemetry": context.collect_telemetry,
            "heartbeat_interval": context.heartbeat_interval,
            "profile": context.profile,
            "profile_memory": context.profile_memory,
        }
        self.similarity = None
        matrix = context.similarity
        if matrix is not None:
            if matrix.is_sparse:
                sparse = matrix._sparse
                self.similarity = (
                    "sparse",
                    matrix.names,
                    matrix.measure_name,
                    sparse.n,
                    segments.share(sparse.indptr),
                    segments.share(sparse.indices),
                    segments.share(sparse.data),
                )
            else:
                self.similarity = (
                    "dense",
                    matrix.names,
                    matrix.measure_name,
                    segments.share(matrix.matrix),
                )
        self.eval_context = None
        eval_context = context.eval_context
        if eval_context is not None:
            stacked = eval_context.stacked
            self.eval_context = {
                "ids": segments.share(eval_context.ids),
                "coop_mask": segments.share(eval_context.coop_mask),
                "cards": segments.share(eval_context.cards),
                "stacked": (
                    None
                    if stacked is None
                    else (
                        segments.share(stacked.words),
                        stacked.num_maps,
                        stacked.map_bits,
                        stacked.seed,
                    )
                ),
                "total_cardinality": eval_context.total_cardinality,
                "universe_distinct": eval_context.universe_distinct,
                "characteristics": eval_context.characteristics,
                "vector_names": eval_context.vector_names,
            }

    def materialize(self) -> WorkerContext:
        """Reassemble the context over attached segments (worker side)."""
        similarity = None
        if self.similarity is not None:
            if self.similarity[0] == "sparse":
                from ..similarity.matrix import _CsrMatrix

                _, names, measure_name, n, indptr, indices, data = (
                    self.similarity
                )
                similarity = NameSimilarityMatrix.from_sparse(
                    names,
                    _CsrMatrix(
                        n,
                        attach_array(indptr),
                        attach_array(indices),
                        attach_array(data),
                    ),
                    measure_name,
                )
            else:
                _, names, measure_name, dense = self.similarity
                similarity = NameSimilarityMatrix(
                    names, attach_array(dense), measure_name
                )
        eval_context = None
        if self.eval_context is not None:
            from ..quality.compiled import EvalContext
            from ..sketch.stacked import StackedSketches

            spec = self.eval_context
            stacked = None
            if spec["stacked"] is not None:
                words, num_maps, map_bits, seed = spec["stacked"]
                stacked = StackedSketches(
                    attach_array(words), num_maps, map_bits, seed
                )
            eval_context = EvalContext(
                ids=attach_array(spec["ids"]),
                coop_mask=attach_array(spec["coop_mask"]),
                cards=attach_array(spec["cards"]),
                stacked=stacked,
                total_cardinality=spec["total_cardinality"],
                universe_distinct=spec["universe_distinct"],
                characteristics=spec["characteristics"],
                vector_names=spec["vector_names"],
            )
        return WorkerContext(
            self.problem,
            similarity=similarity,
            eval_context=eval_context,
            **self.fields,
        )


def export_context(
    context: WorkerContext,
) -> tuple["WorkerContext | _SharedContextPayload", SharedSegmentSet | None]:
    """``(transport, segments)``: a context readied for the pool pickle.

    When shared memory is usable and the context actually carries large
    arrays, returns a :class:`_SharedContextPayload` plus the live
    segment set the caller must :meth:`~repro.search.shm.
    SharedSegmentSet.close` when the solve's pool phase ends.  Otherwise
    — ``MUBE_SHM=0``, platform without shared memory, nothing to share,
    or the segments failing to allocate — returns the original context
    with ``None``, and the plain pickle path carries everything as
    before.
    """
    if not shm_available():
        return context, None
    segments = SharedSegmentSet()
    try:
        payload = _SharedContextPayload(context, segments)
    except OSError:
        # /dev/shm full or segment creation refused: degrade to pickle.
        segments.close()
        return context, None
    if not len(segments):
        segments.close()
        return context, None
    return payload, segments


# -- portfolio construction ---------------------------------------------------


def seeded_restarts(
    optimizer: str,
    count: int,
    base_config: OptimizerConfig | None = None,
) -> tuple[WorkerSpec, ...]:
    """``count`` restarts of one optimizer with consecutive seeds.

    Worker ``i`` gets ``base_config.seed + i``, so a portfolio is an
    explicit, reproducible function of the base seed — and the 0th worker
    runs the exact search a sequential solve with ``base_config`` would.
    """
    if count < 1:
        raise SearchError(f"portfolio needs at least one worker, got {count}")
    config = base_config or OptimizerConfig()
    return tuple(
        WorkerSpec(
            optimizer=optimizer,
            config=replace(config, seed=config.seed + i),
            label=f"{optimizer}[{i}]",
        )
        for i in range(count)
    )


def parse_portfolio(
    spec: str,
    base_config: OptimizerConfig | None = None,
) -> tuple[WorkerSpec, ...]:
    """Parse ``"tabu:4,local:2,annealing:2"`` into worker specs.

    Each comma-separated entry is ``name`` or ``name:count`` (count
    defaults to 1 when the colon is omitted).  Seeds are assigned
    consecutively across the *whole* portfolio — with base seed s, the
    example yields tabu seeds s..s+3, local s+4..s+5, annealing s+6..s+7
    — so the portfolio is reproducible and no two workers duplicate each
    other's search.

    Degenerate specs are rejected with a :class:`SearchError` naming the
    bad segment: empty segments (``"tabu:4,,local:2"``), empty names or
    counts (``":2"``, ``"tabu:"``), non-numeric or non-positive counts,
    and unknown optimizer names.
    """
    from . import OPTIMIZERS

    config = base_config or OptimizerConfig()
    workers: list[WorkerSpec] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            raise SearchError(
                f"empty segment in portfolio {spec!r}; entries are "
                f"'name' or 'name:count', separated by single commas"
            )
        name, colon, count_text = entry.partition(":")
        name = name.strip()
        count_text = count_text.strip()
        if not name:
            raise SearchError(
                f"missing optimizer name in portfolio segment {entry!r}"
            )
        if name not in OPTIMIZERS:
            raise SearchError(
                f"unknown optimizer {name!r} in portfolio {spec!r}; "
                f"available: {', '.join(sorted(OPTIMIZERS))}"
            )
        if colon and not count_text:
            raise SearchError(
                f"missing worker count after ':' in portfolio segment "
                f"{entry!r}"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise SearchError(
                f"bad worker count {count_text!r} in portfolio entry "
                f"{entry!r}"
            ) from None
        if count < 1:
            raise SearchError(
                f"worker count must be >= 1 in portfolio entry {entry!r}"
            )
        for k in range(count):
            index = len(workers)
            workers.append(
                WorkerSpec(
                    optimizer=name,
                    config=replace(config, seed=config.seed + index),
                    label=f"{name}[{k}]",
                )
            )
    if not workers:
        raise SearchError(f"portfolio {spec!r} contains no workers")
    return tuple(workers)


def resolve_portfolio(
    portfolio: str | Sequence[WorkerSpec] | None,
    jobs: int,
    default_optimizer: str,
    base_config: OptimizerConfig | None = None,
) -> tuple[WorkerSpec, ...]:
    """Normalize the user-facing ``portfolio=`` argument to worker specs.

    ``None`` means "one seeded restart of the default optimizer per job",
    a string goes through :func:`parse_portfolio`, and an explicit spec
    sequence passes through untouched.
    """
    if portfolio is None:
        return seeded_restarts(default_optimizer, max(jobs, 1), base_config)
    if isinstance(portfolio, str):
        return parse_portfolio(portfolio, base_config)
    return tuple(portfolio)


# -- worker-process side ------------------------------------------------------

#: Per-process state installed by :func:`_worker_init`; module globals are
#: the one channel a ``ProcessPoolExecutor`` initializer can fill.
_WORKER_CONTEXT: WorkerContext | None = None
_WORKER_STOP = None
_WORKER_STARTED = None
_WORKER_HEARTBEATS = None


def _worker_init(
    context: WorkerContext, stop_event, started=None, heartbeats=None
) -> None:
    """Pool initializer: receive the shared context, neutralize inherited state.

    Under ``fork`` the child starts as a byte-for-byte copy of the parent,
    including any installed tracer with open file handles — so the first
    thing a worker does is reset the process-global telemetry and event
    log to their no-ops.  The shared early-stop event (picklable only
    through ``initargs``, never through the task queue) becomes this
    process's cooperative stop check.  ``started`` is the pool's shared
    execution ledger (see :func:`_run_worker`): one slot per portfolio
    worker, marked the moment an attempt actually begins executing, so
    the parent can tell a hung worker from one that never left the
    queue.  ``heartbeats`` is the engine's bounded heartbeat queue (see
    :mod:`repro.telemetry.observatory.heartbeat`), present only on
    observed solves; each :func:`_run_worker` attempt installs a scoped
    emitter over it.  The check stays installed for the
    process's whole life *by design*: a pool worker process only ever
    runs :func:`_run_worker` tasks, so there is no later in-process solve
    to leak into (in-process code must use
    :func:`~repro.search.base.stop_check_scope` instead).
    """
    global _WORKER_CONTEXT, _WORKER_STOP, _WORKER_STARTED
    global _WORKER_HEARTBEATS
    if isinstance(context, _SharedContextPayload):
        # The big arrays travelled as shared-memory refs; attach the
        # segments and rebuild the context over zero-copy views.
        context = context.materialize()
    _WORKER_CONTEXT = context
    _WORKER_STOP = stop_event
    _WORKER_STARTED = started
    _WORKER_HEARTBEATS = heartbeats
    set_telemetry(None)
    set_profiler(None)
    from ..explain.events import set_event_log

    set_event_log(None)
    if stop_event is not None:
        install_stop_check(stop_event.is_set)


def _execute_spec(context: WorkerContext, spec: WorkerSpec) -> SearchResult:
    """Rebuild the objective and run one worker's optimizer."""
    from . import resolve_optimizer_class

    cls = resolve_optimizer_class(spec.optimizer)
    objective = context.build_objective()
    initial = (
        frozenset(spec.initial)
        if spec.initial is not None
        else context.initial
    )
    return cls.run_from_config(
        objective,
        spec.config,
        initial=initial,
        **dict(spec.params),
    )


@contextmanager
def _profiler_scope(context: WorkerContext):
    """A worker-local :class:`PhaseProfiler` when the parent profiles.

    No-op unless the context asks for profiling.  The profiler records
    into whatever telemetry is current (the worker's own tracer inside
    :func:`_run_worker`), and its close — still inside the scope, before
    the metrics snapshot is taken — flushes the worker's cache totals so
    they ride the ordinary ``payload["metrics"]`` → ``merge_snapshot``
    path home.
    """
    if not context.profile:
        yield
        return
    profiler = PhaseProfiler(memory=context.profile_memory)
    profiler.start()
    try:
        with use_profiler(profiler):
            yield
    finally:
        profiler.close()


def _hit_quality_bound(result: SearchResult, bound: float | None) -> bool:
    """True iff a result satisfies the early-stop quality bound."""
    return (
        bound is not None
        and result.solution.feasible
        and result.solution.quality >= bound
    )


def _run_worker(index: int, spec: WorkerSpec, attempt: int = 0) -> dict:
    """Pool task: run one spec against the process-shared context.

    Returns a plain dict (cheap to pickle back): the result plus, when
    the parent traces, the worker's finished spans and metrics snapshot.
    Failures are caught and shipped home as strings so one bad worker
    can never poison the pool protocol.  The first act is to mark
    ``(index, attempt)`` as started in the shared ledger — a future can
    sit RUNNING in the executor's call-queue buffer without any process
    touching it, so this mark (not the future's state) is what tells the
    parent a timed-out worker actually consumed its budget.
    """
    context = _WORKER_CONTEXT
    assert context is not None, "worker used before _worker_init ran"
    if _WORKER_STARTED is not None:
        with _WORKER_STARTED.get_lock():
            if _WORKER_STARTED[index] < attempt + 1:
                _WORKER_STARTED[index] = attempt + 1
    exporter = InMemoryExporter()
    telemetry = (
        Telemetry(exporters=[exporter]) if context.collect_telemetry else None
    )
    if telemetry is not None:
        set_telemetry(telemetry)
    emitter = (
        HeartbeatEmitter(
            queue_sink(_WORKER_HEARTBEATS),
            worker=index,
            attempt=attempt,
            interval=context.heartbeat_interval,
        )
        if _WORKER_HEARTBEATS is not None
        else None
    )
    try:
        with _profiler_scope(context):
            if emitter is not None:
                with progress_hook_scope(emitter):
                    result = _execute_spec(context, spec)
            else:
                result = _execute_spec(context, spec)
    except Exception as exc:  # noqa: BLE001 - shipped home as the outcome
        return {"index": index, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if emitter is not None:
            emitter.close()
        if telemetry is not None:
            set_telemetry(None)
    payload: dict = {"index": index, "result": result}
    if telemetry is not None:
        payload["spans"] = tuple(exporter.spans)
        payload["metrics"] = telemetry.metrics.snapshot()
    if _WORKER_STOP is not None and _hit_quality_bound(
        result, context.stop_quality
    ):
        _WORKER_STOP.set()
    return payload


# -- deterministic merge ------------------------------------------------------


def _selection_key(result: SearchResult) -> tuple[int, ...]:
    """Canonical, order-independent identity of a result's selection."""
    return tuple(sorted(result.solution.selected))


def _beats(challenger: SearchResult, incumbent: SearchResult) -> bool:
    """Deterministic winner order: quality, then canonical selection key.

    Feasible beats infeasible at equal objective; at a full tie the
    lexicographically smallest selection key wins, and the caller keeps
    the earlier worker on identical keys — so the winner is a pure
    function of the worker list, not of scheduling.
    """
    a = (challenger.solution.objective, challenger.solution.feasible)
    b = (incumbent.solution.objective, incumbent.solution.feasible)
    if a != b:
        return a > b
    return _selection_key(challenger) < _selection_key(incumbent)


def select_winner(outcomes: Sequence[WorkerOutcome]) -> WorkerOutcome | None:
    """The winning outcome under the deterministic merge order."""
    winner: WorkerOutcome | None = None
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if outcome.result is None:
            continue
        if winner is None or _beats(outcome.result, winner.result):
            winner = outcome
    return winner


class _HeartbeatDrain:
    """Parent-side pump from the heartbeat queue into a `RunStatus`.

    A daemon thread polls the bounded multiprocessing queue with a short
    timeout and folds each record into the status aggregate.  ``close``
    stops the thread, sweeps whatever is still buffered (so no heartbeat
    that arrived before shutdown is lost), and closes the queue.
    Stragglers from an abandoned hung pool may still try to put after
    that — their :func:`~repro.telemetry.observatory.heartbeat.offer`
    calls fail silently by contract, so a hung worker can never block on
    telemetry.
    """

    _POLL_SECONDS = 0.05

    def __init__(self, channel, status: RunStatus):
        self.channel = channel
        self.status = status
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._pump, name="mube-heartbeat-drain", daemon=True
        )
        self._thread.start()

    def _pump(self) -> None:
        while not self._stop.is_set():
            self._drain_one(block=True)

    def _drain_one(self, block: bool) -> bool:
        try:
            if block:
                heartbeat = self.channel.get(timeout=self._POLL_SECONDS)
            else:
                heartbeat = self.channel.get_nowait()
        except queue_module.Empty:
            return False
        except (OSError, ValueError, EOFError):
            # Queue closed or connection torn down mid-shutdown.
            self._stop.set()
            return False
        try:
            self.status.record_heartbeat(heartbeat)
        except Exception:  # noqa: BLE001 - observation must not sink solves
            pass
        return True

    def close(self) -> None:
        """Stop pumping, sweep the buffer, and close the queue."""
        self._stop.set()
        self._thread.join(timeout=2.0)
        while self._drain_one(block=False):
            pass
        try:
            self.channel.close()
        except (OSError, ValueError):
            pass


class _LocalStopFlag:
    """In-process stand-in for the multiprocessing early-stop event."""

    __slots__ = ("_set",)

    def __init__(self):
        self._set = False

    def set(self) -> None:
        self._set = True

    def is_set(self) -> bool:
        return self._set


# -- run bookkeeping ----------------------------------------------------------


class _PortfolioRun:
    """Mutable state of one resilient portfolio solve.

    Owns the final per-worker outcomes, the recovery counters, and the
    checkpoint progress map.  The engine's execution strategies feed it
    through :meth:`finish`; every finish updates the atomic best-so-far
    checkpoint when one is configured.
    """

    def __init__(
        self,
        specs: tuple[WorkerSpec, ...],
        context: WorkerContext,
        telemetry,
        resilience: ResilienceConfig,
        fingerprint: str | None,
        status: RunStatus | None = None,
    ):
        self.specs = specs
        self.context = context
        self.telemetry = telemetry
        self.resilience = resilience
        self.fingerprint = fingerprint
        self.status = status
        self.final: dict[int, WorkerOutcome] = {}
        self.progress: dict[int, WorkerProgress] = {
            index: WorkerProgress(
                index=index,
                optimizer=spec.optimizer,
                seed=spec.seed,
                label=spec.describe(),
            )
            for index, spec in enumerate(specs)
        }
        self.to_run: list[int] = list(range(len(specs)))
        self.retries = 0
        self.timeouts = 0
        self.requeues = 0
        self.pool_rebuilds = 0
        self.resumed_workers = 0
        self.checkpoints_written = 0

    # -- resume ---------------------------------------------------------------

    def restore(self, checkpoint: Checkpoint) -> None:
        """Adopt every finished worker from a checkpoint, re-running none.

        Completed workers' selections are re-evaluated against a fresh
        objective — evaluation is deterministic, so the restored solution
        is bit-identical to the one the killed run computed — and failed
        or timed-out workers are restored as their recorded outcomes.
        Pending workers stay in :attr:`to_run`.
        """
        objective: Objective | None = None
        for entry in checkpoint.workers:
            if not entry.finished:
                continue
            if entry.index >= len(self.specs):
                raise SearchError(
                    f"checkpoint worker {entry.index} does not exist in "
                    f"this portfolio of {len(self.specs)}"
                )
            spec = self.specs[entry.index]
            if entry.optimizer != spec.optimizer or entry.seed != spec.seed:
                raise SearchError(
                    f"checkpoint worker {entry.index} "
                    f"({entry.optimizer}, seed={entry.seed}) does not match "
                    f"this portfolio's spec "
                    f"({spec.optimizer}, seed={spec.seed}); resume needs "
                    f"the same portfolio the checkpoint was written for"
                )
            if entry.status == "ok":
                if objective is None:
                    objective = self.context.build_objective()
                # The top-level version guard cannot vouch for per-worker
                # payloads: a hand-edited snapshot, or one written by a
                # build with different SearchStats fields, must surface
                # as the SearchError contract, not a raw TypeError.
                try:
                    solution = objective.evaluate(frozenset(entry.selection))
                    result = SearchResult(
                        solution=solution,
                        stats=SearchStats(**entry.stats),
                        trajectory=tuple(entry.trajectory),
                    )
                except (TypeError, KeyError, ValueError, IndexError) as exc:
                    raise SearchError(
                        f"malformed checkpoint "
                        f"{self.resilience.checkpoint}: cannot restore "
                        f"worker {entry.index} ({exc})"
                    ) from exc
                outcome = WorkerOutcome(
                    index=entry.index,
                    label=spec.describe(),
                    optimizer=spec.optimizer,
                    seed=spec.seed,
                    result=result,
                    attempts=max(entry.attempts, 1),
                    resumed=True,
                )
            else:
                outcome = WorkerOutcome(
                    index=entry.index,
                    label=spec.describe(),
                    optimizer=spec.optimizer,
                    seed=spec.seed,
                    error=entry.error or entry.status,
                    timed_out=entry.status == "timed_out",
                    attempts=max(entry.attempts, 1),
                    resumed=True,
                )
            self.final[entry.index] = outcome
            self.progress[entry.index] = entry
            self.to_run.remove(entry.index)
            self.resumed_workers += 1
            if self.status is not None:
                self.status.record_outcome(outcome)

    # -- outcome intake -------------------------------------------------------

    def pending_items(self) -> list[tuple[int, WorkerSpec]]:
        """The workers still to execute, in submission order."""
        return [(index, self.specs[index]) for index in self.to_run]

    def finish(self, outcome: WorkerOutcome) -> None:
        """Record a worker's final outcome and checkpoint best-so-far."""
        self.final[outcome.index] = outcome
        self.progress[outcome.index] = self._progress_of(outcome)
        self._write_checkpoint()
        if self.status is not None:
            self.status.record_outcome(outcome)

    def outcomes(self) -> list[WorkerOutcome]:
        """All final outcomes, in worker order."""
        return [self.final[index] for index in sorted(self.final)]

    # -- checkpointing --------------------------------------------------------

    def _progress_of(self, outcome: WorkerOutcome) -> WorkerProgress:
        spec = self.specs[outcome.index]
        base = dict(
            index=outcome.index,
            optimizer=spec.optimizer,
            seed=spec.seed,
            label=spec.describe(),
            attempts=outcome.attempts,
        )
        if outcome.ok:
            stats = outcome.result.stats
            # Plain-int/float coercion keeps the snapshot JSON-safe even
            # when selections or trajectories carry numpy scalars.
            return WorkerProgress(
                status="ok",
                selection=tuple(
                    int(sid)
                    for sid in sorted(outcome.result.solution.selected)
                ),
                stats={
                    "iterations": int(stats.iterations),
                    "evaluations": int(stats.evaluations),
                    "elapsed_seconds": float(stats.elapsed_seconds),
                    "best_found_at": int(stats.best_found_at),
                    "match_memo_hits": int(stats.match_memo_hits),
                    "match_memo_misses": int(stats.match_memo_misses),
                },
                trajectory=tuple(
                    float(value) for value in outcome.result.trajectory
                ),
                **base,
            )
        return WorkerProgress(
            status="timed_out" if outcome.timed_out else "failed",
            error=outcome.error,
            **base,
        )

    def _write_checkpoint(self) -> None:
        path = self.resilience.checkpoint
        if path is None:
            return
        best = select_winner(list(self.final.values()))
        checkpoint = Checkpoint(
            fingerprint=self.fingerprint or "",
            workers=tuple(
                self.progress[index] for index in range(len(self.specs))
            ),
            best_selection=(
                tuple(int(s) for s in sorted(best.result.solution.selected))
                if best is not None
                else None
            ),
            best_objective=(
                float(best.result.solution.objective)
                if best is not None
                else None
            ),
            best_quality=(
                float(best.result.solution.quality)
                if best is not None
                else None
            ),
        )
        write_checkpoint(path, checkpoint)
        self.checkpoints_written += 1


# -- the engine ---------------------------------------------------------------


class ParallelSolveEngine:
    """Runs a portfolio of optimizer workers and merges deterministically.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every worker in this
        process — no pool, no pickling — and is bit-identical to the
        sequential path, so ``jobs`` is a pure throughput knob.
    stop_quality:
        Optional early-stop bound: the first worker whose solution is
        feasible with ``quality >= stop_quality`` signals the others to
        wind down at their next iteration check.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.
    resilience:
        Recovery configuration (:class:`~repro.search.resilience.
        ResilienceConfig`): per-worker timeout, deterministic retry,
        checkpoint path, pool-rebuild budget.  The default config keeps
        every feature off, in which case the engine behaves exactly as
        it did before the resilience layer existed.
    status:
        Optional :class:`~repro.telemetry.observatory.status.RunStatus`
        to observe the solve live: workers heartbeat through a bounded
        lossy queue (pool mode) or directly (inline), and every
        lifecycle transition — submitted, retrying, finished, resumed —
        lands in the aggregate as it happens.  Purely observational:
        attaching a status never changes what the solve returns, and
        ``jobs=1`` stays bit-identical with one attached.
    heartbeat_interval:
        Minimum seconds between two heartbeats from one worker.
    """

    def __init__(
        self,
        jobs: int = 1,
        stop_quality: float | None = None,
        start_method: str | None = None,
        resilience: ResilienceConfig | None = None,
        status: RunStatus | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ):
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.stop_quality = stop_quality
        self.start_method = start_method
        self.resilience = resilience or ResilienceConfig()
        self.status = status
        self.heartbeat_interval = heartbeat_interval

    def solve(
        self,
        problem: Problem,
        workers: Iterable[WorkerSpec],
        similarity: NameSimilarityMatrix | None = None,
        initial: frozenset[int] | None = None,
        eval_context=None,
    ) -> SearchResult:
        """Run the portfolio and return the winner, annotated with stats.

        The returned result is the winning worker's
        :class:`~repro.search.base.SearchResult` with its ``portfolio``
        field set to the run's :class:`PortfolioStats`.  When the
        resilience config names a checkpoint that already exists, the
        solve *resumes*: finished workers are restored from the snapshot
        (their best solutions bit-identical, no re-search), and only the
        unfinished work actually runs.  Unless the caller passed an
        explicit ``initial`` (which always wins), the best recorded
        selection warm-starts the remaining workers — so the killed
        run's best-so-far is never lost, but the *pending* workers may
        explore differently than the same solve left uninterrupted
        would have (see docs/resilience.md for the exact contract).
        """
        specs = tuple(workers)
        if not specs:
            raise SearchError("portfolio must contain at least one worker")
        from . import resolve_optimizer_class

        for name in sorted({spec.optimizer for spec in specs}):
            resolve_optimizer_class(name)
        telemetry = get_telemetry()
        fingerprint: str | None = None
        resume: Checkpoint | None = None
        if self.resilience.checkpoint is not None:
            fingerprint = problem_fingerprint(problem)
            resume = load_checkpoint(self.resilience.checkpoint)
            if resume is not None:
                if resume.fingerprint != fingerprint:
                    raise SearchError(
                        f"checkpoint {self.resilience.checkpoint} was "
                        f"written for a different problem (fingerprint "
                        f"{resume.fingerprint} != {fingerprint}); refusing "
                        f"to resume — delete the file to start fresh"
                    )
                if len(resume.workers) != len(specs):
                    raise SearchError(
                        f"checkpoint records {len(resume.workers)} workers "
                        f"but this portfolio has {len(specs)}; resume needs "
                        f"the same portfolio the checkpoint was written for"
                    )
                if resume.best_selection is not None and initial is None:
                    # Warm-start pending workers from the snapshot's
                    # best — but an explicit caller `initial` always
                    # wins over the checkpoint's.
                    initial = frozenset(resume.best_selection)
        profiler = get_profiler()
        context = WorkerContext(
            problem=problem,
            similarity=similarity,
            initial=initial,
            stop_quality=self.stop_quality,
            # Profiling rides the worker tracer home, so an enabled
            # profiler forces span/metrics collection even when the
            # parent isn't tracing (the data only survives when the
            # parent tracer is real — see repro.telemetry.profiler).
            collect_telemetry=telemetry.enabled or profiler.enabled,
            heartbeat_interval=self.heartbeat_interval,
            profile=profiler.enabled,
            profile_memory=getattr(profiler, "memory", False),
            eval_context=eval_context,
        )
        status = self.status
        if status is not None:
            status.begin(specs)
        run = _PortfolioRun(
            specs, context, telemetry, self.resilience, fingerprint,
            status=status,
        )
        started = time.perf_counter()
        with telemetry.span(
            "portfolio.solve", jobs=self.jobs, workers=len(specs)
        ) as span:
            if resume is not None:
                run.restore(resume)
            early_stopped = False
            if run.to_run:
                if self.jobs == 1:
                    early_stopped = self._solve_inline(run)
                else:
                    early_stopped = self._solve_pool(run)
            elapsed = time.perf_counter() - started
            with profiler.phase("merge"):
                outcomes = run.outcomes()
                winner = select_winner(outcomes)
            if winner is None:
                reasons = "; ".join(
                    f"worker {o.index} ({o.label}): {o.error}"
                    for o in outcomes
                )
                raise SearchError(
                    f"all {len(outcomes)} portfolio workers failed: "
                    f"{reasons}"
                )
            stats = PortfolioStats(
                jobs=self.jobs,
                workers=tuple(sorted(outcomes, key=lambda o: o.index)),
                winner_index=winner.index,
                elapsed_seconds=elapsed,
                early_stopped=early_stopped,
                retries=run.retries,
                timeouts=run.timeouts,
                requeues=run.requeues,
                pool_rebuilds=run.pool_rebuilds,
                resumed_workers=run.resumed_workers,
            )
            span.set(
                winner=winner.index,
                failed=stats.failed_workers,
                early_stopped=early_stopped,
                best_objective=winner.result.solution.objective,
                retries=run.retries,
                timeouts=run.timeouts,
                resumed=run.resumed_workers,
            )
            metrics = telemetry.metrics
            metrics.counter("portfolio.solves").inc()
            metrics.counter("portfolio.workers").inc(len(specs))
            metrics.counter("portfolio.workers_failed").inc(
                stats.failed_workers
            )
            metrics.counter("portfolio.retries").inc(run.retries)
            metrics.counter("portfolio.timeouts").inc(run.timeouts)
            metrics.counter("portfolio.requeues").inc(run.requeues)
            metrics.counter("portfolio.pool_rebuilds").inc(run.pool_rebuilds)
            metrics.counter("portfolio.resumed_workers").inc(
                run.resumed_workers
            )
            metrics.counter("portfolio.checkpoints").inc(
                run.checkpoints_written
            )
            if status is not None:
                if early_stopped:
                    status.mark_early_stop()
                status.finish()
                metrics.counter("portfolio.heartbeats").inc(
                    status.heartbeats
                )
            if early_stopped:
                metrics.counter("portfolio.early_stops").inc()
            for outcome in stats.workers:
                if outcome.ok and not outcome.resumed:
                    metrics.histogram("portfolio.worker_seconds").observe(
                        outcome.result.stats.elapsed_seconds
                    )
        return replace(winner.result, portfolio=stats)

    # -- execution strategies -------------------------------------------------

    def _solve_inline(self, run: _PortfolioRun) -> bool:
        """Run every pending worker in this process, in submission order.

        Identical semantics to the pool path — fresh objective per
        worker, same early-stop bound, same retry/timeout accounting —
        minus the process boundary, so ``jobs=1`` results match
        ``jobs=N`` results exactly.  Telemetry needs no folding: workers
        trace straight into the live tracer.  The cooperative stop check
        is installed through :func:`~repro.search.base.stop_check_scope`,
        so it can never leak past this solve, raised exceptions included.
        """
        flag = _LocalStopFlag()
        if self.stop_quality is not None:
            with stop_check_scope(flag.is_set):
                self._run_inline_batch(run, run.pending_items(), flag)
        else:
            self._run_inline_batch(run, run.pending_items(), flag)
        return flag.is_set()

    def _run_inline_batch(
        self,
        run: _PortfolioRun,
        items: Sequence[tuple[int, WorkerSpec]],
        stop_flag,
        start_attempts: Mapping[int, int] | None = None,
    ) -> None:
        """Execute workers in-process, with per-worker retry/timeout."""
        for index, spec in items:
            start = (start_attempts or {}).get(index, 0)
            outcome = self._run_attempts_inline(
                run, index, spec, stop_flag, start_attempt=start
            )
            run.finish(outcome)

    def _run_attempts_inline(
        self,
        run: _PortfolioRun,
        index: int,
        spec: WorkerSpec,
        stop_flag,
        start_attempt: int = 0,
    ) -> WorkerOutcome:
        """One worker's attempt loop, in-process.

        The wall-clock timeout here is post-hoc: without a process
        boundary a running optimizer cannot be preempted, so an attempt
        that *returns* after overrunning the budget is discarded and
        recorded as timed out — keeping inline outcomes consistent with
        what the pool path would have recorded for the same schedule.
        """
        policy = self.resilience.retry
        timeout = self.resilience.worker_timeout
        attempt = start_attempt
        while True:
            live = respec_for_attempt(spec, index, attempt, policy.reseed)
            if attempt > 0:
                with run.telemetry.span(
                    "portfolio.retry",
                    worker=index,
                    attempt=attempt,
                    mode="inline",
                ):
                    delay = policy.delay(attempt)
                    if delay:
                        time.sleep(delay)
            started = time.perf_counter()
            error: str | None = None
            timed_out = False
            result: SearchResult | None = None
            emitter = None
            if run.status is not None:
                run.status.mark_running(index, attempt)
                emitter = HeartbeatEmitter(
                    run.status.record_heartbeat,
                    worker=index,
                    attempt=attempt,
                    interval=self.heartbeat_interval,
                )
            try:
                if emitter is not None:
                    with progress_hook_scope(emitter):
                        result = _execute_spec(run.context, live)
                else:
                    result = _execute_spec(run.context, live)
            except SystemExit as exc:
                error = f"SystemExit: {exc.code}"
            except Exception as exc:  # noqa: BLE001 - per-worker outcome
                error = f"{type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - started
                if timeout is not None and elapsed > timeout:
                    error = (
                        f"timed out: ran {elapsed:.2f}s against a "
                        f"{timeout}s budget"
                    )
                    timed_out = True
                    run.timeouts += 1
                    result = None
            if emitter is not None:
                emitter.close()
            if result is not None:
                if _hit_quality_bound(result, self.stop_quality):
                    stop_flag.set()
                return self._success(
                    index, spec, result, attempts=attempt + 1
                )
            if attempt < policy.max_retries:
                attempt += 1
                run.retries += 1
                if run.status is not None:
                    run.status.mark_retrying(
                        index, attempt, error or "retrying"
                    )
                continue
            return self._failure(
                index,
                spec,
                error,
                timed_out=timed_out,
                attempts=attempt + 1,
            )

    def _solve_pool(self, run: _PortfolioRun) -> bool:
        """Fan the workers out across a process pool and gather outcomes.

        Collection is round-based: each round submits every queued
        ``(worker, attempt)``, then collects in submission order with a
        per-worker wall-clock timeout.  Failed and timed-out workers are
        requeued for the next round while their retry budget lasts; a
        worker whose future times out *before it ever started running*
        (pure queue wait) is requeued at the same attempt with no budget
        charged.  A pool left holding a timed-out task that was already
        executing is abandoned — replaced with a fresh pool for later
        rounds and shut down without joining, so a genuinely hung worker
        can delay the solve by at most one timeout, never block it.  A
        :class:`BrokenProcessPool` rebuilds the pool once (requeueing
        everything uncollected); if the rebuilt pool breaks too, the
        remaining workers degrade to the in-process path, so a solve
        survives even a machine that cannot keep a process pool alive.
        """
        mp_context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else multiprocessing.get_context()
        )
        stop_event = (
            mp_context.Event() if self.stop_quality is not None else None
        )
        heartbeat_channel = (
            mp_context.Queue(HEARTBEAT_QUEUE_SIZE)
            if run.status is not None
            else None
        )
        drain = (
            _HeartbeatDrain(heartbeat_channel, run.status)
            if heartbeat_channel is not None
            else None
        )
        policy = self.resilience.retry
        timeout = self.resilience.worker_timeout
        telemetry = run.telemetry
        launch_offset = telemetry.now()
        pending: deque[tuple[int, WorkerSpec, int]] = deque(
            (index, spec, 0) for index, spec in run.pending_items()
        )
        rebuilds_left = self.resilience.pool_rebuilds
        leftovers: list[tuple[int, WorkerSpec, int]] = []
        # True while the *live* pool still hosts a timed-out task that
        # was already executing when its future missed the deadline
        # (future.cancel() cannot stop a running task).  Such a pool is
        # never joined — shutdown(wait=True) would block on the hung
        # task, possibly forever — and never reused: its slot is held
        # hostage, which would starve every later round.
        pool_hung = False
        # The context's large arrays go to shared memory once per solve;
        # every pool generation (rotation, broken-pool rebuild) attaches
        # the same segments, and the finally below unlinks them.
        transport, shm_segments = export_context(run.context)
        metrics = telemetry.metrics
        if shm_segments is not None:
            metrics.counter("portfolio.shm_segments").inc(len(shm_segments))
            metrics.counter("portfolio.shm_bytes").inc(
                shm_segments.total_bytes()
            )
        else:
            metrics.counter("portfolio.shm_fallbacks").inc()
        pool, started = self._new_pool(
            mp_context, run, stop_event, heartbeat_channel, transport
        )
        try:
            while pending:
                batch = list(pending)
                pending.clear()
                futures = []
                broken_at: int | None = None
                for slot, (index, spec, attempt) in enumerate(batch):
                    live = respec_for_attempt(
                        spec, index, attempt, policy.reseed
                    )
                    if attempt > 0:
                        with telemetry.span(
                            "portfolio.retry",
                            worker=index,
                            attempt=attempt,
                            mode="pool",
                        ):
                            delay = policy.delay(attempt)
                            if delay:
                                time.sleep(delay)
                    if run.status is not None:
                        run.status.mark_running(index, attempt)
                    try:
                        futures.append(
                            pool.submit(_run_worker, index, live, attempt)
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # The pool died before this round even launched:
                        # nothing submitted this round can be trusted.
                        broken_at = 0
                        break
                if broken_at is None:
                    broken_at, abandoned = self._collect_round(
                        run, batch, futures, pending, timeout, policy,
                        launch_offset, started,
                    )
                    if abandoned:
                        pool_hung = True
                if broken_at is not None:
                    uncollected = batch[broken_at:]
                    pool.shutdown(wait=False, cancel_futures=True)
                    if rebuilds_left > 0:
                        rebuilds_left -= 1
                        run.pool_rebuilds += 1
                        run.requeues += len(uncollected)
                        pending = deque(uncollected) + pending
                        pool, started = self._new_pool(
                            mp_context, run, stop_event, heartbeat_channel,
                            transport,
                        )
                        pool_hung = False
                    else:
                        leftovers = list(uncollected) + list(pending)
                        run.requeues += len(uncollected)
                        pending = deque()
                        pool = None
                        break
                elif pool_hung and pending:
                    # Rotate away from the hostage pool so retries and
                    # requeued bystanders run on fresh processes.  This
                    # is a deliberate replacement, not breakage, so it
                    # does not spend the BrokenProcessPool rebuild
                    # budget — but it is still counted, because an
                    # operator should see every pool the engine paid to
                    # re-create.
                    pool.shutdown(wait=False, cancel_futures=True)
                    run.pool_rebuilds += 1
                    pool, started = self._new_pool(
                        mp_context, run, stop_event, heartbeat_channel,
                        transport,
                    )
                    pool_hung = False
        finally:
            if pool is not None:
                pool.shutdown(wait=not pool_hung, cancel_futures=True)
            if shm_segments is not None:
                # Unlink now that no new pool generation can attach;
                # workers still mapped (even hung ones) keep their views
                # until they exit, but the /dev/shm names are gone.
                shm_segments.close()
            if drain is not None:
                drain.close()
        if leftovers:
            self._finish_inline_fallback(run, leftovers, stop_event)
        return stop_event.is_set() if stop_event is not None else False

    def _collect_round(
        self,
        run: _PortfolioRun,
        batch: list[tuple[int, WorkerSpec, int]],
        futures: list,
        pending: deque,
        timeout: float | None,
        policy,
        launch_offset: float,
        started=None,
    ) -> tuple[int | None, bool]:
        """Collect one round of futures in submission order.

        Returns ``(broken_at, abandoned)``: ``broken_at`` is None when
        the whole round was collected, or the batch slot at which a
        :class:`BrokenProcessPool` surfaced (everything from that slot
        on is uncollected and must be requeued); ``abandoned`` is True
        when a timed-out task still occupies the pool — running in one
        of its processes, or parked in its call-queue buffer where a
        cancel can no longer reach it — so the caller must neither join
        nor reuse that pool.
        """
        telemetry = run.telemetry
        abandoned = False
        for slot, future in enumerate(futures):
            index, spec, attempt = batch[slot]
            try:
                payload = future.result(timeout=timeout)
            except FuturesTimeout:
                cancelled = future.cancel()
                if started is not None and started[index] <= attempt:
                    # The attempt never began executing — the clock
                    # measured queue wait (e.g. behind a hung slot), not
                    # this worker's work.  (The shared ledger is the
                    # authority here: the future itself reads RUNNING as
                    # soon as it enters the executor's call-queue
                    # buffer, long before any process touches it.)
                    # Innocent bystanders don't burn retry budget:
                    # requeue at the same attempt, mirroring the
                    # broken-pool policy.  If the cancel failed the task
                    # is still buffered in this pool's call queue and
                    # would eventually run there too — mark the pool
                    # abandoned so the round rotates away from it.
                    run.requeues += 1
                    pending.append((index, spec, attempt))
                    if not cancelled:
                        abandoned = True
                    continue
                abandoned = True
                run.timeouts += 1
                error = f"timed out after {timeout}s"
                if attempt < policy.max_retries:
                    run.retries += 1
                    pending.append((index, spec, attempt + 1))
                    if run.status is not None:
                        run.status.mark_retrying(index, attempt + 1, error)
                else:
                    run.finish(
                        self._failure(
                            index, spec, error,
                            timed_out=True, attempts=attempt + 1,
                        )
                    )
                continue
            except BrokenProcessPool:
                return slot, abandoned
            except Exception as exc:  # noqa: BLE001 - e.g. pickling errors
                self._retry_or_finish(
                    run, pending, index, spec, attempt,
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            error = payload.get("error")
            if error is not None:
                self._retry_or_finish(
                    run, pending, index, spec, attempt, error
                )
                continue
            telemetry.absorb(
                payload.get("spans", ()),
                payload.get("metrics"),
                offset=launch_offset,
            )
            run.finish(
                self._success(
                    index, spec, payload["result"], attempts=attempt + 1
                )
            )
        return None, abandoned

    def _retry_or_finish(
        self,
        run: _PortfolioRun,
        pending: deque,
        index: int,
        spec: WorkerSpec,
        attempt: int,
        error: str,
    ) -> None:
        """Requeue a failed attempt while the retry budget lasts."""
        if attempt < self.resilience.retry.max_retries:
            run.retries += 1
            pending.append((index, spec, attempt + 1))
            if run.status is not None:
                run.status.mark_retrying(index, attempt + 1, error)
        else:
            run.finish(
                self._failure(index, spec, error, attempts=attempt + 1)
            )

    def _finish_inline_fallback(
        self,
        run: _PortfolioRun,
        leftovers: list[tuple[int, WorkerSpec, int]],
        stop_event,
    ) -> None:
        """Degrade gracefully: run the pool's leftovers in-process.

        Reached only when the process pool broke more times than the
        rebuild budget allows.  The shared early-stop event keeps
        working: it becomes this process's cooperative stop check for
        the duration (scoped, so nothing leaks), and in-process workers
        that hit the bound still signal it.
        """
        flag = stop_event if stop_event is not None else _LocalStopFlag()
        items = [(index, spec) for index, spec, _ in leftovers]
        start_attempts = {index: attempt for index, _, attempt in leftovers}
        if stop_event is not None:
            with stop_check_scope(stop_event.is_set):
                self._run_inline_batch(run, items, flag, start_attempts)
        else:
            self._run_inline_batch(run, items, flag, start_attempts)

    def _new_pool(
        self, mp_context, run: _PortfolioRun, stop_event,
        heartbeat_channel=None, transport=None,
    ) -> tuple[ProcessPoolExecutor, "object | None"]:
        """A fresh worker pool plus its shared execution ledger.

        The ledger (one int per portfolio worker, ``attempt + 1`` of the
        highest attempt that actually began executing) is created with
        the pool and shipped through ``initargs``, so it is scoped to
        exactly this pool's processes — a rotated-away pool keeps
        writing to its own ledger, never the replacement's.  Only built
        when a worker timeout is configured; nothing else reads it.
        The heartbeat channel and the context transport (plain
        :class:`WorkerContext` or, when shared memory is on, the
        :class:`_SharedContextPayload` over the solve's segments), by
        contrast, are created once per solve and shared across pool
        generations: a rotated-away pool's stragglers may keep pulsing
        into the channel, which is harmless (late heartbeats for
        terminal workers are counted and ignored), and every generation
        attaches the same immutable segments.
        """
        started = (
            mp_context.Array("i", len(run.specs))
            if self.resilience.worker_timeout is not None
            else None
        )
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=mp_context,
            initializer=_worker_init,
            initargs=(
                transport if transport is not None else run.context,
                stop_event,
                started,
                heartbeat_channel,
            ),
        )
        return pool, started

    @staticmethod
    def _success(
        index: int,
        spec: WorkerSpec,
        result: SearchResult,
        attempts: int = 1,
    ) -> WorkerOutcome:
        return WorkerOutcome(
            index=index,
            label=spec.describe(),
            optimizer=spec.optimizer,
            seed=spec.seed,
            result=result,
            attempts=attempts,
        )

    @staticmethod
    def _failure(
        index: int,
        spec: WorkerSpec,
        error: str,
        timed_out: bool = False,
        attempts: int = 1,
    ) -> WorkerOutcome:
        return WorkerOutcome(
            index=index,
            label=spec.describe(),
            optimizer=spec.optimizer,
            seed=spec.seed,
            error=error,
            timed_out=timed_out,
            attempts=attempts,
        )

    def __repr__(self) -> str:
        return (
            f"ParallelSolveEngine(jobs={self.jobs}, "
            f"stop_quality={self.stop_quality})"
        )


def render_portfolio(stats: PortfolioStats) -> str:
    """A small human-readable table over a portfolio's workers."""
    header = (
        f"portfolio: {len(stats.workers)} workers, jobs={stats.jobs}, "
        f"{stats.elapsed_seconds:.2f}s"
    )
    if stats.early_stopped:
        header += ", early stop"
    recovery = []
    if stats.retries:
        recovery.append(f"retries={stats.retries}")
    if stats.timeouts:
        recovery.append(f"timeouts={stats.timeouts}")
    if stats.pool_rebuilds:
        recovery.append(f"pool rebuilds={stats.pool_rebuilds}")
    if stats.resumed_workers:
        recovery.append(f"resumed={stats.resumed_workers}")
    if recovery:
        header += " (" + ", ".join(recovery) + ")"
    lines = [header]
    for outcome in stats.workers:
        marker = "*" if outcome.index == stats.winner_index else " "
        suffix = ""
        if outcome.attempts > 1:
            suffix += f" [{outcome.attempts} attempts]"
        if outcome.resumed:
            suffix += " [resumed]"
        if outcome.ok:
            solution = outcome.result.solution
            lines.append(
                f" {marker} [{outcome.index}] {outcome.label:<16} "
                f"Q={solution.quality:.4f} "
                f"iters={outcome.result.stats.iterations} "
                f"{outcome.result.stats.elapsed_seconds:.2f}s" + suffix
            )
        else:
            status = "TIMED OUT" if outcome.timed_out else "FAILED"
            lines.append(
                f" {marker} [{outcome.index}] {outcome.label:<16} "
                f"{status}: {outcome.error}" + suffix
            )
    return "\n".join(lines)


__all__ = [
    "ParallelSolveEngine",
    "PortfolioStats",
    "WorkerContext",
    "WorkerOutcome",
    "WorkerSpec",
    "parse_portfolio",
    "render_portfolio",
    "resolve_portfolio",
    "seeded_restarts",
    "select_winner",
]
