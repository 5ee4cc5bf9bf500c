"""Layer spans recorded from the benchmark's own files.

A traced run wraps public functions of the program (listed in
:data:`LAYERS`) with a span that keeps a stack per thread.  A layer's
self time is its span's duration minus the spans that ran inside it.
The benchmark opens a root span around each timed operation; everything
recorded under a root lands in that root's :class:`Record`, and the
root's own self time is what no layer claims (``unattributed``).  So for
every operation the self times add up to its wall time.

Spans opened on a thread with no root (a request handler thread in the
service, set-up work) become roots of their own; the workload decides
what to do with them.  Worker processes are not traced: the fork hook
turns every wrapper into a pass-through in a child.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: (module, attribute path, layer).  The layer names the self-time metric
#: (``<layer>_s``).  Functions bound by name into other modules are
#: patched where they are looked up.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.workload.generator", "generate_books_universe", "workload.generate"),
    ("repro.workload", "generate_books_universe", "workload.generate"),
    ("repro.cli", "generate_books_universe", "workload.generate"),
    ("repro.similarity.matrix", "NameSimilarityMatrix.build", "similarity.build"),
    ("repro.similarity.matrix", "NameSimilarityMatrix.extended", "similarity.extend"),
    ("repro.quality.compiled", "EvalContext.compile", "quality.compile"),
    ("repro.quality.compiled", "EvalContext.patched", "quality.compile"),
    ("repro.quality.overall", "Objective.evaluate_batch", "quality.batch_self"),
    ("repro.sketch.stacked", "StackedSketches.union_rows", "sketch.union"),
    ("repro.matching.operator", "MatchOperator.match", "matching.match_self"),
    ("repro.matching.operator", "greedy_constrained_clustering", "matching.cluster"),
    ("repro.search.base", "Optimizer.optimize", "search.optimize_self"),
    ("repro.search.parallel", "ParallelSolveEngine.solve", "portfolio.engine_self"),
    ("repro.session.session", "Session.solve", "session.solve_self"),
    ("repro.session.session", "plan_delta", "session.plan"),
    ("repro.serve.app", "ServeApp.dispatch", "serve.dispatch_self"),
)

#: Every self-time layer, in report order.
LAYER_NAMES = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))


@dataclass
class Record:
    """Everything recorded under one root span."""

    name: str
    thread: int
    start: float = 0.0
    end: float = 0.0
    selfs: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    meta: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("layer", "child", "record", "started")

    def __init__(self, layer: str, record: Record):
        self.layer = layer
        self.child = 0.0
        self.record = record
        self.started = 0.0


class Tracer:
    """Installs the layer wrappers and collects root records."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records: list[Record] = []
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> _Frame:
        stack = self._stack()
        if stack:
            frame = _Frame(layer, stack[0].record)
        else:
            frame = _Frame(layer, Record(layer, threading.get_ident()))
        stack.append(frame)
        frame.started = time.perf_counter()
        if len(stack) == 1:
            frame.record.start = frame.started
        return frame

    def close(self, frame: _Frame) -> None:
        now = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = now - frame.started
        frame.record.selfs[frame.layer] += duration - frame.child
        if stack:
            stack[-1].child += duration
        else:
            frame.record.end = now
            with self._lock:
                self.records.append(frame.record)

    def root(self, name: str):
        """Context manager: a root span around one timed operation."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.frame = tracer.open(name)
                return self.frame.record

            def __exit__(self, *exc):
                tracer.close(self.frame)

        return _Root()

    def count(self, name: str, amount: float = 1.0) -> None:
        stack = self._stack()
        if stack:
            stack[0].record.counts[name] += amount

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function; idempotent only via :meth:`remove`."""
        for module_name, path, layer in LAYERS:
            module = importlib.import_module(module_name)
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, layer, path))
        self._count_only()
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self.enabled = False

    def _disable(self) -> None:
        self.enabled = False

    def _wrap(self, raw, layer: str, path: str):
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        hook = _HOOKS.get(path)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.open(layer)
            before = hook[0](args) if hook else None
            try:
                result = fn(*args, **kwargs)
                if hook:
                    hook[1](tracer, args, result, before)
                return result
            finally:
                tracer.close(frame)

        return classmethod(wrapper) if is_classmethod else wrapper

    def _count_only(self) -> None:
        """Counters at calls that get no span of their own."""
        matrix = importlib.import_module("repro.similarity.matrix")
        raw = matrix.blocked_scores
        tracer = self

        @functools.wraps(raw)
        def blocked_scores(*args, **kwargs):
            result = raw(*args, **kwargs)
            if tracer.enabled:
                tracer.count("similarity.candidate_pairs", len(result.values))
            return result

        self._patches.append((matrix, "blocked_scores", raw))
        matrix.blocked_scores = blocked_scores

        parallel = importlib.import_module("repro.search.parallel")
        raw_export = parallel.export_context

        @functools.wraps(raw_export)
        def export_context(*args, **kwargs):
            result = raw_export(*args, **kwargs)
            if tracer.enabled and result[1] is not None:
                tracer.count("portfolio.shm_bytes", result[1].total_bytes())
            return result

        self._patches.append((parallel, "export_context", raw_export))
        parallel.export_context = export_context


def _resolve(module, path: str):
    parts = path.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# -- counters read around a wrapped call: (before(args), after(...)) ----------


def _batch_before(args):
    return args[0].cache_info()


def _batch_after(tracer, args, result, before):
    after = args[0].cache_info()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    tracer.count("quality.candidates", len(args[1]))
    tracer.count("quality.memo_hits", hits)
    tracer.count("quality.memo_lookups", hits + misses)


def _match_before(args):
    return args[0].memo_hits


def _match_after(tracer, args, result, before):
    tracer.count("matching.calls")
    tracer.count("matching.memo_hits", args[0].memo_hits - before)


def _cluster_after(tracer, args, result, before):
    tracer.count("matching.clusterings")


def _optimize_after(tracer, args, result, before):
    tracer.count("search.iterations", result.stats.iterations)
    tracer.count("search.evaluations", result.stats.evaluations)


def _dispatch_after(tracer, args, result, before):
    stack = tracer._stack()
    if len(stack) == 1:
        record = stack[0].record
        record.meta["method"] = args[1].upper()
        record.meta["path"] = args[2]
        payload = result[1] if isinstance(result[1], dict) else {}
        if "session_id" in payload:
            record.meta["session_id"] = payload["session_id"]


def _nothing(args):
    return None


_HOOKS = {
    "Objective.evaluate_batch": (_batch_before, _batch_after),
    "MatchOperator.match": (_match_before, _match_after),
    "greedy_constrained_clustering": (_nothing, _cluster_after),
    "Optimizer.optimize": (_nothing, _optimize_after),
    "ServeApp.dispatch": (_nothing, _dispatch_after),
}


def check_identity(record: Record, tolerance: float = 1e-6) -> None:
    """Self times plus the root's own share must equal the wall time."""
    total = sum(record.selfs.values())
    if abs(total - record.wall) > tolerance:
        raise AssertionError(
            f"{record.name}: self times sum to {total:.9f} s but the "
            f"operation took {record.wall:.9f} s"
        )
    negative = {k: v for k, v in record.selfs.items() if v < -tolerance}
    if negative:
        raise AssertionError(f"{record.name}: negative self times {negative}")
