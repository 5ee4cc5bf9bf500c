"""What every workload shares: its context, its outcome, its set-up."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from common import NOMINAL_KERNEL_S, Calibrator, Sample, import_seconds, median
from tracing import LAYER_NAMES, Record, Tracer, check_identity

#: Set-ups per run; ``setup_s`` sums the medians of their parts.
SETUP_REPEATS = 3


@dataclass
class Context:
    root: Path
    tmp: Path
    seed: int
    seconds: float
    calibrator: Calibrator
    tracer: Tracer | None

    def clock_running(self, started: float) -> bool:
        return time.perf_counter() - started < self.seconds


@dataclass
class Outcome:
    """What a workload measured."""

    setup: Sample
    headline: list[Sample]
    aux: list[Sample]
    #: Normalised seconds of load over which ``rate_ops`` completed.
    load_s: float
    rate_ops: int
    attempted: int
    failed: int
    #: Peak resident set when the workload reads it itself (else at the end).
    rss_mb: float | None = None
    #: Figures under the names the workload's README section uses.
    detail: dict = field(default_factory=dict)
    #: One traced record per timed operation, with its factor.
    records: list[tuple[Record, float]] = field(default_factory=list)
    #: Per-operation figures read from the program's own return values
    #: (name → one normalised value per operation they describe).
    extra_layers: dict = field(default_factory=dict)


def setup_sample(cal: Calibrator, parts) -> tuple[list, Sample]:
    """Run each set-up part ``SETUP_REPEATS`` times; sum the parts' medians.

    ``parts`` are ``(run, teardown)`` pairs; the result of each part's last
    run is returned, and ``teardown`` (untimed; None for nothing) gets every
    earlier result.  The sum is scaled by the mean of every kernel reading
    taken during set-up: set-up is a few seconds long and the machine's
    speed changes within seconds, so one reading either side says little.
    """
    first = cal.point()
    results, total = [], 0.0
    for part, teardown in parts:
        times = []
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            result = part()
            times.append(time.perf_counter() - started)
            if attempt < SETUP_REPEATS - 1 and teardown is not None:
                teardown(result)
            cal.point()
        results.append(result)
        total += median(times)
    readings = cal.readings[first:]
    factor = NOMINAL_KERNEL_S * len(readings) / sum(readings)
    return results, Sample("setup", total, factor)


def in_process_setup(ctx: Context, build, teardown) -> tuple[object, Sample]:
    """Median fresh-interpreter import plus median in-process build.

    The benchmark process imports the program once, so the import share
    of set-up is measured in fresh interpreters; ``build`` (universe,
    session or service, first cold solve) runs in-process.  Every build
    but the last is torn down; the last one's state is returned.
    """
    (_, state), setup = setup_sample(
        ctx.calibrator,
        ((lambda: import_seconds(ctx.root, ctx.tmp), None), (build, teardown)),
    )
    return state, setup


def layer_metrics(outcome: Outcome) -> dict:
    """Per-operation means of every per-layer figure (normalised)."""
    records = outcome.records
    n = len(records)
    if n == 0:
        raise AssertionError("the traced run recorded no operation")
    for record, _ in records:
        check_identity(record)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        total = sum(r.selfs.get(layer, 0.0) * f for r, f in records)
        out[f"{layer}_s"] = (total / n, "s")
    for name in ("serve.transport", "cli.import"):
        total = sum(r.selfs.get(name, 0.0) * f for r, f in records)
        out[f"{name}_s"] = (total / n, "s")
    unattributed = sum(r.selfs.get("op", 0.0) * f for r, f in records)
    out["unattributed_s"] = (unattributed / n, "s")
    for name in (
        "similarity.candidate_pairs", "quality.candidates", "matching.calls",
        "matching.clusterings", "search.iterations", "search.evaluations",
        "portfolio.shm_bytes",
    ):
        total = sum(r.counts.get(name, 0.0) for r, _ in records)
        unit = "bytes" if name.endswith("bytes") else "count"
        out[name] = (total / n, unit)
    for name, hits, lookups in (
        ("quality.memo_hit_ratio", "quality.memo_hits", "quality.memo_lookups"),
        ("matching.memo_hit_ratio", "matching.memo_hits", "matching.calls"),
    ):
        num = sum(r.counts.get(hits, 0.0) for r, _ in records)
        den = sum(r.counts.get(lookups, 0.0) for r, _ in records)
        out[name] = (num / den if den else 0.0, "ratio")
    for name in ("portfolio.worker_busy_s", "portfolio.overhead_s"):
        values = outcome.extra_layers.get(name, [])
        out[name] = (sum(values) / len(values) if values else 0.0, "s")
    return out
