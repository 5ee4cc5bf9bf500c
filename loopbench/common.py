"""Shared machinery: the calibration kernel, statistics, child processes.

Every time the benchmark reports is normalised to machine speed.  A fixed
kernel (pure Python plus a small numpy product) runs at quiescent points —
no request in flight, no child process alive — and each measured time is
scaled by ``NOMINAL_KERNEL_S / kernel_adjacent``, where ``kernel_adjacent``
is the mean of the kernel readings taken just before and just after it.
On a shared two-core machine the raw speed drifts by ±20% between windows;
the kernel drifts with it, so the ratio holds still.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The kernel time the figures are scaled to.  It is the median of one
#: kernel run measured on the reference machine (2 vCPUs, Python 3.11),
#: so normalised figures read close to raw seconds there.  Never change
#: it between two measurements that are compared.
NOMINAL_KERNEL_S = 0.016

#: Kernel runs per calibration point; the point's reading is their median.
KERNEL_REPEATS = 3

#: CPU that other threads and child processes of the program may use
#: during one kernel run before the window counts as contaminated.
GUARD_SLACK_S = 0.002

_MATRIX = (np.arange(40 * 40, dtype=np.int64) % 7).reshape(40, 40)


def kernel() -> float:
    """One run of the calibration kernel (≈16 ms on the reference machine).

    The pure-Python half mirrors the program's name handling (3-gram
    slicing and dict counting); the numpy half is a small integer matrix
    product, which numpy computes itself on the calling thread (a float
    product would go to a BLAS library that may spin up threads of its
    own and trip the guard).
    """
    counts: dict[str, int] = {}
    acc = 0
    for i in range(12000):
        word = "attr%d" % (i % 517)
        for j in range(len(word) - 2):
            gram = word[j : j + 3]
            counts[gram] = counts.get(gram, 0) + 1
        acc = (acc * 31 + i) & 0xFFFFFFFF
    product = _MATRIX
    for _ in range(6):
        product = (product @ _MATRIX) & 0xFFFF
    return acc + len(counts) + int(product[0, 0])


def child_pids() -> list[int]:
    """Live child processes of this process (Linux ``/proc``)."""
    pids: list[int] = []
    task_dir = Path("/proc/self/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return pids


def _children_cpu_s() -> float:
    total = 0
    for pid in child_pids():
        try:
            total += int(Path(f"/proc/{pid}/schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9


@dataclass
class Calibrator:
    """Runs the kernel at quiescent points and normalises times.

    ``point()`` records one reading and returns its index; an interval
    measured between readings ``i`` and ``j`` is normalised with
    ``factor(i, j)``.  The guard compares the process's CPU time with
    the kernel thread's own: another thread or child of the program that
    burns CPU during the window would slow the kernel and deflate every
    normalised time, so such a window fails the run.
    """

    readings: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def point(self) -> int:
        runs = []
        # A collection triggered inside the kernel would traverse the
        # program's whole heap, which grows over a run (session memos), and
        # time that instead of the machine.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(KERNEL_REPEATS):
                runs.append(self._run_kernel())
        finally:
            if collecting:
                gc.enable()
        self.readings.append(statistics.median(runs))
        return len(self.readings) - 1

    def _run_kernel(self) -> float:
        proc0 = time.process_time()
        thread0 = time.thread_time()
        kids0 = _children_cpu_s()
        start = time.perf_counter()
        kernel()
        wall = time.perf_counter() - start
        thread = time.thread_time() - thread0
        other = (time.process_time() - proc0 - thread) + (
            _children_cpu_s() - kids0
        )
        if other > GUARD_SLACK_S:
            self.violations.append(
                f"calibration window {len(self.readings)}: other threads "
                f"or processes used {other * 1e3:.2f} ms CPU"
            )
        return wall


    def factor(self, before: int, after: int) -> float:
        adjacent = (self.readings[before] + self.readings[after]) / 2.0
        return NOMINAL_KERNEL_S / adjacent

    def kernel_median(self) -> float:
        return statistics.median(self.readings)


@dataclass
class Sample:
    """One timed operation: raw seconds and the normalisation factor."""

    kind: str
    raw: float
    factor: float

    @property
    def norm(self) -> float:
        return self.raw * self.factor


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def figure(samples: list[Sample], reduce=median) -> dict:
    """A normalised figure with its raw counterpart and sample count."""
    return {
        "value": reduce([s.norm for s in samples]),
        "raw": reduce([s.raw for s in samples]),
        "n": len(samples),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for a program child: the checkout's sources and the
    run's registry."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["MUBE_RUNS_PATH"] = str(tmp / "runs.jsonl")
    return env


#: Deadline for one child process; it is killed when it expires.
CHILD_DEADLINE_S = 60.0


class ChildFailed(RuntimeError):
    """A child process exited non-zero or overran its deadline."""


def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Run one child to completion; return (spawn→exit seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(
            f"{' '.join(argv[:4])} … overran {CHILD_DEADLINE_S:.0f} s"
        ) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildFailed(
            f"{' '.join(argv[:4])} … exited {proc.returncode}: {err[-400:]}"
        )
    return elapsed, out


def import_seconds(root: Path, tmp: Path) -> float:
    """Spawn→exit of a fresh interpreter that imports ``repro.cli``."""
    elapsed, _ = run_child(
        [sys.executable, "-c", "import repro.cli"], child_env(root, tmp), tmp
    )
    return elapsed


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if this run started it.

    The tracker is a child process that otherwise outlives every solve
    that used shared memory; the standard library has no public way to
    stop it, so this calls the same private ``_stop`` its tests use.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
