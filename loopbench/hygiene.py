"""Run hygiene: nothing a run starts or writes may outlive it.

``snapshot`` is taken before the workload starts; ``settle_and_check``
runs in the run's ``finally`` (so also when the run's checks fail): it
stops multiprocessing's resource tracker, waits briefly for threads and
children to finish, kills any child still alive, and returns one problem
line per leftover process, thread, socket, ``/dev/shm/mube_shm_<pid>_*``
segment or file written outside the run's temp dir.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

from common import child_pids, stop_resource_tracker

SHM_DIR = Path("/dev/shm")
SETTLE_S = 5.0
_SKIP_DIRS = {"__pycache__", ".git", ".bench_build"}
RUN_DIR_PREFIX = ".loopbench-run-"


def _files(root: Path) -> set[str]:
    out = set()
    for dirpath, dirnames, filenames in os.walk(root):
        # Run dirs (this run's, or a concurrent run's) are not checkout files.
        dirnames[:] = [
            d for d in dirnames
            if d not in _SKIP_DIRS and not d.startswith(RUN_DIR_PREFIX)
        ]
        for name in filenames:
            if not name.endswith(".pyc"):
                out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def _shm() -> set[str]:
    # The program names its segments ``mube_shm_<creating pid>_<token>``.
    mine = f"mube_shm_{os.getpid()}_"
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(mine)}
    except OSError:
        return set()


def _sockets() -> set[str]:
    out = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            out.add(target)
    return out


def snapshot(root: Path) -> dict:
    return {
        "files": _files(root),
        "shm": _shm(),
        "sockets": _sockets(),
        "threads": {t.ident for t in threading.enumerate()},
        "children": set(child_pids()),
    }


def settle_and_check(root: Path, before: dict) -> list[str]:
    problems = []
    stop_resource_tracker()
    deadline = time.monotonic() + SETTLE_S
    while time.monotonic() < deadline and (
        _new_threads(before) or set(child_pids()) - before["children"]
    ):
        time.sleep(0.05)
    for pid in set(child_pids()) - before["children"]:
        problems.append(f"child process {pid} outlived the run; killed")
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    for thread in _new_threads(before):
        kind = "daemon" if thread.daemon else "non-daemon"
        problems.append(f"{kind} thread {thread.name!r} outlived the run")
    for sock in sorted(_sockets() - before["sockets"]):
        problems.append(f"socket {sock} left open")
    for name in sorted(_shm() - before["shm"]):
        problems.append(f"shared-memory segment /dev/shm/{name} left behind; unlinked")
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    for path in sorted(_files(root) - before["files"]):
        problems.append(f"file {path} written outside the run's temp dir")
    return problems


def _new_threads(before: dict) -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.ident not in before["threads"] and t.is_alive()
    ]


def tracker_tracebacks(log: str) -> list[str]:
    """The last line of each traceback the resource tracker printed."""
    found = []
    for block in log.split("Traceback (most recent call last)")[1:]:
        if "resource_tracker" not in block:
            continue
        lines = [line for line in block.splitlines() if line.strip()]
        found.append(lines[-1].strip() if lines else "?")
    return found
