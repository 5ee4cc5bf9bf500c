"""Benchmark of µBE's interactive loop; one workload per run.

    python3 loopbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``cold_cli``, ``edit_loop``,
``serve_http``, ``portfolio`` (see README.md).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the
layer wrappers are installed and it carries the per-layer metrics.  The
line before it holds every figure under its workload-specific name with
raw seconds beside the normalised ones.  Exit status is 0 only for a run
whose answers, calibration windows and clean-up all checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_cli", "edit_loop", "serve_http", "portfolio")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"loopbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still cleans up: SystemExit runs the finally below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import hygiene

    tmp = ROOT / f"{hygiene.RUN_DIR_PREFIX}{os.getpid()}"
    tmp.mkdir()
    # The run registry, the service's job dir and checkpoints go to the
    # run's temp dir; so does every stderr line of this process and its
    # children, read back for resource-tracker tracebacks.
    os.environ["MUBE_RUNS_PATH"] = str(tmp / "runs.jsonl")
    stderr_log = tmp / "stderr.log"
    saved_stderr = os.dup(2)
    sys.stderr.flush()
    log_fd = os.open(stderr_log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    before = hygiene.snapshot(ROOT)
    problems: list[str] = []
    result = None
    try:
        result = run_workload(args, tmp, problems)
    except Exception as exc:  # reported, and it fails the run
        problems.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
    finally:
        problems.extend(hygiene.settle_and_check(ROOT, before))
        sys.stderr.flush()
        os.dup2(saved_stderr, 2)
        os.close(saved_stderr)
        log = stderr_log.read_text(errors="replace")
        sys.stderr.write(log)
        tracebacks = hygiene.tracker_tracebacks(log)
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.exists():
            problems.append(f"temp dir {tmp.name} could not be removed")
    for problem in problems:
        print(f"loopbench: {problem}", file=sys.stderr)
    correct = not problems
    attempted = failed = 0
    metrics: dict = {}
    detail: dict = {"workload": args.workload, "tracker_tracebacks": tracebacks}
    if result is not None:
        attempted, failed, metrics, extra = result
        detail.update(extra)
    detail["problems"] = problems
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_workload(args, tmp: Path, problems: list[str]):
    import importlib

    # Compile the program's bytecode once, untimed, before any child
    # process imports it.
    import repro.cli  # noqa: F401
    import repro.serve  # noqa: F401
    from common import Calibrator, median, peak_rss_mb
    from harness import Context, layer_metrics
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    calibrator = Calibrator()
    ctx = Context(ROOT, tmp, args.seed, args.seconds, calibrator, tracer)
    module = importlib.import_module(args.workload)
    try:
        outcome = module.run(ctx)
    finally:
        if tracer is not None:
            tracer.remove()
    problems.extend(calibrator.violations)
    detail = dict(outcome.detail)
    detail["setup_s"] = {"value": outcome.setup.norm, "raw": outcome.setup.raw}
    detail["kernel_median_s"] = calibrator.kernel_median()
    detail["calibration_points"] = len(calibrator.readings)
    rss = outcome.rss_mb if outcome.rss_mb is not None else peak_rss_mb()
    detail["peak_rss_mb"] = rss
    if tracer is None:
        metrics = {
            "setup_s": (outcome.setup.norm, "s"),
            "peak_rss_mb": (rss, "MB"),
            "op_p50_s": (median([s.norm for s in outcome.headline]), "s"),
            "aux_p50_s": (median([s.norm for s in outcome.aux]), "s"),
            "ops_per_s": (outcome.rate_ops / outcome.load_s, "1/s"),
        }
    else:
        metrics = layer_metrics(outcome)
    return (
        outcome.attempted,
        outcome.failed,
        {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        detail,
    )


if __name__ == "__main__":
    sys.exit(main())
