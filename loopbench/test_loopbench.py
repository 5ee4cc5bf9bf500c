"""The benchmark's own tests: every answer check rejects a corrupted
answer, the calibration guard notices a busy thread, and traced self
times add up.  Run with ``python3 -m pytest loopbench -q``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

import checks
from common import Calibrator
from tracing import Record, Tracer, check_identity

NAMES = {
    (0, 0): "title", (0, 1): "author",
    (1, 0): "titles", (1, 1): "price",
    (2, 0): "author", (2, 1): "isbn",
    (3, 0): "title",
}
WEIGHTS = {"matching": 0.5, "cardinality": 0.5}


def good() -> tuple[checks.Answer, checks.Posed]:
    answer = checks.Answer(
        selected=frozenset({0, 1, 2}),
        gas=(
            ((0, 0, "title"), (1, 0, "titles")),
            ((0, 1, "author"), (2, 0, "author")),
        ),
        qef_scores={"matching": (0.75 + 1.0) / 2, "cardinality": 0.5},
        quality=0.5 * 0.875 + 0.5 * 0.5,
        feasible=True,
    )
    posed = checks.Posed(
        max_sources=3, theta=0.65, beta=2, weights=WEIGHTS,
        pinned=frozenset({2}), accepted=(frozenset({(0, 1), (2, 0)}),),
        names=NAMES,
    )
    return answer, posed


def test_valid_answer_passes():
    checks.check_answer(*good())


def _with_gas(answer, gas):
    return replace(answer, gas=gas)


CORRUPTIONS = {
    "infeasible": lambda a, p: (replace(a, feasible=False), p),
    "over budget": lambda a, p: (a, replace(p, max_sources=2)),
    "pinned source missing": lambda a, p: (a, replace(p, pinned=frozenset({3}))),
    "two attributes of one source": lambda a, p: (
        _with_gas(a, (((0, 0, "title"), (0, 1, "author")),) + a.gas[1:]), p
    ),
    "GA draws on unselected source": lambda a, p: (
        _with_gas(a, (a.gas[0] + ((3, 0, "title"),),) + a.gas[1:]), p
    ),
    "attribute in two GAs": lambda a, p: (
        _with_gas(a, a.gas + (((0, 0, "title"), (2, 1, "isbn")),)), p
    ),
    "attribute misnamed": lambda a, p: (
        _with_gas(a, (((0, 0, "title"), (1, 0, "price")),) + a.gas[1:]), p
    ),
    "accepted GA not contained": lambda a, p: (
        a, replace(p, accepted=(frozenset({(0, 1), (1, 1)}),))
    ),
    "GA below beta": lambda a, p: (a, replace(p, beta=3)),
    "GA not theta-connected": lambda a, p: (a, replace(p, theta=0.8)),
    "F1 off by one ulp": lambda a, p: (
        replace(a, qef_scores={**a.qef_scores, "matching": 0.8750000000000001}),
        p,
    ),
    "Q is not the weighted sum": lambda a, p: (replace(a, quality=a.quality + 1e-6), p),
    "QEFs differ from the weighted ones": lambda a, p: (
        a, replace(p, weights={"matching": 0.5, "coverage": 0.5})
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_check_rejects_a_corrupted_answer(name):
    answer, posed = CORRUPTIONS[name](*good())
    with pytest.raises(checks.CheckFailed):
        checks.check_answer(answer, posed)


def test_same_answer_rejects_any_difference():
    answer, _ = good()
    checks.same_answer(answer, replace(answer, gas=answer.gas[::-1]), "order")
    with pytest.raises(checks.CheckFailed):
        checks.same_answer(answer, replace(answer, quality=answer.quality * 2), "q")


CLI_OUTPUT = """Solution: 2 sources, 1 GAs, Q=0.6875 (feasible)
  QEFs: cardinality=0.500  matching=0.750
  Sources:
    [  0] s0  (|s|=10, attrs=2)
    [  1] s1  (|s|=10, attrs=2)
  Mediated schema:
  GA 1 «title» (2 attrs): s0.title, s1.titles
"""
CLI_SOURCES = {"s0": (0, ("title", "author")), "s1": (1, ("titles", "price"))}


def test_cli_output_is_read_and_checked():
    answer = checks.from_cli(CLI_OUTPUT, CLI_SOURCES)
    posed = checks.Posed(max_sources=2, theta=0.65, beta=2, weights=WEIGHTS)
    checks.check_answer(
        replace(answer, quality=0.625), posed, f1_digits=3, q_tolerance=6e-4
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_answer(
            replace(answer, qef_scores={**answer.qef_scores, "matching": 0.751}),
            posed, f1_digits=3, q_tolerance=6e-4,
        )
    with pytest.raises(checks.CheckFailed):
        checks.from_cli(CLI_OUTPUT.replace("2 sources", "3 sources"), CLI_SOURCES)


def test_calibration_guard_flags_a_busy_thread():
    calibrator = Calibrator()
    calibrator.point()
    assert calibrator.violations == []
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    busy = threading.Thread(target=spin)
    busy.start()
    try:
        calibrator.point()
    finally:
        stop.set()
        busy.join(timeout=10)
    assert not busy.is_alive()
    assert calibrator.violations


def test_self_times_add_up_to_the_wall_time():
    tracer = Tracer()
    tracer.enabled = True

    def layer(name, inner=None):
        frame = tracer.open(name)
        time.sleep(0.002)
        if inner:
            inner()
        tracer.close(frame)

    with tracer.root("op") as record:
        layer("a", lambda: layer("b", lambda: layer("c")))
        layer("b")
    check_identity(record)
    assert set(record.selfs) == {"op", "a", "b", "c"}
    assert record.selfs["b"] > record.selfs["c"] > 0


def test_identity_check_rejects_unaccounted_time():
    record = Record("op", 0, start=0.0, end=1.0)
    record.selfs.update({"op": 0.2, "a": 0.7})
    with pytest.raises(AssertionError):
        check_identity(record)
