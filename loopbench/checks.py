"""Answer checks computed apart from the program.

An answer is read the way a user receives it (CLI stdout, an HTTP
payload, or a returned ``Session`` iteration) into an :class:`Answer`;
the problem the user posed is described by a :class:`Posed`.  Each check
raises :class:`CheckFailed` with a reason.  Nothing here calls the
program's matching, similarity or quality code: F1 is recomputed from
attribute names with this module's own 3-gram Jaccard, which follows the
paper (§3) and the program's documented name normalisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: An attribute as ``(source_id, index, name)``.
Attr = tuple[int, int, str]


class CheckFailed(AssertionError):
    """An answer broke a property it must have."""


@dataclass(frozen=True)
class Answer:
    """One answer: selected sources and GAs in the order received."""

    selected: frozenset[int]
    gas: tuple[tuple[Attr, ...], ...]
    qef_scores: dict
    quality: float
    feasible: bool


@dataclass(frozen=True)
class Posed:
    """What the user asked for in the solve that produced an answer."""

    max_sources: int
    theta: float
    beta: int
    weights: dict
    pinned: frozenset[int] = frozenset()
    accepted: tuple[frozenset[tuple[int, int]], ...] = ()
    names: dict = field(default_factory=dict)  # (source_id, index) -> name


# -- the benchmark's own similarity ------------------------------------------


def normalize_name(name: str) -> str:
    """Lower-case; runs of non-alphanumerics become one space; strip."""
    out = []
    space = True
    for char in name.lower():
        if char.isalnum():
            out.append(char)
            space = False
        elif not space:
            out.append(" ")
            space = True
    return "".join(out).strip()


def grams(name: str) -> frozenset[str]:
    text = normalize_name(name)
    if not text:
        return frozenset()
    if len(text) < 3:
        return frozenset((text,))
    return frozenset(text[i : i + 3] for i in range(len(text) - 2))


def jaccard(a: str, b: str) -> float:
    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    common = len(ga & gb)
    if common == 0:
        return 0.0
    return common / (len(ga) + len(gb) - common)


def ga_quality(ga) -> float:
    """F1 of one GA: the largest similarity between two members."""
    names = [attr[2] for attr in ga]
    if len(names) < 2:
        return 0.0
    return max(
        jaccard(names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    )


def f1(gas) -> float:
    """Mean GA quality, summed in the order the GAs were received."""
    if not gas:
        return 0.0
    total = 0.0
    for ga in gas:
        total += ga_quality(ga)
    return total / len(gas)


def _connected(ga, theta: float) -> bool:
    names = [attr[2] for attr in ga]
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(names)):
            if j not in reached and jaccard(names[i], names[j]) >= theta:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(names)


# -- the checks ---------------------------------------------------------------


def check_answer(
    answer: Answer, posed: Posed, f1_digits: int | None = None,
    f1_tolerance: float = 0.0, q_tolerance: float = 1e-9,
) -> None:
    """Every property a µBE answer must have (Defs. 2–3, §2.5, §3).

    ``f1_digits`` compares F1 at the printed precision (the CLI prints
    three decimals).  Otherwise F1 must match within ``f1_tolerance``:
    0 (bit equality) where the GAs arrive in the order the program summed
    them, a few ulps where a worker process summed them over its own copy
    of the GA set.
    """
    selected = answer.selected
    if not answer.feasible:
        raise CheckFailed("answer is reported infeasible")
    if len(selected) > posed.max_sources:
        raise CheckFailed(
            f"|S| = {len(selected)} exceeds m = {posed.max_sources}"
        )
    pinned = set(posed.pinned)
    for ga in posed.accepted:
        pinned |= {sid for sid, _ in ga}
    if not pinned <= selected:
        raise CheckFailed(f"pinned sources {sorted(pinned - selected)} missing")
    seen: set[tuple[int, int]] = set()
    for ga in answer.gas:
        sources = [attr[0] for attr in ga]
        if len(set(sources)) != len(sources):
            raise CheckFailed(f"GA takes two attributes from one source: {ga}")
        for sid, index, name in ga:
            if sid not in selected:
                raise CheckFailed(f"GA draws on unselected source {sid}")
            if (sid, index) in seen:
                raise CheckFailed(f"attribute {(sid, index)} in two GAs")
            seen.add((sid, index))
            if posed.names and posed.names.get((sid, index)) != name:
                raise CheckFailed(
                    f"attribute {(sid, index)} is named {name!r}, but the "
                    f"universe calls it {posed.names.get((sid, index))!r}"
                )
    refs = [frozenset((a[0], a[1]) for a in ga) for ga in answer.gas]
    for accepted in posed.accepted:
        if not any(accepted <= ga for ga in refs):
            raise CheckFailed(f"accepted GA {sorted(accepted)} not contained")
    pinned_attrs = set().union(*posed.accepted) if posed.accepted else set()
    for ga, ref in zip(answer.gas, refs):
        if ref & pinned_attrs:
            continue
        if len(ga) < posed.beta:
            raise CheckFailed(f"GA of {len(ga)} attributes is below β")
        if not _connected(ga, posed.theta):
            raise CheckFailed(f"GA is not θ-connected at θ={posed.theta}: {ga}")
    reported = answer.qef_scores.get("matching")
    recomputed = f1(answer.gas)
    if f1_digits is None:
        if abs(reported - recomputed) > f1_tolerance:
            raise CheckFailed(f"F1 reported {reported!r}, recomputed {recomputed!r}")
    elif f"{reported:.{f1_digits}f}" != f"{recomputed:.{f1_digits}f}":
        raise CheckFailed(f"F1 reported {reported}, recomputed {recomputed:.6f}")
    if set(posed.weights) != set(answer.qef_scores):
        raise CheckFailed(
            f"QEFs {sorted(answer.qef_scores)} differ from the weighted "
            f"{sorted(posed.weights)}"
        )
    weighted = sum(w * answer.qef_scores[name] for name, w in posed.weights.items())
    if abs(weighted - answer.quality) > q_tolerance:
        raise CheckFailed(f"Q = {answer.quality} but Σ wF = {weighted}")


def same_answer(a: Answer, b: Answer, what: str) -> None:
    """Bit-identical answers (GA order aside, which is a set's order)."""
    key_a = (a.selected, frozenset(a.gas), a.quality, a.qef_scores, a.feasible)
    key_b = (b.selected, frozenset(b.gas), b.quality, b.qef_scores, b.feasible)
    if key_a != key_b:
        raise CheckFailed(f"{what}: answers differ ({a.quality!r} vs {b.quality!r})")


# -- weights as the user sets them --------------------------------------------

#: The paper's default weights (§7.1) for the four data QEFs.
PAPER_WEIGHTS = {
    "matching": 0.25, "cardinality": 0.25, "coverage": 0.2, "redundancy": 0.15,
}
#: The same with MTTF as the one characteristic QEF, as ``mube solve`` sets.
MTTF_WEIGHTS = {**PAPER_WEIGHTS, "mttf": 0.15}


def normalised(weights: dict) -> dict:
    total = sum(weights.values())
    return {name: value / total for name, value in weights.items()}


def emphasized(weights: dict, qef: str, weight: float) -> dict:
    """``Session.emphasize`` as documented: the rest share what is left."""
    others = [name for name in weights if name != qef]
    share = (1.0 - weight) / len(others)
    out = {name: share for name in others}
    out[qef] = weight
    return normalised(out)


# -- reading answers ----------------------------------------------------------


def attribute_names(sources) -> dict:
    """``(source_id, index) → name`` over the sources a user was offered."""
    return {
        (s.source_id, i): name for s in sources for i, name in enumerate(s.schema)
    }


def from_solution(solution) -> Answer:
    """An in-process ``Solution``; GAs in the schema's iteration order."""
    gas = ()
    if solution.schema is not None:
        gas = tuple(
            tuple(
                (a.source_id, a.index, a.name)
                for a in sorted(ga.attributes, key=lambda r: (r.source_id, r.index))
            )
            for ga in solution.schema.gas
        )
    return Answer(
        selected=frozenset(solution.selected),
        gas=gas,
        qef_scores=dict(solution.qef_scores),
        quality=solution.quality,
        feasible=solution.feasible,
    )


def from_payload(payload: dict) -> Answer:
    """A ``POST /sessions/{id}/solve`` JSON payload."""
    sol = payload["solution"]
    gas = tuple(
        tuple((a["source_id"], a["index"], a["name"]) for a in ga)
        for ga in (sol["schema"] or ())
    )
    return Answer(
        selected=frozenset(sol["selected"]),
        gas=gas,
        qef_scores=dict(sol["qef_scores"]),
        quality=sol["quality"],
        feasible=sol["feasible"],
    )


_SUMMARY = re.compile(r"^Solution: (\d+) sources, (\d+) GAs, Q=([0-9.]+) \((\w+)\)$")
_SOURCE = re.compile(r"^\s+\[\s*(\d+)\] (\S+)\s+\(")
_GA = re.compile(r"^\s+GA\s*\d+ «.*» \((\d+) attrs\): (.*)$")


def from_cli(stdout: str, sources: dict) -> Answer:
    """``mube solve`` stdout; ``sources`` maps source name → (id, schema).

    Printed figures carry 3–4 decimals, so Q and the QEF scores are read
    at that precision.
    """
    lines = stdout.splitlines()
    summary = _SUMMARY.match(lines[0]) if lines else None
    if summary is None:
        raise CheckFailed(f"no solution line in CLI output: {stdout[:200]!r}")
    scores = {}
    selected = set()
    gas = []
    used: set[tuple[int, int]] = set()
    for line in lines[1:]:
        if line.strip().startswith("QEFs:"):
            for item in line.split(":", 1)[1].split():
                name, value = item.split("=")
                scores[name] = float(value)
        elif (match := _SOURCE.match(line)) is not None:
            selected.add(int(match.group(1)))
        elif (match := _GA.match(line)) is not None:
            members = []
            for ref in match.group(2).split(", "):
                source_name, attr_name = ref.split(".", 1)
                sid, schema = sources[source_name]
                index = _index_of(schema, attr_name, used, sid)
                used.add((sid, index))
                members.append((sid, index, attr_name))
            if len(members) != int(match.group(1)):
                raise CheckFailed(f"GA line lists a wrong count: {line!r}")
            gas.append(tuple(members))
    if len(selected) != int(summary.group(1)) or len(gas) != int(summary.group(2)):
        raise CheckFailed("CLI summary disagrees with the listed sources/GAs")
    return Answer(
        selected=frozenset(selected),
        gas=tuple(gas),
        qef_scores=scores,
        quality=float(summary.group(3)),
        feasible=summary.group(4) == "feasible",
    )


def _index_of(schema, name: str, used, sid: int) -> int:
    # A source may carry one name twice; printed GAs name attributes, not
    # positions, so take the first position no earlier GA has used.
    for index, attr in enumerate(schema):
        if attr == name and (sid, index) not in used:
            return index
    raise CheckFailed(f"source {sid} has no attribute {name!r}")
