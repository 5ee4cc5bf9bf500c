"""The delta-solve pipeline: planner, session edits, invalidation matrix.

Three layers of coverage:

* ``TestPlanDelta`` — the pure planner: problem diff → plan, edit kind by
  edit kind.
* ``TestSessionEdits`` — the new session mutators (``add_source`` /
  ``remove_source`` / ``remove_characteristic_qef``) and the
  ``set_weights`` validation, plus the edit journal bookkeeping.
* ``TestInvalidationMatrix`` — the end-to-end contract: for every edit
  kind, exactly the layers the matrix in docs/incremental.md promises to
  keep actually survive, asserted through object identity and the
  ``session.delta.*`` counters as the oracle.
"""

from __future__ import annotations

import pytest

from repro.core import CharacteristicSpec, Problem, Source, Universe
from repro.exceptions import ConstraintError, WeightError
from repro.search import OptimizerConfig
from repro.session import Session
from repro.session.delta import Edit, EditJournal, plan_delta
from repro.telemetry import Telemetry, use_telemetry

FAST = OptimizerConfig(max_iterations=15, patience=8, seed=0)


def make_source(source_id, names, cardinality=100, characteristics=None):
    return Source(
        source_id=source_id,
        name=f"s{source_id}",
        schema=tuple(names),
        cardinality=cardinality,
        characteristics=characteristics or {},
    )


@pytest.fixture
def universe():
    return Universe(
        [
            make_source(0, ["title", "author"], characteristics={"rank": 1.0}),
            make_source(1, ["author", "price"], characteristics={"rank": 2.0}),
            make_source(2, ["title", "price"], characteristics={"rank": 3.0}),
            make_source(3, ["isbn", "title"], characteristics={"rank": 4.0}),
        ]
    )


def session_for(universe, **kwargs):
    kwargs.setdefault("max_sources", 3)
    kwargs.setdefault("optimizer_config", FAST)
    kwargs.setdefault("record_runs", False)
    return Session(universe, **kwargs)


def problem_with(session, **overrides) -> Problem:
    from dataclasses import replace

    return replace(session.problem(), **overrides)


# -- the planner --------------------------------------------------------------


class TestPlanDelta:
    def test_first_solve_is_cold(self, universe):
        session = session_for(universe)
        plan = plan_delta(None, session.problem())
        assert plan.path == "cold"
        assert plan.operator == ("rebuild",)
        assert plan.context == "rebuild"
        assert plan.memo == "drop"

    def test_unchanged_problem_is_noop(self, universe):
        session = session_for(universe)
        before = session.problem()
        after = session.problem()
        plan = plan_delta(before, after)
        assert plan.path == "noop"
        assert plan.operator == ()
        assert plan.context == "reuse"
        assert plan.memo == "keep"

    def test_weights_only_reweighs_memo(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.emphasize("cardinality", 0.6)
        plan = plan_delta(before, session.problem())
        assert plan.path == "delta"
        assert plan.operator == ()
        assert plan.context == "reuse"
        assert plan.memo == "reweigh"

    @pytest.mark.parametrize("edit", ["theta", "beta"])
    def test_shape_change_rebuilds_operator(self, universe, edit):
        session = session_for(universe)
        before = session.problem()
        if edit == "theta":
            session.set_theta(0.9)
        else:
            session.set_beta(3)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("rebuild",)
        assert plan.context == "reuse"
        assert plan.memo == "drop"

    def test_source_constraints_retarget(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.require_source(0)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("constraints",)
        assert plan.context == "reuse"
        assert plan.memo == "drop"

    def test_ga_constraints_rebuild(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.require_match([(0, "author"), (1, "author")])
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("rebuild",)
        assert plan.memo == "drop"

    def test_budget_change_drops_memo_only(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.set_max_sources(2)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ()
        assert plan.context == "reuse"
        assert plan.memo == "drop"

    def test_add_source_patches(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.add_source(make_source(9, ["title", "year"]))
        plan = plan_delta(before, session.problem())
        assert plan.path == "delta"
        assert plan.operator == ("universe",)
        assert plan.context == "patch"
        assert plan.memo == "drop"
        assert plan.added_source_ids == {9}
        assert plan.removed_source_ids == frozenset()

    def test_remove_source_patches(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.remove_source(3)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("universe",)
        assert plan.context == "patch"
        assert plan.removed_source_ids == {3}

    def test_release_then_remove_orders_constraints_first(self, universe):
        session = session_for(universe)
        session.require_source(3)
        before = session.problem()
        session.release_source(3)
        session.remove_source(3)
        plan = plan_delta(before, session.problem())
        assert plan.operator == ("constraints", "universe")

    def test_qef_change_patches_context(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.add_characteristic_qef(
            CharacteristicSpec(name="rank", characteristic="rank"), 0.2
        )
        plan = plan_delta(before, session.problem())
        assert plan.operator == ()
        assert plan.context == "patch"
        assert plan.memo == "drop"

    def test_rebound_source_id_goes_cold(self, universe):
        session = session_for(universe)
        before = session.problem()
        # Remove source 3 and add a *different* source under the same id:
        # identity-keyed row reuse would silently read stale data.
        session.remove_source(3)
        session.add_source(make_source(3, ["publisher"]))
        plan = plan_delta(before, session.problem())
        assert plan.path == "cold"

    def test_edits_ride_along_as_provenance(self, universe):
        session = session_for(universe)
        before = session.problem()
        session.set_theta(0.9)
        edits = session.pending_edits
        plan = plan_delta(before, session.problem(), edits)
        assert plan.edits == edits
        assert [e.kind for e in plan.edits] == ["theta"]

    def test_plan_is_diff_driven_not_journal_driven(self, universe):
        # Mutating state directly (no journal entry) still plans right.
        session = session_for(universe)
        before = session.problem()
        session.theta = 0.9
        plan = plan_delta(before, session.problem(), ())
        assert plan.operator == ("rebuild",)


class TestEditJournal:
    def test_record_and_clear(self):
        journal = EditJournal()
        journal.record("theta", "0.9")
        journal.record("weights")
        assert len(journal) == 2
        assert journal.kinds() == {"theta", "weights"}
        assert [str(e) for e in journal] == ["theta(0.9)", "weights"]
        journal.clear()
        assert len(journal) == 0
        assert journal.edits == ()

    def test_edit_is_frozen_value(self):
        assert Edit("theta", "0.9") == Edit("theta", "0.9")
        with pytest.raises(AttributeError):
            Edit("theta").kind = "beta"


# -- session mutators ---------------------------------------------------------


class TestSessionEdits:
    def test_set_weights_rejects_unknown_qef(self, universe):
        session = session_for(universe)
        with pytest.raises(WeightError, match="unknown QEF"):
            session.set_weights(
                {"matching": 0.5, "cardinality": 0.3, "typo_qef": 0.2}
            )
        # The session is untouched by the failed edit.
        assert "typo_qef" not in session.weights
        assert len(session.pending_edits) == 0

    def test_set_weights_known_names_still_work(self, universe):
        session = session_for(universe)
        session.set_weights(
            {
                "matching": 0.4,
                "cardinality": 0.3,
                "coverage": 0.2,
                "redundancy": 0.1,
            }
        )
        assert session.weights["matching"] == pytest.approx(0.4)
        assert [e.kind for e in session.pending_edits] == ["weights"]

    def test_add_source_rejects_duplicate_id(self, universe):
        session = session_for(universe)
        with pytest.raises(ConstraintError, match="already in the universe"):
            session.add_source(make_source(0, ["title"]))

    def test_add_source_extends_universe_and_journal(self, universe):
        session = session_for(universe)
        session.add_source(make_source(9, ["title", "year"]))
        assert 9 in session.universe.source_ids
        assert [e.kind for e in session.pending_edits] == ["add_source"]

    def test_remove_source_rejects_pinned(self, universe):
        session = session_for(universe)
        session.require_source(0)
        with pytest.raises(ConstraintError, match="pinned"):
            session.remove_source(0)

    def test_remove_source_rejects_ga_referenced(self, universe):
        session = session_for(universe)
        session.require_match([(0, "author"), (1, "author")])
        with pytest.raises(ConstraintError, match="GA constraint"):
            session.remove_source(1)

    def test_remove_source_clamps_budget(self, universe):
        session = session_for(universe, max_sources=4)
        session.remove_source(3)
        assert session.max_sources == 3
        kinds = [e.kind for e in session.pending_edits]
        assert kinds == ["remove_source", "max_sources"]

    def test_remove_last_source_rejected(self):
        session = session_for(
            Universe([make_source(0, ["title"])]), max_sources=1
        )
        with pytest.raises(ConstraintError, match="last source"):
            session.remove_source(0)

    def test_remove_characteristic_qef_inverts_add(self, universe):
        session = session_for(universe)
        before = dict(session.weights)
        spec = CharacteristicSpec(name="rank", characteristic="rank")
        session.add_characteristic_qef(spec, 0.25)
        removed = session.remove_characteristic_qef("rank")
        assert removed == spec
        assert "rank" not in session.weights
        assert session.characteristic_qefs == []
        # Proportional redistribution restores the original weights.
        for name, value in before.items():
            assert session.weights[name] == pytest.approx(value)

    def test_remove_characteristic_qef_rejects_stock(self, universe):
        session = session_for(universe)
        with pytest.raises(WeightError, match="stock QEF"):
            session.remove_characteristic_qef("matching")

    def test_remove_characteristic_qef_rejects_unknown(self, universe):
        session = session_for(universe)
        with pytest.raises(WeightError, match="no characteristic QEF"):
            session.remove_characteristic_qef("rank")

    def test_solve_clears_journal(self, universe):
        session = session_for(universe)
        session.set_theta(0.7)
        assert len(session.pending_edits) == 1
        session.solve()
        assert session.pending_edits == ()


# -- the end-to-end invalidation matrix ---------------------------------------


def counters(telemetry) -> dict[str, int]:
    return telemetry.metrics.snapshot().get("counters", {})


class TestInvalidationMatrix:
    """Per edit kind, exactly the promised cached layers survive.

    Identity assertions pin the *objects* (operator, context, objective);
    the ``session.delta.*`` counters are the cross-checking oracle.
    """

    def run_edit(self, universe, edit, **session_kwargs):
        telemetry = Telemetry()
        session = session_for(universe, **session_kwargs)
        with use_telemetry(telemetry):
            session.solve()
            state_before = (
                session._objective,
                session._objective.match_operator,
                session._objective.context,
            )
            edit(session)
            session.solve()
        state_after = (
            session._objective,
            session._objective.match_operator,
            session._objective.context,
        )
        return session, state_before, state_after, counters(telemetry)

    def test_noop_keeps_every_layer(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: None
        )
        assert before == after  # objective, operator, context all identical
        assert session.last_plan.path == "noop"
        assert stats.get("session.delta.context_reused") == 1
        assert stats.get("session.delta.operator_reused") == 1
        assert "session.delta.memo_dropped" not in stats

    def test_weights_only_keeps_all_but_reweighs_memo(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.emphasize("cardinality", 0.6)
        )
        assert before == after
        assert stats.get("session.delta.memo_reweighed", 0) > 0
        assert stats.get("session.delta.operator_reused") == 1
        assert stats.get("session.delta.context_reused") == 1
        assert stats.get("session.delta.cold_solves") == 1  # first solve only

    def test_theta_rebuilds_operator_keeps_context(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.set_theta(0.9)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is not operator_b
        assert context_a is context_b
        assert objective_a is not objective_b  # memo dropped
        assert stats.get("session.delta.operator_rebuilt") == 1
        assert stats.get("session.delta.context_reused") == 1
        assert stats.get("session.delta.memo_dropped", 0) > 0

    def test_constraint_retargets_operator_in_place(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.require_source(0)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b  # same object, memo rewritten
        assert context_a is context_b
        assert objective_a is not objective_b
        assert stats.get("session.delta.operator_retargeted") == 1
        assert "session.delta.operator_rebuilt" not in stats

    def test_budget_drops_memo_keeps_operator_and_context(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.set_max_sources(2)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b
        assert context_a is context_b
        assert objective_a is not objective_b
        assert stats.get("session.delta.operator_reused") == 1

    def test_add_source_patches_context_extends_similarity(self, universe):
        def edit(s):
            s.add_source(make_source(9, ["title", "brand_new_name"]))

        session, before, after, stats = self.run_edit(universe, edit)
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b  # memo survives adds wholesale
        assert context_a is not context_b  # row-spliced recompile
        assert stats.get("session.delta.context_patched") == 1
        assert stats.get("session.delta.similarity_extended") == 1
        assert stats.get("session.delta.similarity_rows_added", 0) >= 1
        assert stats.get("session.delta.operator_universe_patched") == 1
        assert "brand_new_name" in session._matrix

    def test_remove_source_prunes_memo_patches_context(self, universe):
        session, before, after, stats = self.run_edit(
            universe, lambda s: s.remove_source(3)
        )
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b
        assert context_a is not context_b
        assert stats.get("session.delta.context_patched") == 1
        assert stats.get("session.delta.match_memo_dropped", 0) > 0
        # Removal never grows the vocabulary.
        assert "session.delta.similarity_extended" not in stats

    def test_qef_edit_patches_context_keeps_operator(self, universe):
        def edit(s):
            s.add_characteristic_qef(
                CharacteristicSpec(name="rank", characteristic="rank"), 0.2
            )

        session, before, after, stats = self.run_edit(universe, edit)
        objective_b, operator_b, context_b = before
        objective_a, operator_a, context_a = after
        assert operator_a is operator_b
        assert context_a is not context_b
        assert stats.get("session.delta.operator_reused") == 1
        assert stats.get("session.delta.context_patched") == 1

    def test_remove_qef_also_patches(self, universe):
        def edit(s):
            s.remove_characteristic_qef("rank")

        telemetry = Telemetry()
        session = session_for(universe)
        session.add_characteristic_qef(
            CharacteristicSpec(name="rank", characteristic="rank"), 0.2
        )
        with use_telemetry(telemetry):
            session.solve()
            operator_before = session._objective.match_operator
            edit(session)
            session.solve()
        stats = counters(telemetry)
        assert session._objective.match_operator is operator_before
        assert stats.get("session.delta.context_patched") == 1

    def test_delta_false_goes_cold_every_solve(self, universe):
        telemetry = Telemetry()
        session = session_for(universe, delta=False)
        with use_telemetry(telemetry):
            session.solve()
            session.solve()
        stats = counters(telemetry)
        assert stats.get("session.delta.cold_solves") == 2
