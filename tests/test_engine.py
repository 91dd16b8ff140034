"""The maintenance engine end to end: multi-view, sequences, timing."""

import pytest

from repro.bench.harness import statement_for
from repro.maintenance.engine import PHASES, MaintenanceEngine
from repro.pattern.evaluate import evaluate_bindings
from repro.updates.language import DeleteUpdate, InsertUpdate, UpdateBatch
from repro.updates.pul import compute_pul
from repro.updates.reduce import pul_to_operations, reduce_operations
from repro.workloads.queries import view_pattern
from repro.workloads.updates import VIEW_UPDATE_GROUPS
from repro.workloads.xmark import generate_document
from tests.conftest import chain_pattern


@pytest.fixture(scope="module")
def xmark_scale1():
    return generate_document(scale=1)


class TestRegistration:
    def test_register_by_pattern_text_and_definition(self, xmark_scale1):
        from repro.workloads.queries import VIEW_TEXTS, view_definition

        engine = MaintenanceEngine(generate_document(scale=1))
        by_pattern = engine.register_view(view_pattern("Q1"), "p")
        by_text = engine.register_view(VIEW_TEXTS["Q1"], "t")
        by_definition = engine.register_view(view_definition("Q2"), "d")
        assert len(by_pattern.view) == len(by_text.view)
        assert by_definition.definition is not None

    def test_duplicate_name_rejected(self):
        engine = MaintenanceEngine(generate_document(scale=1))
        engine.register_view(view_pattern("Q1"), "v")
        with pytest.raises(ValueError):
            engine.register_view(view_pattern("Q2"), "v")

    def test_unregister(self):
        engine = MaintenanceEngine(generate_document(scale=1))
        engine.register_view(view_pattern("Q1"), "v")
        engine.unregister_view("v")
        assert engine.views == {}


class TestMultiView:
    def test_one_statement_updates_all_views(self):
        doc = generate_document(scale=1)
        engine = MaintenanceEngine(doc)
        views = {name: engine.register_view(view_pattern(name), name)
                 for name in ("Q1", "Q17")}
        report = engine.apply_update(statement_for("X1_L", "insert"))
        assert set(report.view_reports) == {"Q1", "Q17"}
        for registered in views.values():
            assert registered.view.equals_fresh_evaluation(doc)

    def test_phase_times_populated(self):
        doc = generate_document(scale=1)
        engine = MaintenanceEngine(doc)
        engine.register_view(view_pattern("Q1"), "Q1")
        report = engine.apply_update(statement_for("X1_L", "insert"))
        phases = report.report_for("Q1").phases
        assert phases.find_target_nodes > 0
        assert phases.total() == sum(phases.as_dict().values())
        assert set(phases.as_dict()) == set(PHASES)


# One slow-ish but decisive matrix: every Figure 20/21 pair is correct.
@pytest.mark.parametrize("view_name", sorted(VIEW_UPDATE_GROUPS))
@pytest.mark.parametrize("kind", ["insert", "delete"])
def test_full_view_update_matrix(view_name, kind):
    for update_name in VIEW_UPDATE_GROUPS[view_name]:
        doc = generate_document(scale=1)
        engine = MaintenanceEngine(doc)
        registered = engine.register_view(view_pattern(view_name), view_name)
        engine.apply_update(statement_for(update_name, kind))
        assert registered.view.equals_fresh_evaluation(doc), (
            view_name,
            update_name,
            kind,
        )


class TestLatticeConsistency:
    @pytest.mark.parametrize("strategy", ["snowcaps", "leaves"])
    def test_lattice_stays_consistent_across_update_mix(self, strategy):
        doc = generate_document(scale=1)
        engine = MaintenanceEngine(doc)
        registered = engine.register_view(view_pattern("Q4"), "Q4", strategy=strategy)
        for statement in (
            statement_for("X2_L", "insert"),
            statement_for("B3_LB", "delete"),
            statement_for("X5_AO", "insert"),
            statement_for("X3_A", "delete"),
        ):
            engine.apply_update(statement)
            assert registered.view.equals_fresh_evaluation(doc)
            for subset in registered.lattice.materialized_sets():
                stored = registered.lattice.relation_for(subset)
                fresh = evaluate_bindings(registered.pattern.subpattern(subset), doc)
                stored_keys = sorted(tuple(c.id for c in r) for r in stored.rows)
                fresh_keys = sorted(tuple(c.id for c in r) for r in fresh.rows)
                assert stored_keys == fresh_keys, sorted(subset)

    def test_profile_driven_chain_consistent(self):
        doc = generate_document(scale=1)
        engine = MaintenanceEngine(doc)
        registered = engine.register_view(
            view_pattern("Q4"), "Q4", strategy="snowcaps", update_profile=["increase"]
        )
        engine.apply_update(statement_for("X2_L", "insert"))
        assert registered.view.equals_fresh_evaluation(doc)
        assert registered.lattice.materialized_sets()
        for subset in registered.lattice.materialized_sets():
            stored = registered.lattice.relation_for(subset)
            fresh = evaluate_bindings(registered.pattern.subpattern(subset), doc)
            assert sorted(tuple(c.id for c in r) for r in stored.rows) == sorted(
                tuple(c.id for c in r) for r in fresh.rows
            )


def _q1_after(statements, reduce=False):
    """Q1's extent after one ``apply_batch`` of ``statements`` on a
    fresh XMark document; with ``reduce``, the statements' atomic
    operations (resolved up front, Section 5's PUL setting) are reduced
    by O1/O3/I5 first."""
    doc = generate_document(scale=1)
    engine = MaintenanceEngine(doc)
    registered = engine.register_view(view_pattern("Q1"), "Q1")
    if reduce:
        statements = reduce_operations(
            [
                op
                for statement in statements
                for op in pul_to_operations(compute_pul(doc, statement))
            ]
        )
    report = engine.apply_batch(UpdateBatch(statements))
    assert registered.view.equals_fresh_evaluation(doc)
    return report, registered.view.content()


class TestSequences:
    def test_unoptimized_sequence(self):
        report, _content = _q1_after(
            [statement_for("X1_L", "insert"), statement_for("A6_A", "delete")]
        )
        assert report.statements_submitted == 2

    def test_optimized_sequence_same_result(self):
        statements = [
            InsertUpdate("/site/people/person", "<tag/>", name="i"),
            DeleteUpdate("/site/people/person[profile]", name="d"),
        ]
        plain_report, plain = _q1_after(statements)
        reduced_report, reduced = _q1_after(statements, reduce=True)
        assert reduced_report.pul_size < plain_report.pul_size
        assert plain == reduced
