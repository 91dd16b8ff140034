"""PINT / ET-INS / PIMT: insertion propagation (Section 3)."""

import pytest

from repro.maintenance.engine import MaintenanceEngine
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.updates.language import InsertUpdate
from repro.xmldom.parser import parse_document
from tests.conftest import chain_pattern


def engine_with(doc_text, pattern, **engine_kwargs):
    doc = parse_document(doc_text)
    engine = MaintenanceEngine(doc, **engine_kwargs)
    registered = engine.register_view(pattern, "v")
    return doc, engine, registered


class TestNewTuples:
    def test_example_3_1_insertion(self):
        # v1 = //a//b//c over a doc with an existing a; insert xml1.
        doc, engine, registered = engine_with(
            "<r><a><d/></a></r>", chain_pattern("a", "b", "c")
        )
        report = engine.apply_update(InsertUpdate("//a", "<a><b/><b><c/></b></a>"))
        view_report = report.report_for("v")
        # New embeddings: (old a, new b2, new c) and (new a, new b2, new c).
        assert view_report.derivations_added == 2
        assert registered.view.equals_fresh_evaluation(doc)

    def test_insertion_not_affecting_view(self):
        doc, engine, registered = engine_with(
            "<r><a><b><c/></b></a></r>", chain_pattern("a", "b", "c")
        )
        before = registered.view.content()
        report = engine.apply_update(InsertUpdate("//a", "<d/>"))
        assert report.report_for("v").derivations_added == 0
        assert registered.view.content() == before

    def test_derivation_count_increases_for_existing_tuple(self):
        # //a{ID}[//b]: inserting another b under a bumps the count.
        a = PatternNode("a", axis="desc", store_id=True)
        a.add_child(PatternNode("b", axis="desc"))
        doc, engine, registered = engine_with("<r><a><b/></a></r>", Pattern(a))
        row = registered.view.rows()[0]
        assert registered.view.count(row) == 1
        engine.apply_update(InsertUpdate("//a", "<b/>"))
        assert registered.view.count(row) == 2
        assert registered.view.equals_fresh_evaluation(doc)

    def test_multi_target_statement_is_bulk(self):
        doc, engine, registered = engine_with(
            "<r><a/><a/><a/></r>", chain_pattern("a", "b")
        )
        report = engine.apply_update(InsertUpdate("//a", "<b/>"))
        assert report.pul_size == 3
        assert report.report_for("v").derivations_added == 3
        assert registered.view.equals_fresh_evaluation(doc)

    def test_value_predicate_on_inserted_data(self):
        # Example 3.5: view //a[val=5]//b, inserted a has value 3.
        pattern = chain_pattern("a", "b")
        pattern.node("a#1").value_pred = "5"
        doc, engine, registered = engine_with("<r><x/></r>", pattern)
        report = engine.apply_update(InsertUpdate("//x", "<a>3<b/><b/></a>"))
        assert report.report_for("v").derivations_added == 0
        assert report.report_for("v").terms_surviving == 0
        assert registered.view.equals_fresh_evaluation(doc)

    def test_pruning_reported(self):
        doc, engine, registered = engine_with(
            "<r><a><d/></a></r>", chain_pattern("a", "b", "c")
        )
        report = engine.apply_update(InsertUpdate("//a", "<b><c/></b>"))
        view_report = report.report_for("v")
        assert view_report.terms_developed == 3
        assert view_report.terms_surviving == 1  # Example 3.7
        assert registered.view.equals_fresh_evaluation(doc)

    def test_pruning_disabled_still_correct(self):
        doc, engine, registered = engine_with(
            "<r><a><d/></a></r>",
            chain_pattern("a", "b", "c"),
            use_data_pruning=False,
            use_id_pruning=False,
        )
        report = engine.apply_update(InsertUpdate("//a", "<b><c/></b>"))
        assert report.report_for("v").terms_surviving == 3
        assert registered.view.equals_fresh_evaluation(doc)


class TestModifiedTuples:
    def test_example_3_14_content_update(self):
        # View /a/b//c{cont}; insertion under an existing c changes the
        # stored content without adding tuples.
        pattern = chain_pattern("a", "b", "c")
        pattern.root.axis = "child"
        node = pattern.node("c#1")
        node.store_val = True
        node.store_cont = True
        doc, engine, registered = engine_with(
            "<a><b><d><c>old</c></d></b></a>", pattern
        )
        report = engine.apply_update(
            InsertUpdate("//d/c", "<extra>some value</extra>")
        )
        view_report = report.report_for("v")
        assert view_report.derivations_added == 0
        assert view_report.tuples_modified == 1
        ((row, _count),) = registered.view.content()
        assert "some value" in row[-1]  # cont column refreshed
        assert registered.view.equals_fresh_evaluation(doc)

    def test_val_of_ancestor_refreshes(self):
        pattern = chain_pattern("a", annotate="ID")
        pattern.node("a#1").store_val = True
        doc, engine, registered = engine_with("<r><a>x</a></r>", pattern)
        engine.apply_update(InsertUpdate("//a", "<t>y</t>"))
        ((row, _),) = registered.view.content()
        assert row[1] == "xy"
        assert registered.view.equals_fresh_evaluation(doc)

    def test_unrelated_insert_modifies_nothing(self):
        pattern = chain_pattern("a", annotate="ID")
        pattern.node("a#1").store_cont = True
        doc, engine, registered = engine_with("<r><a>x</a><z/></r>", pattern)
        report = engine.apply_update(InsertUpdate("//z", "<t>y</t>"))
        assert report.report_for("v").tuples_modified == 0
        assert registered.view.equals_fresh_evaluation(doc)


class TestPredicateFlip:
    def test_insert_flipping_sigma_predicate_repairs(self):
        # The terms cannot express an existing node newly satisfying
        # [val=xy]; the engine detects the flip and repairs the view in
        # place with bounded Δ± terms (engine note).
        pattern = chain_pattern("a", "b")
        pattern.node("a#1").value_pred = "xy"
        doc, engine, registered = engine_with("<r><a>x<b/></a></r>", pattern)
        assert len(registered.view) == 0
        report = engine.apply_update(InsertUpdate("//a", "<t>y</t>"))
        assert report.repairs["v"]
        assert report.fallbacks == {}
        assert len(registered.view) == 1
        assert registered.view.equals_fresh_evaluation(doc)
