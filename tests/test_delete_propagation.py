"""PDDT / ET-DEL / PDMT: deletion propagation (Section 4)."""

import pytest

from repro.maintenance.engine import MaintenanceEngine
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.updates.language import DeleteUpdate
from repro.xmldom.parser import parse_document
from tests.conftest import chain_pattern, v2_pattern


def engine_with(doc_text, pattern, **engine_kwargs):
    doc = parse_document(doc_text)
    engine = MaintenanceEngine(doc, **engine_kwargs)
    registered = engine.register_view(pattern, "v")
    return doc, engine, registered


class TestDeletedTuples:
    def test_example_4_1(self):
        # View //a//b on Figure 11's document; delete //c//b removes the
        # (a1, a1.c1.b1) tuple.
        doc, engine, registered = engine_with(
            "<a><c><b>hi</b></c><f><b>yo</b></f></a>", chain_pattern("a", "b")
        )
        assert len(registered.view) == 2
        report = engine.apply_update(DeleteUpdate("//c//b"))
        assert report.report_for("v").tuples_removed == 1
        remaining = [str(row[1]) for row in registered.view.rows()]
        assert remaining == ["a1.f2.b1"]
        assert registered.view.equals_fresh_evaluation(doc)

    def test_example_4_5_full_scenario(self, fig12_document):
        # v2 = //a[//c]//b over Figure 12; delete //a/f/c leaves the
        # tuples numbered 1, 2 and 4 in the paper's table.
        engine = MaintenanceEngine(fig12_document)
        registered = engine.register_view(v2_pattern(), "v")
        assert len(registered.view) == 8  # the 8 tuples of Figure 12's table
        engine.apply_update(DeleteUpdate("/a/f/c"))
        rows = {tuple(str(i) for i in row) for row in registered.view.rows()}
        assert rows == {
            ("a1", "a1.c1", "a1.c1.b1"),
            ("a1", "a1.c1", "a1.c1.b2"),
            ("a1", "a1.c1", "a1.f2.b2"),
        }
        assert registered.view.equals_fresh_evaluation(fig12_document)

    def test_example_4_8_derivation_counts(self):
        # //a{ID}[//b] over Figure 11's document: count 2 -> 1 -> gone.
        a = PatternNode("a", axis="desc", store_id=True)
        a.add_child(PatternNode("b", axis="desc"))
        doc, engine, registered = engine_with(
            "<a><c><b>hi</b></c><f><b>yo</b></f></a>", Pattern(a)
        )
        row = registered.view.rows()[0]
        assert registered.view.count(row) == 2
        engine.apply_update(DeleteUpdate("//c//b"))
        assert registered.view.count(row) == 1
        assert registered.view.equals_fresh_evaluation(doc)
        engine.apply_update(DeleteUpdate("//f//b"))
        assert len(registered.view) == 0
        assert registered.view.equals_fresh_evaluation(doc)

    def test_delete_everything(self, fig12_document):
        engine = MaintenanceEngine(fig12_document)
        registered = engine.register_view(v2_pattern(), "v")
        engine.apply_update(DeleteUpdate("/a"))
        assert len(registered.view) == 0
        assert registered.view.equals_fresh_evaluation(fig12_document)

    def test_unaffected_delete(self, fig12_document):
        engine = MaintenanceEngine(fig12_document)
        registered = engine.register_view(chain_pattern("c", "b"), "v")
        before = registered.view.content()
        report = engine.apply_update(DeleteUpdate("//q"))
        assert report.pul_size == 0
        assert registered.view.content() == before

    def test_exact_counts_with_even_terms_developed(self, fig12_document):
        # prune_even_terms=False develops the add-back terms; the
        # binding-set evaluation must still decrement exactly once.
        engine = MaintenanceEngine(fig12_document, prune_even_terms=False)
        registered = engine.register_view(v2_pattern(), "v")
        engine.apply_update(DeleteUpdate("//f//b"))
        assert registered.view.equals_fresh_evaluation(fig12_document)

    def test_delete_with_id_pruning_disabled(self, fig12_document):
        engine = MaintenanceEngine(fig12_document, use_id_pruning=False)
        registered = engine.register_view(v2_pattern(), "v")
        engine.apply_update(DeleteUpdate("//f"))
        assert registered.view.equals_fresh_evaluation(fig12_document)


class TestModifiedTuples:
    def test_pdmt_refreshes_ancestor_content(self):
        pattern = chain_pattern("a", annotate="ID")
        pattern.node("a#1").store_val = True
        pattern.node("a#1").store_cont = True
        doc, engine, registered = engine_with("<r><a>x<t>y</t></a></r>", pattern)
        ((row, _),) = registered.view.content()
        assert row[1] == "xy"
        report = engine.apply_update(DeleteUpdate("//t"))
        assert report.report_for("v").tuples_modified == 1
        ((row, _),) = registered.view.content()
        assert row[1] == "x"
        assert "<t>" not in row[2]
        assert registered.view.equals_fresh_evaluation(doc)

    def test_surviving_tuples_never_store_deleted_ids(self, fig12_document):
        engine = MaintenanceEngine(fig12_document)
        registered = engine.register_view(v2_pattern(), "v")
        f = fig12_document.nodes_with_label("f")[0]
        doomed = {n.id for n in f.self_and_descendants()}
        engine.apply_update(DeleteUpdate("//f"))
        for row in registered.view.rows():
            assert not any(cell in doomed for cell in row)

    def test_delete_flipping_predicate_repairs_in_place(self):
        # Removing a text-bearing child may make a σ node newly satisfy
        # its predicate -- detected and repaired in place, no recompute.
        pattern = chain_pattern("a", "b")
        pattern.node("a#1").value_pred = "x"
        doc, engine, registered = engine_with("<r><a>x<t>y</t><b/></a></r>", pattern)
        assert len(registered.view) == 0
        report = engine.apply_update(DeleteUpdate("//t"))
        assert report.repairs["v"]
        assert report.fallbacks == {}
        assert len(registered.view) == 1
        assert registered.view.equals_fresh_evaluation(doc)
