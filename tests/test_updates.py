"""The update language, PUL computation and application (Section 2.3)."""

import pickle
import sys

import pytest

from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateBatch,
    parse_update,
)
from repro.updates.pul import BatchApplication, apply_pul, compute_pul
from repro.xmldom.parser import parse_document, parse_fragment
from repro.xmldom.serializer import serialize_fragment


class TestParsing:
    def test_delete_statement(self):
        update = parse_update("delete //a/b")
        assert isinstance(update, DeleteUpdate)
        assert repr(update.target) == "//a/b"

    def test_insert_into(self):
        update = parse_update("insert <x>1</x> into /site/people")
        assert isinstance(update, InsertUpdate)
        assert update.forest[0].label == "x"

    def test_for_insert(self):
        update = parse_update("for $p in /site/people/person insert <name>n</name>")
        assert isinstance(update, InsertUpdate)
        assert repr(update.target) == "/site/people/person"

    def test_let_for_insert_appendix_style(self):
        update = parse_update(
            'let $c := doc("auction.xml")\n'
            "for $person in $c/site/people/person\n"
            "insert <name>Martin<name>and</name></name>"
        )
        assert isinstance(update, InsertUpdate)
        assert repr(update.target) == "/site/people/person"
        assert len(update.forest) == 1

    def test_for_delete_with_variable(self):
        update = parse_update("for $p in //person delete $p/name")
        assert isinstance(update, DeleteUpdate)
        assert repr(update.target) == "//person/name"

    def test_insert_forest(self):
        update = parse_update("insert <a/><b/> into //x")
        assert [t.label for t in update.forest] == ["a", "b"]

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            InsertUpdate("//x", "   ")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_update("replace //a with <b/>")

    def test_fragment_xml_roundtrip(self):
        update = parse_update("insert <a><b/></a> into //x")
        assert update.fragment_xml() == "<a><b/></a>"


class TestComputePul:
    def test_insert_targets(self, people_document):
        update = InsertUpdate("//person[homepage]", "<tag/>")
        pul = compute_pul(people_document, update)
        assert len(pul) == 2
        assert all(op.kind == "insert" for op in pul)

    def test_delete_prunes_nested_targets(self, fig2_document):
        # //a//b and //c: c contains one of the b's; deleting c subsumes it.
        update = DeleteUpdate("//*")
        pul = compute_pul(fig2_document, update)
        targets = [str(op.target.id) for op in pul.deletes()]
        assert targets == ["a1.c1", "a1.f2"]

    def test_delete_root_means_empty_it(self, fig2_document):
        pul = compute_pul(fig2_document, DeleteUpdate("/a"))
        targets = [str(op.target.id) for op in pul.deletes()]
        assert targets == ["a1.c1", "a1.f2"]

    def test_resolved_statements(self, people_document):
        person = people_document.nodes_with_label("person")[0]
        pul = compute_pul(people_document, ResolvedDeleteUpdate([person.id]))
        assert len(pul) == 1
        pul = compute_pul(
            people_document,
            ResolvedInsertUpdate([person.id], InsertUpdate("//x", "<t/>").forest),
        )
        assert len(pul) == 1

    def test_resolved_skips_missing_ids(self, people_document):
        person = people_document.nodes_with_label("person")[0]
        people_document.delete_subtree(person)
        pul = compute_pul(people_document, ResolvedDeleteUpdate([person.id]))
        assert len(pul) == 0

    def test_insert_into_non_element_rejected(self, people_document):
        update = InsertUpdate("//person/@id", "<t/>")
        with pytest.raises(ValueError):
            compute_pul(people_document, update)


class TestApplyPul:
    def test_insert_applies_copies_with_ids(self, people_document):
        update = InsertUpdate("//person", "<tag><sub/></tag>")
        pul = compute_pul(people_document, update)
        applied = apply_pul(people_document, pul)
        assert len(applied.inserted_roots) == 3
        for root in applied.inserted_roots:
            assert root.id.label == "tag"
            assert root.parent.label == "person"

    def test_delete_returns_all_removed(self, fig2_document):
        pul = compute_pul(fig2_document, DeleteUpdate("//f"))
        applied = apply_pul(fig2_document, pul)
        assert {n.label for n in applied.removed_nodes} == {"f", "b", "#text"}

    def test_delete_root_children(self, fig2_document):
        pul = compute_pul(fig2_document, DeleteUpdate("/a"))
        apply_pul(fig2_document, pul)
        assert fig2_document.root.children == []

    def test_multiple_trees_per_target(self, people_document):
        update = InsertUpdate("//person[homepage]", "<x/><y/>")
        pul = compute_pul(people_document, update)
        applied = apply_pul(people_document, pul)
        assert len(applied.inserted_roots) == 4  # 2 targets x 2 trees


def test_statements_pickle_with_flat_forests(fig2_document):
    # Every statement kind, text and attribute children, unresolved path
    # targets and an I5-merged forest: the pickle ships no node objects,
    # and the unpickled statements apply like the originals.
    copy = parse_document(serialize_fragment(fig2_document.root))
    f, b = fig2_document.nodes_with_label("f")[0], fig2_document.nodes_with_label("b")[1]
    statements = UpdateBatch([
        InsertUpdate("/a/c", '<d k="1&amp;">t<e/>u<g/></d>'),
        InsertUpdate("/a/c", "v<h/>"),
        ResolvedInsertUpdate([f.id], '<b j="2">w</b>'),
        DeleteUpdate("//c/b"),
        ResolvedDeleteUpdate([b.id]),
    ]).coalesced().statements
    assert len(statements) == 4 and len(statements[0].forest) == 3  # I5
    blob = pickle.dumps(statements, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"ElementNode" not in blob and b"TextNode" not in blob
    clones = pickle.loads(blob)
    assert [type(s) for s in clones] == [type(s) for s in statements]
    assert [s.fragment_xml() for s in clones[:2]] == [
        s.fragment_xml() for s in statements[:2]
    ]
    BatchApplication(fig2_document, statements).apply()
    BatchApplication(copy, clones).apply()
    assert serialize_fragment(copy.root) == serialize_fragment(fig2_document.root)


class TestFlatForests:
    """An insert statement stores its forest as one flat preorder tuple;
    the batch path never turns it back into nodes."""

    XML = '<d k="1&amp;">t<e/>u<g><h>v</h></g></d>w<x j="2"/>'

    def test_every_construction_gives_the_same_tuple(self):
        from_text = InsertUpdate("/a", self.XML)
        from_nodes = InsertUpdate("/a", parse_fragment(self.XML))
        from_tuple = ResolvedInsertUpdate([None], from_text.flat)
        assert from_text.flat == from_nodes.flat
        assert from_tuple.flat is from_text.flat
        assert from_tuple.fragment_xml() == self.XML
        forest = from_text.forest
        assert set(from_text.flat[0::2]) == {
            node.label for tree in forest for node in tree.self_and_descendants()
        }
        # The derived forest is rebuilt on each read: editing it leaves
        # the statement alone.
        forest[0].children.clear()
        assert from_text.fragment_xml() == self.XML

    def test_i5_merge_concatenates_tuples(self):
        first = InsertUpdate("/a", self.XML)
        second = InsertUpdate("/a", "<y>z</y>")
        (merged,) = UpdateBatch([first, second]).coalesced().statements
        assert merged.flat == first.flat + second.flat

    def test_the_batch_path_builds_no_node_forest(self, tmp_path, monkeypatch):
        # A pre-built insert-bearing batch, applied serially, through a
        # durable engine (WAL write) and by recovery replay, with every
        # binding of the node builders in the package made to raise.
        from repro.maintenance.engine import MaintenanceEngine
        from repro.storage.recovery import reopen
        from repro.workloads.queries import view_pattern
        from repro.workloads.updates import statement_stream
        from repro.workloads.xmark import generate_document

        views = {name: view_pattern(name) for name in ("Q1", "Q2")}
        serial_doc, durable_doc, base_doc = (generate_document(scale=1) for _ in range(3))
        statements = statement_stream(serial_doc, 16, seed=3, insert_ratio=0.75)
        statements.insert(1, InsertUpdate("/site/people", "<person><name>n</name></person>"))
        batch = UpdateBatch(statements)
        path = str(tmp_path / "engine.db")
        serial = MaintenanceEngine(serial_doc)
        durable = MaintenanceEngine(durable_doc, backend=path)
        for name, pattern in views.items():
            serial.register_view(pattern, name)
            durable.register_view(pattern, name)

        def refuse(*args, **kwargs):
            raise AssertionError("a node forest was built on the batch path")

        for module_name, module in list(sys.modules.items()):
            if module_name == "repro" or module_name.startswith("repro."):
                for attr in ("build_forest", "parse_fragment"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        assert serial.apply_batch(batch).statements_applied
        durable.apply_batch(batch)
        recovered, report = reopen(path, base_doc, views)
        monkeypatch.undo()
        assert report.replayed_batches == 1
        for engine in (durable, recovered):
            assert serialize_fragment(engine.document.root) == serialize_fragment(
                serial_doc.root
            )
            for name in views:
                assert engine.views[name].view.content() == serial.views[name].view.content()
        recovered.backend.close()
        durable.backend.close()
