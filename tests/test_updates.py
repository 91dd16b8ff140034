"""The update language, PUL computation and application (Section 2.3)."""

import pickle

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
from repro.xmldom.parser import parse_document
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
