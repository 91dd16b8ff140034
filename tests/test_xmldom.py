"""Document model: trees, canonical relations, updates (Section 2.1)."""

import gc

import pytest

from repro.xmldom.model import (
    AttributeNode,
    ElementNode,
    TextNode,
    build_document,
    deep_copy,
)
from repro.xmldom.parser import parse_document, parse_fragment


class TestConstruction:
    def test_ids_assigned_in_document_order(self, fig2_document):
        ids = [str(n.id) for n in fig2_document.root.self_and_descendants()
               if n.kind == "element"]
        assert ids == ["a1", "a1.c1", "a1.c1.b1", "a1.f2", "a1.f2.b1"]

    def test_label_index_is_document_ordered(self, fig2_document):
        bs = fig2_document.nodes_with_label("b")
        assert [str(n.id) for n in bs] == ["a1.c1.b1", "a1.f2.b1"]

    def test_node_by_id(self, fig2_document):
        b = fig2_document.nodes_with_label("b")[0]
        assert fig2_document.node_by_id(b.id) is b

    def test_attribute_modeled_as_child(self):
        doc = parse_document('<a id="7"><b/></a>')
        attr = doc.nodes_with_label("@id")[0]
        assert attr.kind == "attribute"
        assert attr.val == "7"
        assert attr.parent is doc.root
        assert doc.root.attribute("id") is attr

    def test_numbering_restores_the_collector_setting(self):
        # Bulk numbering pauses automatic collection; whatever the
        # caller had set must hold again afterwards.
        before = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                doc = parse_document("<a><b/><c>t</c></a>")
                assert gc.isenabled() is enabled
                assert [str(n.id) for n in doc.nodes_with_label("c")] == ["a1.c2"]
        finally:
            (gc.enable if before else gc.disable)()

    def test_append_rejects_attached_node(self):
        parent = ElementNode("a")
        child = ElementNode("b")
        parent.append(child)
        with pytest.raises(ValueError):
            ElementNode("c").append(child)


class TestStoredAttributes:
    def test_val_concatenates_text_descendants(self):
        doc = parse_document("<a>x<b>y</b>z</a>")
        assert doc.root.val == "xyz"

    def test_text_node_val(self):
        doc = parse_document("<a>hello</a>")
        text = doc.nodes_with_label("#text")[0]
        assert text.val == "hello"

    def test_cont_is_serialized_subtree(self, fig2_document):
        c = fig2_document.nodes_with_label("c")[0]
        assert c.cont == "<c><b>hi</b></c>"

    def test_detached_node_has_no_id(self):
        node = ElementNode("a")
        with pytest.raises(ValueError):
            _ = node.id


class TestUpdates:
    def test_insert_assigns_fresh_ids(self, fig2_document):
        target = fig2_document.nodes_with_label("c")[0]
        tree = parse_fragment("<b><d/></b>")[0]
        new_root = fig2_document.insert_subtree(target, tree)
        assert new_root.id.parent() == target.id
        d = fig2_document.nodes_with_label("d")[0]
        assert new_root.id.is_parent_of(d.id)

    def test_insert_is_a_copy(self, fig2_document):
        target = fig2_document.nodes_with_label("c")[0]
        tree = parse_fragment("<x/>")[0]
        new_root = fig2_document.insert_subtree(target, tree)
        assert new_root is not tree
        assert tree.parent is None

    def test_insert_after_last_child_keeps_order(self, fig2_document):
        target = fig2_document.root
        fig2_document.insert_subtree(target, parse_fragment("<z/>")[0])
        labels = [child.label for child in target.children]
        assert labels == ["c", "f", "z"]
        ids = [child.id for child in target.children]
        assert ids == sorted(ids)

    def test_insert_between_siblings_no_relabel(self, fig2_document):
        target = fig2_document.root
        old_ids = [child.id for child in target.children]
        fig2_document.insert_subtree(target, parse_fragment("<m/>")[0], position=1)
        assert [target.children[0].id, target.children[2].id] == old_ids
        assert target.children[0].id < target.children[1].id < target.children[2].id

    def test_insert_updates_index(self, fig2_document):
        target = fig2_document.nodes_with_label("f")[0]
        fig2_document.insert_subtree(target, parse_fragment("<b/>")[0])
        assert len(fig2_document.nodes_with_label("b")) == 3

    def test_delete_removes_subtree_from_index(self, fig2_document):
        f = fig2_document.nodes_with_label("f")[0]
        removed = fig2_document.delete_subtree(f)
        assert {n.label for n in removed} == {"f", "b", "#text"}
        assert len(fig2_document.nodes_with_label("b")) == 1
        assert fig2_document.node_by_id(f.id) is None

    def test_delete_root_rejected(self, fig2_document):
        with pytest.raises(ValueError):
            fig2_document.delete_subtree(fig2_document.root)

    def test_removed_nodes_keep_ids_and_content(self, fig2_document):
        f = fig2_document.nodes_with_label("f")[0]
        old_id = f.id
        fig2_document.delete_subtree(f)
        assert f.id == old_id
        assert f.cont == "<f><b>yo</b></f>"

    def test_deleted_ids_never_reissued(self, fig2_document):
        # Regression (found by hypothesis): deleting a parent's only
        # child and inserting a same-labeled node must NOT recycle the
        # dead ID -- stale references would silently re-bind.
        c = fig2_document.nodes_with_label("c")[0]
        old_b = c.children[0]
        old_id = old_b.id
        fig2_document.delete_subtree(old_b)
        new_b = fig2_document.insert_subtree(c, parse_fragment("<b/>")[0])
        assert new_b.id != old_id
        assert fig2_document.node_by_id(old_id) is None

    def test_retired_ids_respected_between_siblings(self, fig2_document):
        root = fig2_document.root
        middle = fig2_document.insert_subtree(root, parse_fragment("<m/>")[0], position=1)
        middle_id = middle.id
        fig2_document.delete_subtree(middle)
        replacement = fig2_document.insert_subtree(
            root, parse_fragment("<m/>")[0], position=1
        )
        assert replacement.id != middle_id
        ids = [child.id for child in root.children]
        assert ids == sorted(ids)

    def test_only_deleted_roots_are_retired(self, fig2_document):
        # Descendants of a deleted root have deleted parents, so no
        # insert can reissue their IDs: only the root needs retiring.
        root = fig2_document.root
        c, f = root.children
        c_id = c.id
        fig2_document.delete_subtree(c)
        fig2_document.delete_subtree(f)
        assert len(fig2_document._retired_ids) == 2
        again = fig2_document.insert_subtree(root, parse_fragment("<c/>")[0], position=0)
        assert again.id != c_id
        assert fig2_document.node_by_id(c_id) is None

    def test_snapshot_label_immune_to_updates(self, fig2_document):
        snapshot = fig2_document.snapshot_label("b")
        fig2_document.delete_subtree(fig2_document.nodes_with_label("f")[0])
        assert len(snapshot) == 2


class TestDeepCopy:
    def test_structure_copied(self):
        original = parse_fragment('<a id="1"><b>t</b></a>')[0]
        clone = deep_copy(original)
        assert clone is not original
        assert clone.label == "a"
        assert isinstance(clone.children[0], AttributeNode)
        assert isinstance(clone.children[1].children[0], TextNode)

    def test_copy_is_detached(self):
        doc = parse_document("<a><b/></a>")
        clone = deep_copy(doc.root)
        assert clone.parent is None
        assert clone.dewey is None
