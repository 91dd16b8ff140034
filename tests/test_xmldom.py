"""Document model: trees, canonical relations, updates (Section 2.1)."""

import gc
import random

import pytest

from harness import four_walk
from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
)
from repro.updates.pul import BatchApplication
from repro.xmldom.model import (
    AttributeNode,
    ElementNode,
    TextNode,
    build_document,
    deep_copy,
)
from repro.xmldom.parser import parse_document, parse_fragment
from repro.xmldom.serializer import serialize_fragment


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


_ONE_WALK_XML = (
    '<site><people><person id="p0"><name>Ann</name><b>x</b></person>'
    '<person id="p1"><name>Bob</name></person></people>'
    '<items><item n="1">a<b>x</b>c</item><item n="2"><b>y</b>z</item></items></site>'
)
_ONE_WALK_FRAGMENTS = (
    '<person id="q"><name>Cy</name><b>x</b></person>',
    "<b>x</b>",
    '<item n="3"><b>y</b>tail<name>x</name></item>',
    "loose text",
    "<e/>",
)


class TestOneWalk:
    """The one-walk insert and delete (``Document.insert_forest``, the delete
    walk, ``BatchApplication.net_inserted_nodes`` as a record filter)
    against the four-walk oracle in ``tests/harness/four_walk.py``, on
    seeded random batch streams: after every step both documents hold
    the same tree, IDs, ``_by_id``, label rows and value buckets, and
    both batches the same Δ+ and removed nodes."""

    def test_matches_the_four_walk_oracle(self):
        nudges = unfiltered = cancelled = 0
        for seed in range(3):
            rng = random.Random(seed)
            new = build_document(parse_fragment(_ONE_WALK_XML)[0])
            old = four_walk.FourWalkDocument(parse_fragment(_ONE_WALK_XML)[0])
            for document in (new, old):
                # Live value-index entries: one label, and the wildcard.
                document.keyed_value("b", "x")
                document.keyed_value("*", "x")
            self._assert_same(new, old)
            for batch in range(12):
                nudges += self._move_back(rng, new, old)
                self._assert_same(new, old)
                statements = self._batch(rng, new, batch, deletes=batch % 3 != 0)
                ours = BatchApplication(new, statements).apply()
                theirs = BatchApplication(old, statements).apply()
                self._assert_same(new, old)
                net = sorted(n.id.sort_key for n in ours.net_inserted_nodes())
                assert len(set(net)) == len(net)
                assert net == sorted(
                    n.id.sort_key for n in four_walk.net_inserted_nodes(theirs)
                )
                # The oracle sorts each delete's nodes by key; the walk
                # lists them in preorder: the same order.
                for mine, oracle in zip(ours.applied, theirs.applied):
                    assert [n.id.sort_key for n in mine.removed_nodes] == [
                        n.id.sort_key for n in oracle.removed_nodes
                    ]
                unfiltered += not ours.removed_records and bool(net)
                cancelled += ours.cancelled_count()
        assert nudges >= 30 and unfiltered == 12 and cancelled >= 50

    @staticmethod
    def _move_back(rng, new, old):
        """Delete a child at position 0 or mid-list and insert a copy of
        it at the same position on both documents; returns 1 when the
        fresh ordinal first hit the retired ID (the nudge)."""
        parents = [e for e in new.all_elements() if len(e.children) >= 3]
        parent = rng.choice(parents)
        position = rng.choice((0, len(parent.children) // 2))
        gone = new.delete_subtree(parent.children[position])[0]
        twin = old.node_by_id(parent.id)
        old_gone = old.delete_subtree(twin.children[position])[0]
        fresh = new._sibling_ordinal(parent, position)
        nudged = parent.id.child(gone.label, fresh) in new._retired_ids
        new.insert_subtree(parent, gone, position)
        old.insert_subtree(twin, old_gone, position)
        return int(nudged)

    @staticmethod
    def _batch(rng, document, batch, deletes):
        """A statement stream: a fresh subtree, an insert under it (same
        batch), random inserts, and -- unless ``deletes`` is false -- a
        delete inside the fresh subtree plus random pre-batch deletes."""
        label = "n%d" % batch
        elements = list(document.all_elements())
        statements = [
            ResolvedInsertUpdate(
                [rng.choice(elements).id],
                '<%s k="v">t<q>u</q><q/></%s>' % (label, label),
            ),
            InsertUpdate("//%s" % label, rng.choice(_ONE_WALK_FRAGMENTS)),
        ]
        for _ in range(rng.randint(1, 3)):
            statements.append(
                ResolvedInsertUpdate(
                    [rng.choice(elements).id], rng.choice(_ONE_WALK_FRAGMENTS)
                )
            )
        if deletes:
            statements.append(DeleteUpdate("//%s/q" % label))
            nodes = [n for n in document.root.descendants()]
            for _ in range(rng.randint(1, 2)):
                statements.append(ResolvedDeleteUpdate([rng.choice(nodes).id]))
                statements.append(
                    ResolvedInsertUpdate(
                        [rng.choice(elements).id], rng.choice(_ONE_WALK_FRAGMENTS)
                    )
                )
        return statements

    @staticmethod
    def _assert_same(new, old):
        assert serialize_fragment(new.root) == serialize_fragment(old.root)
        live = list(new.root.self_and_descendants())
        assert [(n.label, n.id.sort_key) for n in live] == [
            (n.label, n.id.sort_key) for n in old.root.self_and_descendants()
        ]
        for document in (new, old):
            nodes = list(document.root.self_and_descendants())
            assert len(document._by_id) == len(nodes)
            assert all(document.node_by_id(n.id) is n for n in nodes)
        assert sorted(new.labels()) == sorted(old.labels())
        for label in new.labels():
            mine, oracle = new.keyed_label(label), old.keyed_label(label)
            assert mine.keys == oracle.keys, label
            # Each row is the sorted rebuild of the live tree.
            row = sorted(
                (n for n in live if n.label == label), key=lambda n: n.id.sort_key
            )
            assert mine.nodes == row, label
            assert mine.keys == [n.id.sort_key for n in row], label
        for label in ("b", "*"):
            buckets = []
            for document in (new, old):
                document.keyed_value(label, "x")  # flush the dirty set
                entry = document._values._entries[label]
                assert {
                    value: [n.id.sort_key for n in nodes]
                    for value, nodes in entry._nodes.items()
                } == entry._keys, label
                buckets.append(entry._keys)
            assert buckets[0] == buckets[1], label
