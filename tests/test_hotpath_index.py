"""Unit tests for the hot-path indexing layer (repro.xmldom.index).

The invariants under test:

* LabelIndex rows and their parallel key lists stay equal to a sorted
  rebuild under interleaved add_runs/remove_runs on fake nodes (on
  documents, tests/test_xmldom.py::TestOneWalk checks the same); under
  random document updates every label's blocks equal a preorder scan,
  hold at most 2·BLOCK entries and answer find/below as the scan does;
  a subtree edits only its own labels' rows, in place, and a run whose
  ends are not indexed raises, also across blocks;
* an Overlay (the batch sources) finds, slices and iterates as the
  filter-and-re-sort reference scan of the same cuts and merges;
* ValueIndex lookups (Document.nodes_with_value) always equal the
  brute-force σ-constant scan, across inserts, deletes and text-driven
  val changes;
* element val/cont memoization is invalidated precisely along the
  ancestor chain of every subtree change, and the composed cont is
  byte-identical to serialize_fragment with caches partly warm;
* OrderedTupleStore.items() scans lazily while snapshot() is immune to
  subsequent mutation.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.xmldom.index as index_module
from harness.four_walk import add_subtree, remove_subtree
from harness.reference_scans import scan_spliced
from repro.views.store import OrderedTupleStore
from repro.xmldom.index import LabelIndex, Overlay
from repro.xmldom.model import (
    ElementNode,
    TextNode,
    build_document,
    fresh_val,
)
from repro.xmldom.parser import parse_document
from repro.xmldom.serializer import serialize_fragment


class _FakeID:
    """The one thing LabelIndex reads off an ID: its C-comparable key."""

    __slots__ = ("sort_key",)

    def __init__(self, key):
        self.sort_key = key


class _FakeNode:
    __slots__ = ("label", "id")

    def __init__(self, label, key):
        self.label = label
        self.id = _FakeID(key)


def _assert_rows_are_sorted_rebuild(keyed_label, live_nodes, labels):
    """Every label's node list equals a sorted rebuild of the live
    nodes, and its key list stays parallel to it."""
    for label in labels:
        expected = sorted(
            (n for n in live_nodes if n.label == label), key=lambda n: n.id.sort_key
        )
        keyed = keyed_label(label)
        assert keyed.nodes == expected, label
        assert keyed.keys == [n.id.sort_key for n in expected], label


def _fake_subtree(rng, prefix):
    """A subtree's nodes in document order: one fresh key prefix (no
    other subtree's keys fall between them), labels repeating."""
    return [_FakeNode(rng.choice("abc"), (prefix, i)) for i in range(rng.randint(1, 6))]


@contextmanager
def _blocks_of(size):
    """Run with ``BLOCK = size``, so small rows already span blocks."""
    saved = index_module.BLOCK
    index_module.BLOCK = size
    try:
        yield
    finally:
        index_module.BLOCK = saved


_BLOCK_FRAGMENTS = ("<a>x</a>", "<b/>", "<a><b>y</b><a/></a>", "<c><a/><b/>z</c>")


def _random_block_document(rng):
    """A small document, then a few random inserts and deletes; returns
    it with the nodes the deletes detached."""
    document = parse_document(
        "<r>" + "".join(rng.choice(_BLOCK_FRAGMENTS) for _ in range(rng.randint(2, 8))) + "</r>"
    )
    removed = []
    for _ in range(rng.randint(4, 16)):
        elements = [n for n in document.root.self_and_descendants() if n.kind == "element"]
        if rng.random() < 0.4 and len(elements) > 1:
            removed.extend(document.delete_subtree(rng.choice(elements[1:])))
        else:
            fragment = parse_document(rng.choice(_BLOCK_FRAGMENTS)).root
            document.insert_subtree(rng.choice(elements), fragment)
    return document, removed


def _below_scan(rows, context):
    return [n for n in rows if context.id.is_ancestor_of(n.id)]


class TestLabelIndex:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), block=st.sampled_from([1, 2, 3]))
    def test_blocks_equal_a_preorder_scan(self, seed, block):
        rng = random.Random(seed)
        with _blocks_of(block):
            document, removed = _random_block_document(rng)
        scan = {}
        for node in document.root.self_and_descendants():
            scan.setdefault(node.label, []).append(node)
        assert sorted(document.labels()) == sorted(scan)
        contexts = [n for n in document.root.self_and_descendants() if n.kind == "element"]
        for label, expected in scan.items():
            rows = document.nodes_with_label(label)
            assert all(0 < len(nodes) <= 2 * block for nodes in rows.node_blocks), label
            assert [n for nodes in rows.node_blocks for n in nodes] == expected, label
            assert [k for keys in rows.key_blocks for k in keys] == [
                n.id.sort_key for n in expected
            ], label
            assert rows.firsts == [keys[0] for keys in rows.key_blocks], label
            assert len(rows) == len(expected) and list(rows) == expected, label
            for node in expected:
                assert rows.find(node.id.sort_key) is node
            for gone in removed:
                assert rows.find(gone.id.sort_key) is None
            for context in rng.sample(contexts, min(6, len(contexts))) + removed[:2]:
                assert rows.below(context.id) == _below_scan(expected, context), label

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), block=st.sampled_from([1, 2, 3]))
    def test_overlay_equals_scan_spliced(self, seed, block):
        """Random cuts and merges -- among them the first and last row
        of blocks, and a removed run that began a block -- give an
        overlay that finds, slices and iterates as ``scan_spliced``."""
        rng = random.Random(seed)
        with _blocks_of(block):
            document, removed = _random_block_document(rng)
            a_blocks = document.nodes_with_label("a").node_blocks
            if len(a_blocks) > 1:
                # Detach a run that began a block: merged back, it
                # lands on the boundary between two blocks.
                removed.extend(document.delete_subtree(rng.choice(a_blocks[1:])[0]))
        contexts = [n for n in document.root.self_and_descendants() if n.kind == "element"]
        contexts += [n for n in removed if n.kind == "element"]
        for label in sorted(set(document.labels()) | {n.label for n in removed}):
            rows = document.nodes_with_label(label)
            live = list(rows)
            boundaries = [nodes[0] for nodes in rows.node_blocks]
            boundaries += [nodes[-1] for nodes in rows.node_blocks]
            cut = set(rng.sample(live, rng.randint(0, len(live))))
            cut |= set(rng.sample(boundaries, rng.randint(0, len(boundaries))))
            merged = [n for n in removed if n.label == label and rng.random() < 0.7]
            merged.sort(key=lambda n: n.id.sort_key)
            cut_keys = [n.id.sort_key for n in cut] + [b"\x00absent"]
            overlay = Overlay(rows, cut_keys, merged)
            expected = scan_spliced(rows, {n.id for n in cut}, merged)
            assert list(overlay) == overlay.nodes == expected, label
            assert overlay.keys == [n.id.sort_key for n in expected], label
            for node in live + merged:
                assert overlay.find(node.id.sort_key) is (None if node in cut else node)
            for context in contexts:
                assert overlay.below(context.id) == _below_scan(expected, context), label

    def test_remove_raises_on_a_mismatched_run_across_blocks(self):
        with _blocks_of(2):
            index = LabelIndex()
            nodes = [_FakeNode("a", (1, i)) for i in range(12)]
            add_subtree(index, nodes)
            rows = index.nodes("a")
            assert [len(block) for block in rows.node_blocks] == [2] * 6
            with pytest.raises(LookupError):  # far end differs, three blocks on
                remove_subtree(index, nodes[1:6] + [_FakeNode("a", (1, 6))])
            with pytest.raises(LookupError):  # runs past the last block
                remove_subtree(index, nodes[5:] + [_FakeNode("a", (1, 12))])
            assert list(rows) == nodes  # nothing was removed
            remove_subtree(index, nodes[1:7])
            assert list(index.nodes("a")) == nodes[:1] + nodes[7:]
            assert all(0 < len(block) <= 4 for block in rows.node_blocks)

    def test_random_add_remove_matches_sorted_rebuild(self):
        rng = random.Random(7)
        index = LabelIndex()
        live = []
        for step in range(300):
            if live and rng.random() < 0.4:
                remove_subtree(index, live.pop(rng.randrange(len(live))))
            else:
                subtree = _fake_subtree(rng, (rng.random(), step))
                live.append(subtree)
                add_subtree(index, subtree)
            _assert_rows_are_sorted_rebuild(
                index.keyed, [n for subtree in live for n in subtree], "abc"
            )

    def test_remove_subtree_raises_on_mismatched_run(self):
        index = LabelIndex()
        first, second = _FakeNode("a", (1, 0)), _FakeNode("a", (1, 1))
        add_subtree(index, [first, second])
        with pytest.raises(LookupError):
            remove_subtree(index, [_FakeNode("a", (1, 0))])  # same key, other node
        with pytest.raises(LookupError):
            remove_subtree(index, [first, _FakeNode("a", (1, 1))])  # far end differs
        with pytest.raises(LookupError):
            remove_subtree(index, [first, second, _FakeNode("a", (1, 2))])  # too long
        with pytest.raises(LookupError):
            remove_subtree(index, [_FakeNode("z", (1, 0))])  # label never indexed
        assert list(index.nodes("a")) == [first, second]

    def test_add_subtree_splices_only_its_labels(self):
        index = LabelIndex()
        add_subtree(index, [_FakeNode("a", (2, 0)), _FakeNode("b", (2, 1)), _FakeNode("a", (2, 2))])
        row_a, row_b = index.nodes("a"), index.nodes("b")
        b_blocks = list(row_b.node_blocks)
        b_nodes = [list(block) for block in b_blocks]
        add_subtree(index, [_FakeNode("a", (1, 0)), _FakeNode("a", (1, 1))])
        assert [n.id.sort_key for n in index.nodes("a")] == [(1, 0), (1, 1), (2, 0), (2, 2)]
        # Rows are edited in place (the rows handed out stay live);
        # the 'b' row was not touched at all: the same blocks, the
        # same entries.
        assert index.nodes("a") is row_a
        assert index.nodes("b") is row_b and len(row_b) == 1
        assert len(row_b.node_blocks) == len(b_blocks)
        assert all(mine is kept for mine, kept in zip(row_b.node_blocks, b_blocks))
        assert [list(block) for block in row_b.node_blocks] == b_nodes

    def test_copy_label_is_detached(self):
        index = LabelIndex()
        node = _FakeNode("a", 1)
        add_subtree(index, [node])
        copied = index.copy_label("a")
        remove_subtree(index, [node])
        assert copied == [node]
        assert list(index.nodes("a")) == [] and "a" not in set(index.labels())


def _brute_force_sigma(document, label, constant):
    return [n for n in document.nodes_with_label(label) if fresh_val(n) == constant]


class TestValueIndex:
    def test_lookup_equals_scan_and_tracks_updates(self):
        doc = parse_document("<r><a>x</a><a>y</a><b><a>x</a></b></r>")
        assert doc.nodes_with_value("a", "x") == _brute_force_sigma(doc, "a", "x")
        # Insert another matching subtree: the index must see it.
        b = doc.nodes_with_label("b")[0]
        doc.insert_subtree(b, parse_document("<a>x</a>").root)
        assert doc.nodes_with_value("a", "x") == _brute_force_sigma(doc, "a", "x")
        # Delete one: gone from the index.
        doc.delete_subtree(doc.nodes_with_label("a")[0])
        assert doc.nodes_with_value("a", "x") == _brute_force_sigma(doc, "a", "x")

    def test_text_insert_rebuckets_ancestors(self):
        doc = parse_document("<r><a>x</a></r>")
        a = doc.nodes_with_label("a")[0]
        assert [n.id for n in doc.nodes_with_value("a", "x")] == [a.id]
        # Appending text under <a> flips its val from "x" to "xy".
        doc.insert_subtree(a, parse_document("<w>y</w>").root.children[0])
        assert doc.nodes_with_value("a", "x") == []
        assert [n.id for n in doc.nodes_with_value("a", "xy")] == [a.id]

    def test_empty_string_values_are_indexed(self):
        doc = parse_document("<r><a/><a>x</a></r>")
        empties = doc.nodes_with_value("a", "")
        assert [fresh_val(n) for n in empties] == [""]

    def test_lookup_results_are_document_ordered_copies(self):
        doc = parse_document("<r><a>x</a><a>x</a><a>x</a></r>")
        first = doc.nodes_with_value("a", "x")
        assert first == sorted(first, key=lambda n: n.id)
        first.clear()  # mutating the returned list must not corrupt the index
        assert len(doc.nodes_with_value("a", "x")) == 3

    def test_random_update_sequences(self):
        rng = random.Random(20110322)
        doc = parse_document(
            "<r>" + "".join("<a>%s</a>" % rng.choice("xy") for _ in range(8)) + "</r>"
        )
        for step in range(60):
            labels = list(doc.labels())
            if rng.random() < 0.5:
                candidates = [
                    n
                    for n in doc.root.self_and_descendants()
                    if n is not doc.root and n.kind == "element"
                ]
                if candidates:
                    doc.delete_subtree(rng.choice(candidates))
            else:
                parents = [
                    n
                    for n in doc.root.self_and_descendants()
                    if n.kind == "element"
                ]
                snippet = "<a>%s</a>" % rng.choice(("x", "y", "", "<a>x</a>"))
                doc.insert_subtree(rng.choice(parents), parse_document(snippet).root)
            for constant in ("x", "y", "xx", ""):
                assert doc.nodes_with_value("a", constant) == _brute_force_sigma(
                    doc, "a", constant
                ), (step, constant)


def _brute_force_wildcard(document, constant):
    return [
        node
        for node in sorted(document.all_elements(), key=lambda n: n.id)
        if fresh_val(node) == constant
    ]


class TestWildcardValueIndex:
    """``nodes_with_value("*", c)``: the all-labels entry for σ nodes
    labeled ``*`` (no more ``all_elements()`` scans per lookup)."""

    def test_lookup_equals_scan_across_labels(self):
        doc = parse_document("<r><a>x</a><b>x</b><c><d>x</d>y</c></r>")
        assert doc.nodes_with_value("*", "x") == _brute_force_wildcard(doc, "x")
        assert doc.nodes_with_value("*", "y") == _brute_force_wildcard(doc, "y")

    def test_tracks_inserts_deletes_and_val_changes(self):
        rng = random.Random(20260729)
        doc = parse_document("<r><a>x</a><b>y</b><c><a>x</a></c></r>")
        doc.nodes_with_value("*", "x")  # build the lazy entry up front
        for step in range(40):
            if rng.random() < 0.4:
                candidates = [
                    n
                    for n in doc.root.self_and_descendants()
                    if n is not doc.root and n.kind == "element"
                ]
                if candidates:
                    doc.delete_subtree(rng.choice(candidates))
            else:
                parents = [
                    n for n in doc.root.self_and_descendants() if n.kind == "element"
                ]
                snippet = rng.choice(
                    ("<a>x</a>", "<b>y</b>", "<e/>", "<d><a>x</a></d>", "<w>z</w>")
                )
                doc.insert_subtree(rng.choice(parents), parse_document(snippet).root)
            for constant in ("x", "y", "z", ""):
                assert doc.nodes_with_value("*", constant) == _brute_force_wildcard(
                    doc, constant
                ), (step, constant)

    def test_wildcard_sigma_views_maintained(self):
        """End-to-end: a view with a ``*``-labeled σ node stays exact
        under maintenance (the engine resolves it via the index)."""
        from repro.maintenance.engine import MaintenanceEngine
        from repro.pattern.tree_pattern import Pattern, PatternNode
        from repro.updates.language import DeleteUpdate, InsertUpdate

        doc = parse_document("<r><a>x</a><b><c>q</c></b><d>x</d></r>")
        root = PatternNode("r", axis="desc", store_id=True)
        star = PatternNode(
            "*", axis="desc", store_id=True, store_val=True, value_pred="x"
        )
        root.add_child(star)
        engine = MaintenanceEngine(doc)
        registered = engine.register_view(Pattern(root), "wild")
        engine.apply_update(InsertUpdate("/r/b", "<e>x</e>"))
        assert registered.view.equals_fresh_evaluation(doc)
        engine.apply_update(DeleteUpdate("//a"))
        assert registered.view.equals_fresh_evaluation(doc)


#: text and attribute values that need every escape the serializer knows
_MARKUP_TEXT = st.text(alphabet='x&<>"', max_size=3)


def _markup_tree(parts):
    label, attributes, kids = parts
    element = ElementNode(label)
    for name, value in attributes:
        element.set_attribute(name, value)
    for kid in kids:
        element.append(kid)
    return element


def _markup_element(kids):
    return st.tuples(
        st.sampled_from("abc"),
        st.lists(
            st.tuples(st.sampled_from("km"), _MARKUP_TEXT), max_size=2, unique_by=lambda p: p[0]
        ),
        kids,
    ).map(_markup_tree)


#: elements with attributes, mixed content, empty elements (no child
#: or only attributes) and empty text nodes (``<a></a>``, not ``<a/>``)
_markup_trees = st.recursive(
    _markup_element(st.just(())),
    lambda trees: _markup_element(
        st.lists(st.one_of(trees, _MARKUP_TEXT.map(TextNode)), max_size=3)
    ),
    max_leaves=12,
)

#: (insert?, target pick, position pick, snippet, nodes to read after)
_cont_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        _markup_trees,
        st.lists(st.integers(0, 2**16), max_size=3),
    ),
    max_size=6,
)


class TestValContCaches:
    @settings(max_examples=60, deadline=None)
    @given(root=_markup_trees, warm=st.lists(st.integers(0, 2**16), max_size=4), steps=_cont_steps)
    def test_composed_cont_equals_fresh_serialization(self, root, warm, steps):
        """``cont`` composed from child caches is byte-identical to the
        fresh ``serialize_fragment`` walk under random inserts and
        deletes, read at random nodes between steps so the caches are
        only partly warm when the next change invalidates a chain."""

        def read(picks):
            elements = list(doc.all_elements())
            for pick in picks:
                element = elements[pick % len(elements)]
                assert element.cont == serialize_fragment(element)

        doc = build_document(root)
        read(warm)
        for insert, target, position, snippet, picks in steps:
            nodes = list(doc.root.self_and_descendants())
            if insert:
                parents = [n for n in nodes if n.kind == "element"]
                parent = parents[target % len(parents)]
                doc.insert_subtree(
                    parent, snippet, position % (len(parent.children) + 1)
                )
            elif len(nodes) > 1:
                doc.delete_subtree(nodes[1 + target % (len(nodes) - 1)])
            read(picks)
        for element in doc.all_elements():
            assert element.cont == serialize_fragment(element)

    def test_val_cached_and_invalidated_along_ancestors(self):
        doc = parse_document("<r><a>x<b>y</b></a><c>z</c></r>")
        root, a = doc.root, doc.nodes_with_label("a")[0]
        assert root.val == "xyz"
        b = doc.nodes_with_label("b")[0]
        doc.insert_subtree(b, parse_document("<w>q</w>").root.children[0])
        assert root.val == "xyqz"
        assert a.val == "xyq"
        assert a.val == fresh_val(a)

    def test_cont_invalidated_by_element_only_insert(self):
        doc = parse_document("<r><a>x</a></r>")
        a = doc.nodes_with_label("a")[0]
        before = a.cont
        doc.insert_subtree(a, parse_document("<e/>").root)
        assert a.cont != before
        assert a.cont == serialize_fragment(a)
        assert a.val == "x"  # element-only insert leaves val untouched

    def test_delete_invalidates_survivors(self):
        doc = parse_document("<r><a>x<b>y</b></a></r>")
        a = doc.nodes_with_label("a")[0]
        assert a.val == "xy"
        doc.delete_subtree(doc.nodes_with_label("b")[0])
        assert a.val == "x"
        assert a.cont == serialize_fragment(a)
        assert doc.root.val == "x"


class TestStoreScans:
    def test_items_is_lazy(self):
        store = OrderedTupleStore()
        for key in (1, 2, 3):
            store.put(key, key * 10)
        scan = store.items()
        assert not isinstance(scan, list)
        assert list(scan) == [(1, 10), (2, 20), (3, 30)]

    def test_snapshot_immune_to_updates(self):
        store = OrderedTupleStore()
        store.put(1, "a")
        frozen = store.snapshot()
        store.put(0, "z")
        store.delete(1)
        # The documented contract is a snapshot *sequence*; asserting
        # list identity would over-constrain alternate store backends.
        assert list(frozen) == [(1, "a")]
        assert list(store.items()) == [(0, "z")]

    def test_load_sorted_rejects_unsorted(self):
        store = OrderedTupleStore()
        with pytest.raises(ValueError):
            store.load_sorted([(2, "b"), (1, "a")])
