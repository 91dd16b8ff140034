"""Physical operators: structural joins, PathFilter, PathNavigate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.relation import Relation
from repro.algebra.structural import (
    path_filter,
    path_navigate,
    probe_ancestors,
    probe_descendants,
    stack_tree_pairs,
    structural_join,
    structural_semijoin,
)
from repro.xmldom.index import KeyedRows
from repro.xmldom.parser import parse_document


@pytest.fixture
def doc():
    return parse_document(
        "<a><c><b>1</b><b>2</b></c><f><c><b>3</b></c><b>4</b></f></a>"
    )


def rel(doc, label):
    return Relation.single_column(label, doc.nodes_with_label(label))


class TestStructuralJoin:
    def test_ancestor_join(self, doc):
        out = structural_join(rel(doc, "c"), rel(doc, "b"), "c", "b", "ancestor")
        pairs = {(str(l.id), str(r.id)) for l, r in out.rows}
        assert pairs == {
            ("a1.c1", "a1.c1.b1"),
            ("a1.c1", "a1.c1.b2"),
            ("a1.f2.c1", "a1.f2.c1.b1"),
        }

    def test_parent_join_excludes_deeper(self, doc):
        out = structural_join(rel(doc, "a"), rel(doc, "b"), "a", "b", "parent")
        assert len(out) == 0
        out = structural_join(rel(doc, "f"), rel(doc, "b"), "f", "b", "parent")
        assert [(str(l.id), str(r.id)) for l, r in out.rows] == [("a1.f2", "a1.f2.b2")]

    def test_output_schema_concatenated(self, doc):
        out = structural_join(rel(doc, "a"), rel(doc, "c"), "a", "c", "ancestor")
        assert out.schema == ("a", "c")

    def test_bad_axis_rejected(self, doc):
        with pytest.raises(ValueError):
            structural_join(rel(doc, "a"), rel(doc, "b"), "a", "b", "cousin")

    def test_semijoin(self, doc):
        out = structural_semijoin(rel(doc, "c"), rel(doc, "b"), "c", "b", "ancestor")
        assert len(out) == 3
        out = structural_semijoin(rel(doc, "f"), rel(doc, "b"), "f", "b", "parent")
        assert len(out) == 1


class TestProbes:
    """The two Dewey probes against the hash join, edge by edge."""

    @pytest.mark.parametrize("axis", ["parent", "ancestor"])
    @pytest.mark.parametrize("upper,lower", [("c", "b"), ("f", "b"), ("a", "c"), ("b", "c")])
    def test_both_probes_match_the_hash_join(self, doc, upper, lower, axis):
        joined = structural_join(rel(doc, upper), rel(doc, lower), upper, lower, axis)
        expected = sorted((str(u.id), str(l.id)) for u, l in joined.rows)
        up = probe_ancestors(
            rel(doc, lower), lower, doc.keyed_label(upper), upper, upper, axis
        )
        assert up.schema == (lower, upper)
        assert sorted((str(u.id), str(l.id)) for l, u in up.rows) == expected
        down = probe_descendants(
            rel(doc, upper), upper, doc.keyed_label(lower), lower, axis
        )
        assert down.schema == (upper, lower)
        assert sorted((str(u.id), str(l.id)) for u, l in down.rows) == expected

    def test_wildcard_label_probes_every_ancestor(self, doc):
        elements = sorted(doc.all_elements(), key=lambda n: n.id.sort_key)
        source = KeyedRows.of(elements)
        out = probe_ancestors(rel(doc, "b"), "b", source, "any", "*", "ancestor")
        assert sorted(str(up.id) for b, up in out.rows if str(b.id) == "a1.f2.c1.b1") == [
            "a1",
            "a1.f2",
            "a1.f2.c1",
        ]

    def test_bad_axis_rejected(self, doc):
        with pytest.raises(ValueError):
            probe_ancestors(rel(doc, "b"), "b", doc.keyed_label("c"), "c", "c", "cousin")
        with pytest.raises(ValueError):
            probe_descendants(rel(doc, "c"), "c", doc.keyed_label("b"), "b", "cousin")


class TestStackTreeReference:
    def test_matches_prefix_join(self, doc):
        ancestors = doc.nodes_with_label("c")
        descendants = doc.nodes_with_label("b")
        merge = {(a.id, d.id) for a, d in stack_tree_pairs(ancestors, descendants)}
        prefix = structural_join(
            Relation.single_column("x", ancestors),
            Relation.single_column("y", descendants),
            "x",
            "y",
            "ancestor",
        )
        assert merge == {(l.id, r.id) for l, r in prefix.rows}

    def test_skipped_ancestor_still_matches_later_descendant(self):
        # Regression: an ancestor whose subtree starts after the first
        # descendant must still be matched against later descendants.
        doc = parse_document("<r><p><d>1</d></p><x><p><d>2</d></p></x></r>")
        ancestors = doc.nodes_with_label("x")
        descendants = doc.nodes_with_label("d")
        pairs = stack_tree_pairs(ancestors, descendants)
        assert len(pairs) == 1

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_equivalence_on_random_trees(self, seed):
        rng = random.Random(seed)
        labels = ["p", "q"]

        def build(depth):
            label = rng.choice(labels)
            inner = ""
            if depth < 3:
                inner = "".join(build(depth + 1) for _ in range(rng.randint(0, 3)))
            return "<%s>%s</%s>" % (label, inner, label)

        doc = parse_document("<root>%s</root>" % build(0))
        ancestors = doc.nodes_with_label("p")
        descendants = doc.nodes_with_label("q")
        merge = {(a.id, d.id) for a, d in stack_tree_pairs(ancestors, descendants)}
        expected = {
            (a.id, d.id)
            for a in ancestors
            for d in descendants
            if a.id.is_ancestor_of(d.id)
        }
        assert merge == expected


class TestPathOperators:
    def test_path_navigate(self, doc):
        bs = [n.id for n in doc.nodes_with_label("b")]
        parents = path_navigate(bs)
        assert {str(p) for p in parents} == {"a1.c1", "a1.f2.c1", "a1.f2"}

    def test_path_navigate_drops_root(self, doc):
        assert path_navigate([doc.root.id]) == []

    def test_path_filter_by_ancestor_label(self, doc):
        bs = [n.id for n in doc.nodes_with_label("b")]
        under_c = path_filter(bs, "c")
        assert len(under_c) == 3
        under_f = path_filter(bs, "f")
        assert len(under_f) == 2

    def test_path_filter_include_self(self, doc):
        cs = [n.id for n in doc.nodes_with_label("c")]
        assert len(path_filter(cs, "c")) == 0
        assert len(path_filter(cs, "c", include_self=True)) == 2

    def test_path_filter_wildcard(self, doc):
        bs = [n.id for n in doc.nodes_with_label("b")]
        assert path_filter(bs, "*") == bs
