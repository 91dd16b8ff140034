"""PUL optimization: reduction, conflict and aggregation rules
(Section 5; Examples 5.1, 5.2, 5.3).

An atomic operation is a single-target resolved statement:
``ins↘(v, P)`` is ``ResolvedInsertUpdate([v], P)`` and ``del(v)`` is
``ResolvedDeleteUpdate([v])``.
"""

import pytest

from repro.updates.conflicts import deletes_win, detect_conflicts, integrate_puls
from repro.updates.language import (
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateBatch,
)
from repro.updates.pul import apply_pul, compute_pul
from repro.updates.reduce import aggregate_puls, pul_to_operations, reduce_operations
from repro.xmldom.parser import parse_document
from repro.xmldom.serializer import serialize_fragment

FIG17_XML = (
    "<a><c><b>"
    "<d><b/></d><d><b/></d><d><b><e/></b></d>"
    "</b></c><f><c><b/></c></f><c><b/></c></a>"
)


@pytest.fixture
def fig17_document():
    """The Figure 17 document (trimmed to the nodes the examples use)."""
    return parse_document(FIG17_XML)


def node_id(doc, path, index=0):
    from repro.pattern.xpath_parser import evaluate_path

    return evaluate_path(path, doc)[index].id


def ins(target, xml):
    return ResolvedInsertUpdate([target], xml)


def delete(target):
    return ResolvedDeleteUpdate([target])


def run_in_sequence(*puls):
    """Serialize the Figure 17 document after applying each PUL's
    operations, in order, each resolved against the state before it."""
    doc = parse_document(FIG17_XML)
    for pul in puls:
        for op in pul:
            apply_pul(doc, compute_pul(doc, op))
    return serialize_fragment(doc.root)


class TestReductionRules:
    def test_o1_insert_then_delete_same_target(self, fig17_document):
        target = node_id(fig17_document, "//d/b")
        reduced = reduce_operations([ins(target, "<b><d/></b>"), delete(target)])
        assert len(reduced) == 1
        assert isinstance(reduced[0], ResolvedDeleteUpdate)

    def test_o1_delete_then_delete(self, fig17_document):
        target = node_id(fig17_document, "//d/b")
        reduced = reduce_operations([delete(target), delete(target)])
        assert len(reduced) == 1

    def test_o3_ancestor_delete_voids_descendant_op(self, fig17_document):
        child = node_id(fig17_document, "//d/b")
        ancestor = node_id(fig17_document, "//c/b")
        reduced = reduce_operations([ins(child, "<b/>"), delete(ancestor)])
        assert len(reduced) == 1
        assert isinstance(reduced[0], ResolvedDeleteUpdate)
        assert reduced[0].target_ids == [ancestor]

    def test_i5_merges_same_target_inserts(self, fig17_document):
        target = node_id(fig17_document, "//d", 2)
        reduced = reduce_operations([ins(target, "<b/>"), ins(target, "<d><b/></d>")])
        assert len(reduced) == 1
        assert [t.label for t in reduced[0].forest] == ["b", "d"]

    def test_example_5_1_full_reduction(self, fig17_document):
        doc = fig17_document
        # Use real nodes: first d's b, second d, third d.
        b_under_d1 = node_id(doc, "//d/b", 0)
        d2 = node_id(doc, "//d", 1)
        d3 = node_id(doc, "//d", 2)
        ops = [
            ins(b_under_d1, "<b><d/></b>"),  # op1: voided by op2 (O1)
            delete(b_under_d1),              # op2
            ins(d2.child("b", (1,)), "<b/>"),  # op3: voided by op4 (O3)
            delete(d2),                      # op4
            ins(d3, "<b/>"),                 # op5 + op6 merge (I5)
            ins(d3, "<d><b/></d>"),
        ]
        reduced = reduce_operations(ops)
        kinds = [op.kind for op in reduced]
        assert kinds == ["delete", "delete", "insert"]
        assert [t.label for t in reduced[-1].forest] == ["b", "d"]

    def test_unrelated_ops_kept_in_order(self, fig17_document):
        a = node_id(fig17_document, "//d", 0)
        b = node_id(fig17_document, "//d", 1)
        ops = [ins(a, "<x/>"), ins(b, "<y/>")]
        assert reduce_operations(ops) == ops


class TestConflictRules:
    def test_example_5_2_conflicts(self, fig17_document):
        doc = fig17_document
        d1 = node_id(doc, "//d", 0)
        d2 = node_id(doc, "//d", 1)
        d3_b = node_id(doc, "//d", 2).child("b", (1,))
        pul1 = [ins(d1, "<d><b/></d>"), delete(d2), delete(node_id(doc, "//d", 2))]
        pul2 = [ins(d1, "<b/>"), ins(d2, "<b/>"), ins(d3_b, "<b/>")]
        conflicts = detect_conflicts(pul1, pul2)
        kinds = sorted(c.kind for c in conflicts)
        assert kinds == ["IO", "LO", "NLO"]

    def test_io_is_symmetric(self, fig17_document):
        target = node_id(fig17_document, "//d", 0)
        (conflict,) = detect_conflicts([ins(target, "<x/>")], [ins(target, "<y/>")])
        assert conflict.kind == "IO" and conflict.symmetric

    def test_default_policy_fails(self, fig17_document):
        target = node_id(fig17_document, "//d", 0)
        with pytest.raises(ValueError):
            integrate_puls([delete(target)], [ins(target, "<x/>")])

    def test_deletes_win_policy(self, fig17_document):
        target = node_id(fig17_document, "//d", 0)
        integrated, conflicts = integrate_puls(
            [delete(target)], [ins(target, "<x/>")], resolution=deletes_win
        )
        assert len(conflicts) == 1
        assert [op.kind for op in integrated] == ["delete"]

    def test_no_conflicts_concatenates(self, fig17_document):
        a = node_id(fig17_document, "//d", 0)
        b = node_id(fig17_document, "//d", 1)
        integrated, conflicts = integrate_puls([ins(a, "<x/>")], [ins(b, "<y/>")])
        assert conflicts == []
        assert len(integrated) == 2


class TestAggregationRules:
    def test_a1_merges_same_target_inserts_across_puls(self, fig17_document):
        target = node_id(fig17_document, "//d", 0)
        first, second = aggregate_puls(
            fig17_document, [ins(target, "<c><b/></c>")], [ins(target, "<b/>")]
        )
        assert second == []
        assert [t.label for t in first[0].forest] == ["c", "b"]

    def test_d6_folds_op_into_pending_fragment(self, fig17_document):
        # Δ1 inserts <d><b/></d> under d3; Δ2 inserts <b/> under the
        # *future* d node of that fragment (Example 5.3's op31/op32).
        d3 = node_id(fig17_document, "//d", 2)
        future_d = d3.child("d", (99,))
        first, second = aggregate_puls(
            fig17_document, [ins(d3, "<d><b/></d>")], [ins(future_d, "<b/>")]
        )
        assert second == []
        fragment = first[0].forest[0]
        assert serialize_fragment(fragment) == "<d><b/><b/></d>"

    def test_d6_delete_inside_fragment(self, fig17_document):
        d3 = node_id(fig17_document, "//d", 2)
        future_b = d3.child("d", (99,)).child("b", (1,))
        first, second = aggregate_puls(
            fig17_document, [ins(d3, "<d><b/></d>")], [delete(future_b)]
        )
        assert second == []
        assert serialize_fragment(first[0].forest[0]) == "<d/>"

    def test_d6_leaves_an_existing_node_to_its_own_operation(self, fig17_document):
        # d3's existing <b><e/></b> shares its label with the pending
        # <b/>; D6 must not fold the delete into the fragment.
        d3 = node_id(fig17_document, "//d", 2)
        existing_b = node_id(fig17_document, "//d/b", 2)
        pul1 = [ins(d3, "<b/>")]
        pul2 = [delete(existing_b)]
        sequential = run_in_sequence(pul1, pul2)
        first, second = aggregate_puls(fig17_document, pul1, pul2)
        assert "<e/>" not in sequential  # the existing b is gone
        assert run_in_sequence(first, second) == sequential

    def test_d6_drops_an_insert_it_empties(self, fig17_document):
        d3 = node_id(fig17_document, "//d", 2)
        future_d = d3.child("d", (99,))
        first, second = aggregate_puls(
            fig17_document, [ins(d3, "<d/>")], [delete(future_d)]
        )
        assert first == [] and second == []

    def test_unrelated_ops_stay_in_second_pul(self, fig17_document):
        d1 = node_id(fig17_document, "//d", 0)
        d2 = node_id(fig17_document, "//d", 1)
        first, second = aggregate_puls(
            fig17_document, [ins(d1, "<x/>")], [ins(d2, "<y/>")]
        )
        assert len(first) == 1 and len(second) == 1


class TestStatementReduction:
    def test_coalescing_preserves_semantics(self, people_document):
        persons = compute_pul(people_document, InsertUpdate("/site/people/person", "<tag/>"))
        person_ids = [op.target.id for op in persons]
        person1 = node_id(people_document, "/site/people/person[@id = 'person1']")
        coalesced = UpdateBatch(
            [
                ResolvedInsertUpdate(person_ids, "<tag/>"),
                ResolvedDeleteUpdate([person1]),
            ]
        ).coalesced()
        # person1's insert is voided by its delete (O1); the others
        # stay one multi-target insert, followed by the delete.
        kinds = [statement.kind for statement in coalesced]
        assert kinds == ["insert", "delete"]
        assert len(coalesced.statements[0].target_ids) == 2

    def test_pul_to_operations_copies_forests(self, people_document):
        update = InsertUpdate("/site/people/person", "<tag/>")
        pul = compute_pul(people_document, update)
        ops = pul_to_operations(pul)
        assert len(ops) == 3
        assert ops[0].forest[0] is not update.forest[0]
