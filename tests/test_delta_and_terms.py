"""Δ tables (CD+/CD−) and term expansion/pruning: the paper's Section 3
examples, re-enacted literally.
"""

import pytest

from repro.maintenance.delta import BatchCandidates, doomed_nodes, touched_labels
from repro.maintenance.terms import (
    Term,
    expand_delete_terms,
    expand_insert_terms,
    prune_by_empty_delta,
    prune_delete_by_ids,
    prune_insert_by_ids,
)
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.updates.language import DeleteUpdate, InsertUpdate
from repro.updates.pul import apply_pul, compute_pul
from repro.workloads.queries import view_pattern
from repro.xmldom.parser import parse_document
from tests.conftest import branch_pattern, chain_pattern, v2_pattern
from tests.harness.reference_statement_path import (
    compute_delta_minus,
    compute_delta_plus,
)


def delta_labels(terms, pattern):
    """Render each term's Δ-set as a label string like 'bc'."""
    return sorted(
        "".join(sorted(name.split("#")[0] for name in term.delta_set))
        for term in terms
    )


class TestDeltaTables:
    def test_example_3_1_delta_tables(self):
        # xml1 = <a><b/><b><c/></b></a> inserted into a document.
        doc = parse_document("<r><x/></r>")
        update = InsertUpdate("//x", "<a><b/><b><c/></b></a>")
        pul = compute_pul(doc, update)
        applied = apply_pul(doc, pul)
        pattern = chain_pattern("a", "b", "c")
        deltas = compute_delta_plus(pattern, applied.inserted_roots)
        assert len(deltas.nodes("a#1")) == 1
        assert len(deltas.nodes("b#1")) == 2
        assert len(deltas.nodes("c#1")) == 1
        assert deltas.nonempty_names() == ["a#1", "b#1", "c#1"]

    def test_example_3_4_missing_label(self):
        # xml2 = <a><b/><b/></a>: Δ+_c is empty.
        doc = parse_document("<r><x/></r>")
        applied = apply_pul(doc, compute_pul(doc, InsertUpdate("//x", "<a><b/><b/></a>")))
        pattern = chain_pattern("a", "b", "c")
        deltas = compute_delta_plus(pattern, applied.inserted_roots)
        assert deltas.is_empty("c#1")

    def test_example_3_5_value_predicate_filters_delta(self):
        # v2 = //a[val=5]//b, xml3 = <a>3<b/><b/></a>: σ_a(Δ+_a) = ∅.
        doc = parse_document("<r><x/></r>")
        applied = apply_pul(doc, compute_pul(doc, InsertUpdate("//x", "<a>3<b/><b/></a>")))
        pattern = chain_pattern("a", "b")
        pattern.node("a#1").value_pred = "5"
        deltas = compute_delta_plus(pattern, applied.inserted_roots)
        assert deltas.is_empty("a#1")
        assert len(deltas.nodes("b#1")) == 2

    def test_delta_minus_from_doomed_set(self, fig2_document):
        targets = [fig2_document.nodes_with_label("f")[0]]
        doomed = doomed_nodes(targets)
        pattern = chain_pattern("c", "b")
        deltas = compute_delta_minus(pattern, doomed)
        assert deltas.is_empty("c#1")
        assert [str(n.id) for n in deltas.nodes("b#1")] == ["a1.f2.b1"]

    def test_wildcard_delta(self):
        doc = parse_document("<r><x/></r>")
        applied = apply_pul(doc, compute_pul(doc, InsertUpdate("//x", "<a><b/></a>")))
        star = Pattern(PatternNode("*", axis="desc", store_id=True))
        deltas = compute_delta_plus(star, applied.inserted_roots)
        assert len(deltas.nodes("*#1")) == 2  # elements only

    def test_touched_labels_is_a_liveness_certificate(self, people_document):
        pattern = view_pattern("Q1")  # site/people/person[@id]/name
        candidates = BatchCandidates(people_document.nodes_with_label("phone"))
        assert touched_labels(pattern, candidates) == []
        candidates = BatchCandidates(people_document.nodes_with_label("name"))
        assert touched_labels(pattern, candidates) == ["name"]
        star = Pattern(PatternNode("*", axis="desc", store_id=True))
        assert touched_labels(star, candidates) == ["name"]
        assert touched_labels(star, BatchCandidates([])) == []


class TestInsertTermExpansion:
    def test_chain_terms_are_snowcap_complements(self):
        # For //a//b//c the surviving Δ-sets are the suffixes: c, bc, abc.
        pattern = chain_pattern("a", "b", "c")
        terms = expand_insert_terms(pattern)
        assert delta_labels(terms, pattern) == ["abc", "bc", "c"]

    def test_branch_terms_match_figure6_snowcaps(self):
        # Complements of {∅-excluded} snowcaps + full set: for
        # //a[//b//c]//d the Δ-sets are complements of a,ab,ad,abc,abd
        # plus the all-Δ term.
        pattern = branch_pattern()
        terms = expand_insert_terms(pattern)
        assert delta_labels(terms, pattern) == sorted(
            ["bcd", "cd", "bc", "d", "c", "abcd"]
        )

    def test_prune_by_empty_delta_example_3_4(self):
        doc = parse_document("<r><x/></r>")
        applied = apply_pul(doc, compute_pul(doc, InsertUpdate("//x", "<a><b/><b/></a>")))
        pattern = chain_pattern("a", "b", "c")
        deltas = compute_delta_plus(pattern, applied.inserted_roots)
        surviving = prune_by_empty_delta(expand_insert_terms(pattern), deltas)
        assert surviving == []  # every term involves Δ+_c = ∅ (Ex. 3.4)

    def test_prune_by_ids_example_3_7(self):
        # xml4 = <b><c/></b> inserted under an <a> with no b ancestor:
        # the term R_a R_b Δ+_c dies, only R_a Δ+_b Δ+_c survives.
        doc = parse_document("<r><a><d/></a></r>")
        update = InsertUpdate("//a", "<b><c/></b>")
        pul = compute_pul(doc, update)
        target_ids = [op.target.id for op in pul.inserts()]
        applied = apply_pul(doc, pul)
        pattern = chain_pattern("a", "b", "c")
        deltas = compute_delta_plus(pattern, applied.inserted_roots)
        terms = prune_by_empty_delta(expand_insert_terms(pattern), deltas)
        assert delta_labels(terms, pattern) == ["bc", "c"]  # Δ+_a is empty
        surviving = prune_insert_by_ids(terms, pattern, target_ids)
        assert delta_labels(surviving, pattern) == ["bc"]

    def test_id_pruning_keeps_term_when_ancestor_label_present(self):
        # Same insertion, but the target sits under an existing b.
        doc = parse_document("<r><b><a/></b></r>")
        update = InsertUpdate("//a", "<b><c/></b>")
        pul = compute_pul(doc, update)
        target_ids = [op.target.id for op in pul.inserts()]
        applied = apply_pul(doc, pul)
        pattern = chain_pattern("a", "b", "c")
        deltas = compute_delta_plus(pattern, applied.inserted_roots)
        terms = prune_by_empty_delta(expand_insert_terms(pattern), deltas)
        surviving = prune_insert_by_ids(terms, pattern, target_ids)
        assert delta_labels(surviving, pattern) == ["bc", "c"]

    def test_wildcard_parent_never_prunes(self):
        star = PatternNode("*", axis="desc", store_id=True)
        star.add_child(PatternNode("b", axis="desc", store_id=True))
        pattern = Pattern(star)
        doc = parse_document("<r><x/></r>")
        update = InsertUpdate("//x", "<b/>")
        pul = compute_pul(doc, update)
        target_ids = [op.target.id for op in pul.inserts()]
        terms = [Term(frozenset({"b#1"}))]
        assert prune_insert_by_ids(terms, pattern, target_ids) == terms


class TestDeleteTermExpansion:
    def test_example_4_4_signs(self):
        # //a[//c]//b: Δ-sets and signs per Prop 4.3(i).
        pattern = v2_pattern()
        terms = expand_delete_terms(pattern)
        by_labels = {
            "".join(sorted(n.split("#")[0] for n in t.delta_set)): t.sign
            for t in terms
        }
        assert by_labels == {
            "b": 1, "c": 1, "bc": -1, "abc": 1,
        }

    def test_prune_even_terms(self):
        pattern = v2_pattern()
        terms = expand_delete_terms(pattern, prune_even_terms=True)
        assert all(term.sign == 1 for term in terms)
        assert delta_labels(terms, pattern) == ["abc", "b", "c"]

    def test_example_4_6_id_pruning(self):
        # v = //c//b, delete //f in Figure 11's document: the single
        # doomed b (a1.f2.b1) has no c ancestor, so R_c Δ−_b is empty.
        doc = parse_document("<a><c><b>hi</b></c><f><b>yo</b></f></a>")
        targets = [doc.nodes_with_label("f")[0]]
        doomed = doomed_nodes(targets)
        pattern = chain_pattern("c", "b")
        deltas = compute_delta_minus(pattern, doomed)
        terms = prune_by_empty_delta(
            expand_delete_terms(pattern, prune_even_terms=True), deltas
        )
        surviving = prune_delete_by_ids(terms, pattern, deltas)
        assert delta_labels(surviving, pattern) == []

    def test_example_4_5_pruning_pipeline(self, fig12_document):
        # v2 = //a[//c]//b, delete //a/f/c: Δ−_a = ∅ leaves
        # R_aR_bΔ−_c and R_aΔ−_bR_c ... i.e. Δ-sets {c} and {b}.
        pattern = v2_pattern()
        update = DeleteUpdate("/a/f/c")
        pul = compute_pul(fig12_document, update)
        doomed = doomed_nodes([op.target for op in pul.deletes()])
        deltas = compute_delta_minus(pattern, doomed)
        terms = prune_by_empty_delta(
            expand_delete_terms(pattern, prune_even_terms=True), deltas
        )
        surviving = prune_delete_by_ids(terms, pattern, deltas)
        assert delta_labels(surviving, pattern) == ["b", "c"]
