"""Baselines: full recomputation and node-at-a-time IVMA."""

import pytest

from repro.baselines.ivma import IVMAMaintainer
from repro.baselines.recompute import full_recompute, recompute_after_update
from repro.maintenance.delta import doomed_nodes
from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import DeleteUpdate, InsertUpdate
from repro.updates.pul import apply_pul, compute_pul
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.parser import parse_document
from tests.conftest import chain_pattern, v2_pattern


class TestRecompute:
    def test_full_recompute_matches_materialize(self, fig12_document):
        pattern = v2_pattern()
        direct = MaterializedView.materialize(pattern, fig12_document)
        recomputed, seconds = full_recompute(pattern, fig12_document)
        assert recomputed.content() == direct.content()
        assert seconds >= 0

    def test_recompute_after_update(self, fig12_document):
        pattern = v2_pattern()
        view, _seconds = recompute_after_update(
            pattern, fig12_document, DeleteUpdate("//f")
        )
        assert view.equals_fresh_evaluation(fig12_document)

    def test_recompute_rebuilds_lattice(self, fig12_document):
        pattern = v2_pattern()
        lattice = SnowcapLattice(pattern, strategy="snowcaps")
        full_recompute(pattern, fig12_document, lattice)
        assert lattice.stored_tuples() > 0


class TestIVMA:
    def test_insert_equivalence_with_engine(self):
        # The same statement propagated by IVMA (node-at-a-time) and by
        # fresh evaluation must agree.
        doc = parse_document("<r><a><d/></a><a/></r>")
        pattern = chain_pattern("a", "b", "c")
        view = MaterializedView.materialize(pattern, doc)
        statement = InsertUpdate("//a", "<b><c/><c/></b>")
        pul = compute_pul(doc, statement)
        applied = apply_pul(doc, pul)
        maintainer = IVMAMaintainer(view, doc)
        maintainer.propagate_insert_nodes(applied.inserted_roots)
        assert view.equals_fresh_evaluation(doc)
        # 2 targets x 3 nodes inserted = 6 node-level calls.
        assert maintainer.calls == 6

    def test_delete_equivalence(self, fig12_document):
        pattern = v2_pattern()
        view = MaterializedView.materialize(pattern, fig12_document)
        statement = DeleteUpdate("//f")
        pul = compute_pul(fig12_document, statement)
        targets = [op.target for op in pul.deletes()]
        doomed = doomed_nodes(targets)
        maintainer = IVMAMaintainer(view, fig12_document)
        maintainer.propagate_delete_nodes(doomed)
        apply_pul(fig12_document, pul)
        assert view.equals_fresh_evaluation(fig12_document)
        assert maintainer.calls == len(doomed)

    def test_derivation_counts_maintained(self):
        from repro.pattern.tree_pattern import Pattern, PatternNode

        a = PatternNode("a", axis="desc", store_id=True)
        a.add_child(PatternNode("b", axis="desc"))
        doc = parse_document("<r><a><b/></a></r>")
        view = MaterializedView.materialize(Pattern(a), doc)
        statement = InsertUpdate("//a", "<b/><b/>")
        pul = compute_pul(doc, statement)
        applied = apply_pul(doc, pul)
        IVMAMaintainer(view, doc).propagate_insert_nodes(applied.inserted_roots)
        assert view.count(view.rows()[0]) == 3
        assert view.equals_fresh_evaluation(doc)

    def test_more_calls_than_bulk(self):
        # The structural reason for Figure 28: one statement, many calls.
        doc = parse_document("<r><a/><a/><a/></r>")
        pattern = chain_pattern("a", "b")
        view = MaterializedView.materialize(pattern, doc)
        statement = InsertUpdate(
            "//a", "<b><b/><b/><b/><b/></b>"
        )  # the 5-node tree of Section 6.6
        pul = compute_pul(doc, statement)
        applied = apply_pul(doc, pul)
        maintainer = IVMAMaintainer(view, doc)
        maintainer.propagate_insert_nodes(applied.inserted_roots)
        assert maintainer.calls == 15  # 3 targets x 5 nodes
        assert view.equals_fresh_evaluation(doc)
