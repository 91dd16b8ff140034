"""Workloads: the XMark generator, views Q*, and the update test set."""

import pytest

from repro.updates.language import DeleteUpdate, InsertUpdate
from repro.workloads.churn import churn_batches
from repro.workloads.queries import VIEW_TEXTS, view_definition, view_pattern
from repro.workloads.updates import (
    UPDATE_CLASSES,
    UPDATE_TEXTS,
    VIEW_UPDATE_GROUPS,
    delete_variant,
    insert_update,
    statement_stream,
)
from repro.workloads.xmark import generate_document, generate_xml, size_of
from repro.xmldom.parser import parse_document
from tests.harness.id_memory import BYTES_PER_STATEMENT_LIMIT, bytes_per_statement


class TestGenerator:
    def test_deterministic(self):
        assert generate_xml(scale=1) == generate_xml(scale=1)

    def test_seed_changes_content(self):
        assert generate_xml(scale=1, seed=1) != generate_xml(scale=1, seed=2)

    def test_size_grows_with_scale(self):
        small = size_of(generate_document(scale=1))
        large = size_of(generate_document(scale=4))
        assert large > 3 * small

    def test_output_is_well_formed(self):
        text = generate_xml(scale=1)
        doc = parse_document(text)
        assert doc.root.label == "site"

    def test_vocabulary_present(self):
        doc = generate_document(scale=1)
        for label in ("person", "open_auction", "bidder", "increase", "item",
                      "namerica", "name", "description", "homepage", "profile"):
            assert doc.nodes_with_label(label), "missing %s" % label

    def test_q3_and_q4_selectivities_nonempty(self):
        doc = generate_document(scale=1)
        increases = [n for n in doc.nodes_with_label("increase") if n.val == "4.50"]
        assert increases
        refs = [n for n in doc.nodes_with_label("@person") if n.val == "person12"]
        assert refs


class TestViews:
    @pytest.mark.parametrize("name", sorted(VIEW_TEXTS))
    def test_views_parse_and_are_nonempty(self, name):
        from repro.pattern.evaluate import evaluate_view

        doc = generate_document(scale=1)
        pattern = view_pattern(name)
        pattern.validate_for_maintenance()
        assert evaluate_view(pattern, doc), "view %s is empty" % name

    def test_view_definition_cached(self):
        assert view_definition("Q1") is view_definition("Q1")

    def test_view_pattern_fresh(self):
        assert view_pattern("Q1") is not view_pattern("Q1")

    def test_unknown_view_rejected(self):
        with pytest.raises(KeyError):
            view_definition("Q99")


class TestUpdates:
    @pytest.mark.parametrize("name", sorted(UPDATE_TEXTS))
    def test_updates_parse_both_ways(self, name):
        ins = insert_update(name)
        assert isinstance(ins, InsertUpdate)
        dele = delete_variant(name)
        assert isinstance(dele, DeleteUpdate)

    def test_classes_partition_names(self):
        classified = [name for names in UPDATE_CLASSES.values() for name in names]
        assert sorted(classified) == sorted(UPDATE_TEXTS)
        for suffix, names in UPDATE_CLASSES.items():
            for name in names:
                assert name.endswith(suffix)

    @pytest.mark.parametrize("view_name", sorted(VIEW_UPDATE_GROUPS))
    def test_groups_have_five_updates(self, view_name):
        assert len(VIEW_UPDATE_GROUPS[view_name]) == 5

    def test_insertions_have_targets_on_generated_doc(self):
        doc = generate_document(scale=1)
        for name in ("X1_L", "A6_A", "A7_O", "A8_AO", "B7_LB", "X2_L"):
            update = insert_update(name)
            targets = update.target.evaluate(doc)
            assert targets, "update %s matches nothing" % name

    def test_five_node_insert_trees(self):
        # The name/increase snippets insert a root plus four children
        # (the Figure 28 setting).
        update = insert_update("X1_L")
        (tree,) = update.forest
        elements = [n for n in tree.self_and_descendants() if n.kind == "element"]
        assert len(elements) == 5


class TestStatementStreams:
    """The generators parse each Appendix-A update once: same-name
    inserts share one flat forest, and a seed fixes the stream."""

    @staticmethod
    def _streams(seed):
        document = generate_document(scale=1)
        stream = statement_stream(document, 60, seed=seed, insert_ratio=0.8)
        churn = [s for batch in churn_batches(document, 6, seed=seed) for s in batch]
        return stream, churn

    def test_a_seed_fixes_the_stream_and_names_share_forests(self):
        first, again = self._streams(5), self._streams(5)
        for ours, theirs in zip(first, again):
            assert [_signature(s) for s in ours] == [_signature(s) for s in theirs]
            by_name = {}
            for statement in ours:
                name = statement.name.split("#")[0]
                if isinstance(statement, InsertUpdate) and name in UPDATE_TEXTS:
                    assert by_name.setdefault(name, statement).flat is statement.flat
            assert len(by_name) < sum(isinstance(s, InsertUpdate) for s in ours)

    def test_statement_footprint(self):
        assert bytes_per_statement() <= BYTES_PER_STATEMENT_LIMIT


def _signature(statement):
    """``(name, target, flat)``: a resolved statement's target is its
    one ID's key, a path statement's its path."""
    ids = getattr(statement, "target_ids", None)
    target = repr(statement.target) if ids is None else [i.sort_key for i in ids]
    return statement.name, target, getattr(statement, "flat", None)
