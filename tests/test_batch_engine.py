"""The batch pipeline's grand invariant, property-based:

``MaintenanceEngine.apply_batch(batch)`` must leave the document *and*
every maintained view (extent, derivation counts, snowcap lattice)
byte-identical to sequential application through the per-statement
pipeline (``tests/harness/reference_statement_path.py``) -- for random
documents/views/statement streams, for XMark streams drawn from the
Appendix-A update set, and for coalescing-cancellation shapes (inserts
merged into one statement, insert-then-delete round-trips that cancel
out of both Δ sets).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateBatch,
    parse_update,
)
from repro.updates.pul import compute_pul
from repro.views.lattice import SnowcapLattice
from repro.workloads.churn import churn_batches
from repro.workloads.queries import view_pattern
from repro.workloads.updates import delete_variant, insert_update, statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom.parser import parse_document
from repro.xmldom.serializer import serialize_fragment
from tests.harness.reference_statement_path import apply_statement
from tests.test_property_maintenance import (
    _random_document,
    _random_update,
    _random_view,
)


def _assert_equivalent(sequential_views, batch_views, sequential_doc, batch_doc):
    assert serialize_fragment(sequential_doc.root) == serialize_fragment(batch_doc.root)
    for name in sequential_views:
        sequential_view = sequential_views[name]
        batch_view = batch_views[name]
        assert sequential_view.view.content() == batch_view.view.content(), name
        assert batch_view.view.equals_fresh_evaluation(batch_doc), name
        for subset in sequential_view.lattice.materialized_sets():
            stored = sequential_view.lattice.relation_for(subset)
            batched = batch_view.lattice.relation_for(subset)
            assert sorted(
                tuple(cell.id for cell in row) for row in stored.rows
            ) == sorted(
                tuple(cell.id for cell in row) for row in batched.rows
            ), (name, sorted(subset))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_equals_sequential_random_streams(seed):
    rng = random.Random(seed)
    text = serialize_fragment(_random_document(rng).root)
    view = _random_view(rng)
    strategy = rng.choice(("snowcaps", "leaves"))
    statements = [_random_update(rng) for _ in range(rng.randint(1, 5))]

    sequential_doc = parse_document(text)
    sequential = MaintenanceEngine(sequential_doc)
    sequential_view = sequential.register_view(view, "v", strategy=strategy)
    applied = []
    for statement in statements:
        targets = statement.target.evaluate(sequential_doc)
        if statement.kind == "insert" and any(
            not hasattr(target, "children") for target in targets
        ):
            continue  # skip inserts into attribute/text targets
        applied.append(statement)
        apply_statement(sequential, statement)

    batch_doc = parse_document(text)
    batched = MaintenanceEngine(batch_doc)
    batch_view = batched.register_view(view, "v", strategy=strategy)
    batched.apply_batch(UpdateBatch(applied))
    _assert_equivalent(
        {"v": sequential_view}, {"v": batch_view}, sequential_doc, batch_doc
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_equals_sequential_xmark_streams(seed):
    """Random XMark statement streams, including cancellation pairs."""
    rng = random.Random(seed)
    names = ("X1_L", "X2_L", "X3_A", "A6_A", "B3_LB", "B7_LB")
    statements = []
    for _ in range(rng.randint(3, 7)):
        name = rng.choice(names)
        statements.append(
            insert_update(name) if rng.random() < 0.7 else delete_variant(name)
        )
    if rng.random() < 0.6:
        # Coalescing-cancellation: insert a uniquely labeled subtree,
        # then delete it within the same batch.
        position = rng.randrange(len(statements) + 1)
        statements.insert(
            position,
            InsertUpdate(
                "/site/people/person", "<zzz>tmp<zzz>x</zzz></zzz>", name="tmp_ins"
            ),
        )
        statements.insert(
            rng.randrange(position + 1, len(statements) + 1),
            DeleteUpdate("//zzz", name="tmp_del"),
        )
    views = ("Q1", "Q3")

    sequential_doc = generate_document(scale=1)
    sequential = MaintenanceEngine(sequential_doc)
    sequential_views = {
        name: sequential.register_view(view_pattern(name), name) for name in views
    }
    for statement in statements:
        apply_statement(sequential, statement)

    batch_doc = generate_document(scale=1)
    batched = MaintenanceEngine(batch_doc)
    batch_views = {
        name: batched.register_view(view_pattern(name), name) for name in views
    }
    batched.apply_batch(UpdateBatch(statements))
    _assert_equivalent(sequential_views, batch_views, sequential_doc, batch_doc)


def test_batch_equals_sequential_resolved_stream():
    """The single-target write-stream shape the async queue produces."""
    stream = statement_stream(
        generate_document(scale=1), 24, seed=3, insert_ratio=0.7
    )
    sequential_doc = generate_document(scale=1)
    sequential = MaintenanceEngine(sequential_doc)
    sequential_view = sequential.register_view(view_pattern("Q1"), "Q1")
    for statement in stream:
        apply_statement(sequential, statement)
    batch_doc = generate_document(scale=1)
    batched = MaintenanceEngine(batch_doc)
    batch_view = batched.register_view(view_pattern("Q1"), "Q1")
    batched.apply_batch(UpdateBatch(stream))
    _assert_equivalent(
        {"Q1": sequential_view}, {"Q1": batch_view}, sequential_doc, batch_doc
    )


class TestCoalescing:
    def test_adjacent_resolved_inserts_merge(self):
        document = generate_document(scale=1)
        base = insert_update("X1_L")
        target_id = compute_pul(document, base).inserts()[0].target.id
        statements = [
            ResolvedInsertUpdate([target_id], base.forest, name="a"),
            ResolvedInsertUpdate([target_id], base.forest, name="b"),
            ResolvedInsertUpdate([target_id], base.forest, name="c"),
        ]
        batch = UpdateBatch(statements).coalesced()
        assert len(batch) == 1
        assert "a" in batch.statements[0].name and "c" in batch.statements[0].name

    def test_path_inserts_merge_only_when_safe(self):
        safe = UpdateBatch(
            [insert_update("X1_L"), insert_update("X1_L")]
        ).coalesced()
        assert len(safe) == 1  # <name> forest cannot extend /site/people/person
        # Inserting <person> under persons could create new targets for
        # the same path, so these must NOT merge.
        risky = UpdateBatch(
            [
                InsertUpdate("/site/people/person", "<person>x</person>"),
                InsertUpdate("/site/people/person", "<person>y</person>"),
            ]
        ).coalesced()
        assert len(risky) == 2
        # Predicate labels count too: inserting <phone> flips the filter.
        predicate = UpdateBatch(
            [
                InsertUpdate("/site/people/person[phone]", "<phone>1</phone>"),
                InsertUpdate("/site/people/person[phone]", "<phone>2</phone>"),
            ]
        ).coalesced()
        assert len(predicate) == 2

    def test_coalesced_batch_equals_sequential(self):
        statements = [insert_update("X1_L"), insert_update("X1_L"), insert_update("X2_L")]
        sequential_doc = generate_document(scale=1)
        sequential = MaintenanceEngine(sequential_doc)
        sequential_view = sequential.register_view(view_pattern("Q1"), "Q1")
        for statement in statements:
            apply_statement(sequential, statement)
        batch_doc = generate_document(scale=1)
        batched = MaintenanceEngine(batch_doc)
        batch_view = batched.register_view(view_pattern("Q1"), "Q1")
        report = batched.apply_batch(UpdateBatch(statements))
        assert report.statements_submitted == 3
        assert report.statements_applied == 2  # X1_L pair merged
        _assert_equivalent(
            {"Q1": sequential_view}, {"Q1": batch_view}, sequential_doc, batch_doc
        )

    def test_insert_then_delete_cancels(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q1"), "Q1")
        before = registered.view.content()
        report = engine.apply_batch(
            UpdateBatch(
                [
                    InsertUpdate("/site/people/person", "<zzz><zzz>x</zzz></zzz>"),
                    DeleteUpdate("//zzz"),
                ]
            )
        )
        assert report.net_inserted == 0
        assert report.net_removed == 0
        assert report.cancelled > 0
        assert registered.view.content() == before
        assert registered.view.equals_fresh_evaluation(document)


class TestReductionRules:
    """O1/O3/I5 folded into UpdateBatch (Figure 14 at batch level)."""

    def _target(self, document, path):
        statement = parse_update("delete %s" % path)
        return statement.target.evaluate(document)[0].id

    def test_o1_insert_then_delete_same_node_drops_insert(self):
        document = generate_document(scale=1)
        person = self._target(document, "/site/people/person")
        batch = UpdateBatch(
            [
                ResolvedInsertUpdate([person], insert_update("X1_L").forest, name="ins"),
                ResolvedDeleteUpdate([person], name="del"),
            ]
        )
        reduced = batch.reduced()
        assert [s.name for s in reduced.statements] == ["del"]

    def test_o3_delete_of_ancestor_voids_descendant_inserts_only(self):
        document = generate_document(scale=1)
        person = self._target(document, "/site/people/person")
        people = self._target(document, "/site/people")
        batch = UpdateBatch(
            [
                ResolvedInsertUpdate([person], insert_update("X1_L").forest, name="ins"),
                ResolvedDeleteUpdate([person], name="early_del"),
                ResolvedDeleteUpdate([people], name="late_del"),
            ]
        )
        reduced = batch.reduced()
        # The insert under the doomed subtree is voided; the earlier
        # deletion is NOT (removing it would shift ordinal assignment
        # of any intervening insert into a surviving parent).
        assert [s.name for s in reduced.statements] == ["early_del", "late_del"]

    def test_duplicate_delete_is_not_voided_ordinal_regression(self):
        # Regression: [delete X, insert into P, delete X] must apply the
        # first delete -- voiding it leaves X in P's child list when the
        # insert picks its ordinal, diverging from sequential Dewey
        # assignment.
        document = generate_document(scale=1)
        person = parse_update("delete /site/people/person").target.evaluate(document)[0]
        people = person.parent
        statements = [
            ResolvedDeleteUpdate([person.id], name="d0"),
            ResolvedInsertUpdate(
                [people.id], insert_update("X1_L").forest, name="ins"
            ),
            ResolvedDeleteUpdate([person.id], name="d1"),
        ]
        reduced = UpdateBatch(statements).reduced()
        assert [s.name for s in reduced.statements] == ["d0", "ins", "d1"]
        sequential_doc = generate_document(scale=1)
        sequential = MaintenanceEngine(sequential_doc)
        sequential_view = sequential.register_view(view_pattern("Q1"), "Q1")
        for statement in statements:
            apply_statement(sequential, statement)
        batch_doc = generate_document(scale=1)
        batched = MaintenanceEngine(batch_doc)
        batch_view = batched.register_view(view_pattern("Q1"), "Q1")
        batched.apply_batch(UpdateBatch(statements))
        _assert_equivalent(
            {"Q1": sequential_view}, {"Q1": batch_view}, sequential_doc, batch_doc
        )

    def test_partial_voiding_keeps_surviving_targets(self):
        document = generate_document(scale=1)
        persons = parse_update("delete /site/people/person").target.evaluate(document)
        doomed, survivor = persons[0].id, persons[1].id
        batch = UpdateBatch(
            [
                ResolvedInsertUpdate(
                    [doomed, survivor], insert_update("X1_L").forest, name="ins"
                ),
                ResolvedDeleteUpdate([doomed], name="del"),
            ]
        )
        reduced = batch.reduced()
        assert [s.name for s in reduced.statements] == ["ins", "del"]
        assert reduced.statements[0].target_ids == [survivor]

    def test_unresolved_statement_blocks_reduction_across_it(self):
        document = generate_document(scale=1)
        person = self._target(document, "/site/people/person")
        batch = UpdateBatch(
            [
                ResolvedInsertUpdate([person], insert_update("X1_L").forest, name="ins"),
                insert_update("X2_L"),  # path-targeted: resolution barrier
                ResolvedDeleteUpdate([person], name="del"),
            ]
        )
        reduced = batch.reduced()
        assert [s.name for s in reduced.statements] == ["ins", "X2_L", "del"]

    def test_i5_runs_through_coalesced_after_reduction(self):
        document = generate_document(scale=1)
        persons = parse_update("delete /site/people/person").target.evaluate(document)
        doomed, kept = persons[0].id, persons[1].id
        forest = insert_update("X1_L").forest
        batch = UpdateBatch(
            [
                ResolvedInsertUpdate([kept], forest, name="a"),
                ResolvedInsertUpdate([doomed], forest, name="void_me"),
                ResolvedInsertUpdate([kept], forest, name="b"),
                ResolvedDeleteUpdate([doomed], name="del"),
            ]
        )
        coalesced = batch.coalesced()
        # Voiding the middle insert (O1) makes a/b adjacent; I5 merges them.
        assert [s.name for s in coalesced.statements] == ["a+b", "del"]

    def test_reduced_batch_extents_match_sequential(self):
        document = generate_document(scale=1)
        persons = parse_update("delete /site/people/person").target.evaluate(document)
        statements = [
            ResolvedInsertUpdate([persons[0].id], insert_update("X1_L").forest, name="i0"),
            ResolvedInsertUpdate([persons[1].id], insert_update("X1_L").forest, name="i1"),
            ResolvedDeleteUpdate([persons[0].id], name="d0"),
        ]
        sequential_doc = generate_document(scale=1)
        sequential = MaintenanceEngine(sequential_doc)
        sequential_view = sequential.register_view(view_pattern("Q1"), "Q1")
        for statement in statements:
            apply_statement(sequential, statement)
        batch_doc = generate_document(scale=1)
        batched = MaintenanceEngine(batch_doc)
        batch_view = batched.register_view(view_pattern("Q1"), "Q1")
        report = batched.apply_batch(UpdateBatch(statements))
        assert report.statements_applied == 2  # i0 voided by d0
        _assert_equivalent(
            {"Q1": sequential_view}, {"Q1": batch_view}, sequential_doc, batch_doc
        )


def _dirty_batch(document):
    # Q1 stores name.val, so drift matters only on removed *name*
    # nodes: insert under an existing name, then delete its whole
    # ancestor chain via a *path* (a resolved delete would just void
    # the insert per O3) -- the removed name's val/cont drifted before
    # its removal.
    name = parse_update("delete /site/people/person/name").target.evaluate(document)[0]
    return UpdateBatch(
        [
            ResolvedInsertUpdate([name.id], insert_update("X1_L").forest, name="ins"),
            parse_update("delete /site/people", name="del"),
        ]
    )


class TestFallbackReasons:
    """σ flips and dirty subtrees repair in place; no batch falls back."""

    @staticmethod
    def _flip_document():
        return parse_document(
            "<site><open_auctions><open_auction><bidder>"
            "<increase>4.50</increase></bidder></open_auction>"
            "</open_auctions></site>"
        )

    def test_predicate_flip_repairs_in_place(self):
        document = self._flip_document()
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q3"), "Q3")
        report = engine.apply_batch(
            UpdateBatch([parse_update("for $i in //increase insert flip", name="flip")])
        )
        assert report.fallbacks == {}
        repairs = report.repairs["Q3"]
        assert repairs["sigma_flips"] == 1
        assert repairs["evicted"] == 1 and repairs.get("admitted", 0) == 0
        assert registered.view.equals_fresh_evaluation(document)

    def test_dirty_subtree_restores_snapshots(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q1"), "Q1")
        report = engine.apply_batch(_dirty_batch(document))
        assert report.fallbacks == {}
        assert report.dirty_restored >= 1
        assert registered.view.equals_fresh_evaluation(document)

    def test_clean_batches_report_no_fallbacks(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        engine.register_view(view_pattern("Q1"), "Q1")
        report = engine.apply_batch(UpdateBatch([insert_update("X1_L")]))
        assert report.fallbacks == {}
        assert report.repairs == {}
        assert report.dirty_restored == 0


class TestBatchEngineApi:
    def test_batch_of_one_shim_matches_per_statement(self):
        statement = insert_update("X1_L")
        sequential_doc = generate_document(scale=1)
        sequential = MaintenanceEngine(sequential_doc)
        sequential_view = sequential.register_view(view_pattern("Q1"), "Q1")
        apply_statement(sequential, statement)
        batch_doc = generate_document(scale=1)
        batched = MaintenanceEngine(batch_doc)
        batch_view = batched.register_view(view_pattern("Q1"), "Q1")
        report = batched.apply_update(statement)
        assert report.statements_applied == 1
        _assert_equivalent(
            {"Q1": sequential_view}, {"Q1": batch_view}, sequential_doc, batch_doc
        )

    def test_empty_batch_is_a_noop(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q1"), "Q1")
        before = registered.view.content()
        report = engine.apply_batch(UpdateBatch())
        assert report.statements_applied == 0
        assert registered.view.content() == before

    def test_wraps_existing_engine_and_shares_views(self):
        # The async write path wraps the engine itself: what the queue
        # applies lands in the engine's own views.
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q1"), "Q1")
        before = registered.view.content()
        with ApplyQueue(engine) as queue:
            queue.apply_async(insert_update("X1_L")).result(timeout=30)
        assert engine.views["Q1"] is registered
        assert registered.view.content() != before
        assert registered.view.equals_fresh_evaluation(document)

    def test_failed_statement_restores_consistency(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q1"), "Q1")
        bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
        with pytest.raises(ValueError):
            engine.apply_batch(UpdateBatch([insert_update("X1_L"), bad]))
        # The first statement reached the document; the views were
        # recomputed to match before the error surfaced.
        assert registered.view.equals_fresh_evaluation(document)

    def test_batch_path_needs_no_sharding_backend(self, monkeypatch):
        # Only engine.session() reaches the sharding layer: with the
        # backend seam unwired, every batch shape still propagates
        # exactly, and session() fails with the pointed error.
        from repro.maintenance import engine as engine_module

        monkeypatch.setattr(engine_module, "_SHARD_BACKEND", None)
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        views = {
            name: engine.register_view(view_pattern(name), name)
            for name in ("Q1", "Q2", "Q3", "Q4", "Q17")
        }
        flip_batch, _ = churn_batches(
            document, 2, batch_size=2, seed=0, flip_gap=1, dirty_every=0
        )
        report = engine.apply_batch(list(flip_batch))
        assert report.repairs and report.fallbacks == {}
        self._assert_fresh(document, views)
        report = engine.apply_batch(statement_stream(document, 8, seed=3))
        assert report.net_removed == 0 and report.net_inserted > 0
        self._assert_fresh(document, views)
        report = engine.apply_batch(
            statement_stream(document, 12, seed=5, insert_ratio=0.5)
        )
        assert report.net_removed > 0 and report.net_inserted > 0
        self._assert_fresh(document, views)
        report = engine.apply_batch(_dirty_batch(document))
        assert report.dirty_restored >= 1 and report.fallbacks == {}
        self._assert_fresh(document, views)
        with pytest.raises(RuntimeError, match="no sharding backend"):
            engine.session(workers=2)

    @staticmethod
    def _assert_fresh(document, views):
        """Extents and lattices equal fresh evaluation."""
        for name, registered in views.items():
            assert registered.view.equals_fresh_evaluation(document), name
            fresh = SnowcapLattice(registered.pattern)
            fresh.materialize(document)
            assert fresh.materialized_sets() == registered.lattice.materialized_sets()
            for subset in fresh.materialized_sets():
                assert sorted(
                    tuple(cell.id for cell in row)
                    for row in registered.lattice.relation_for(subset).rows
                ) == sorted(
                    tuple(cell.id for cell in row)
                    for row in fresh.relation_for(subset).rows
                ), (name, sorted(subset))

    def test_report_phase_times_populated(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        engine.register_view(view_pattern("Q1"), "Q1")
        report = engine.apply_batch(UpdateBatch([insert_update("X1_L")]))
        phases = report.report_for("Q1").phases
        assert phases.find_target_nodes >= 0.0
        assert phases.total() > 0.0
        assert report.total_maintenance_seconds() >= phases.total()
