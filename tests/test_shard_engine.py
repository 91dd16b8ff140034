"""The sharded maintenance subsystem: planner, executor, merge, engine.

The central property (also enforced by ``benchmarks/
bench_shard_pipeline.py``): propagating a batch with any worker count
leaves every view extent *byte-identical* to serial propagation and to
fresh re-evaluation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.relation import Relation
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.sharding import (
    ShardExecutor,
    ShardPlanner,
    ShardSession,
    merge_addition_fragments,
    merge_embedding_fragments,
    resolve_snowcap_fragment,
    shard_of_label,
)
from repro.maintenance.delta import BatchCandidates
from repro.updates.language import UpdateBatch
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom.dewey import DeweyID
from repro.xmldom.parser import parse_document

VIEWS = ("Q1", "Q3", "Q6")


def _engines(scale=1, workers=0, views=VIEWS):
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document, workers=workers)
    registered = {name: engine.register_view(view_pattern(name), name) for name in views}
    return document, engine, registered


def _apply_stream(workers, stream, scale=1, views=VIEWS, **apply_options):
    document, engine, registered = _engines(scale=scale, views=views)
    report = engine.apply_batch(UpdateBatch(stream), workers=workers, **apply_options)
    return document, registered, report


# -- planner ----------------------------------------------------------------


class TestShardPlanner:
    def test_shard_of_label_is_stable_and_bounded(self):
        planner = ShardPlanner(4)
        for label in ("person", "name", "increase", "item", "#text", "@id"):
            shard = planner.shard_of(label)
            assert 0 <= shard < 4
            assert shard == shard_of_label(label, 4)  # hash is stable

    def test_single_shard_maps_everything_to_zero(self):
        planner = ShardPlanner(1)
        assert {planner.shard_of(l) for l in ("a", "b", "c")} == {0}

    def test_partition_candidates_partitions_exactly(self, people_document):
        nodes = [
            node
            for label in ("person", "name", "phone", "#text")
            for node in people_document.nodes_with_label(label)
        ]
        candidates = BatchCandidates(nodes)
        planner = ShardPlanner(3)
        fragments = planner.partition_candidates(candidates)
        rebuilt = sorted(
            (node.id for fragment in fragments.values() for node in fragment.nodes)
        )
        assert rebuilt == [node.id for node in candidates.nodes]
        for shard, fragment in fragments.items():
            assert all(
                planner.shard_of(label) == shard for label in fragment.by_label
            )

    def test_touched_labels_is_a_liveness_certificate(self, people_document):
        planner = ShardPlanner(4)
        pattern = view_pattern("Q1")  # site/people/person[@id]/name
        candidates = BatchCandidates(people_document.nodes_with_label("phone"))
        assert planner.touched_labels(pattern, candidates) == []
        candidates = BatchCandidates(people_document.nodes_with_label("name"))
        assert planner.touched_labels(pattern, candidates) == ["name"]

    def test_coerce(self):
        planner = ShardPlanner(2)
        assert ShardPlanner.coerce(planner, 4) is planner
        assert ShardPlanner.coerce(8, 4).shards == 8
        assert ShardPlanner.coerce(None, 6).shards == 6
        assert ShardPlanner.coerce(None, 0).shards == 4
        with pytest.raises(TypeError):
            ShardPlanner.coerce("many", 4)
        with pytest.raises(ValueError):
            ShardPlanner(0)

    def test_order_units_is_deterministic_lpt(self):
        class Unit:
            def __init__(self, estimate, shard, kind, view_name):
                self.estimate = estimate
                self.shard = shard
                self.kind = kind
                self.view_name = view_name

        units = [Unit(1, 0, "plus", "a"), Unit(9, 1, "plus", "b"), Unit(9, 0, "minus", "c")]
        ordered = ShardPlanner(4).order_units(units)
        assert [u.view_name for u in ordered] == ["c", "b", "a"]


# -- executor ---------------------------------------------------------------


class _SquareUnit:
    kind = "square"
    labels = ()

    def __init__(self, value):
        self.view_name = "v%d" % value
        self.shard = value % 4
        self.estimate = value
        self.value = value

    def execute(self):
        return self.value * self.value


class _FailingUnit(_SquareUnit):
    def execute(self):
        raise RuntimeError("unit exploded")


class TestShardExecutor:
    def test_serial_mode(self):
        executor = ShardExecutor(0)
        assert not executor.parallel
        result = executor.run([_SquareUnit(v) for v in range(5)])
        assert result.fragments == [0, 1, 4, 9, 16]
        assert result.mode == "serial"
        assert len(result.unit_seconds) == 5

    @pytest.mark.parametrize("mode", ["fork", "thread"])
    def test_pool_modes_match_serial(self, mode):
        executor = ShardExecutor(2, mode=mode)
        result = executor.run([_SquareUnit(v) for v in range(6)])
        assert result.fragments == [0, 1, 4, 9, 16, 25]

    def test_single_unit_runs_inline_even_when_parallel(self):
        result = ShardExecutor(4).run([_SquareUnit(3)])
        assert result.fragments == [9]

    def test_empty_round(self):
        result = ShardExecutor(4).run([])
        assert result.fragments == [] and result.wall_seconds == 0.0

    def test_worker_failure_propagates(self):
        with pytest.raises(RuntimeError, match="unit exploded"):
            ShardExecutor(2).run([_SquareUnit(1), _FailingUnit(2)])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ShardExecutor(-1)
        with pytest.raises(ValueError):
            ShardExecutor(2, mode="rayon")


# -- merge ------------------------------------------------------------------


class TestMerge:
    def test_addition_fragments_sum_in_dewey_order(self):
        a = DeweyID.root("a")
        b = a.child("b", (1,))
        c = a.child("c", (2,))
        merged = merge_addition_fragments([{(c,): 1, (a,): 2}, {(a,): 1, (b,): 4}])
        assert merged == {(a,): 3, (b,): 4, (c,): 1}
        assert list(merged) == [(a,), (b,), (c,)]

    def test_single_addition_fragment_passes_through(self):
        fragment = {("row",): 2}
        assert merge_addition_fragments([fragment]) is fragment

    def test_embedding_fragments_dedupe_across_terms(self):
        a = DeweyID.root("a")
        b = a.child("b", (1,))
        # The same embedding (a, b) surfacing in two fragments counts once.
        one = {(a, b): ("row1",)}
        two = {(a, b): ("row1",), (a, a.child("b", (2,))): ("row1",)}
        merged = merge_embedding_fragments([one, two])
        assert merged == {("row1",): 2}

    def test_resolve_snowcap_fragment_roundtrip(self, people_document):
        person = people_document.nodes_with_label("person")[0]
        name = people_document.nodes_with_label("name")[0]
        fragment = {
            frozenset({"person#1", "name#1"}): (
                ("person#1", "name#1"),
                [(person.id, name.id)],
            )
        }
        relations = resolve_snowcap_fragment(fragment, people_document)
        assert relations[frozenset({"person#1", "name#1"})].rows == [(person, name)]

    def test_resolve_snowcap_fragment_passes_relations_through(self, people_document):
        relation = Relation(("person#1",), [(people_document.nodes_with_label("person")[0],)])
        fragment = {frozenset({"person#1"}): relation}
        assert resolve_snowcap_fragment(fragment, people_document)[
            frozenset({"person#1"})
        ] is relation

    def test_resolve_snowcap_fragment_rejects_dead_ids(self, people_document):
        ghost = DeweyID.root("site").child("nowhere", (9,))
        fragment = {frozenset({"x#1"}): (("x#1",), [(ghost,)])}
        with pytest.raises(LookupError):
            resolve_snowcap_fragment(fragment, people_document)


# -- engine equivalence ------------------------------------------------------


class TestShardedPropagation:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_insert_stream_extents_identical(self, workers):
        stream = statement_stream(
            generate_document(scale=1), 24, seed=3, insert_ratio=1.0
        )
        _, serial_views, serial_report = _apply_stream(0, stream)
        document, sharded_views, report = _apply_stream(workers, stream)
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == sharded_views[name].view.content()
            ), name
            assert sharded_views[name].view.equals_fresh_evaluation(document), name
        assert report.workers == workers
        assert report.shard_rounds and report.shard_seconds >= 0.0
        assert serial_report.workers == 0 and serial_report.shard_seconds == 0.0

    def test_mixed_stream_two_rounds_identical(self):
        # Deletions force the two-round structure (Δ− before the
        # lattice drops doomed rows, Δ+ after).
        stream = statement_stream(
            generate_document(scale=1), 24, seed=5, insert_ratio=0.5
        )
        _, serial_views, serial_report = _apply_stream(0, stream)
        document, sharded_views, report = _apply_stream(2, stream)
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == sharded_views[name].view.content()
            ), name
            assert sharded_views[name].view.equals_fresh_evaluation(document), name
        assert serial_report.fallbacks == report.fallbacks

    def test_shard_plan_override_accepts_counts_and_planners(self):
        stream = statement_stream(
            generate_document(scale=1), 8, seed=2, insert_ratio=1.0
        )
        _, baseline, _ = _apply_stream(0, stream)
        for shard_plan in (1, 16, ShardPlanner(3)):
            document, views, _ = _apply_stream(2, stream, shard_plan=shard_plan)
            for name in VIEWS:
                assert views[name].view.content() == baseline[name].view.content()

    def test_engine_level_defaults_apply(self):
        stream = statement_stream(
            generate_document(scale=1), 8, seed=4, insert_ratio=1.0
        )
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document, workers=2, shard_plan=8)
        views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
        report = engine.apply_batch(UpdateBatch(stream))
        assert report.workers == 2
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_sigma_flip_repairs_under_sharding(self):
        # Inserting text under a σ-watched node flips its predicate;
        # the sharded path must run the same in-place repair as the
        # serial one (no fallback, identical repaired extent).
        document = parse_document(
            "<site><open_auctions><open_auction><bidder>"
            "<increase>4.50</increase></bidder></open_auction>"
            "</open_auctions></site>"
        )
        engine = MaintenanceEngine(document, workers=2)
        registered = engine.register_view(view_pattern("Q3"), "Q3")
        from repro.updates.language import parse_update

        report = engine.apply_batch(
            [parse_update("for $i in //increase insert extra", name="flip")]
        )
        assert report.fallbacks == {}
        assert report.repairs["Q3"]["sigma_flips"] == 1
        assert registered.view.equals_fresh_evaluation(document)

    def test_sigma_flip_fallback_recomputes_on_shards(self):
        # With repair disabled, the fallback recompute itself fans out
        # as shard units -- extents must match the serial recompute.
        document = parse_document(
            "<site><open_auctions><open_auction><bidder>"
            "<increase>4.50</increase></bidder>"
            "<bidder><increase>7.25</increase></bidder></open_auction>"
            "</open_auctions></site>"
        )
        engine = MaintenanceEngine(document, workers=2, sigma_repair=False)
        views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
        from repro.updates.language import parse_update

        report = engine.apply_batch(
            [parse_update("for $i in //increase insert extra", name="flip")]
        )
        assert report.fallbacks["Q3"]["reason"] == "predicate_flip"
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_queue_fans_out_maintenance_rounds(self):
        stream = statement_stream(
            generate_document(scale=1), 16, seed=9, insert_ratio=0.8
        )
        _, baseline, _ = _apply_stream(0, stream)
        document, engine, views = _engines()
        with ApplyQueue(engine, max_batch_size=4, workers=2) as queue:
            tickets = queue.extend_async(stream)
            queue.flush()
            report = tickets[0].result(timeout=30)
        assert report.workers == 2
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_session_stream_extents_identical(self):
        # The resident replica workers over a mixed multi-batch stream
        # (the ApplyQueue shape) must track serial batch application
        # byte-for-byte, including batches that trip fallbacks.
        stream = statement_stream(
            generate_document(scale=1), 48, seed=13, insert_ratio=0.7
        )
        batches = [stream[i : i + 12] for i in range(0, len(stream), 12)]
        _, serial_engine, serial_views = _engines()
        for batch in batches:
            serial_engine.apply_batch(UpdateBatch(batch))
        document, engine, views = _engines()
        with engine.session(workers=2) as session:
            reports = [session.apply_batch(UpdateBatch(b)) for b in batches]
        assert all(report.workers == 2 for report in reports)
        assert all(
            shard_round["mode"] == "session"
            for report in reports
            for shard_round in report.shard_rounds
        )
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == views[name].view.content()
            ), name
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_session_locks_engine_and_resyncs_on_close(self):
        stream = statement_stream(
            generate_document(scale=1), 8, seed=2, insert_ratio=1.0
        )
        document, engine, views = _engines()
        session = engine.session(workers=2)
        try:
            session.apply_batch(UpdateBatch(stream))
            with pytest.raises(RuntimeError, match="ShardSession"):
                engine.apply_batch(UpdateBatch(stream))
            with pytest.raises(RuntimeError, match="ShardSession"):
                engine.session(workers=2)
            with pytest.raises(RuntimeError, match="ShardSession"):
                engine.register_view(view_pattern("Q2"), "Q2")
            with pytest.raises(RuntimeError, match="ShardSession"):
                engine.unregister_view("Q1")
        finally:
            session.close()
        # Post-close: lattices resynced, serial propagation is exact again.
        engine.apply_batch(
            UpdateBatch(
                statement_stream(document, 6, seed=3, insert_ratio=1.0)
            )
        )
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name
        with pytest.raises(RuntimeError, match="closed"):
            session.apply_batch(UpdateBatch(stream))

    def test_session_weights_drive_assignment(self):
        _, engine, _ = _engines()
        weights = {"Q1": 100.0, "Q3": 1.0, "Q6": 1.0}
        with ShardSession(engine, workers=2, weights=weights) as session:
            assignment = session.assignment
            # The heavy view sits alone; the two light ones share.
            assert assignment["Q3"] == assignment["Q6"] != assignment["Q1"]

    def test_session_sequential_send_is_equivalent(self):
        stream = statement_stream(
            generate_document(scale=1), 16, seed=21, insert_ratio=0.8
        )
        _, serial_engine, serial_views = _engines()
        serial_engine.apply_batch(UpdateBatch(stream))
        document, engine, views = _engines()
        with engine.session(workers=2) as session:
            session.sequential_send = True
            session.apply_batch(UpdateBatch(stream))
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == views[name].view.content()
            ), name

    def test_session_poison_batch_fails_only_itself(self):
        from repro.updates.language import InsertUpdate

        document, engine, views = _engines()
        session = engine.session(workers=2)
        try:
            session.apply_batch(
                UpdateBatch(statement_stream(document, 4, seed=1, insert_ratio=1.0))
            )
            # Inserting into an attribute fails resolution identically
            # on the owner and on every replica: the batch is poisoned,
            # the session survives.
            bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
            with pytest.raises(ValueError):
                session.apply_batch(UpdateBatch([bad]))
            assert not session._closed
            for name in VIEWS:
                assert views[name].view.equals_fresh_evaluation(document), name
            session.apply_batch(
                UpdateBatch(statement_stream(document, 4, seed=8, insert_ratio=1.0))
            )
            for name in VIEWS:
                assert views[name].view.equals_fresh_evaluation(document), name
        finally:
            session.close()

    def test_session_dead_worker_poisons_and_restores(self):
        stream = statement_stream(
            generate_document(scale=1), 8, seed=4, insert_ratio=1.0
        )
        document, engine, views = _engines()
        session = engine.session(workers=2)
        session.apply_batch(UpdateBatch(stream))
        session._processes[0].terminate()
        session._processes[0].join()
        with pytest.raises(RuntimeError, match="worker died"):
            session.apply_batch(UpdateBatch(statement_stream(document, 4, seed=5)))
        # Wait: the poison statement list resolved against the *owner*
        # document, which did apply -- extents must match it exactly.
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name
        assert session._closed
        # Engine is usable again (session closed itself).
        engine.apply_batch(UpdateBatch(statement_stream(document, 4, seed=6)))
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_session_feeds_apply_queue(self):
        stream = statement_stream(
            generate_document(scale=1), 24, seed=31, insert_ratio=0.8
        )
        _, serial_engine, serial_views = _engines()
        for i in range(0, len(stream), 8):
            serial_engine.apply_batch(UpdateBatch(stream[i : i + 8]))
        document, engine, views = _engines()
        session = engine.session(workers=2)
        try:
            with ApplyQueue(session, max_batch_size=8) as queue:
                queue.extend_async(stream)
                queue.flush()
        finally:
            session.close()
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == views[name].view.content()
            ), name

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        insert_ratio=st.sampled_from([1.0, 0.7, 0.4]),
        workers=st.sampled_from([1, 2]),
    )
    def test_property_sharded_equals_serial(self, seed, insert_ratio, workers):
        stream = statement_stream(
            generate_document(scale=1), 12, seed=seed, insert_ratio=insert_ratio
        )
        _, serial_views, serial_report = _apply_stream(0, stream)
        document, sharded_views, report = _apply_stream(workers, stream)
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == sharded_views[name].view.content()
            ), (seed, name)
            assert sharded_views[name].view.equals_fresh_evaluation(document), (
                seed,
                name,
            )
        assert serial_report.fallbacks == report.fallbacks, seed
