"""The sharded maintenance subsystem: merge helpers and the session.

The central property: maintaining the views through a resident
:class:`~repro.sharding.ShardSession`, at any worker count, leaves every
view extent *byte-identical* to in-process propagation and to fresh
re-evaluation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maintenance.delete import (
    merge_addition_fragments,
    merge_embedding_fragments,
)
from harness import crashkit
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.sharding import ShardSession
from repro.updates.language import UpdateBatch
from repro.workloads.churn import churn_batches
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom.dewey import DeweyID
from repro.xmldom.parser import parse_document
from repro.xmldom.serializer import serialize
from tests.test_batch_engine import _dirty_batch, _drifted_name_batch

VIEWS = ("Q1", "Q3", "Q6")


def _engines(scale=1, views=VIEWS, obs=None):
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document, obs=obs)
    registered = {name: engine.register_view(view_pattern(name), name) for name in views}
    return document, engine, registered


def _apply_serial(stream):
    document, engine, registered = _engines()
    report = engine.apply_batch(UpdateBatch(stream))
    return document, registered, report


def _apply_session(workers, stream):
    document, engine, registered = _engines()
    with engine.session(workers=workers) as session:
        report = session.apply_batch(UpdateBatch(stream))
    return document, registered, report


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


# -- engine equivalence ------------------------------------------------------


class TestShardedPropagation:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_insert_stream_extents_identical(self, workers):
        stream = statement_stream(
            generate_document(scale=1), 24, seed=3, insert_ratio=1.0
        )
        _, serial_views, serial_report = _apply_serial(stream)
        document, sharded_views, report = _apply_session(workers, stream)
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == sharded_views[name].view.content()
            ), name
            assert sharded_views[name].view.equals_fresh_evaluation(document), name
        assert report.workers == min(workers, len(VIEWS))
        assert [r["mode"] for r in report.shard_rounds] == ["session"]
        assert report.shard_seconds >= 0.0
        assert serial_report.workers == 0 and serial_report.shard_seconds == 0.0

    def test_mixed_stream_two_rounds_identical(self):
        # Deletions force the in-process two-round structure (Δ− before
        # the lattice drops doomed rows, Δ+ after); session replicas run
        # the same rounds over their own views.
        stream = statement_stream(
            generate_document(scale=1), 24, seed=5, insert_ratio=0.5
        )
        _, serial_views, serial_report = _apply_serial(stream)
        assert [r["mode"] for r in serial_report.shard_rounds] == ["serial", "serial"]
        document, sharded_views, report = _apply_session(2, stream)
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == sharded_views[name].view.content()
            ), name
            assert sharded_views[name].view.equals_fresh_evaluation(document), name
        assert serial_report.fallbacks == report.fallbacks

    def test_sigma_flip_repairs_under_sharding(self):
        # Inserting text under a σ-watched node flips its predicate;
        # the owning replica must run the same in-place repair as the
        # serial engine (no fallback, identical repaired extent).
        document = parse_document(
            "<site><open_auctions><open_auction><bidder>"
            "<increase>4.50</increase></bidder></open_auction>"
            "</open_auctions></site>"
        )
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern("Q3"), "Q3")
        from repro.updates.language import parse_update

        with engine.session(workers=2) as session:
            report = session.apply_batch(
                [parse_update("for $i in //increase insert extra", name="flip")]
            )
        assert report.fallbacks == {}
        assert report.repairs["Q3"]["sigma_flips"] == 1
        assert registered.view.equals_fresh_evaluation(document)

    def test_dirty_batch_restores_on_shards(self):
        # A dirty removed subtree is restored in place wherever its view
        # is maintained.  The weights put Q3, the view the drift
        # reaches, on the replica: the owner still counts the restored
        # nodes the serial engine does, and no view falls back.
        _, serial, serial_views = _engines()
        serial_report = serial.apply_batch(_dirty_batch(serial.document))
        document, engine, views = _engines()
        with engine.session(
            workers=2, weights={"Q1": 100, "Q3": 1, "Q6": 1}
        ) as session:
            assert session.assignment["Q3"] == 1
            report = session.apply_batch(_dirty_batch(document))
        assert serial_report.dirty_restored == 1
        assert report.dirty_restored == serial_report.dirty_restored
        assert report.fallbacks == {} and serial_report.fallbacks == {}
        for name in VIEWS:
            assert views[name].view.content() == serial_views[name].view.content()
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_drifted_stored_val_needs_no_snapshot_on_shards(self):
        # Q1's removed names drifted before removal; on the replica too,
        # its Δ− rows match the stored tuples by their IDs.
        _, serial, serial_views = _engines()
        serial_report = serial.apply_batch(_drifted_name_batch(serial.document))
        document, engine, views = _engines()
        with engine.session(workers=2, weights={"Q1": 1, "Q3": 100, "Q6": 1}) as session:
            assert session.assignment["Q1"] == 1
            report = session.apply_batch(_drifted_name_batch(document))
        assert report.dirty_restored == serial_report.dirty_restored == 0
        assert report.fallbacks == {}
        for name in VIEWS:
            assert views[name].view.content() == serial_views[name].view.content()
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_session_stream_extents_identical(self):
        # The resident replica workers over a mixed multi-batch stream
        # (the ApplyQueue shape) must track serial batch application
        # byte-for-byte.
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
        self._kill_party_one_and_check(workers=2)

    def test_session_dead_worker_drains_live_reply(self):
        # Party 2 is alive and answers the batch: its reply must be
        # drained before the session closes.
        self._kill_party_one_and_check(workers=3)

    def _kill_party_one_and_check(self, workers):
        stream = statement_stream(
            generate_document(scale=1), 8, seed=4, insert_ratio=1.0
        )
        document, engine, views = _engines()
        session = engine.session(workers=workers)
        session.apply_batch(UpdateBatch(stream))
        session._processes[0].terminate()
        session._processes[0].join()
        before = serialize(document)
        with pytest.raises(RuntimeError, match="worker died"):
            session.apply_batch(UpdateBatch(statement_stream(document, 4, seed=5)))
        # The owner applied the batch before reading the dead replica's
        # reply; its views were restored against the new document.
        assert serialize(document) != before
        assert session._closed
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name
        # Engine is usable again (session closed itself).
        engine.apply_batch(UpdateBatch(statement_stream(document, 4, seed=6)))
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    @pytest.mark.parametrize("workers", [2, 3])
    def test_durable_session_dead_replica_recovers_live_state(self, workers, tmp_path):
        # The batch a dead replica fails is committed to the WAL, so the
        # owner must have applied it: recovery replays the log and has
        # to land on the live document and views.
        from repro.storage.recovery import reopen
        from repro.storage.sqlite import _id_projection

        path = str(tmp_path / "engine.db")
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document, backend=path)
        views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
        session = engine.session(workers=workers)
        try:
            session.apply_batch(
                UpdateBatch(statement_stream(document, 8, seed=4, insert_ratio=1.0))
            )
            session._processes[-1].terminate()
            session._processes[-1].join()
            with pytest.raises(RuntimeError, match="worker died"):
                session.apply_batch(UpdateBatch(statement_stream(document, 4, seed=5)))
            assert session._closed
            # The session closed inside the batch: its checkpoint waited
            # for the batch's commit, so every record names the batch
            # its rows hold (a crash now reopens without a RecoveryError).
            backend = engine.backend
            assert set(backend.checkpoint_versions().values()) == {2}
            for name in VIEWS:
                assert backend.stored_extent(name) == _id_projection(views[name].view)
        finally:
            session.close()
        engine.apply_batch(UpdateBatch(statement_stream(document, 4, seed=6)))
        engine.sync_durability()
        recovered, _ = reopen(
            path,
            generate_document(scale=1),
            {name: view_pattern(name) for name in VIEWS},
        )
        try:
            assert serialize(recovered.document) == serialize(document)
            for name in VIEWS:
                registered = recovered.views[name]
                assert registered.view.content() == views[name].view.content(), name
                assert registered.view.equals_fresh_evaluation(
                    recovered.document
                ), name
        finally:
            recovered.backend.close()
            engine.backend.close()

    def test_session_pull_failure_drains_and_poisons(self):
        # The owner fails to install party 1's pulled extent: party 2's
        # reply must still be read, and the session must restore the
        # owner's views and close.  The read that triggered the pull
        # returns the recomputed extent.
        document, engine, views = _engines()
        weights = {"Q1": 3.0, "Q3": 2.0, "Q6": 1.0}
        session = ShardSession(engine, workers=3, weights=weights)
        try:
            assert [session.assignment[name] for name in VIEWS] == [0, 1, 2]
            session.apply_batch(
                UpdateBatch(statement_stream(document, 8, seed=3, insert_ratio=0.5))
            )
            assert session._behind == {"Q3", "Q6"}
            read = []
            reply = session._reply

            def counted(party):
                read.append(party)
                return reply(party)

            session._reply = counted
            store = views["Q3"].view  # fetching the extent reads nothing

            def fail_once(pairs):
                del store.reload_content  # later calls reach the method
                raise RuntimeError("install failed")

            store.reload_content = fail_once
            with pytest.warns(RuntimeWarning, match="install failed"):
                assert views["Q3"].view.equals_fresh_evaluation(document)
            assert read == [1, 2]
            assert session._closed
            for name in VIEWS:
                assert views[name].view.equals_fresh_evaluation(document), name
            with pytest.raises(RuntimeError, match="closed"):
                session.apply_batch(UpdateBatch(statement_stream(document, 4, seed=3)))
        finally:
            session.close()
        engine.apply_batch(UpdateBatch(statement_stream(document, 8, seed=4)))
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_session_dead_replica_on_read_restores(self):
        # Party 1 dies after a batch: reading one of its behind views
        # degrades like a dead replica mid-batch and returns the
        # recomputed extent.
        document, engine, views = _engines()
        session = engine.session(workers=2)
        try:
            session.apply_batch(
                UpdateBatch(statement_stream(document, 8, seed=4, insert_ratio=1.0))
            )
            name = sorted(session._behind)[0]
            assert session.assignment[name] == 1
            session._processes[0].terminate()
            session._processes[0].join()
            with pytest.warns(RuntimeWarning, match="pulling replica extents failed"):
                assert views[name].view.equals_fresh_evaluation(document)
            assert session._closed
            for other in VIEWS:
                assert views[other].view.equals_fresh_evaluation(document), other
            with pytest.raises(RuntimeError, match="closed"):
                session.apply_batch(UpdateBatch(statement_stream(document, 4, seed=3)))
        finally:
            session.close()
        engine.apply_batch(UpdateBatch(statement_stream(document, 4, seed=6)))
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_migration_into_party_zero_pulls_the_behind_extent(self):
        # Nobody reads the view before party 0 adopts it: the migration
        # itself must pull it, or party 0 maintains a stale extent.
        stream = statement_stream(
            generate_document(scale=1), 16, seed=9, insert_ratio=0.7
        )
        _, serial, serial_views = _engines()
        document, engine, views = _engines()
        session = engine.session(workers=2)
        try:
            session.apply_batch(stream[:8])
            name = sorted(session._behind)[0]
            session._migrate([(name, 1, 0)])
            assert name not in session._behind and session.assignment[name] == 0
            session.apply_batch(stream[8:])
            assert not session._closed
        finally:
            session.close()
        serial.apply_batch(stream[:8])
        serial.apply_batch(stream[8:])
        for other in VIEWS:
            assert views[other].view.content() == serial_views[other].view.content()
            assert views[other].view.equals_fresh_evaluation(document), other

    def test_replica_to_replica_migration_passes_through_the_owner(self):
        # Nobody reads Q3 before it moves from party 1 to party 2: the
        # migration pulls it once, ships the owner's copy (equal to
        # serial propagation) to party 2, which maintains it from there.
        from repro.obs import Observability

        stream = statement_stream(generate_document(scale=1), 16, seed=9, insert_ratio=0.7)
        _, serial, serial_views = _engines()
        document, engine, views = _engines(obs=Observability())
        session = ShardSession(engine, workers=3, weights={"Q1": 3.0, "Q3": 2.0, "Q6": 1.0})
        pulls = engine.obs.metrics.get("repro_session_pulls_total")
        try:
            for target in (serial, session):
                target.apply_batch(stream[:8])
            assert session.assignment["Q3"] == 1 and "Q3" in session._behind
            session._migrate([("Q3", 1, 2)])
            assert "Q3" not in session._behind and session.assignment["Q3"] == 2
            assert views["Q3"].view.content() == serial_views["Q3"].view.content()
            assert [pulls.value((party,)) for party in ("1", "2")] == [1, 0]
            for target in (serial, session):
                target.apply_batch(stream[8:])
            assert "Q3" in session._behind and not session._closed
        finally:
            session.close()
        for other in VIEWS:
            assert views[other].view.content() == serial_views[other].view.content()
            assert views[other].view.equals_fresh_evaluation(document), other

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
        _, serial_views, serial_report = _apply_serial(stream)
        document, sharded_views, report = _apply_session(workers, stream)
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == sharded_views[name].view.content()
            ), (seed, name)
            assert sharded_views[name].view.equals_fresh_evaluation(document), (
                seed,
                name,
            )
        assert serial_report.fallbacks == report.fallbacks, seed


# -- the owner as party 0 -----------------------------------------------------


class TestOwnerParty:
    @pytest.mark.parametrize("backend", ["memory", "durable"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_party_sweep_matches_serial_and_fresh(self, workers, backend, tmp_path):
        # A mixed stream with σ flips and dirty pairs, a poison batch,
        # and forced migrations out of, into and (at three parties)
        # around party 0: after every batch the owner's extents equal
        # serial propagation and fresh evaluation; after close() every
        # lattice equals fresh materialization, and no migration ever
        # replaced the owner's extent store.
        from repro.updates.language import InsertUpdate

        batches = churn_batches(generate_document(scale=1), 6, seed=11)
        bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
        _, serial, serial_views = _engines()
        document = generate_document(scale=1)
        engine = MaintenanceEngine(
            document,
            backend=str(tmp_path / "engine.db") if backend == "durable" else None,
        )
        views = {
            name: engine.register_view(view_pattern(name), name, strategy="snowcaps")
            for name in VIEWS
        }
        stores = {name: registered.view._store for name, registered in views.items()}
        session = engine.session(workers=workers)
        assert len(session._processes) == workers - 1

        def move(source, target):
            name = session._assignment[source][0]
            session._migrate([(name, source, target)])
            assert session.assignment[name] == target

        flips = 0
        try:
            for index, batch in enumerate(batches):
                if workers > 1 and index == 1:
                    move(0, workers - 1)  # out of party 0
                if workers > 1 and index == 2:
                    move(1, 0)  # into party 0
                if workers > 2 and index == 3:
                    move(2, 1)  # replica to replica
                if workers > 1 and index == 4:
                    move(workers - 1, 0)  # into party 0 again
                if index == 3:
                    with pytest.raises(ValueError):
                        serial.apply_batch([bad])
                    with pytest.raises(ValueError):
                        session.apply_batch([bad])
                    assert not session._closed
                serial.apply_batch(list(batch))
                report = session.apply_batch(list(batch))
                assert report.workers == workers
                assert report.fallbacks == {}, index
                flips += sum(
                    entry.get("sigma_flips", 0) for entry in report.repairs.values()
                )
                for name in VIEWS:
                    assert (
                        views[name].view.content() == serial_views[name].view.content()
                    ), (index, name)
                    assert views[name].view.equals_fresh_evaluation(document), (
                        index,
                        name,
                    )
        finally:
            session.close()
        assert flips > 0  # the stream really exercised σ-flip repair
        for name in VIEWS:
            assert views[name].view._store is stores[name], name
        assert crashkit.lattice_digest(views) == crashkit.fresh_lattice_digest(
            views, document
        )
        if engine.backend is not None:
            engine.backend.close()

    @pytest.mark.parametrize("seed", [0, 4096])
    def test_replica_adoption_rebuilds_the_lattice(self, seed):
        # The replica side of a migration, in-process: release every
        # view, then adopt them back from the owner's extent pairs,
        # after a churn batch drawn from ``seed``.  Lattices never
        # travel, so each dropped one must come back as a fresh
        # materialization.
        from repro.sharding.session import _serve_migration

        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        for name in VIEWS:
            engine.register_view(view_pattern(name), name, strategy="snowcaps")
        engine.apply_batch(list(churn_batches(generate_document(scale=1), 1, seed=seed)[0]))
        before = {name: r.view.content() for name, r in engine.views.items()}
        idle = {}
        _serve_migration(engine, idle, ("migrate", list(VIEWS), {}))
        assert not engine.views
        for registered in idle.values():
            registered.lattice.drop()
        _serve_migration(engine, idle, ("migrate", [], before))
        assert not idle
        assert {name: r.view.content() for name, r in engine.views.items()} == before
        assert crashkit.lattice_digest(engine.views) == crashkit.fresh_lattice_digest(
            engine.views, document
        )

    def test_sync_durability_mid_session_reopens_fresh_lattices(self, tmp_path):
        # A caller checkpointing a live durable session, whose owner has
        # dropped the lattices other parties maintain, stores extents
        # only: recovery materializes every lattice from the replayed
        # document, equal to a fresh materialization.
        from repro.storage.recovery import reopen
        from repro.workloads.queries import VIEW_TEXTS

        names = sorted(VIEW_TEXTS)
        stream = statement_stream(
            generate_document(scale=2), 64, seed=17, insert_ratio=1.0
        )
        path = str(tmp_path / "engine.db")
        document = generate_document(scale=2)
        engine = MaintenanceEngine(document, backend=path)
        for name in names:
            engine.register_view(view_pattern(name), name, strategy="snowcaps")
        session = engine.session(workers=2)
        try:
            for index in range(0, len(stream), 8):
                session.apply_batch(UpdateBatch(stream[index : index + 8]))
            engine.sync_durability()
            recovered, report = reopen(
                path,
                generate_document(scale=2),
                {name: view_pattern(name) for name in names},
                view_options={name: {"strategy": "snowcaps"} for name in names},
            )
            try:
                assert report.lattices_rematerialized == len(names)
                for name in names:
                    assert recovered.views[name].view.equals_fresh_evaluation(
                        recovered.document
                    ), name
                assert crashkit.lattice_digest(
                    recovered.views
                ) == crashkit.fresh_lattice_digest(recovered.views, recovered.document)
            finally:
                recovered.backend.close()
        finally:
            session.close()
            engine.backend.close()


# -- read-through extents ------------------------------------------------------


class TestReadThrough:
    def test_first_read_pulls_once_per_replica_party(self):
        # A batch ships counters only; the first read of any behind view
        # pulls every behind view with one request per replica party,
        # and later reads (and close) pull nothing more.
        from repro.obs import Observability

        obs = Observability()
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document, obs=obs)
        views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
        session = ShardSession(engine, workers=3, weights={"Q1": 3.0, "Q3": 2.0, "Q6": 1.0})
        pulls = obs.metrics.get("repro_session_pulls_total")

        def requests():
            return [pulls.value((party,)) for party in ("1", "2")]

        try:
            session.apply_batch(
                UpdateBatch(statement_stream(document, 8, seed=3, insert_ratio=0.5))
            )
            assert session._behind == {"Q3", "Q6"} and requests() == [0, 0]
            assert views["Q1"].view.equals_fresh_evaluation(document)  # party 0's
            assert requests() == [0, 0]
            assert views["Q6"].view.equals_fresh_evaluation(document)
            assert requests() == [1, 1]
            for name in VIEWS:
                assert views[name].view.equals_fresh_evaluation(document), name
            assert requests() == [1, 1]
        finally:
            session.close()
        assert requests() == [1, 1]
        (pull,) = [span for span in obs.flush() if span.name == "session_pull"]
        assert pull.attrs == {
            "parties": 2,
            "views": 2,
            "rows": len(views["Q3"].view) + len(views["Q6"].view),
        }

    def test_reader_thread_beside_queue_worker(self):
        # Reads on another thread wait for the batch in flight instead
        # of interleaving pull messages with its replies.
        import threading

        stream = statement_stream(
            generate_document(scale=1), 48, seed=41, insert_ratio=0.7
        )
        _, serial, serial_views = _engines()
        for index in range(0, len(stream), 8):
            serial.apply_batch(UpdateBatch(stream[index : index + 8]))
        document, engine, views = _engines()
        session = engine.session(workers=2)
        pulls: list = []
        pull = session._pull
        session._pull = lambda names: pulls.append(pull(names))
        stop = threading.Event()
        reads: list = []
        errors: list = []

        def reader():
            while not stop.is_set():
                try:
                    reads.append(sum(len(views[name].view) for name in VIEWS))
                except BaseException as exc:
                    errors.append(exc)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            with ApplyQueue(session, max_batch_size=8) as queue:
                for index in range(0, len(stream), 8):
                    queue.extend_async(stream[index : index + 8])
                queue.flush()
            assert not session._closed
        finally:
            stop.set()
            thread.join()
            session.close()
        assert not errors and reads and pulls
        for name in VIEWS:
            assert views[name].view.content() == serial_views[name].view.content()
            assert views[name].view.equals_fresh_evaluation(document), name

    def test_durable_session_checkpoint_stores_read_through_extents(
        self, tmp_path, monkeypatch
    ):
        # A periodic checkpoint inside a session batch reads every
        # extent through first: the stored rows of each replica view
        # are the ID projection of its current extent.
        from repro.storage import sqlite

        monkeypatch.setattr(sqlite, "CHECKPOINT_BATCHES", 2)
        stream = statement_stream(
            generate_document(scale=1), 16, seed=9, insert_ratio=0.7
        )
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document, backend=str(tmp_path / "engine.db"))
        views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
        session = engine.session(workers=2)
        try:
            session.apply_batch(stream[:8])
            assert session._behind
            session.apply_batch(stream[8:])  # its commit checkpoints
            assert not session._behind
            backend = engine.backend
            assert set(backend.checkpoint_versions().values()) == {2}
            for name in session._assignment[1]:
                assert backend.stored_extent(name) == sqlite._id_projection(
                    views[name].view
                ), name
                assert views[name].view.equals_fresh_evaluation(document), name
        finally:
            session.close()
            engine.backend.close()


# -- replica garbage collection -------------------------------------------------


def test_replicas_collect_garbage_between_batches_only(monkeypatch):
    # A gc callback and a flag around apply_batch, both installed before
    # the fork, so the replica inherits them; shared memory carries the
    # replica's counts home.
    import gc
    import multiprocessing
    import os

    owner = os.getpid()
    counts = multiprocessing.RawArray("i", 2)  # [inside a batch, between]
    applying = [False]
    real_apply_batch = MaintenanceEngine.apply_batch

    def flagged(self, *args, **kwargs):
        applying[0] = True
        try:
            return real_apply_batch(self, *args, **kwargs)
        finally:
            applying[0] = False

    def on_gc(phase, info):
        if phase == "start" and os.getpid() != owner:
            counts[0 if applying[0] else 1] += 1

    monkeypatch.setattr(MaintenanceEngine, "apply_batch", flagged)
    document, engine, views = _engines()
    stream = statement_stream(document, 160, seed=23, insert_ratio=0.5)
    gc.callbacks.append(on_gc)
    try:
        with engine.session(workers=2) as session:
            for index in range(0, len(stream), 8):
                session.apply_batch(UpdateBatch(stream[index : index + 8]))
    finally:
        gc.callbacks.remove(on_gc)
    for name in VIEWS:
        assert views[name].view.equals_fresh_evaluation(document), name
    assert counts[0] == 0, "a replica collected inside a batch"
    assert counts[1] > 0, "a replica never collected"
