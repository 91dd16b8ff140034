"""σ-flip repair: adversarial churn equivalence and repair-path scoping.

The tentpole invariant: on any update stream, the repair engine's
extents *and* snowcap lattices are byte-identical to what the
historical whole-view recompute fallback produced -- serial, sharded
and under a resident :class:`~repro.sharding.session.ShardSession`.
The streams come from :func:`repro.workloads.churn.churn_batches`,
which is built to hit the old fallback triggers (σ-value rewrites,
flip round-trips, dirty removed subtrees).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maintenance.engine import MaintenanceEngine
from repro.sharding import ShardSession
from repro.updates.language import UpdateBatch
from repro.workloads.churn import churn_batches
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

VIEWS = ("Q1", "Q2", "Q3", "Q4", "Q17")


def _register(engine, views=VIEWS):
    return {name: engine.register_view(view_pattern(name), name) for name in views}


def _lattice_id_rows(registered):
    """Materialized lattice content as sorted binding-ID rows."""
    out = {}
    for subset in registered.lattice.materialized_sets():
        relation = registered.lattice.relation_for(subset)
        out[subset] = sorted(
            tuple(cell.id for cell in row) for row in relation.rows
        )
    return out


def _assert_engines_agree(repair_views, forced_views, context):
    for name in repair_views:
        assert (
            repair_views[name].view.content() == forced_views[name].view.content()
        ), (context, name)
        assert _lattice_id_rows(repair_views[name]) == _lattice_id_rows(
            forced_views[name]
        ), (context, name)


class TestChurnEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        flip_gap=st.integers(min_value=1, max_value=3),
        dirty_every=st.integers(min_value=0, max_value=3),
    )
    def test_repair_matches_forced_recompute(self, seed, flip_gap, dirty_every):
        batches = churn_batches(
            generate_document(scale=1),
            6,
            batch_size=5,
            seed=seed,
            flip_gap=flip_gap,
            dirty_every=dirty_every,
        )
        repair_doc = generate_document(scale=1)
        forced_doc = generate_document(scale=1)
        repair = MaintenanceEngine(repair_doc)
        forced = MaintenanceEngine(forced_doc, sigma_repair=False)
        repair_views = _register(repair)
        forced_views = _register(forced)
        repaired = 0
        for index, batch in enumerate(batches):
            repair_report = repair.apply_batch(list(batch))
            forced.apply_batch(list(batch))
            assert repair_report.fallbacks == {}, index
            repaired += sum(
                entry.get("sigma_flips", 0)
                for entry in repair_report.repairs.values()
            )
            _assert_engines_agree(repair_views, forced_views, index)
            for name in VIEWS:
                assert repair_views[name].view.equals_fresh_evaluation(
                    repair_doc
                ), (index, name)
        # The generator must actually exercise the repair path.
        assert repaired > 0

    def test_repair_matches_under_shard_session(self):
        batches = churn_batches(generate_document(scale=1), 6, seed=11)
        session_doc = generate_document(scale=1)
        forced_doc = generate_document(scale=1)
        session_engine = MaintenanceEngine(session_doc)
        forced = MaintenanceEngine(forced_doc, sigma_repair=False)
        session_views = _register(session_engine)
        forced_views = _register(forced)
        with ShardSession(session_engine, workers=2) as session:
            for index, batch in enumerate(batches):
                report = session.apply_batch(list(batch))
                forced.apply_batch(list(batch))
                assert report.fallbacks == {}, index
                for name in VIEWS:
                    assert (
                        session_views[name].view.content()
                        == forced_views[name].view.content()
                    ), (index, name)
        # close() re-materialized the owner lattices; full agreement now.
        _assert_engines_agree(session_views, forced_views, "closed")

    def test_sharded_workers_agree_with_serial_repair(self):
        batches = churn_batches(generate_document(scale=1), 5, seed=7)
        serial_doc = generate_document(scale=1)
        sharded_doc = generate_document(scale=1)
        serial = MaintenanceEngine(serial_doc)
        sharded = MaintenanceEngine(sharded_doc, workers=2)
        serial_views = _register(serial)
        sharded_views = _register(sharded)
        for index, batch in enumerate(batches):
            serial.apply_batch(list(batch))
            report = sharded.apply_batch(list(batch))
            assert report.fallbacks == {}, index
            _assert_engines_agree(serial_views, sharded_views, index)


class TestRepairPathScoping:
    def test_insert_only_batches_never_enter_repair(self):
        # Structurally clean insert streams must not pay for snapshots,
        # repairs or fallbacks -- the fast path stays the fast path.
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        _register(engine)
        stream = statement_stream(document, 12, seed=3, insert_ratio=1.0)
        for start in range(0, len(stream), 4):
            report = engine.apply_batch(UpdateBatch(stream[start : start + 4]))
            assert report.repairs == {}
            assert report.fallbacks == {}
            assert report.dirty_restored == 0

    def test_flip_bearing_batch_repairs_without_fallback(self):
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        views = _register(engine)
        first, second = churn_batches(
            document, 2, batch_size=2, seed=0, flip_gap=1, dirty_every=0
        )
        report = engine.apply_batch(list(first))
        assert report.fallbacks == {}
        assert any(
            entry.get("evicted", 0) for entry in report.repairs.values()
        )
        report = engine.apply_batch(list(second))
        assert report.fallbacks == {}
        assert any(
            entry.get("admitted", 0) for entry in report.repairs.values()
        )
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(document), name
