"""σ-flip repair: adversarial churn equivalence and repair-path scoping.

The central invariant: on any update stream, the repairing engine's
extents *and* snowcap lattices equal fresh evaluation -- the view
re-evaluated and a new ``SnowcapLattice`` materialized over the same
document -- in-process and under a resident
:class:`~repro.sharding.session.ShardSession`.  The streams come from
:func:`repro.workloads.churn.churn_batches`, which is built to hit the
cases the 2^k − 1 terms cannot express (σ-value rewrites, flip
round-trips, dirty removed subtrees).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import crashkit
from repro.maintenance.engine import MaintenanceEngine
from repro.sharding import ShardSession
from repro.updates.language import UpdateBatch
from repro.workloads.churn import churn_batches
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

VIEWS = ("Q1", "Q2", "Q3", "Q4", "Q17")


def _register(engine, views=VIEWS, **options):
    return {
        name: engine.register_view(view_pattern(name), name, **options)
        for name in views
    }


def _assert_fresh(views, document, context, lattices=True):
    """Every extent (and lattice) equals fresh evaluation."""
    for name, registered in views.items():
        assert registered.view.equals_fresh_evaluation(document), (context, name)
    if lattices:
        fresh = crashkit.fresh_lattice_digest(views, document)
        assert crashkit.lattice_digest(views) == fresh, context


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
        # "Forced recompute" is fresh evaluation of view and lattice.
        batches = churn_batches(
            generate_document(scale=1),
            6,
            batch_size=5,
            seed=seed,
            flip_gap=flip_gap,
            dirty_every=dirty_every,
        )
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        views = _register(engine, strategy="snowcaps")
        repaired = 0
        for index, batch in enumerate(batches):
            report = engine.apply_batch(list(batch))
            assert report.fallbacks == {}, index
            repaired += sum(
                entry.get("sigma_flips", 0) for entry in report.repairs.values()
            )
            _assert_fresh(views, document, index)
        # The generator must actually exercise the repair path.
        assert repaired > 0

    def test_repair_matches_under_shard_session(self):
        batches = churn_batches(generate_document(scale=1), 6, seed=11)
        document = generate_document(scale=1)
        engine = MaintenanceEngine(document)
        views = _register(engine, strategy="snowcaps")
        with ShardSession(engine, workers=2) as session:
            for index, batch in enumerate(batches):
                report = session.apply_batch(list(batch))
                assert report.fallbacks == {}, index
                # The owner's lattices are stale while workers hold them.
                _assert_fresh(views, document, index, lattices=False)
        # close() re-materialized the owner lattices; full agreement now.
        _assert_fresh(views, document, "closed")


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
