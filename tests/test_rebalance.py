"""Adaptive view rebalancing: cost model, policy, migration protocol.

Three layers, mirroring the module split:

* :class:`repro.sharding.rebalance.ViewCostModel` -- deterministic
  median-prefiltered EWMA (spike rejection, drift tracking);
* :class:`repro.sharding.rebalance.RebalancePolicy` -- pure-function
  hysteresis (trigger/patience/cooldown/budget) and greedy planning,
  including the one-hop-per-round invariant the live migration
  protocol depends on;
* :class:`repro.sharding.session.ShardSession` live migration -- moved
  extents stay byte-identical to serial, poison batches and dead
  workers degrade exactly as without rebalancing, and a hypothesis property ties serial, frozen and
  adaptive sessions together over drift streams (extents *and*
  lattices).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import crashkit
from repro.maintenance.engine import MaintenanceEngine
from repro.obs import Observability
from repro.sharding import (
    RebalancePolicy,
    ViewCostModel,
    imbalance_ratio,
    lpt_assignment,
)
from repro.updates.language import UpdateBatch
from repro.workloads.drift import drift_batches, drift_phase_families, phase_of
from repro.workloads.queries import view_pattern
from repro.workloads.xmark import generate_document

VIEWS = ("Q1", "Q2", "Q3", "Q4", "Q6")


def _engine(scale=1, views=VIEWS, obs=None, strategy="snowcaps"):
    # Snowcaps unless a test says otherwise: a migrated view rebuilds
    # its lattice, and a leaves lattice has nothing to rebuild.
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document, obs=obs)
    registered = {
        name: engine.register_view(view_pattern(name), name, strategy=strategy)
        for name in views
    }
    return document, engine, registered


def _drift_stream(batches=6, scale=1, seed=3, families=None):
    document = generate_document(scale=scale)
    if families is None:
        _people, auctions, regions = drift_phase_families()
        families = [auctions, regions]
    rows = drift_batches(
        document, batches, batch_size=6, seed=seed, families=families
    )
    return [UpdateBatch(row) for row in rows if row]




#: weights that strand every view but Q1 on one worker: Q1's real
#: weight fills one bucket, the exact ties pile into the other (LPT's
#: argmin never moves between indistinguishable buckets).
STRAND_WEIGHTS = {name: (1.0 if name == "Q1" else 1e-9) for name in VIEWS}


def _eager_policy(**overrides):
    kwargs = dict(
        trigger_ratio=1.2,
        target_ratio=1.1,
        patience=1,
        cooldown=0,
        budget=4,
        alpha=0.5,
    )
    kwargs.update(overrides)
    return RebalancePolicy(**kwargs)


# -- cost model -------------------------------------------------------------


class TestViewCostModel:
    def test_seeds_then_smooths(self):
        model = ViewCostModel(alpha=0.5, spike_window=1)
        assert model.observe("Q1", 1.0) == 1.0  # first observation seeds
        assert model.observe("Q1", 3.0) == 2.0  # 1.0 + 0.5 * (3.0 - 1.0)
        assert model.cost("Q1") == 2.0
        assert model.cost("unseen", default=7.0) == 7.0

    def test_identical_streams_identical_costs(self):
        stream = [
            {"Q1": 0.01, "Q2": 0.002},
            {"Q1": 0.012, "Q2": 0.009},
            {"Q1": 0.030, "Q2": 0.001},
        ]
        first, second = ViewCostModel(alpha=0.3), ViewCostModel(alpha=0.3)
        for row in stream:
            first.observe_batch(row)
            second.observe_batch(dict(reversed(list(row.items()))))
        assert first.costs() == second.costs()  # fold order is irrelevant

    def test_median_filter_rejects_single_spike(self):
        model = ViewCostModel(alpha=0.5, spike_window=3)
        for seconds in (0.010, 0.011, 0.012):
            model.observe("Q1", seconds)
        settled = model.cost("Q1")
        model.observe("Q1", 0.500)  # a GC pause / CPU-steal artifact
        # The median of (0.011, 0.012, 0.5) is 0.012: the spike never
        # enters the EWMA at all.
        assert model.cost("Q1") == pytest.approx(settled + 0.5 * (0.012 - settled))
        assert model.cost("Q1") < 0.02

    def test_median_filter_passes_sustained_change(self):
        model = ViewCostModel(alpha=1.0, spike_window=3)
        for seconds in (0.001, 0.001, 0.001):
            model.observe("Q1", seconds)
        model.observe("Q1", 0.030)  # drift-phase flip, batch 1...
        model.observe("Q1", 0.031)  # ...batch 2: now the median moves
        assert model.cost("Q1") == 0.030

    def test_spike_window_one_disables_filter(self):
        model = ViewCostModel(alpha=1.0, spike_window=1)
        model.observe("Q1", 0.001)
        model.observe("Q1", 0.500)
        assert model.cost("Q1") == 0.500

    def test_load_of_sums_known_views(self):
        model = ViewCostModel(spike_window=1)
        model.observe("Q1", 0.004)
        model.observe("Q2", 0.001)
        assert model.load_of(["Q1", "Q2", "unknown"]) == pytest.approx(0.005)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ViewCostModel(alpha=0.0)
        with pytest.raises(ValueError, match="spike_window"):
            ViewCostModel(spike_window=0)
        with pytest.raises(ValueError, match="spike_window"):
            ViewCostModel(spike_window=2)  # even windows have no median


# -- policy hysteresis and planning -----------------------------------------


def _skewed_timings(hot=0.010, cold=0.001):
    """Timings that overload the owner of Q2..Q6 under STRAND order."""
    return {name: (cold if name == "Q1" else hot) for name in VIEWS}


class TestRebalancePolicy:
    def test_below_trigger_never_moves(self):
        policy = _eager_policy()
        assignment = [["Q1", "Q2"], ["Q3", "Q4"]]
        for _ in range(10):
            assert policy.observe(assignment, {n: 0.01 for n in VIEWS}) == []
        assert policy.moves_decided == 0

    def test_patience_requires_consecutive_over_trigger(self):
        policy = _eager_policy(patience=3)
        piled = [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]
        spread = [["Q2", "Q3"], ["Q1", "Q4", "Q6"]]  # ratio ~1.02
        skewed = _skewed_timings()
        assert policy.observe(piled, skewed) == []  # 1 of 3
        assert policy.observe(piled, skewed) == []  # 2 of 3
        # A below-trigger batch resets the counter entirely (the ratio
        # is a function of the assignment, not just the timings)...
        assert policy.observe(spread, skewed) == []
        assert policy.observe(piled, skewed) == []  # back to 1 of 3
        assert policy.observe(piled, skewed) == []  # 2 of 3
        # ...while the third consecutive over-trigger batch fires.
        assert policy.observe(piled, skewed) != []

    def test_cooldown_blocks_next_decision(self):
        policy = _eager_policy(cooldown=2, patience=1)
        assignment = [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]
        skewed = _skewed_timings()
        moves = policy.observe(assignment, skewed)
        assert moves
        # Apply nothing: the imbalance persists, but the cooldown blocks
        # the next two decisions regardless.
        assert policy.observe(assignment, skewed) == []
        assert policy.observe(assignment, skewed) == []
        assert policy.observe(assignment, skewed) != []

    def test_budget_caps_moves_per_round(self):
        policy = _eager_policy(budget=1)
        assignment = [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]
        moves = policy.observe(assignment, _skewed_timings())
        assert len(moves) == 1

    def test_moves_are_single_hop_from_pre_round_owner(self):
        # Regression: the greedy planner used to chain-move a view
        # (w0 -> w1 in move k, w1 -> w2 in move k+n), which the
        # migration protocol rejects -- it ships every move from the
        # view's pre-round owner.
        policy = _eager_policy(budget=8, target_ratio=1.05)
        assignment = [
            ["Q1", "Q2", "Q3", "Q4", "Q6"],
            [],
            [],
        ]
        moves = policy.observe(assignment, {n: 0.01 for n in VIEWS})
        assert moves  # everything on one worker is over any trigger
        seen = set()
        for name, source, target in moves:
            assert name not in seen  # at most one hop per round
            assert name in assignment[source]  # source is pre-round owner
            assert source != target
            seen.add(name)

    def test_equal_timing_streams_equal_decision_streams(self):
        stream = [
            {n: (0.01 if i % 3 else 0.002) for n in VIEWS} for i in range(8)
        ]
        stream[4] = _skewed_timings()
        stream[5] = _skewed_timings()

        def run():
            policy = _eager_policy(patience=2, cooldown=1)
            assignment = [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]
            decisions = []
            for row in stream:
                decisions.append(policy.observe(assignment, row))
            return decisions

        assert run() == run()

    def test_plan_is_pure(self):
        policy = _eager_policy()
        policy.model.observe_batch(_skewed_timings())
        assignment = [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]
        first = policy.plan(assignment)
        assert policy.plan(assignment) == first  # no hidden state
        assert assignment == [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]  # untouched

    def test_coerce(self):
        assert RebalancePolicy.coerce(None) is None
        assert RebalancePolicy.coerce(False) is None
        defaults = RebalancePolicy.coerce(True)
        assert isinstance(defaults, RebalancePolicy)
        policy = _eager_policy()
        assert RebalancePolicy.coerce(policy) is policy
        with pytest.raises(TypeError, match="rebalance"):
            RebalancePolicy.coerce("aggressive")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            RebalancePolicy(trigger_ratio=1.0, target_ratio=1.2)
        with pytest.raises(ValueError, match="cooldown"):
            RebalancePolicy(cooldown=-1)
        RebalancePolicy(cooldown=0)  # same-batch repair is legal


# -- LPT helpers under rebalance-shaped inputs ------------------------------


class TestLptStranding:
    def test_exact_ties_pile_onto_one_bucket(self):
        weights = dict(STRAND_WEIGHTS)
        assignment = lpt_assignment(weights, 2)
        sizes = sorted(len(bucket) for bucket in assignment)
        assert sizes == [1, len(VIEWS) - 1]  # Q1 alone, ties together

    def test_imbalance_ratio_flags_the_pile(self):
        model = ViewCostModel(spike_window=1)
        model.observe_batch(_skewed_timings())
        piled = [["Q1"], ["Q2", "Q3", "Q4", "Q6"]]
        ratio = imbalance_ratio([model.load_of(owned) for owned in piled])
        assert ratio > 1.9  # ~40ms vs ~1ms against a ~20ms mean


# -- live sessions ----------------------------------------------------------


class TestSessionMigration:
    def _serial_reference(self, batches, scale=1, strategy="snowcaps"):
        document, engine, registered = _engine(scale=scale, strategy=strategy)
        for batch in batches:
            engine.apply_batch(batch)
        return document, registered

    def _assert_matches_serial(self, serial_views, views, document):
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == views[name].view.content()
            ), name
            assert views[name].view.equals_fresh_evaluation(document), name
        assert crashkit.lattice_digest(serial_views) == crashkit.lattice_digest(views)

    def _run_adaptive(self, batches, policy, strategy="snowcaps"):
        # A real Observability so repro_session_migrations_total counts
        # (the default registry is a no-op).
        document, engine, registered = _engine(obs=Observability(), strategy=strategy)
        session = engine.session(
            workers=2, weights=STRAND_WEIGHTS, rebalance=policy
        )
        initial = [list(owned) for owned in session._assignment]
        try:
            for batch in batches:
                session.apply_batch(batch)
            migrations = sum(
                value
                for _labels, value in session._migrations_counter.samples()
            )
            assert migrations == policy.moves_decided
            assert session._assignment != initial  # ownership really moved
        finally:
            session.close()
        return document, registered, migrations

    def test_ship_path_migrates_and_stays_identical(self):
        batches = _drift_stream(batches=6, seed=3)
        serial_doc, serial_views = self._serial_reference(batches)
        document, registered, migrations = self._run_adaptive(
            batches, _eager_policy()
        )
        assert migrations > 0  # the stranded hot family forced moves
        self._assert_matches_serial(serial_views, registered, document)

    def test_recompute_path_migrates_and_stays_identical(self):
        batches = _drift_stream(batches=6, seed=3)
        serial_doc, serial_views = self._serial_reference(batches, strategy="leaves")
        # A "leaves" lattice materializes nothing: a moved view's R-parts
        # are recomputed on its new party, with no lattice to rebuild --
        # same extents either way.
        document, registered, migrations = self._run_adaptive(
            batches, _eager_policy(), strategy="leaves"
        )
        assert migrations > 0
        self._assert_matches_serial(serial_views, registered, document)

    def test_poison_batch_with_rebalancing_keeps_serving(self):
        from repro.updates.language import InsertUpdate

        batches = _drift_stream(batches=4, seed=3)
        document, engine, registered = _engine()
        session = engine.session(
            workers=2, weights=STRAND_WEIGHTS, rebalance=_eager_policy()
        )
        try:
            for batch in batches[:2]:
                session.apply_batch(batch)
            bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
            with pytest.raises(ValueError):
                session.apply_batch(UpdateBatch([bad]))
            assert not session._closed  # poison fails only itself
            for batch in batches[2:]:
                session.apply_batch(batch)
            for name in VIEWS:
                assert registered[name].view.equals_fresh_evaluation(
                    document
                ), name
        finally:
            session.close()

    def test_dead_worker_mid_migration_poisons_session(self):
        batches = _drift_stream(batches=2, seed=3)
        document, engine, registered = _engine()
        session = engine.session(workers=2, weights=STRAND_WEIGHTS)
        try:
            for batch in batches:
                session.apply_batch(batch)
            party = 1
            victim = session._assignment[party][0]
            # Party 0 is the owner; party p runs in _processes[p - 1].
            session._processes[party - 1].terminate()
            session._processes[party - 1].join()
            with pytest.raises(RuntimeError, match="died during migration"):
                session._migrate([(victim, party, 0)])
            assert session._closed
            # Owner extents were restored from the owner document.
            for name in VIEWS:
                assert registered[name].view.equals_fresh_evaluation(
                    document
                ), name
        finally:
            session.close()

    def test_migrate_rejects_moves_from_wrong_owner(self):
        document, engine, registered = _engine()
        session = engine.session(workers=2, weights=STRAND_WEIGHTS)
        try:
            not_owner = 0 if "Q2" in session._assignment[1] else 1
            with pytest.raises(ValueError, match="not owned"):
                session._migrate([("Q2", not_owner, 1 - not_owner)])
            with pytest.raises(ValueError, match="source == target"):
                session._migrate([("Q2", 1 - not_owner, 1 - not_owner)])
            with pytest.raises(ValueError, match="moves twice"):
                session._migrate([("Q2", 1 - not_owner, not_owner)] * 2)
            assert not session._closed
        finally:
            session.close()


# -- drift workload generator -----------------------------------------------


class TestDriftWorkload:
    def test_phase_of_partitions_evenly(self):
        assert [phase_of(i, 9, 3) for i in range(9)] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert phase_of(9, 10, 3) == 2  # remainder absorbed by last phase
        with pytest.raises(ValueError):
            phase_of(0, 0, 3)

    def test_streams_are_deterministic(self):
        document = generate_document(scale=1)
        first = drift_batches(document, 4, batch_size=5, seed=9)
        second = drift_batches(generate_document(scale=1), 4, batch_size=5, seed=9)
        signature = lambda rows: [[s.name for s in row] for row in rows]
        assert signature(first) == signature(second)
        different = drift_batches(document, 4, batch_size=5, seed=10)
        assert signature(first) != signature(different)

    def test_hot_family_rotates(self):
        document = generate_document(scale=1)
        _people, auctions, regions = drift_phase_families()
        rows = drift_batches(
            document,
            6,
            batch_size=8,
            seed=2,
            families=[auctions, regions],
            hot_share=1.0,
            warm_share=0.0,
        )
        base_names = [
            [statement.name.split("#")[0] for statement in row] for row in rows
        ]
        assert all(name in auctions for row in base_names[:3] for name in row)
        assert all(name in regions for row in base_names[3:] for name in row)


# -- serial == frozen == adaptive, property-tested --------------------------


class TestAdaptiveEquivalenceProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batch_count=st.integers(min_value=2, max_value=5),
    )
    def test_serial_frozen_adaptive_agree(self, seed, batch_count):
        batches = _drift_stream(batches=batch_count, seed=seed)
        if not batches:
            return
        # Every example runs under both strategies, so neither loses examples.
        for strategy in ("snowcaps", "leaves"):
            self._check_agreement(batches, strategy)

    @staticmethod
    def _check_agreement(batches, strategy):
        serial_doc, serial_engine, serial_views = _engine(strategy=strategy)
        for batch in batches:
            serial_engine.apply_batch(batch)

        def run_session(rebalance):
            document, engine, registered = _engine(strategy=strategy)
            session = engine.session(
                workers=2, weights=STRAND_WEIGHTS, rebalance=rebalance
            )
            try:
                for batch in batches:
                    session.apply_batch(batch)
            finally:
                session.close()
            return document, registered

        frozen_doc, frozen_views = run_session(None)
        adaptive_doc, adaptive_views = run_session(_eager_policy())
        for name in VIEWS:
            serial_content = serial_views[name].view.content()
            assert serial_content == frozen_views[name].view.content(), name
            assert serial_content == adaptive_views[name].view.content(), name
            assert adaptive_views[name].view.equals_fresh_evaluation(
                adaptive_doc
            ), name
        serial_lattices = crashkit.lattice_digest(serial_views)
        assert serial_lattices == crashkit.lattice_digest(frozen_views)
        assert serial_lattices == crashkit.lattice_digest(adaptive_views)
