"""Crash-injection durability tests: the matrix the paper's engine must pass.

Every cell kills a workload child (SIGKILL, no cleanup) at a named
crash point, recovers the database in this process, finishes the
workload, and demands the result be *digest-identical* to an
uninterrupted in-memory serial run -- extents and snowcap lattices
both.  The deterministic matrix covers every crash point x engine mode;
the Hypothesis property re-rolls the workload seed and the crash cell.
"""

import contextlib
import sqlite3
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from harness import crashkit
from repro.obs import Observability
from repro.storage.crashpoints import CRASH_POINTS

#: (point, nth occurrence) -- the 2nd hit lands mid-stream, so there is
#: both committed history to adopt and remaining workload to re-apply.
CRASH_CELLS = [(point, 2) for point in CRASH_POINTS]


@pytest.fixture(scope="module")
def reference():
    return crashkit.reference_digests()


_reference_cache = {}


def _reference(seed):
    if seed not in _reference_cache:
        _reference_cache[seed] = crashkit.reference_digests(seed)
    return _reference_cache[seed]


def _assert_recovered(db_path, expected, seed=crashkit.SEED):
    """Recover, finish the workload, and check every durability claim."""
    obs = Observability()
    engine, report = crashkit.recover_and_finish(db_path, obs=obs, seed=seed)
    assert (
        crashkit.extent_digest(engine.views),
        crashkit.lattice_digest(engine.views),
    ) == expected
    # Periodic checkpoints bound the engine replay, and the metric must
    # agree with the report (telemetry proves that recovery replays
    # instead of rematerializing).
    assert report.replayed_batches <= crashkit.CHECKPOINT_BATCHES
    assert (
        obs.metrics.counter("repro_recovery_replayed_batches").value()
        == report.replayed_batches
    )
    assert report.durable_version + report.replayed_batches == report.last_committed_batch
    assert sorted(report.views) == sorted(crashkit.VIEWS)
    assert report.lattices_rematerialized == len(crashkit.VIEWS)
    return engine, report


class TestCrashMatrix:
    @pytest.mark.parametrize("point,nth", CRASH_CELLS)
    @pytest.mark.parametrize("mode", crashkit.MODES)
    def test_recovery_after_crash(self, tmp_path, reference, mode, point, nth):
        db_path = str(tmp_path / "engine.db")
        status = crashkit.run_crashing_fork(db_path, mode, point, nth)
        assert crashkit.died_by_sigkill(status), (
            "workload child should die by SIGKILL at %s:%d (wait status %d)"
            % (point, nth, status)
        )
        engine, report = _assert_recovered(db_path, reference)
        assert engine.backend.version == crashkit.BATCHES

    def test_session_mode_rematerializes_only_lattices(self, tmp_path, reference):
        # A ShardSession's owner drops the lattices other parties
        # maintain; recovery adopts every extent verbatim and
        # materializes the lattices, equal to a fresh materialization.
        from repro.storage.recovery import reopen

        db_path = str(tmp_path / "engine.db")
        status = crashkit.run_crashing_fork(db_path, "session", "after_commit_marker", 2)
        assert crashkit.died_by_sigkill(status)
        engine, report = reopen(
            db_path,
            crashkit.build_document(),
            crashkit.view_sources(),
            view_options=crashkit.view_options(),
        )
        assert report.lattices_rematerialized == len(crashkit.VIEWS)
        assert crashkit.lattice_digest(engine.views) == crashkit.fresh_lattice_digest(
            engine.views, engine.document
        )
        engine.backend.close()
        _assert_recovered(db_path, reference)

    def test_view_registered_after_a_batch(self, tmp_path, reference):
        # Q6 registers after batch 1, so its record is at version 1 and
        # the others' at 0; the kill lands before batch 2's checkpoint.
        db_path = str(tmp_path / "engine.db")
        status = crashkit.run_crashing_fork(
            db_path, "serial", "after_commit_marker", 2, late=True
        )
        assert crashkit.died_by_sigkill(status)
        with contextlib.closing(sqlite3.connect(db_path)) as connection:
            versions = connection.execute("SELECT view, version FROM checkpoints")
            assert dict(versions) == {"Q1": 0, "Q3": 0, "Q6": 1}
        engine, report = _assert_recovered(db_path, reference)
        assert (report.durable_version, report.replayed_batches) == (0, 2)


class TestCleanShutdown:
    def test_subprocess_completes_and_reopens_without_replay(self, tmp_path, reference):
        db_path = str(tmp_path / "engine.db")
        proc = crashkit.spawn_workload(db_path, "serial")
        assert proc.returncode == 0, proc.stderr
        assert "completed" in proc.stdout
        engine, report = _assert_recovered(db_path, reference)
        assert report.replayed_batches == 0
        assert report.truncated_bytes == 0
        assert report.torn_reason is None
        assert report.durable_version == crashkit.BATCHES

    def test_subprocess_crash_dies_by_sigkill(self, tmp_path, reference):
        # One real-interpreter cell (environment hook, fresh process):
        # the closest model of a production crash.
        db_path = str(tmp_path / "engine.db")
        proc = crashkit.spawn_workload(
            db_path, "serial", crash_spec="after_commit_marker:2"
        )
        assert proc.returncode == -9, (proc.returncode, proc.stderr)
        engine, report = _assert_recovered(db_path, reference)
        # Batches 1 and 2 committed before the first periodic checkpoint.
        assert report.replayed_batches == 2


@given(
    seed=st.sampled_from([13, 29, 71]),
    mode=st.sampled_from(crashkit.MODES),
    point=st.sampled_from(CRASH_POINTS),
    nth=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=8, deadline=None)
def test_random_crash_cells_recover_identically(seed, mode, point, nth):
    """Any (stream, crash cell, mode) recovers to the uninterrupted
    run's digests, replaying at most ``CHECKPOINT_BATCHES`` batches."""
    expected = _reference(seed)
    with tempfile.TemporaryDirectory() as tmp:
        db_path = tmp + "/engine.db"
        status = crashkit.run_crashing_fork(db_path, mode, point, nth, seed=seed)
        assert crashkit.died_by_sigkill(status)
        _assert_recovered(db_path, expected, seed=seed)
