"""Unit tests for the durable storage layer (repro.storage).

Six areas: the row order (``row_sort_key`` with DeweyID padded
semantics, however an ID was built, and kept by the checkpoint
records' ID projection), the
WAL frame format under torn writes (recovery drops exactly the
uncommitted suffix, never a committed batch), the fork/pickle
refusals, checkpoints of a durable view's store against a plain-dict
reference, the reopen-level RecoveryReport surface, and the
checkpoint records (each equals its view's ID projection after every
checkpoint, a refresh changes none, foreign formats and dangling IDs
are refused, a dropped view's record goes with it).
"""

import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import chain_pattern
from repro.storage.recovery import (
    RecoveryError,
    RecoveryReport,
    _truncate_uncommitted,
    reopen,
)
from repro.storage.sqlite import SqliteExtentBackend, _projector, wal_path
from repro.storage.wal import COMMIT, DATA, HEADER_SIZE, BatchWal
from repro.views.view import row_sort_key
from repro.xmldom.dewey import DeweyID


# -- row order ----------------------------------------------------------------


def dewey(*steps):
    return DeweyID([("n%d" % i, ordinal) for i, ordinal in enumerate(steps)])


class TestKeyEncoding:
    """Rows order in a store (and in its checkpoint record) by
    ``row_sort_key``, whose DeweyID cells are their ``sort_key`` s."""

    def test_dewey_padded_semantics(self):
        # (1,) == (1, 0) padded; (1, -1) sorts before both; (1, 1) after.
        base = row_sort_key((dewey((1,)),))
        padded = row_sort_key((dewey((1, 0)),))
        before = row_sort_key((dewey((1, -1)),))
        after = row_sort_key((dewey((1, 1)),))
        assert base == padded
        assert before < base < after
        # Earlier positions dominate: (1, -1, 5) < (1,) < (1, 0, 0, 2).
        assert row_sort_key((dewey((1, -1, 5)),)) < base
        assert base < row_sort_key((dewey((1, 0, 0, 2)),))

    def test_dewey_step_prefix_sorts_first(self):
        shorter = row_sort_key((dewey((1,)),))
        longer = row_sort_key((dewey((1,), (1,)),))
        assert shorter < longer


_ordinals = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(tuple)
_deweys = st.lists(
    st.tuples(st.sampled_from("abc"), _ordinals), min_size=1, max_size=3
).map(DeweyID)


# -- WAL frames and torn tails ----------------------------------------------


def _build_wal(path, batches=3, uncommitted_tail=True):
    wal = BatchWal(path)
    for batch_id in range(1, batches + 1):
        wal.append_batch(batch_id, ["stmt-%d" % batch_id])
        wal.append_commit(batch_id)
    if uncommitted_tail:
        wal.append_batch(batches + 1, ["stmt-tail"])
    wal.close()
    with open(path, "rb") as handle:
        return handle.read()


class TestWalTornTail:
    def test_clean_scan(self, tmp_path):
        path = str(tmp_path / "wal")
        _build_wal(path, uncommitted_tail=False)
        records, torn = BatchWal.scan(path)
        assert torn is None
        assert [r.kind for r in records] == [DATA, COMMIT] * 3
        batches, last = BatchWal.committed_statements(records)
        assert last == 3
        assert batches[2] == ["stmt-2"]

    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        path = str(tmp_path / "wal")
        data = _build_wal(path)
        records, _ = BatchWal.scan(path)
        tail_start = records[-1].offset  # the uncommitted DATA record
        for cut in range(tail_start, len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            records_now, torn = BatchWal.scan(path)
            if cut > tail_start:
                assert torn is not None and torn.offset == tail_start
            batches, last = BatchWal.committed_statements(records_now)
            assert last == 3  # committed batches never lost
            kept, removed = _truncate_uncommitted(path, records_now, last)
            assert os.path.getsize(path) == tail_start
            assert [r.batch_id for r in kept if r.kind == COMMIT] == [1, 2, 3]

    def test_bitflip_at_every_byte_of_final_record(self, tmp_path):
        path = str(tmp_path / "wal")
        data = _build_wal(path)
        records, _ = BatchWal.scan(path)
        tail_start = records[-1].offset
        for offset in range(tail_start, len(data)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x40
            with open(path, "wb") as handle:
                handle.write(bytes(corrupted))
            records_now, torn = BatchWal.scan(path)
            assert torn is not None and torn.offset == tail_start
            batches, last = BatchWal.committed_statements(records_now)
            assert last == 3
            _truncate_uncommitted(path, records_now, last)
            assert os.path.getsize(path) == tail_start

    def test_commit_gap_is_an_error(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = BatchWal(path)
        wal.append_batch(1, ["a"])
        wal.append_commit(1)
        wal.append_batch(3, ["c"])  # id 2 never logged
        wal.append_commit(3)
        wal.close()
        records, _ = BatchWal.scan(path)
        with pytest.raises(ValueError, match="gap"):
            BatchWal.committed_statements(records)

    def test_commit_without_data_is_uncommitted(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = BatchWal(path)
        wal.append_commit(1)  # marker with no payload record
        wal.close()
        records, torn = BatchWal.scan(path)
        assert torn is None
        batches, last = BatchWal.committed_statements(records)
        assert (batches, last) == ({}, 0)


# -- fork/pickle boundary ----------------------------------------------------


class TestBoundaryRefusals:
    def test_wal_refuses_pickle(self, tmp_path):
        wal = BatchWal(str(tmp_path / "wal"))
        with pytest.raises(TypeError, match="fork/pickle"):
            pickle.dumps(wal)
        wal.close()

    def test_backend_refuses_pickle(self, tmp_path):
        backend = SqliteExtentBackend(str(tmp_path / "db"))
        with pytest.raises(TypeError, match="fork/pickle"):
            pickle.dumps(backend)
        backend.close()

    def test_forked_child_does_not_journal(self, tmp_path):
        backend = SqliteExtentBackend(str(tmp_path / "db"))
        view = _tracked(backend, "v")
        view._store.put((1,), 1)
        backend.sync()
        real_pid = backend._pid
        backend._pid = real_pid + 1  # what a forked child observes
        assert not backend.writable
        view._store.put((2,), 2)
        backend.sync()  # no-op in a child
        backend.drop_view("v")  # forgets the view, keeps the record
        backend.close()  # likewise guarded: inherited handles untouched
        assert backend.stored_extent("v") == [((1,), 1)]
        backend._pid = real_pid
        backend.close()


def _tracked(backend, name, pattern=None):
    """A view checkpointed by ``backend`` (default: one ID column)."""
    from repro.views.view import MaterializedView

    view = MaterializedView(pattern or chain_pattern("a"))
    backend.track(name, view)
    return view


class TestSqliteStore:
    def test_flush_and_stored_extent_roundtrip(self, tmp_path):
        path = str(tmp_path / "db")
        backend = SqliteExtentBackend(path)
        store = _tracked(backend, "v")._store
        batch_id = backend.begin_batch(["s"])
        store.load_sorted([((1,), 10), ((2,), 20)])
        store.delete((2,))
        backend.commit_batch(batch_id)
        backend.close()  # checkpoints the batch
        fresh = SqliteExtentBackend(path)
        assert fresh.stored_extent("v") == [((1,), 10)]
        fresh.close()

    def test_reload_clears_stale_rows(self, tmp_path):
        backend = SqliteExtentBackend(str(tmp_path / "db"))
        store = _tracked(backend, "v")._store
        store.put((1,), 1)
        backend.sync()
        store.load_sorted([((2,), 2)])
        backend.sync()
        assert backend.stored_extent("v") == [((2,), 2)]
        backend.close()

    def test_adopt_does_not_rewrite(self, tmp_path):
        # Tracking (what adoption does) writes nothing: the record the
        # view was adopted from stays until the next checkpoint.
        backend = SqliteExtentBackend(str(tmp_path / "db"))
        _tracked(backend, "v")._store.put((1,), 1)
        backend.checkpoint(["v"])
        adopted = _tracked(backend, "v")
        adopted._store.put((2,), 2)
        assert backend.stored_extent("v") == [((1,), 1)]
        backend.close()

    def test_version_accounting(self, tmp_path, monkeypatch):
        from repro.storage import sqlite

        monkeypatch.setattr(sqlite, "CHECKPOINT_BATCHES", 3)
        path = str(tmp_path / "db")
        backend = SqliteExtentBackend(path)
        _tracked(backend, "v")
        for expected in range(1, 5):
            assert backend.begin_batch(["s"]) == expected
            backend.commit_batch(expected)
        # Kept in memory; sqlite saw only the checkpoint at batch 3.
        assert (backend.version, backend._meta_version()) == (4, 3)
        assert backend.checkpoint_versions() == {"v": 3}
        backend.close()
        fresh = SqliteExtentBackend(path)
        assert (fresh.version, fresh.checkpoint_versions()) == (4, {"v": 4})
        fresh.close()


#: per ID, one step's action: ``("shift", n)`` changes its count by n
#: (``"drop"``: by minus its count), ``(val, n)`` rewrites its val cell
#: to ``val`` and moves its count there, plus n.
_durable_steps = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.one_of(
            st.tuples(
                st.just("shift"),
                st.one_of(st.integers(min_value=-2, max_value=3), st.just("drop")),
            ),
            st.tuples(st.sampled_from("pqr"), st.integers(min_value=-1, max_value=2)),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=8,
)


@given(steps=_durable_steps)
@settings(max_examples=40, deadline=None)
def test_checkpoints_hold_the_mirrors_projection(steps):
    """``merge_shifts`` on a durable view's store against a plain-dict
    reference: the store follows the reference, errors change neither
    store nor record, and after every checkpoint the record holds the
    store's ID projection."""
    ids = [dewey((0,), (index,)) for index in range(6)]
    with tempfile.TemporaryDirectory() as directory:
        backend = SqliteExtentBackend(os.path.join(directory, "db"))
        store = _tracked(backend, "v", chain_pattern("a", annotate="ID val"))._store
        reference = {}  # (ID, val) -> count; one row per ID
        try:
            for step in steps:
                current = {row[0]: (row, count) for row, count in reference.items()}
                shifts = {}
                for index, (action, amount) in step.items():
                    row, count = current.get(ids[index], ((ids[index], "o"), 0))
                    if action == "shift":
                        shifts[row] = -count if amount == "drop" else amount
                    elif count and action != row[1]:
                        shifts[row] = -count
                        shifts[(ids[index], action)] = count + amount
                    else:
                        shifts[row] = amount
                expected = dict(reference)
                for row, shift in shifts.items():
                    expected[row] = expected.get(row, 0) + shift
                    if not expected[row]:
                        del expected[row]
                before = store.snapshot()
                if any(count < 0 for count in expected.values()):
                    with pytest.raises((KeyError, ValueError)):
                        store.merge_shifts(shifts)
                    assert store.snapshot() == before
                else:
                    store.merge_shifts(shifts)
                    reference = expected
                assert list(store.items()) == sorted(
                    reference.items(), key=lambda item: row_sort_key(item[0])
                )
                backend.sync()
                assert backend.stored_extent("v") == [
                    ((row[0], None), count) for row, count in store.items()
                ]
        finally:
            backend.close()


# -- reopen-level recovery surface ------------------------------------------


class TestReopenSurface:
    def test_reopen_missing_views_raises_keyerror(self, tmp_path, fig2_document):
        path = str(tmp_path / "db")
        backend = SqliteExtentBackend(path)
        backend.close()
        with pytest.raises(KeyError, match="no durable extent"):
            reopen(path, fig2_document, {"v": chain_pattern("a", "b")})

    def test_version_ahead_of_wal_is_an_error(self, tmp_path, fig2_document):
        path = str(tmp_path / "db")
        backend = SqliteExtentBackend(path)
        backend.commit_batch(backend.begin_batch(["s"]))
        backend.close()
        # Lose the whole WAL: the database now claims a history the log
        # cannot prove.
        os.truncate(wal_path(path), 0)
        with pytest.raises(RecoveryError, match="ahead of the WAL"):
            reopen(path, fig2_document, {})

    def test_report_repr_is_structured(self):
        report = RecoveryReport(path="x", last_committed_batch=3,
                                durable_version=2, replayed_batches=1)
        assert "C=3" in repr(report) and "replayed=1" in repr(report)


# -- ID-projection rows ------------------------------------------------------


@st.composite
def _dewey_families(draw):
    """IDs sharing prefixes: a tree grown by ``child`` (parents linked,
    out-of-band ordinals included) plus a few IDs built from bare steps
    (parents linked lazily, possibly equal to a tree ID)."""
    ids = [DeweyID.root(draw(st.sampled_from("abc")))]
    for _ in range(draw(st.integers(1, 12))):
        parent = draw(st.sampled_from(ids))
        ids.append(parent.child(draw(st.sampled_from("abc")), draw(_ordinals)))
    ids.extend(draw(st.lists(_deweys, max_size=4)))
    return ids


def test_out_of_band_ids_encode_alike_however_built():
    # Grown by child(), built flat, unpickled, or linked lazily by
    # parent(): one ID, one key, one row key.
    root = DeweyID.root("r")
    padded = root.child("a", (2, -1)).child("b", (0, -3, 1))
    flat = DeweyID(padded.steps)
    for other in (flat, pickle.loads(pickle.dumps(padded))):
        assert other.sort_key == padded.sort_key
        assert row_sort_key((other, None)) == row_sort_key((padded, None))
    assert flat.parent().sort_key == padded.parent().sort_key
    assert padded.parent().sort_key < padded.sort_key < padded.parent().subtree_end_key


def _consistent_rows(ids):
    """Rows ``(ID, val of ID, ID, cont of ID)`` whose derived cells are a
    fixed function of their ID cells (what a consistent extent holds),
    deliberately unrelated to document order."""

    def derive(dewey):
        return "v%d" % (sum(map(ord, str(dewey))) % 5)

    return [
        (first, derive(first), second, derive(second) + "!")
        for first in ids
        for second in ids[:3]
    ]


@given(_dewey_families())
@settings(max_examples=80, deadline=None)
def test_projection_blobs_order_like_row_sort_key(ids):
    project = _projector(((1, 0, "val"), (3, 2, "cont")))
    rows = list({(row[0], row[2]): row for row in _consistent_rows(ids)}.values())
    by_key = sorted(rows, key=row_sort_key)
    by_projection = sorted(rows, key=lambda row: row_sort_key(project(row)))
    assert [row_sort_key(row) for row in by_projection] == [
        row_sort_key(row) for row in by_key
    ]
    assert len({row_sort_key(project(row)) for row in rows}) == len(rows)


def _id_projection(view):
    """The oracle for a checkpoint record: every ``.val``/``.cont`` cell
    of the live extent set to None, in store order."""
    blank = {
        index
        for index, column in enumerate(view.columns)
        if column.endswith((".val", ".cont"))
    }
    return [
        (tuple(None if i in blank else cell for i, cell in enumerate(row)), count)
        for row, count in view.content()
    ]


def _check_every_checkpoint(engine, versions):
    """Wrap the backend's checkpoint so that after each one every view's
    record equals the ID projection of its live extent."""
    backend = engine.backend
    checkpoint = backend.checkpoint

    def checked(view_names=None):
        checkpoint(view_names)
        for name, registered in engine.views.items():
            assert backend.stored_extent(name) == _id_projection(
                registered.view
            ), (backend.version, name)
        versions.append(backend.version)

    backend.checkpoint = checked


_PROJECTION_VIEWS = ("Q1", "Q3", "Q4", "Q6", "Q13")


def _projection_stream():
    """Inserts below stored ``cont`` nodes (Q6 items, Q13
    descriptions), Appendix-A inserts and deletes, σ flips (churn), and
    a poison batch (``None``)."""
    from repro.updates.language import InsertUpdate
    from repro.workloads.churn import churn_batches
    from repro.workloads.updates import statement_stream
    from repro.workloads.xmark import generate_document

    below_cont = [
        InsertUpdate("/site/regions/namerica/item/description", "<text>n</text>"),
        InsertUpdate("/site/regions/africa/item", "<mailbox/>"),
    ]
    mixed = statement_stream(generate_document(scale=1), 24, seed=5, insert_ratio=0.5)
    batches = [below_cont, mixed[:12], None, mixed[12:]]
    batches.extend(churn_batches(generate_document(scale=1), 4, seed=11))
    return batches


@pytest.mark.parametrize("workers", [0, 2])
def test_extent_tables_hold_the_mirrors_id_projection(tmp_path, monkeypatch, workers):
    # A checkpoint after every batch: each record is checked each time.
    from repro.maintenance.engine import MaintenanceEngine
    from repro.storage import sqlite
    from repro.updates.language import InsertUpdate, UpdateBatch
    from repro.workloads.queries import view_pattern
    from repro.workloads.xmark import generate_document

    monkeypatch.setattr(sqlite, "CHECKPOINT_BATCHES", 1)
    batches = _projection_stream()
    path = str(tmp_path / "engine.db")
    engine = MaintenanceEngine(generate_document(scale=1), backend=path)
    for name in _PROJECTION_VIEWS:
        engine.register_view(view_pattern(name), name)
    versions = []
    _check_every_checkpoint(engine, versions)
    target = engine.session(workers=workers) if workers else engine
    bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
    try:
        for batch in batches:
            if batch is None:
                with pytest.raises(ValueError):
                    target.apply_batch([bad])
            else:
                target.apply_batch(UpdateBatch(batch))
    finally:
        if workers:
            target.close()
    assert versions[: len(batches)] == list(range(1, len(batches) + 1))
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(engine.document), name
    engine.backend.close()
    recovered, _ = reopen(
        path,
        generate_document(scale=1),
        {name: view_pattern(name) for name in _PROJECTION_VIEWS},
    )
    try:
        for name in _PROJECTION_VIEWS:
            assert (
                recovered.views[name].view.content()
                == engine.views[name].view.content()
            ), name
    finally:
        recovered.backend.close()


def test_cont_refresh_journals_nothing(tmp_path):
    # A refresh rewrites val/cont cells only: the checkpoint after it
    # writes the same record bytes.
    from repro.maintenance.engine import MaintenanceEngine
    from repro.updates.language import InsertUpdate
    from repro.workloads.queries import view_pattern
    from repro.workloads.xmark import generate_document

    engine = MaintenanceEngine(
        generate_document(scale=1), backend=str(tmp_path / "engine.db")
    )
    view = engine.register_view(view_pattern("Q6"), "Q6").view
    record = "SELECT rows FROM checkpoints WHERE view = 'Q6'"
    before, stored = view.content(), engine.backend._conn.execute(record).fetchone()
    engine.apply_batch([InsertUpdate("/site/regions/africa/item", "<mailbox/>")])
    engine.sync_durability()
    after = view.content()
    assert len(after) == len(before)
    assert sum(old != new for old, new in zip(before, after)) > 0  # refreshed
    assert engine.backend._conn.execute(record).fetchone() == stored
    assert engine.backend.checkpoint_versions() == {"Q6": 1}
    engine.backend.close()


def test_clean_close_checkpoints_once(tmp_path, monkeypatch):
    # ApplyQueue.close() checkpoints through sync_durability; the
    # backend's close after it finds that checkpoint at the current
    # version and writes nothing more.
    import sqlite3

    from repro.maintenance.engine import MaintenanceEngine
    from repro.maintenance.queue import ApplyQueue
    from repro.workloads.queries import view_pattern
    from repro.workloads.updates import statement_stream
    from repro.workloads.xmark import generate_document

    path = str(tmp_path / "engine.db")
    engine = MaintenanceEngine(generate_document(scale=1), backend=path)
    for name in ("Q1", "Q6"):
        engine.register_view(view_pattern(name), name)
    backend, checkpoints = engine.backend, []
    checkpoint = backend.checkpoint
    monkeypatch.setattr(
        backend, "checkpoint", lambda *names: checkpoints.append(names) or checkpoint(*names)
    )
    with ApplyQueue(engine, max_batch_size=4) as queue:
        queue.extend_async(statement_stream(generate_document(scale=1), 12, seed=5))
    record = "SELECT view, version, rows FROM checkpoints ORDER BY view"
    stored = backend._conn.execute(record).fetchall()
    backend.close()
    assert checkpoints == [()] and backend.version > 0  # the queue's, not close's
    with sqlite3.connect(path) as conn:
        assert conn.execute(record).fetchall() == stored


def test_rewrite_with_changed_count_is_journaled(tmp_path):
    # b's val is rewritten while a second c gives it a second
    # derivation: the record keeps b's projection with its new count.
    from repro.maintenance.engine import MaintenanceEngine
    from repro.updates.language import InsertUpdate
    from repro.xmldom.parser import parse_document

    engine = MaintenanceEngine(
        parse_document("<r><a><b>x</b><c/></a><a><b>y</b></a></r>"),
        backend=str(tmp_path / "engine.db"),
    )
    view = engine.register_view(
        'let $d := doc("d.xml") return for $a in $d/r/a[c], $b in $a/b '
        "return <res><x>{string($b)}</x></res>",
        "V",
    ).view
    engine.apply_batch([InsertUpdate("/r/a", "<c/>"), InsertUpdate("/r/a/b", "z")])
    assert [(row[1], count) for row, count in view.content()] == [("xz", 2), ("yz", 1)]
    engine.sync_durability()
    assert engine.backend.stored_extent("V") == _id_projection(view)
    engine.backend.close()


def test_foreign_format_is_refused(tmp_path):
    import sqlite3

    path = str(tmp_path / "db")
    SqliteExtentBackend(path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = 3 WHERE key = 'format'")
    conn.commit()
    conn.close()
    with pytest.raises(RecoveryError, match="format 3.*format 5"):
        SqliteExtentBackend(path)
    with pytest.raises(RecoveryError, match="format 3.*format 5"):
        reopen(path, None, {})


def test_dangling_id_is_refused(tmp_path):
    from repro.maintenance.engine import MaintenanceEngine
    from repro.updates.language import DeleteUpdate
    from repro.updates.pul import BatchApplication
    from repro.workloads.queries import view_pattern
    from repro.workloads.xmark import generate_document

    path = str(tmp_path / "engine.db")
    engine = MaintenanceEngine(generate_document(scale=1), backend=path)
    engine.register_view(view_pattern("Q6"), "Q6")
    engine.backend.close()
    # A base document that disagrees with the database: one item fewer.
    document = generate_document(scale=1)
    BatchApplication(document, [DeleteUpdate("/site/regions/africa/item")]).apply()
    with pytest.raises(RecoveryError, match="'Q6'.*item"):
        reopen(path, document, {"Q6": view_pattern("Q6")})


def test_unregistered_view_never_shares_a_table(tmp_path):
    # Dropping v1 drops its record; v2 and v3 keep their own.
    from repro.maintenance.engine import MaintenanceEngine
    from repro.workloads.queries import view_pattern
    from repro.workloads.updates import statement_stream
    from repro.workloads.xmark import generate_document

    path = str(tmp_path / "engine.db")
    engine = MaintenanceEngine(generate_document(scale=1), backend=path)
    engine.register_view(view_pattern("Q1"), "v1")
    engine.register_view(view_pattern("Q3"), "v2")
    engine.unregister_view("v1")
    engine.register_view(view_pattern("Q6"), "v3")
    engine.apply_batch(
        statement_stream(generate_document(scale=1), 16, seed=3, insert_ratio=0.7)
    )
    engine.backend.close()
    reader = SqliteExtentBackend(path)
    assert reader.checkpoint_versions() == {"v2": 1, "v3": 1}
    reader.close()
    recovered, _ = reopen(
        path,
        generate_document(scale=1),
        {"v2": view_pattern("Q3"), "v3": view_pattern("Q6")},
    )
    try:
        for name in ("v2", "v3"):
            assert recovered.views[name].view.equals_fresh_evaluation(
                recovered.document
            ), name
    finally:
        recovered.backend.close()


def test_default_strategy_keeps_no_lattice_and_either_strategy_reopens(tmp_path):
    # Leaves is the default: registration materializes no lattice and a
    # plain reopen rebuilds nothing.  A snowcaps view reopens with its
    # lattice materialized from the replayed document.
    from harness import crashkit
    from repro.maintenance.engine import MaintenanceEngine
    from repro.views.lattice import DEFAULT_STRATEGY
    from repro.workloads.queries import view_pattern
    from repro.workloads.updates import statement_stream
    from repro.workloads.xmark import generate_document

    assert DEFAULT_STRATEGY == "leaves"
    views = {name: view_pattern(name) for name in ("Q1", "Q3")}
    snowcaps = {name: {"strategy": "snowcaps"} for name in views}
    stream = statement_stream(generate_document(scale=1), 12, seed=5, insert_ratio=0.7)

    def run(path, **options):
        engine = MaintenanceEngine(generate_document(scale=1), backend=path)
        for name, pattern in views.items():
            lattice = engine.register_view(pattern, name, **options).lattice
            assert bool(lattice.materialized_sets()) == bool(options), name
        engine.apply_batch(stream)
        engine.backend.close()

    def reopened(path, view_options=None):
        recovered, report = reopen(
            path, generate_document(scale=1), views, view_options=view_options
        )
        for name, registered in recovered.views.items():
            assert registered.view.equals_fresh_evaluation(recovered.document), name
            lattice = registered.lattice
            assert bool(lattice.materialized_sets()) == bool(view_options), name
        lattices = crashkit.lattice_digest(recovered.views)
        assert lattices == crashkit.fresh_lattice_digest(
            recovered.views, recovered.document
        )
        state = (crashkit.extent_digest(recovered.views), lattices)
        recovered.backend.close()
        return report, state

    path = str(tmp_path / "leaves.db")
    run(path)
    assert reopened(path)[0].lattices_rematerialized == 0
    path = str(tmp_path / "snowcaps.db")
    run(path, strategy="snowcaps")
    report, state = reopened(path, snowcaps)
    assert report.lattices_rematerialized == len(views)
    assert reopened(path, snowcaps) == (report, state)
