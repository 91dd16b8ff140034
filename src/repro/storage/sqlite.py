"""Durable extents: per-view checkpoints in sqlite beside the batch WAL.

A durable batch commits with two WAL appends and nothing else: the
DATA record (:mod:`repro.storage.wal`) before the engine touches any
state, the COMMIT marker after.  Extents live in the views' plain
in-memory :class:`~repro.views.store.OrderedTupleStore` s; the
database holds **checkpoints** of them, which only let recovery skip
work (rematerializing a view, replaying old batches through the
engine) -- durability itself is the WAL's.

:class:`SqliteExtentBackend` is one engine's durable state: the WAL
next to the database file, the batch version (kept in memory; the
last checkpoint's version is in ``meta``), and one ``checkpoints``
record per view: its name, the version the record reflects and its
rows, one pickled list of ``(ID projection, count)`` pairs in store
order.  A projection is the view tuple with every ``val``/``cont``
cell set to ``None``: those are functions of the ID cells over the
document, which recovery replays before adopting the rows.  Snowcap
lattices are never stored; reopen rebuilds them from the document.

A checkpoint is one sqlite transaction, written one view at a time:

* ``register_view`` writes the new view's record at the current
  version;
* :meth:`SqliteExtentBackend.sync` rewrites every view at the current
  version (a sync inside an open batch waits for its commit), and so
  does ``close`` unless the last full checkpoint is already there;
* ``commit_batch`` does so every :data:`CHECKPOINT_BATCHES` batches.

A crash leaves each record at its last committed checkpoint, never
ahead of the WAL's last committed batch, so recovery
(:mod:`repro.storage.recovery`) adopts every view at its own version.

Fork safety: the connection and the WAL handle are pid-guarded.  A
forked replica (ShardSession worker) inherits the backend by COW,
never writes through it and never closes its handles.  Pickling the
backend is refused outright.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import NULL_OBS
from repro.storage.crashpoints import crash_point
from repro.storage.wal import BatchWal

#: on-disk layout: one checkpoint record per view (name, version,
#: pickled ID-projection rows) and the batch version in ``meta``; 5's
#: WAL records pickle an insert's forest as its ``flat`` tuple, which
#: 4's named ``forest``.
_FORMAT = 5

#: Batches between full checkpoints: the recovery bound.  A reopen
#: after a crash replays at most this many batches through the engine
#: (after a clean close, none); a checkpoint rewrites every view's
#: rows, so a smaller bound moves recovery work onto the commit path.
CHECKPOINT_BATCHES = 128


def _pickle(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def wal_path(db_path: str) -> str:
    """The batch WAL lives next to the database file."""
    return db_path + ".batchlog"


class RecoveryError(Exception):
    """The database and WAL tell irreconcilable stories."""


def _projector(derived) -> Optional[Callable[[tuple], tuple]]:
    """Row -> ID projection (every derived cell set to ``None``); ``None``
    when no column is derived."""
    blank = [column for column, _id_column, _annotation in derived]
    if not blank:
        return None

    def project(row: tuple) -> tuple:
        cells = list(row)
        for column in blank:
            cells[column] = None
        return tuple(cells)

    return project


def _id_projection(view) -> List[Tuple[Any, int]]:
    """A view's ``(ID projection, count)`` rows, in store order."""
    project = _projector(view.derived)
    items = view._store.items()
    if project is None:
        return list(items)
    return [(project(row), count) for row, count in items]


class SqliteExtentBackend:
    """One engine's durable state: view checkpoints + batch WAL."""

    def __init__(self, path: str, obs=None):
        self.path = path
        self._pid = os.getpid()
        # The queue applies batches on its worker thread while the
        # engine is built on the caller's; access is already serialized
        # batch-at-a-time, so cross-thread use is safe.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        # Crash model is process death, not power loss: the page cache
        # survives SIGKILL, so fsync buys nothing.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=OFF")
        try:
            self._init_schema()
        except RecoveryError:
            self._conn.close()
            raise
        #: the last batch applied, and the version of the last full
        #: checkpoint (recovery rewinds both to where its replay starts).
        self._version = self._checkpointed = self._meta_version()
        #: views checkpointed by name: anything with ``derived`` and an
        #: ``OrderedTupleStore`` in ``_store`` (a ``MaterializedView``).
        self._views: Dict[str, Any] = {}
        #: batches with IDs <= this replay without re-appending to the
        #: WAL (their records are already durable).
        self._replay_until = 0
        #: the batch between ``begin_batch`` and ``commit_batch``, and
        #: whether a sync asked for inside it waits for its commit.
        self._open_batch: Optional[int] = None
        self._sync_pending = False
        self._closed = False
        self.obs = obs if obs is not None else NULL_OBS
        self._records_counter = self.obs.metrics.counter(
            "repro_wal_records_total", "WAL records appended", ("kind",)
        )
        self.wal = BatchWal(wal_path(path), records_counter=self._records_counter)

    def bind_obs(self, obs) -> None:
        """Adopt the engine's telemetry facade (when the backend was
        built without one of its own)."""
        if obs is None or obs is self.obs or self.obs is not NULL_OBS:
            return
        self.obs = obs
        self._records_counter = obs.metrics.counter(
            "repro_wal_records_total", "WAL records appended", ("kind",)
        )
        self.wal._records_counter = self._records_counter

    def __getstate__(self):
        raise TypeError(
            "SqliteExtentBackend holds a sqlite connection and a WAL "
            "handle and must not cross the fork/pickle boundary; "
            "recovery reopens by path"
        )

    @property
    def writable(self) -> bool:
        """False in forked children (pid guard): replicas never touch
        inherited handles."""
        return self._pid == os.getpid()

    def _init_schema(self) -> None:
        cursor = self._conn.cursor()
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS meta(key TEXT PRIMARY KEY, value INTEGER)"
        )
        cursor.execute(
            "INSERT OR IGNORE INTO meta(key, value) VALUES('format', ?)", (_FORMAT,)
        )
        self._conn.commit()
        # Refuse a foreign layout before writing anything else into it.
        found = cursor.execute(
            "SELECT value FROM meta WHERE key = 'format'"
        ).fetchone()[0]
        if found != _FORMAT:
            raise RecoveryError(
                "database %s is in storage format %d; this build reads "
                "format %d only" % (self.path, found, _FORMAT)
            )
        cursor.execute("BEGIN")
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS checkpoints("
            "view TEXT PRIMARY KEY, version INTEGER NOT NULL, rows BLOB NOT NULL)"
        )
        cursor.execute("INSERT OR IGNORE INTO meta(key, value) VALUES('version', 0)")
        self._conn.commit()

    def _meta_version(self) -> int:
        return self._conn.execute(
            "SELECT value FROM meta WHERE key = 'version'"
        ).fetchone()[0]

    @property
    def version(self) -> int:
        """The last batch applied through this backend."""
        return self._version

    # -- checkpoints -------------------------------------------------------

    def track(self, view_name: str, view) -> None:
        """Checkpoint ``view`` under ``view_name`` from now on (writes
        nothing: registration follows with :meth:`checkpoint`, while an
        adopted view's record is already durable)."""
        self._views[view_name] = view

    def checkpoint(self, view_names=None) -> None:
        """Write the records of ``view_names`` (every tracked view when
        ``None``) at the current version, in one transaction."""
        full = view_names is None
        if full:
            view_names = list(self._views)
        cursor = self._conn.cursor()
        cursor.execute("BEGIN")
        for position, name in enumerate(view_names):
            if position:
                crash_point("mid_checkpoint")
            # One view's payload at a time: peak memory stays one
            # extent's pickle, not the whole database's.
            cursor.execute(
                "INSERT OR REPLACE INTO checkpoints(view, version, rows) "
                "VALUES(?, ?, ?)",
                (name, self._version, _pickle(_id_projection(self._views[name]))),
            )
        cursor.execute(
            "UPDATE meta SET value = ? WHERE key = 'version'", (self._version,)
        )
        self._conn.commit()
        if full:
            self._checkpointed = self._version
            self._sync_pending = False

    def drop_view(self, view_name: str) -> None:
        self._views.pop(view_name, None)
        if self.writable:
            self._conn.execute("DELETE FROM checkpoints WHERE view = ?", (view_name,))
            self._conn.commit()

    def checkpoint_versions(self) -> Dict[str, int]:
        """``{view: version}`` of every durable record."""
        return dict(self._conn.execute("SELECT view, version FROM checkpoints"))

    def stored_extent(self, view_name: str) -> List[Tuple[Any, int]]:
        """The durable ``(ID projection, count)`` rows of one view, in
        store order."""
        row = self._conn.execute(
            "SELECT rows FROM checkpoints WHERE view = ?", (view_name,)
        ).fetchone()
        if row is None:
            raise KeyError("no durable extent for view %r" % view_name)
        return pickle.loads(row[0])

    def load_extent(self, view_name: str, derived, document) -> List[Tuple[Any, int]]:
        """The durable rows of one view with every ID that derives a
        cell resolved on ``document``, in store order, ready to load.

        ``derived`` is the view's ``(column, ID column, annotation)``
        plan; each ID column it names is resolved once per row through
        ``node_by_id`` and becomes the node's own ID object (adopted
        rows share IDs with the document, as live rows do); the extent's
        first read fills the derived cells.  Raises :class:`KeyError`
        when the view has no durable extent and :class:`RecoveryError`
        when a stored ID is absent from the document (the database and
        the log disagree).
        """
        rows = self.stored_extent(view_name)
        id_columns = sorted({id_column for _column, id_column, _annotation in derived})
        if not id_columns:
            return rows
        node_by_id = document.node_by_id
        resolved = []
        for projection, count in rows:
            cells = list(projection)
            for id_column in id_columns:
                node = node_by_id(cells[id_column])
                if node is None:
                    raise RecoveryError(
                        "durable extent of view %r holds ID %s, which the "
                        "replayed document lacks" % (view_name, cells[id_column])
                    )
                cells[id_column] = node.id
            resolved.append((tuple(cells), count))
        return resolved

    # -- batch commit protocol --------------------------------------------

    def begin_batch(self, statements) -> int:
        """Log the batch ahead of any application; returns its ID."""
        batch_id = self._version + 1
        if batch_id > self._replay_until:
            self.wal.append_batch(batch_id, statements)
        self._open_batch = batch_id
        return batch_id

    def checkpoint_due(self, batch_id: int) -> bool:
        """Will committing ``batch_id`` checkpoint every view?"""
        return (
            self._sync_pending or batch_id - self._checkpointed >= CHECKPOINT_BATCHES
        )

    def commit_batch(self, batch_id: int) -> None:
        """Seal the batch with its WAL commit marker; every
        :data:`CHECKPOINT_BATCHES` batches, checkpoint every view."""
        if batch_id > self._replay_until:
            self.wal.append_commit(batch_id)
        self._version = batch_id
        self._open_batch = None
        if self.checkpoint_due(batch_id):
            self.checkpoint()

    def sync(self) -> None:
        """Checkpoint every view at the current version (session close,
        queue close), without consuming a batch ID; inside an open batch,
        whose effects the version does not name yet, at its commit."""
        if not self.writable:
            return
        if self._open_batch is not None:
            self._sync_pending = True
            return
        self.checkpoint()

    def begin_replay(self, start: int, last_committed: int) -> None:
        """Recovery resumes batch IDs after ``start`` and replays up to
        ``last_committed`` without appending to the WAL."""
        self._version = self._checkpointed = start
        self._replay_until = last_committed

    def close(self) -> None:
        """Checkpoint every view unless the last full checkpoint is at
        the current version with no sync pending (a clean close after
        ``sync`` writes once), then release the handles."""
        if self._closed or not self.writable:
            return
        if self._sync_pending or self._checkpointed != self._version:
            self.checkpoint()
        self._closed = True
        self._conn.close()
        self.wal.close()

    def __repr__(self) -> str:
        return "SqliteExtentBackend(%r, version=%d)" % (self.path, self._version)
