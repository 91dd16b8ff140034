"""Sqlite-backed extent storage behind the ``OrderedTupleStore`` contract.

Two classes split the work:

* :class:`SqliteTupleStore` -- one view extent.  It *is* an
  :class:`~repro.views.store.OrderedTupleStore` (the in-memory mirror
  serves every read), and every write is additionally journaled as a
  pending row operation against the extent's table.  Reads therefore
  cost exactly what the in-memory backend costs; the durable side is
  paid once per batch.
* :class:`SqliteExtentBackend` -- one engine's database: the extent
  tables, the batch version in ``meta`` and the batch WAL next to the
  database file.

Extent rows persist IDs only: a row is the view tuple's *ID
projection* (``val``/``cont`` cells stored as ``None``) keyed by its
memcomparable blob, with its derivation count (each DeweyID cell of
the blob is the ID's ``sort_key``: the byte string the in-memory
mirror compares by memcmp, copied, not encoded).  Reopen resolves them
against the document it has replayed.  Snowcap lattices are never
stored: they are a function of the document, and reopen rebuilds them
from it.

Commit protocol, per batch (driven by the maintenance engine)::

    WAL DATA record  ->  in-memory apply (ops buffered)  ->
    WAL COMMIT marker  ->  one sqlite txn: ops + version

so after a crash the database version ``V`` and the WAL's last
committed batch ``C`` satisfy ``V in {C-1, C}``, and recovery replays
at most one batch beyond adopting the tables.

Fork safety: connections, WAL handles and buffered ops are pid-guarded.
A forked replica (ShardSession worker) inherits the store objects by
COW and keeps using them as plain in-memory mirrors -- its writes are
never journaled, its inherited handles never touched.  Pickling either
class is refused outright.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import operator
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import NULL_OBS
from repro.storage.crashpoints import crash_point
from repro.storage.keyenc import encode_key
from repro.storage.wal import BatchWal
from repro.views.store import DELETED, OrderedTupleStore

#: on-disk layout: 3 stores extent rows as ID projections with plain
#: integer counts and numbers extent tables from a counter in ``meta``.
_FORMAT = 3


def _pickle(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def wal_path(db_path: str) -> str:
    """The batch WAL lives next to the database file."""
    return db_path + ".batchlog"


class RecoveryError(Exception):
    """The database and WAL tell irreconcilable stories."""


def _projector(derived) -> Optional[Callable[[tuple], tuple]]:
    """Row -> ID projection (every derived cell set to ``None``), or
    ``None`` when no column is derived and rows persist as they are."""
    blank = [column for column, _id_column, _annotation in derived]
    if not blank:
        return None

    def project(row: tuple) -> tuple:
        cells = list(row)
        for column in blank:
            cells[column] = None
        return tuple(cells)

    return project


class SqliteTupleStore(OrderedTupleStore):
    """Write-through extent store: in-memory mirror + journaled table.

    Honors the whole ``OrderedTupleStore`` contract (``merge_shifts``
    one-pass merges, ``order_key`` bisects, ``load_sorted``, lazy
    ``items()`` / materialized ``snapshot()``).  The mirror orders by
    the caller's ``order_key`` exactly like the in-memory store, so the
    hot path pays nothing extra.

    The table holds each row's *ID projection*: ``derived`` lists the
    ``(column, ID column, annotation)`` of every ``val``/``cont`` column
    (:func:`repro.views.view.derived_columns`), and those cells are
    stored as ``None`` -- they are functions of the ID cells over the
    document, which recovery rebuilds before adopting the rows.  On a
    consistent extent equal ID cells imply equal derived cells, so
    projection is injective and ``encode_key(projection)`` orders like
    ``row_sort_key(row)`` (the first differing cell is always an ID):
    ``ORDER BY k`` output is adoption-ready.  A PIMT/PDMT refresh,
    which rewrites derived cells only, changes no projection and
    journals nothing.
    """

    def __init__(self, backend: "SqliteExtentBackend", table: str,
                 order_key: Optional[Callable[[Any], Any]] = None,
                 derived=()):
        super().__init__(order_key=order_key)
        self._backend = backend
        self._table = table
        self._project = _projector(derived)
        #: pending (projection, count) row ops since the last durable
        #: flush; count ``DELETED`` drops the row, ``_reload`` voids
        #: them all.
        self._ops: List[Tuple[Any, Any]] = []
        self._reload = False

    def __getstate__(self):
        raise TypeError(
            "SqliteTupleStore is bound to a sqlite connection and must "
            "not cross the fork/pickle boundary; ship row pairs instead"
        )

    def _journaling(self) -> bool:
        return self._backend.writable

    def _projected(self, row: Any) -> Any:
        return row if self._project is None else self._project(row)

    # -- journaled writes --------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        super().put(key, value)
        if self._journaling():
            self._ops.append((self._projected(key), value))

    def delete(self, key: Any) -> bool:
        found = super().delete(key)
        if found and self._journaling():
            self._ops.append((self._projected(key), DELETED))
        return found

    def clear(self) -> None:
        super().clear()
        if self._journaling():
            self._ops.clear()
            self._reload = True

    def merge_shifts(self, shifts: Dict[Any, int]) -> List[Tuple[Any, int, Any]]:
        changed = super().merge_shifts(shifts)
        if self._journaling():
            # Journaled only once the merge validated every shift (it
            # raises before assigning anything), so an error leaves
            # mirror and journal both unchanged.
            if self._project is None:
                self._ops.extend((row, count) for row, _previous, count in changed)
            else:
                self._ops.extend(self._projected_ops(changed))
            crash_point("mid_bulk_apply")
        return changed

    def _projected_ops(
        self, changed: List[Tuple[Any, int, Any]]
    ) -> List[Tuple[Any, Any]]:
        """One merge's ``(row, previous, new)`` triples as projection
        ops.  A refresh rewrite is a delete of the old row and a put of
        the new one under the same projection: the put wins, and when
        it keeps the old row's count the pair cancels outright."""
        project = self._project
        projected = [(project(row), previous, count) for row, previous, count in changed]
        dropped = {
            key: previous for key, previous, count in projected if count is DELETED
        }
        ops = []
        for key, _previous, count in projected:
            if count is DELETED:
                continue
            if dropped.pop(key, None) == count:
                continue  # pure rewrite: the durable row is unchanged
            ops.append((key, count))
        ops.extend((key, DELETED) for key in dropped)
        return ops

    def load_sorted(self, items: Iterable[Tuple[Any, Any]]) -> None:
        super().load_sorted(items)
        if self._journaling():
            self._ops.clear()
            self._reload = True

    def adopt(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Install rows already durable in this store's table (recovery),
        in key order: loads the mirror without journaling a rewrite and
        without :meth:`load_sorted`'s monotonicity re-check (``ORDER BY
        k`` output is already in mirror order)."""
        super().clear()
        separate_order = self._order_key is not None
        for key, value in items:
            self._keys.append(key)
            self._values.append(value)
            if separate_order:
                self._order.append(self._order_key(key))
        self._ops.clear()
        self._reload = False

    # -- durable flush (called by the backend, inside its txn) -------------

    def _flush_into(self, cursor) -> None:
        if self._reload:
            cursor.execute('DELETE FROM "%s"' % self._table)
            projected = ((self._projected(row), count) for row, count in self.items())
            cursor.executemany(
                'INSERT INTO "%s"(k, row, val) VALUES(?, ?, ?)' % self._table,
                (
                    (encode_key(key), _pickle(key), count)
                    for key, count in projected
                ),
            )
        elif self._ops:
            # Ops are absolute (put stores a count, delete drops the
            # row), so per projection only the last one matters:
            # coalesce, then encode/pickle each surviving key once.
            final: Dict[Any, Any] = {}
            for key, value in self._ops:
                final[key] = value
            deletes = []
            puts = []
            for key, value in final.items():
                if value is DELETED:
                    deletes.append((encode_key(key),))
                else:
                    puts.append((encode_key(key), _pickle(key), value))
            if deletes:
                cursor.executemany(
                    'DELETE FROM "%s" WHERE k = ?' % self._table, deletes
                )
            if puts:
                cursor.executemany(
                    'INSERT OR REPLACE INTO "%s"(k, row, val) VALUES(?, ?, ?)'
                    % self._table,
                    puts,
                )
        self._ops.clear()
        self._reload = False

    @property
    def pending_ops(self) -> int:
        return len(self._ops)


class SqliteExtentBackend:
    """One engine's durable state: extent tables + WAL."""

    def __init__(self, path: str, obs=None):
        self.path = path
        self._pid = os.getpid()
        # The queue applies batches on its worker thread while the
        # engine is built on the caller's; access is already serialized
        # batch-at-a-time, so cross-thread use is safe.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # Crash model is process death, not power loss: the page cache
        # survives SIGKILL, so fsync buys nothing on the hot path.
        self._conn.execute("PRAGMA synchronous=OFF")
        try:
            self._init_schema()
        except RecoveryError:
            self._conn.close()
            raise
        self._stores: Dict[str, SqliteTupleStore] = {}
        #: batches with IDs <= this replay without re-appending to the
        #: WAL (their records are already durable).
        self._replay_until = 0
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
        """False in forked children (pid guard): replicas run on their
        COW in-memory mirrors and never touch inherited handles."""
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
        found = self._meta("format")
        if found != _FORMAT:
            raise RecoveryError(
                "database %s is in storage format %d; this build reads "
                "format %d only" % (self.path, found, _FORMAT)
            )
        cursor.execute("BEGIN")
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS extents(view TEXT PRIMARY KEY, tbl TEXT NOT NULL)"
        )
        for key in ("version", "tables"):
            cursor.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES(?, 0)", (key,)
            )
        # Older builds of format 3 persisted snowcap lattices; nothing
        # reads them any more, so an upgraded database sheds them here.
        cursor.execute("DROP TABLE IF EXISTS lattices")
        cursor.execute("DELETE FROM meta WHERE key = 'lattice_version'")
        self._conn.commit()

    def _meta(self, key: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    @property
    def version(self) -> int:
        """The last batch whose effects are durable in the tables."""
        return self._meta("version")

    @property
    def next_batch_id(self) -> int:
        return self.version + 1

    # -- store registry ----------------------------------------------------

    def store_factory(self, view_name: str):
        """A ``MaterializedView`` store factory bound to this backend."""

        def factory(order_key=None, derived=()) -> SqliteTupleStore:
            return self.store_for(view_name, order_key=order_key, derived=derived)

        return factory

    def store_for(self, view_name: str, order_key=None, derived=()) -> SqliteTupleStore:
        existing = self._stores.get(view_name)
        if existing is not None:
            return existing
        row = self._conn.execute(
            "SELECT tbl FROM extents WHERE view = ?", (view_name,)
        ).fetchone()
        if row is not None:
            table = row[0]
        else:
            # Table numbers come from a counter that never goes down: a
            # count of live views would hand a dropped view's number to
            # the next registration while another view still owns it.
            number = self._meta("tables") + 1
            table = "extent_%d" % number
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'tables'", (number,)
            )
            self._conn.execute(
                "INSERT INTO extents(view, tbl) VALUES(?, ?)", (view_name, table)
            )
            self._conn.execute(
                'CREATE TABLE "%s"(k BLOB PRIMARY KEY, row BLOB, val INTEGER)' % table
            )
            self._conn.commit()
        store = SqliteTupleStore(self, table, order_key=order_key, derived=derived)
        self._stores[view_name] = store
        return store

    def drop_view(self, view_name: str) -> None:
        store = self._stores.pop(view_name, None)
        if store is not None and self.writable:
            self._conn.execute('DROP TABLE IF EXISTS "%s"' % store._table)
            self._conn.execute("DELETE FROM extents WHERE view = ?", (view_name,))
            self._conn.commit()

    def stored_extent(self, view_name: str) -> List[Tuple[Any, int]]:
        """The durable ``(ID projection, count)`` rows of one extent, in
        key order."""
        return list(self._extent_rows(view_name))

    def _extent_rows(self, view_name: str) -> Iterator[Tuple[Any, int]]:
        row = self._conn.execute(
            "SELECT tbl FROM extents WHERE view = ?", (view_name,)
        ).fetchone()
        if row is None:
            raise KeyError("no durable extent for view %r" % view_name)
        for key, count in self._conn.execute(
            'SELECT row, val FROM "%s" ORDER BY k' % row[0]
        ):
            yield pickle.loads(key), count

    def load_extent(self, view_name: str, derived, document) -> List[Tuple[Any, int]]:
        """The durable rows of one extent with their derived cells filled
        from ``document``, in key order, ready for
        :meth:`SqliteTupleStore.adopt`.

        ``derived`` is the view's ``(column, ID column, annotation)``
        plan; each ID column it names is resolved once per row through
        ``node_by_id``, and its cell becomes the node's own ID object (adopted rows
        share IDs with the document, as live rows do).  Raises
        :class:`KeyError` when the view has no durable extent and
        :class:`RecoveryError` when a stored ID is absent from the
        document (the database and the log disagree).
        """
        rows = self._extent_rows(view_name)
        fills: Dict[int, list] = {}
        for column, id_column, annotation in derived:
            fills.setdefault(id_column, []).append(
                (column, operator.attrgetter(annotation))
            )
        if not fills:
            return list(rows)
        plan = sorted(fills.items())
        node_by_id = document.node_by_id
        resolved = []
        for projection, count in rows:
            cells = list(projection)
            for id_column, targets in plan:
                node = node_by_id(cells[id_column])
                if node is None:
                    raise RecoveryError(
                        "durable extent of view %r holds ID %s, which the "
                        "replayed document lacks" % (view_name, cells[id_column])
                    )
                cells[id_column] = node.id
                for column, read in targets:
                    cells[column] = read(node)
            resolved.append((tuple(cells), count))
        return resolved

    # -- batch commit protocol --------------------------------------------

    def begin_batch(self, statements) -> int:
        """Log the batch ahead of any application; returns its ID."""
        batch_id = self.next_batch_id
        if batch_id > self._replay_until:
            self.wal.append_batch(batch_id, statements)
        return batch_id

    def commit_batch(self, batch_id: int) -> None:
        """Seal the batch: WAL commit marker, then one sqlite txn."""
        if batch_id > self._replay_until:
            self.wal.append_commit(batch_id)
        cursor = self._conn.cursor()
        cursor.execute("BEGIN")
        for store in self._stores.values():
            store._flush_into(cursor)
        cursor.execute(
            "UPDATE meta SET value = ? WHERE key = 'version'", (batch_id,)
        )
        self._conn.commit()

    def sync(self) -> None:
        """Checkpoint outside the batch protocol (registration, session
        close, queue close): flush pending ops at the current version
        without consuming a batch ID."""
        if not self.writable:
            return
        cursor = self._conn.cursor()
        cursor.execute("BEGIN")
        for store in self._stores.values():
            store._flush_into(cursor)
        self._conn.commit()

    def begin_replay(self, last_committed: int) -> None:
        self._replay_until = last_committed

    def close(self) -> None:
        if self.writable:
            self._conn.close()
            self.wal.close()

    def __repr__(self) -> str:
        return "SqliteExtentBackend(%r, version=%d)" % (self.path, self.version)
