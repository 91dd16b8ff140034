"""Durable extent storage: sqlite backend, batch WAL, crash recovery.

ROADMAP item 1: every extent historically lived in an in-memory
:class:`~repro.views.store.OrderedTupleStore`, so a process restart
forced full rematerialization.  This package adds

* :mod:`repro.storage.keyenc` -- order-preserving blob encoding of view
  tuples (Dewey sort keys included), so a sqlite B-tree orders rows
  exactly like the in-memory store's bisects;
* :mod:`repro.storage.sqlite` -- :class:`SqliteTupleStore` (the full
  ``OrderedTupleStore`` contract, write-through to one table per view
  extent) and :class:`SqliteExtentBackend` (the per-engine database:
  extent tables and batch versions; snowcap lattices are rebuilt from
  the document, never stored);
* :mod:`repro.storage.wal` -- an append-only log of coalesced batches
  written at batch boundaries, each record checksummed and sealed by a
  commit marker;
* :mod:`repro.storage.recovery` -- reopen a database after a crash:
  truncate the torn WAL tail, replay the document, adopt the durable
  extents and replay only the WAL entries past the last durably-flipped
  view version instead of rematerializing.

The crash model is process death (SIGKILL, the crash-injection harness
under ``tests/harness/``): buffered writes flushed to the OS survive,
so neither the WAL nor sqlite needs fsync on the hot path.
"""

from repro.storage.keyenc import encode_key
from repro.storage.recovery import (
    RecoveryError,
    RecoveryReport,
    register_engine_factory,
    reopen,
)
from repro.storage.sqlite import SqliteExtentBackend, SqliteTupleStore
from repro.storage.wal import BatchWal, WalRecord

__all__ = [
    "BatchWal",
    "RecoveryError",
    "RecoveryReport",
    "SqliteExtentBackend",
    "SqliteTupleStore",
    "WalRecord",
    "encode_key",
    "register_engine_factory",
    "reopen",
]
