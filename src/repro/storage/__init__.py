"""Durable extent storage: batch WAL, view checkpoints, crash recovery.

ROADMAP item 1: every extent historically lived in an in-memory
:class:`~repro.views.store.OrderedTupleStore`, so a process restart
forced full rematerialization.  This package adds

* :mod:`repro.storage.wal` -- an append-only log of coalesced batches
  written at batch boundaries, each record checksummed and sealed by a
  commit marker: a durable batch commits with these two appends;
* :mod:`repro.storage.sqlite` -- :class:`SqliteExtentBackend` (the
  per-engine database: one checkpoint record per view, the ID
  projection of its extent at some batch version; snowcap lattices
  are rebuilt from the document, never stored);
* :mod:`repro.storage.recovery` -- reopen a database after a crash:
  truncate the torn WAL tail, replay the document up to the oldest
  checkpoint, adopt each view's record and replay only the batches
  past it through the engine instead of rematerializing.

The crash model is process death (SIGKILL, the crash-injection harness
under ``tests/harness/``): buffered writes flushed to the OS survive,
so neither the WAL nor sqlite needs fsync.
"""

from repro.storage.recovery import (
    RecoveryError,
    RecoveryReport,
    register_engine_factory,
    reopen,
)
from repro.storage.sqlite import SqliteExtentBackend
from repro.storage.wal import BatchWal, WalRecord

__all__ = [
    "BatchWal",
    "RecoveryError",
    "RecoveryReport",
    "SqliteExtentBackend",
    "WalRecord",
    "register_engine_factory",
    "reopen",
]
