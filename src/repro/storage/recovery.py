"""Crash recovery: reopen a durable engine from its database + WAL.

The WAL (:mod:`repro.storage.wal`) is the durable history: a batch is
committed iff its DATA record and COMMIT marker both survived.  The
database holds one checkpoint record per view, each at its own
version, never past the WAL's last committed batch ``C``
(:mod:`repro.storage.sqlite`).  :func:`reopen` re-evaluates no view
whose record is intact:

1. scan the WAL, truncate the torn tail (a record whose header,
   payload or checksum did not survive) *and* any intact-but-
   uncommitted suffix -- exactly the writes the crashed process never
   acknowledged, never a committed batch;
2. rebuild the document by replaying the committed statement payloads
   ``1..K``, ``K`` being the smallest checkpoint version among the
   views (pure document application, no view work);
3. adopt every view checkpointed at ``K``: extent rows from its
   record, their ``val``/``cont`` cells resolved from the replayed
   document through their ID cells; a snowcaps view's lattice, which
   is never stored, is materialized from the replayed document;
4. replay ``K+1..C`` through the full engine, with the backend in
   replay mode so nothing is re-appended to the WAL, adopting each
   remaining view once the replay reaches its checkpoint's version.

``C - K`` is at most ``CHECKPOINT_BATCHES`` after a crash, unless a
view registered since the last full checkpoint; after a clean close
every record is at ``C`` and nothing replays through the engine.

Layering: this module sits *below* ``repro.maintenance`` and never
imports it; the engine class plugs itself in at import time through
:func:`register_engine_factory` (the same dependency inversion the
shard backend uses), wired by the ``repro`` aggregator ``__init__``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import NULL_OBS
from repro.storage.sqlite import RecoveryError, SqliteExtentBackend, wal_path
from repro.storage.wal import COMMIT, HEADER_SIZE, BatchWal
from repro.updates.pul import BatchApplication

#: the maintenance-engine class, registered at import time by
#: ``repro.maintenance.engine`` (dependency inversion: storage must not
#: import maintenance).
_ENGINE_FACTORY: List[Any] = [None]


def register_engine_factory(factory) -> None:
    """Install the engine class :func:`reopen` instantiates."""
    _ENGINE_FACTORY[0] = factory


@dataclass
class RecoveryReport:
    """What :func:`reopen` found and did, for callers and tests."""

    path: str
    last_committed_batch: int = 0
    durable_version: int = 0
    replayed_batches: int = 0
    truncated_bytes: int = 0
    torn_reason: Optional[str] = None
    views: List[str] = field(default_factory=list)
    #: views whose lattice selects snowcaps, all rebuilt from the
    #: replayed document (0 when every view runs ``"leaves"``).
    lattices_rematerialized: int = 0
    wal_records: int = 0

    def __repr__(self) -> str:
        return (
            "RecoveryReport(C=%d, V=%d, replayed=%d, truncated=%dB%s, "
            "%d views, %d lattices rematerialized)"
            % (
                self.last_committed_batch,
                self.durable_version,
                self.replayed_batches,
                self.truncated_bytes,
                ", torn: %s" % self.torn_reason if self.torn_reason else "",
                len(self.views),
                self.lattices_rematerialized,
            )
        )


def _truncate_uncommitted(path: str, records, last_committed: int) -> Tuple[list, int]:
    """Drop intact records past the last committed batch's marker.

    A crash between the DATA record and the COMMIT marker leaves an
    intact-but-uncommitted suffix that scan() parses cleanly; keeping
    it would make the next live batch re-append the same batch ID.
    Returns the retained records and the bytes removed.
    """
    # Records are strictly sequential (DATA(k) COMMIT(k) DATA(k+1) ...),
    # so everything up to and including COMMIT(last_committed) is the
    # committed prefix and everything after it is unacknowledged.
    kept: list = []
    end = 0
    for record in records:
        kept.append(record)
        end = record.offset + HEADER_SIZE + len(record.payload)
        if record.kind == COMMIT and record.batch_id == last_committed:
            break
    if last_committed == 0:
        kept, end = [], 0
    removed = 0
    if os.path.exists(path) and os.path.getsize(path) > end:
        removed = BatchWal.truncate(path, end)
    return kept, removed


def reopen(
    path: str,
    document,
    views: Mapping[str, Any],
    *,
    obs=None,
    engine_options: Optional[Dict[str, Any]] = None,
    view_options: Optional[Dict[str, Dict[str, Any]]] = None,
):
    """Recover a durable engine: ``(engine, RecoveryReport)``.

    ``document`` is the *base* document the original engine was built
    over (recovery replays the committed batches onto it); ``views``
    maps view names to their sources (pattern / definition / XQuery
    text), exactly as passed to ``register_view`` originally;
    ``view_options`` optionally carries per-view ``strategy`` /
    ``update_profile`` keyword arguments.
    """
    factory = _ENGINE_FACTORY[0]
    if factory is None:
        raise RecoveryError(
            "no engine factory registered; import repro (or "
            "repro.maintenance) before calling reopen"
        )
    obs = obs if obs is not None else NULL_OBS
    replayed_counter = obs.metrics.counter(
        "repro_recovery_replayed_batches",
        "batches replayed through the engine on reopen",
    )
    report = RecoveryReport(path=path)
    with obs.span("recovery"):
        log = wal_path(path)
        records, torn = BatchWal.scan(log)
        if torn is not None:
            report.torn_reason = torn.reason
            report.truncated_bytes += BatchWal.truncate(log, torn.offset)
        try:
            batches, last_committed = BatchWal.committed_statements(records)
        except ValueError as exc:
            raise RecoveryError(str(exc)) from exc
        records, removed = _truncate_uncommitted(log, records, last_committed)
        report.truncated_bytes += removed
        report.wal_records = len(records)
        report.last_committed_batch = last_committed

        backend = SqliteExtentBackend(path, obs=obs)
        if backend.version > last_committed:
            raise RecoveryError(
                "database version %d is ahead of the WAL's last committed "
                "batch %d; the log is not this database's"
                % (backend.version, last_committed)
            )
        durable = backend.checkpoint_versions()
        for name in views:
            if name not in durable:
                raise KeyError("no durable extent for view %r" % name)
        start = min((durable[name] for name in views), default=last_committed)
        report.durable_version = start

        # Document replay up to the oldest checkpoint.  Statement
        # application is deterministic, poison batches included: a
        # batch that raised originally partial-applies identically here
        # (the engine commits even failing batches for exactly this
        # reason).
        for batch_id in range(1, start + 1):
            try:
                BatchApplication(document, batches[batch_id]).apply()
            except Exception:
                pass

        engine = factory(document, backend=backend, obs=obs, **(engine_options or {}))
        backend.begin_replay(start, last_committed)

        # Engine replay past the oldest checkpoint, WAL appends
        # suppressed.  A view joins once the replay reaches its record's
        # version: the extent from the record (derived cells resolved
        # from the document at that version), a snowcap lattice
        # materialized from that document.
        for version in range(start, last_committed + 1):
            if version > start:
                try:
                    engine.apply_batch(batches[version])
                except Exception:
                    pass
                report.replayed_batches += 1
                replayed_counter.inc()
            for name, source in views.items():
                if durable[name] == version:
                    options = dict(view_options.get(name, {})) if view_options else {}
                    registered = engine.adopt_view(source, name=name, **options)
                    report.views.append(name)
                    if registered.lattice.selected:
                        report.lattices_rematerialized += 1
    return engine, report
