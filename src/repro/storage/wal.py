"""Append-only write-ahead log of coalesced update batches.

One record per event, framed as::

    type(1) | batch_id(8, big-endian) | payload_len(4) | crc32(4) | payload

``type`` is ``DATA`` (the pickled coalesced statement list of one
batch) or ``COMMIT`` (empty payload: the batch's effects are fully
applied in memory).  The CRC covers the header fields *and* the
payload, so a bit flip anywhere in a record is detected, not just in
its body.  Batch IDs are assigned by the backend, monotonically from 1.

Durability protocol (see :mod:`repro.storage.sqlite`): ``DATA`` is
appended before the batch touches any state and ``COMMIT`` after the
in-memory application; nothing else is on the commit path, so the WAL
*is* the durable history (sqlite holds checkpoints that only shorten
recovery).  A scan classifies the tail unambiguously: a batch is
*committed* iff both its records are intact; anything after the last
intact record is a torn tail and is truncated on recovery.

The crash model is process death (SIGKILL): ``flush()`` to the OS page
cache is durable, no fsync needed.  The file handle never crosses the
fork boundary live -- appends are pid-guarded and the handle refuses to
pickle.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.storage.crashpoints import crash_point

DATA = 1
COMMIT = 2

_HEADER = struct.Struct(">BQII")  # type, batch_id, payload_len, crc32
HEADER_SIZE = _HEADER.size


class WalRecord(NamedTuple):
    kind: int
    batch_id: int
    payload: bytes
    offset: int  # file offset of this record's header


class TornTail(NamedTuple):
    """The scan's verdict on a damaged suffix."""

    offset: int  # first byte that did not parse cleanly
    reason: str


def _crc(kind: int, batch_id: int, payload: bytes) -> int:
    head = struct.pack(">BQI", kind, batch_id, len(payload))
    return zlib.crc32(payload, zlib.crc32(head))


class BatchWal:
    """Appender over one WAL file (created on first use)."""

    def __init__(self, path: str, records_counter=None):
        self.path = path
        self._pid = os.getpid()
        self._handle = open(path, "ab")
        #: optional ``repro_wal_records_total`` counter (labeled by kind).
        self._records_counter = records_counter

    @property
    def writable(self) -> bool:
        """False in forked children: the offset is shared with the
        parent, so a child append would interleave torn frames."""
        return self._pid == os.getpid()

    def __getstate__(self):
        raise TypeError(
            "BatchWal holds an open file handle and must not cross the "
            "fork/pickle boundary; reopen by path instead"
        )

    def _append(self, kind: int, batch_id: int, payload: bytes) -> None:
        if not self.writable:
            raise RuntimeError("WAL appended from a forked child")
        record = _HEADER.pack(kind, batch_id, len(payload), _crc(kind, batch_id, payload))
        self._handle.write(record + payload)
        self._handle.flush()
        if self._records_counter is not None:
            self._records_counter.inc(
                labels=("data" if kind == DATA else "commit",)
            )

    def append_batch(self, batch_id: int, statements: Sequence[Any]) -> None:
        """The DATA record: one batch's coalesced statements, pickled."""
        self._append(DATA, batch_id, pickle.dumps(list(statements), protocol=pickle.HIGHEST_PROTOCOL))
        crash_point("after_wal_append")

    def append_commit(self, batch_id: int) -> None:
        crash_point("before_commit_marker")
        self._append(COMMIT, batch_id, b"")
        crash_point("after_commit_marker")

    def close(self) -> None:
        if self.writable:
            self._handle.close()

    # -- reading ----------------------------------------------------------

    @staticmethod
    def scan(path: str) -> Tuple[List[WalRecord], Optional[TornTail]]:
        """Every intact record in order, plus the torn tail if any.

        Parsing stops at the first record whose header is short, whose
        payload is short, whose type is unknown or whose CRC mismatches;
        committed records before that point are never discarded.
        """
        if not os.path.exists(path):
            return [], None
        with open(path, "rb") as handle:
            data = handle.read()
        records: List[WalRecord] = []
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                return records, TornTail(offset, "short header")
            kind, batch_id, length, crc = _HEADER.unpack_from(data, offset)
            body_start = offset + _HEADER.size
            if kind not in (DATA, COMMIT):
                return records, TornTail(offset, "unknown record type %d" % kind)
            if body_start + length > len(data):
                return records, TornTail(offset, "short payload")
            payload = data[body_start : body_start + length]
            if _crc(kind, batch_id, payload) != crc:
                return records, TornTail(offset, "checksum mismatch")
            records.append(WalRecord(kind, batch_id, payload, offset))
            offset = body_start + length
        return records, None

    @staticmethod
    def truncate(path: str, offset: int) -> int:
        """Drop the torn tail; returns the number of bytes removed."""
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(offset)
        return size - offset

    @staticmethod
    def committed_statements(records: Sequence[WalRecord]):
        """``{batch_id: statements}`` for every committed batch, plus
        the last committed ID (0 when none).

        IDs must be contiguous from 1 -- a gap means the log and the
        database disagree about history, which recovery treats as
        corruption rather than guessing.
        """
        data_by_id = {}
        committed = set()
        for record in records:
            if record.kind == DATA:
                data_by_id[record.batch_id] = record.payload
            else:
                if record.batch_id in data_by_id:
                    committed.add(record.batch_id)
        last = 0
        batches = {}
        for batch_id in sorted(committed):
            if batch_id != last + 1:
                raise ValueError(
                    "WAL commit sequence has a gap: %d follows %d" % (batch_id, last)
                )
            batches[batch_id] = pickle.loads(data_by_id[batch_id])
            last = batch_id
        return batches, last
