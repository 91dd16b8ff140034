"""Named crash points for the fault-injection harness.

The crash-injection harness (``tests/harness/crashkit.py``) runs an
engine workload in a subprocess with ``REPRO_CRASH_POINT=<name>:<n>``
in its environment; the ``n``-th time execution passes the named point
the process SIGKILLs itself -- no cleanup handlers, no atexit, exactly
the adversarial death the durability layer must survive.  The points:

* ``after_wal_append``   -- WAL data record written, nothing applied;
* ``mid_bulk_apply``     -- in the engine's store pass: some extents
  updated in memory, none durable;
* ``before_commit_marker`` -- batch fully applied, marker not written;
* ``after_commit_marker``  -- marker written: the batch is durable and
  no sqlite transaction follows (unless a checkpoint is due);
* ``mid_checkpoint``     -- inside a checkpoint's sqlite transaction,
  after at least one view record has been written.

With the variable unset (every production run) the hook is a single
``None`` check.  The environment is read once at import: the spec is
part of the process's identity, not mutable runtime state.
"""

from __future__ import annotations

import os
import signal
from typing import Dict

CRASH_POINTS = (
    "after_wal_append",
    "mid_bulk_apply",
    "before_commit_marker",
    "after_commit_marker",
    "mid_checkpoint",
)

_SPEC = os.environ.get("REPRO_CRASH_POINT")
_armed_point = None
_armed_hits = 0
#: only the process that armed the spec dies: forked workers (session
#: replicas, shard pools) inherit the environment but must not consume
#: the hit budget or kill themselves -- the harness targets the engine
#: owner, whose death orphans the workers anyway.
_armed_pid = os.getpid()
if _SPEC:
    _point, _, _nth = _SPEC.partition(":")
    _armed_point = _point
    _armed_hits = int(_nth) if _nth else 1

_hits: Dict[str, int] = {}


def crash_point(name: str) -> None:
    """Die here (SIGKILL) when this point is the armed one."""
    if _armed_point is None or name != _armed_point:
        return
    if os.getpid() != _armed_pid:
        return
    _hits[name] = _hits.get(name, 0) + 1
    if _hits[name] >= _armed_hits:
        os.kill(os.getpid(), signal.SIGKILL)
