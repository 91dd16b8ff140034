"""Workload, crash runners and canonical digests for durability tests.

The workload is deterministic end to end: an XMark document at a fixed
scale, three registered views, and a seeded statement stream cut into
fixed-size batches.  Batch ``i`` (0-based) commits as WAL batch ID
``i + 1``, so after any crash the recovered engine's ``backend.version``
says exactly which workload batches remain -- the harness re-applies
``batches[version:]`` and compares digests against an uninterrupted
in-memory serial run.

Two crash runners:

* :func:`spawn_workload` -- a real subprocess (fresh interpreter) with
  ``REPRO_CRASH_POINT`` in its environment: the closest model of a
  production crash, used by the smoke-level tests;
* :func:`run_crashing_fork` -- ``os.fork`` + arming the crash point in
  the child directly: same SIGKILL death without interpreter startup,
  cheap enough for the full point x mode matrix and property tests.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
from typing import Dict, List, Tuple

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
TESTS_DIR = os.path.dirname(HARNESS_DIR)
REPO_ROOT = os.path.dirname(TESTS_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
CHILD = os.path.join(HARNESS_DIR, "crash_child.py")

VIEWS = ("Q1", "Q3", "Q6")
#: the crash matrix checks that reopen rebuilds lattices exactly, so
#: every view keeps a snowcap lattice (the default strategy keeps none).
STRATEGY = "snowcaps"
SCALE = 1
SEED = 13
BATCHES = 4
BATCH_SIZE = 6
INSERT_RATIO = 0.7
MODES = ("serial", "session")
#: crash children checkpoint every 2 batches, so the workload's 4
#: batches cross a periodic checkpoint.
CHECKPOINT_BATCHES = 2


def build_document():
    from repro.workloads.xmark import generate_document

    return generate_document(scale=SCALE)


def build_batches(document, seed: int = SEED, batches: int = BATCHES) -> List[list]:
    """Seeded statement batches against the *base* document state.

    Must be called before anything mutates ``document`` -- the stream
    generator reads the document it is given.
    """
    from repro.workloads.updates import statement_stream

    stream = statement_stream(
        document, batches * BATCH_SIZE, seed=seed, insert_ratio=INSERT_RATIO
    )
    return [stream[i : i + BATCH_SIZE] for i in range(0, len(stream), BATCH_SIZE)]


def view_sources() -> Dict[str, object]:
    from repro.workloads.queries import view_pattern

    return {name: view_pattern(name) for name in VIEWS}


def view_options() -> Dict[str, Dict[str, str]]:
    """``recovery.reopen``'s ``view_options`` for :func:`view_sources`."""
    return {name: {"strategy": STRATEGY} for name in VIEWS}


# -- canonical digests -------------------------------------------------------


def extent_digest(views) -> str:
    """sha256 over every extent's sorted (row key, count) sequence."""
    from repro.views.view import row_sort_key

    hasher = hashlib.sha256()
    for name in sorted(views):
        hasher.update(name.encode("ascii"))
        for row, count in views[name].view.content():
            hasher.update(repr((row_sort_key(row), count)).encode("utf-8"))
    return hasher.hexdigest()


def lattice_digest(views) -> str:
    """sha256 over every snowcap relation as a canonical multiset.

    Stored relations are bags (incremental upkeep appends instead of
    re-sorting), so rows are sorted here; two lattices digest equal iff
    every relation holds the same multiset of rows.
    """
    hasher = hashlib.sha256()
    for name in sorted(views):
        lattice = views[name].lattice
        # Non-vacuity: a snowcaps lattice that lost its relations would
        # digest like a leaves one.
        assert lattice.strategy != "snowcaps" or lattice.materialized_sets(), name
        hasher.update(name.encode("ascii"))
        for subset in sorted(lattice.materialized_sets(), key=sorted):
            hasher.update(repr(sorted(subset)).encode("ascii"))
            relation = lattice.relation_for(subset)
            rows = sorted(
                repr(tuple(cell.id.sort_key for cell in row))
                for row in relation.rows
            )
            hasher.update("".join(rows).encode("utf-8"))
    return hasher.hexdigest()


def fresh_lattice_digest(views, document) -> str:
    """:func:`lattice_digest` of every view's lattice materialized
    afresh over ``document``."""
    from types import SimpleNamespace

    from repro.views.lattice import SnowcapLattice

    fresh = {}
    for name, registered in views.items():
        old = registered.lattice
        lattice = SnowcapLattice(old.pattern, old.strategy, old.update_profile)
        lattice.materialize(document)
        fresh[name] = SimpleNamespace(lattice=lattice)
    return lattice_digest(fresh)


# -- workload ----------------------------------------------------------------


def run_workload(db_path: str, mode: str, seed: int = SEED, late: bool = False):
    """Build a durable engine and push the whole workload through it.

    ``late`` registers the last view after the first batch (serial).

    ``mode`` is ``serial`` (in-process) or ``session`` (resident
    ShardSession replicas).  Returns the engine (the crash runners
    never get this far).
    """
    from repro.maintenance.engine import MaintenanceEngine
    from repro.updates.language import UpdateBatch

    document = build_document()
    batches = build_batches(document, seed=seed)
    engine = MaintenanceEngine(document, backend=db_path)
    sources = list(view_sources().items())
    for name, source in sources[:-1] if late else sources:
        engine.register_view(source, name, strategy=STRATEGY)
    if mode == "session":
        with engine.session(workers=2) as session:
            for batch in batches:
                session.apply_batch(UpdateBatch(batch))
    else:
        for index, batch in enumerate(batches):
            engine.apply_batch(UpdateBatch(batch))
            if late and index == 0:
                engine.register_view(sources[-1][1], sources[-1][0], strategy=STRATEGY)
    engine.sync_durability()
    return engine


def reference_digests(seed: int = SEED) -> Tuple[str, str]:
    """Digests of the uninterrupted all-in-memory serial run."""
    from repro.maintenance.engine import MaintenanceEngine
    from repro.updates.language import UpdateBatch

    document = build_document()
    batches = build_batches(document, seed=seed)
    engine = MaintenanceEngine(document)
    for name, source in view_sources().items():
        engine.register_view(source, name, strategy=STRATEGY)
    for batch in batches:
        engine.apply_batch(UpdateBatch(batch))
    return extent_digest(engine.views), lattice_digest(engine.views)


# -- crash runners -----------------------------------------------------------


def spawn_workload(db_path: str, mode: str, crash_spec=None):
    """Run the workload in a fresh interpreter; returns CompletedProcess.

    With ``crash_spec`` (e.g. ``"after_wal_append:2"``) the child arms
    the named crash point and is expected to die by SIGKILL
    (``returncode == -9``); without it the child runs to completion.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, TESTS_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if crash_spec is not None:
        env["REPRO_CRASH_POINT"] = crash_spec
    else:
        env.pop("REPRO_CRASH_POINT", None)
    # ``start_new_session`` + killpg: a SIGKILLed workload orphans its
    # session replicas, and those inherit this process's
    # stdout -- left alive they hold the pipe open forever (a piped
    # pytest run would hang at exit).  Killing the whole group reaps
    # them the moment the child is done.
    proc = subprocess.Popen(
        [sys.executable, CHILD, db_path, mode],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=600)
    finally:
        _kill_group(proc.pid)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def run_crashing_fork(
    db_path: str, mode: str, point: str, nth: int, seed: int = SEED, late: bool = False
) -> int:
    """Fork, arm the crash point in the child, run the workload, reap.

    Returns the child's wait status; the caller asserts death by
    SIGKILL via :func:`died_by_sigkill`.  The child arms the point by
    poking the (already imported) crashpoints module -- equivalent to
    the environment hook a fresh process reads, but without paying
    interpreter startup per matrix cell.
    """
    pid = os.fork()
    if pid == 0:
        status = 42  # reached only if the crash point never fires
        try:
            os.setpgid(0, 0)  # own group: lets the parent reap orphans
            from repro.storage import crashpoints, sqlite

            sqlite.CHECKPOINT_BATCHES = CHECKPOINT_BATCHES
            crashpoints._armed_point = point
            crashpoints._armed_hits = nth
            crashpoints._armed_pid = os.getpid()
            crashpoints._hits.clear()
            run_workload(db_path, mode, seed=seed, late=late)
        except BaseException:
            status = 43
        finally:
            os._exit(status)
    _, wait_status = os.waitpid(pid, 0)
    # The child's session replicas survive its SIGKILL
    # (they share its process group, set above) and hold inherited
    # pipes open; kill the group so a piped test run can terminate.
    _kill_group(pid)
    return wait_status


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def died_by_sigkill(wait_status: int) -> bool:
    return os.WIFSIGNALED(wait_status) and os.WTERMSIG(wait_status) == signal.SIGKILL


# -- recovery ----------------------------------------------------------------


def recover_and_finish(db_path: str, obs=None, seed: int = SEED):
    """Reopen the database and re-apply the unacknowledged batches.

    Returns ``(engine, RecoveryReport)`` with the engine at the same
    final state an uninterrupted run reaches: recovery replays every
    committed batch past the views' checkpoints, then the harness
    re-applies every workload batch past ``backend.version`` (exactly
    the batches the crashed process never got an acknowledgment for).
    """
    from repro.storage.recovery import reopen
    from repro.updates.language import UpdateBatch

    document = build_document()
    batches = build_batches(document, seed=seed)  # before reopen replays
    engine, report = reopen(
        db_path, document, view_sources(), obs=obs, view_options=view_options()
    )
    for batch in batches[engine.backend.version :]:
        engine.apply_batch(UpdateBatch(batch))
    return engine, report
