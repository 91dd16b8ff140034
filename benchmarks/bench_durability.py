"""Durability gate: reopen speedup, hot-path overhead, crash identity.

Three gates, all against the batch-WAL + sqlite-checkpoint backend
(:mod:`repro.storage`):

1. **Reopen speedup** -- recovering an engine via :func:`repro.storage.
   recovery.reopen` (extent adoption from the checkpoints + snowcap
   materialization from the replayed document) must beat rebuilding
   the same views from scratch (pattern evaluation + snowcap
   materialization + every batch) by at least
   ``REOPEN_SPEEDUP_FLOOR``.
2. **Hot-path overhead** -- pushing the workload through a durable
   engine (a WAL DATA record and COMMIT marker per batch, a checkpoint
   every ``CHECKPOINT_BATCHES``) must cost at most
   ``OVERHEAD_CEILING`` times the pure in-memory engine.
3. **Crash identity** -- for every named crash point, SIGKILLing the
   workload mid-protocol (checkpointing every
   ``crashkit.CHECKPOINT_BATCHES`` batches), recovering, and finishing
   must produce extent *and* lattice digests identical to an
   uninterrupted run.

Writes one entry to ``benchmarks/out/BENCH_durability.json`` and, when
``GITHUB_STEP_SUMMARY`` is set, appends a markdown table.  Exits
non-zero when any gate fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_durability.py
"""

from __future__ import annotations

import contextlib
import datetime
import gc
import json
import os
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))  # for the harness

from harness import crashkit  # noqa: E402
from repro.maintenance.engine import MaintenanceEngine  # noqa: E402
from repro.storage.crashpoints import CRASH_POINTS  # noqa: E402
from repro.storage.recovery import reopen  # noqa: E402
from repro.updates.language import UpdateBatch  # noqa: E402
from repro.workloads.updates import statement_stream  # noqa: E402
from repro.workloads.xmark import generate_document  # noqa: E402

#: timing gates run a larger workload than the crash harness: at test
#: scale the document is so small that sqlite's per-open constants
#: drown the asymptotic difference the gates are about.
SCALE = 16
BATCHES = 40
BATCH_SIZE = 6
SEED = 13
REPEATS = 5
REOPEN_SPEEDUP_FLOOR = 5.0
OVERHEAD_CEILING = 1.10
OUT_PATH = os.path.join(os.path.dirname(__file__), "out", "BENCH_durability.json")


def _build_document():
    return generate_document(scale=SCALE)


def _build_batches(document):
    stream = statement_stream(
        document, BATCHES * BATCH_SIZE, seed=SEED, insert_ratio=0.7
    )
    return [stream[i : i + BATCH_SIZE] for i in range(0, len(stream), BATCH_SIZE)]


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except OSError:
        return "unknown"


@contextlib.contextmanager
def _quiet_gc():
    """Collect up front, then keep the collector out of the timed
    region: a generation-2 pass landing mid-measurement scans every
    live document graph and dwarfs the durability costs under test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _register_views(engine):
    """The crash harness's views under its lattice strategy (snowcaps),
    so the timing gates maintain and rebuild lattices too."""
    for name, source in crashkit.view_sources().items():
        engine.register_view(source, name, strategy=crashkit.STRATEGY)


def _workload(backend=None):
    """Build a document, register the views, apply every batch; returns
    (engine, per-batch apply seconds)."""
    document = _build_document()
    batches = _build_batches(document)
    engine = MaintenanceEngine(document, backend=backend)
    _register_views(engine)
    per_batch = []
    with _quiet_gc():
        for batch in batches:
            started = time.perf_counter()
            engine.apply_batch(UpdateBatch(batch))
            per_batch.append(time.perf_counter() - started)
    if backend is not None:
        engine.sync_durability()
    return engine, per_batch


def measure_overhead(tmp: str) -> dict:
    """Gate 2: durable batch application vs in-memory.

    An in-memory and a durable engine evolve in lockstep over identical
    documents and statement streams, so batch ``i`` of either engine
    applies the same work to the same state and the two modes compare
    cell by cell.  The engines are interleaved at *batch* granularity
    -- each durable apply is timed milliseconds after its in-memory
    twin, not a whole run later -- which is the scale on which machine
    drift (frequency scaling, a neighbour stealing the core) actually
    cancels; the order within a pair alternates per repetition to kill
    any warm-up bias.  The remaining noise is one-sided (interference
    only ever adds time), so each cell's closest observation to its
    true cost is the minimum across repetitions, and the gate compares
    the summed per-cell floors.
    """
    memory_runs, durable_runs = [], []
    for index in range(REPEATS):
        lockstep = []
        for db_path in (None, os.path.join(tmp, "overhead_%d.db" % index)):
            document = _build_document()
            batches = _build_batches(document)
            engine = MaintenanceEngine(document, backend=db_path)
            _register_views(engine)
            lockstep.append((engine, batches, []))
        pair = lockstep if index % 2 == 0 else lockstep[::-1]
        with _quiet_gc():
            for i in range(BATCHES):
                for engine, batches, per_batch in pair:
                    started = time.perf_counter()
                    engine.apply_batch(UpdateBatch(batches[i]))
                    per_batch.append(time.perf_counter() - started)
        durable_engine = lockstep[1][0]
        durable_engine.sync_durability()
        durable_engine.backend.close()
        memory_runs.append(lockstep[0][2])
        durable_runs.append(lockstep[1][2])
    memory = sum(min(run[i] for run in memory_runs) for i in range(BATCHES))
    durable = sum(min(run[i] for run in durable_runs) for i in range(BATCHES))
    return {
        "memory_s": round(memory, 6),
        "durable_s": round(durable, 6),
        "overhead": round(durable / memory, 4),
        "ceiling": OVERHEAD_CEILING,
    }


def measure_reopen(tmp: str) -> dict:
    """Gate 1: adopt-from-sqlite reopen vs full-history rematerialization.

    The alternative to durable extents is replaying the *entire* batch
    history through a fresh engine -- view maintenance per batch, cost
    proportional to how long the engine has been alive.  Reopen adopts
    each view's checkpointed ID-projection rows, resolves their
    ``val``/``cont`` cells from the replayed document and materializes
    each snowcap lattice from it; after the clean close measured here
    it replays no batch through the engine, so its cost is bounded by
    the document replay + view size regardless of history.
    Both paths start from the same base document and end in the same
    state (extent and lattice digests checked).
    """
    db_path = os.path.join(tmp, "reopen.db")
    engine, _ = _workload(backend=db_path)
    engine.backend.close()
    expected = crashkit.extent_digest(engine.views)
    expected_lattices = crashkit.lattice_digest(engine.views)

    rematerialize_runs, reopen_runs, ratios = [], [], []
    for _ in range(REPEATS):
        document = _build_document()
        batches = _build_batches(document)
        with _quiet_gc():
            started = time.perf_counter()
            cold = MaintenanceEngine(document)
            _register_views(cold)
            for batch in batches:
                cold.apply_batch(UpdateBatch(batch))
            rematerialize = time.perf_counter() - started
        assert crashkit.extent_digest(cold.views) == expected

        # Reopen: document replay (statements only, no view work) +
        # extent adoption by ID + lattice materialization.  Timed back
        # to back with
        # the rematerialization above, so the per-iteration ratio is
        # immune to machine drift across iterations.
        base = _build_document()
        with _quiet_gc():
            started = time.perf_counter()
            recovered, report = reopen(
                db_path,
                base,
                crashkit.view_sources(),
                view_options=crashkit.view_options(),
            )
            reopened = time.perf_counter() - started
        assert report.lattices_rematerialized == len(crashkit.VIEWS), report
        assert crashkit.extent_digest(recovered.views) == expected
        assert crashkit.lattice_digest(recovered.views) == expected_lattices
        recovered.backend.close()
        rematerialize_runs.append(rematerialize)
        reopen_runs.append(reopened)
        ratios.append(rematerialize / reopened)
    return {
        "rematerialize_s": round(statistics.median(rematerialize_runs), 6),
        "reopen_s": round(statistics.median(reopen_runs), 6),
        "speedup": round(statistics.median(ratios), 3),
        "floor": REOPEN_SPEEDUP_FLOOR,
    }


def measure_crash_identity(tmp: str) -> dict:
    """Gate 3: every crash point recovers to the uninterrupted digests."""
    expected = crashkit.reference_digests()
    cells = []
    for point in CRASH_POINTS:
        db_path = os.path.join(tmp, "crash_%s.db" % point)
        status = crashkit.run_crashing_fork(db_path, "serial", point, 2)
        killed = crashkit.died_by_sigkill(status)
        engine, report = crashkit.recover_and_finish(db_path)
        digests = (
            crashkit.extent_digest(engine.views),
            crashkit.lattice_digest(engine.views),
        )
        engine.backend.close()
        cells.append(
            {
                "point": point,
                "sigkilled": killed,
                "identical": digests == expected,
                "replayed_batches": report.replayed_batches,
                "truncated_bytes": report.truncated_bytes,
            }
        )
    return {"cells": cells, "identical": all(c["identical"] and c["sigkilled"] for c in cells)}


def _write_step_summary(run: dict) -> None:
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    reopen_row = run["reopen"]
    overhead_row = run["overhead"]
    lines = [
        "## Durability gate",
        "",
        "| metric | value | gate |",
        "|---|---|---|",
        "| reopen speedup vs full-history rematerialization | %.2fx | >= %.1fx |"
        % (reopen_row["speedup"], reopen_row["floor"]),
        "| durable hot-path overhead | %.3fx | <= %.2fx |"
        % (overhead_row["overhead"], overhead_row["ceiling"]),
        "| crash points byte-identical | %d/%d | all |"
        % (
            sum(c["identical"] for c in run["crash_identity"]["cells"]),
            len(run["crash_identity"]["cells"]),
        ),
        "| result | %s | |" % ("PASS" if run["passed"] else "FAIL"),
        "",
    ]
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def _append_run(run: dict) -> None:
    history = {"runs": []}
    if os.path.exists(OUT_PATH):
        try:
            with open(OUT_PATH) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
            history = existing
    sha = run.get("git_sha")
    if sha and sha != "unknown":
        history["runs"] = [
            entry for entry in history["runs"] if entry.get("git_sha") != sha
        ]
    history["runs"].append(run)
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def _timing_dir() -> str:
    """Base directory for the timing databases.

    Prefers tmpfs: the gates measure the *compute* cost of the
    durability protocol, and on small machines ext4 writeback competes
    with the timed workload for the CPU, drowning the signal.  Crash
    identity runs on the default temp dir regardless -- recovery
    correctness must not depend on the filesystem.
    """
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    import tempfile

    return tempfile.gettempdir()


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(dir=_timing_dir()) as timing_tmp, \
            tempfile.TemporaryDirectory() as crash_tmp:
        overhead = measure_overhead(timing_tmp)
        reopen_metrics = measure_reopen(timing_tmp)
        identity = measure_crash_identity(crash_tmp)
    passed = (
        reopen_metrics["speedup"] >= REOPEN_SPEEDUP_FLOOR
        and overhead["overhead"] <= OVERHEAD_CEILING
        and identity["identical"]
    )
    run = {
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now().isoformat(timespec="seconds"),
        "config": {
            "scale": SCALE,
            "batches": BATCHES,
            "batch_size": BATCH_SIZE,
            "crash_scale": crashkit.SCALE,
            "repeats": REPEATS,
        },
        "reopen": reopen_metrics,
        "overhead": overhead,
        "crash_identity": identity,
        "passed": passed,
    }
    _append_run(run)
    _write_step_summary(run)
    print(
        "reopen %0.3fms vs full-history rematerialization %0.3fms -> "
        "speedup %.2fx (floor %.1fx)"
        % (
            reopen_metrics["reopen_s"] * 1e3,
            reopen_metrics["rematerialize_s"] * 1e3,
            reopen_metrics["speedup"],
            REOPEN_SPEEDUP_FLOOR,
        )
    )
    print(
        "durable batches %0.3fms vs in-memory %0.3fms -> overhead %.3fx "
        "(ceiling %.2fx)"
        % (
            overhead["durable_s"] * 1e3,
            overhead["memory_s"] * 1e3,
            overhead["overhead"],
            OVERHEAD_CEILING,
        )
    )
    for cell in identity["cells"]:
        print(
            "crash %-21s sigkill=%s replayed=%d truncated=%dB -> %s"
            % (
                cell["point"],
                cell["sigkilled"],
                cell["replayed_batches"],
                cell["truncated_bytes"],
                "IDENTICAL" if cell["identical"] else "DIVERGED",
            )
        )
    print("durability gate -> %s  [%s]" % ("PASS" if passed else "FAIL", OUT_PATH))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
