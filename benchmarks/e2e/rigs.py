"""The five workloads: what is built, how it is driven, how it is checked.

Everything here talks to the program through its public surface only:
``MaintenanceEngine`` / ``engine.session`` / ``ApplyQueue`` /
``recovery.reopen``, the ``BatchReport`` fields those calls return, and
(traced runs only) a ``repro.obs.Observability`` handed to the engine.
Nothing under ``src/`` is patched or re-implemented.

A run has four parts, and only the second is "the timed region":

1. **set-up** (timed as ``setup_s``): document build, ``register_view``
   of every view, backend open / session fork / queue start;
2. **drive**: fixed statement counts, generated segment by segment on
   the live document (generation is outside every timed interval);
3. **teardown**: session / queue / backend close, file sizes, reopen;
4. **check**: every maintained extent must equal fresh evaluation of
   its pattern on the final document.  Behind a queue or a session
   that document is rebuilt independently -- the submitted statements
   replayed, in order, onto a fresh base document with no views and no
   engine -- so a dropped, reordered or mis-propagated statement fails
   the run whichever party lost it.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import repro  # noqa: F401  (wires the sharding and recovery back ends)
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.obs import NULL_OBS, Observability
from repro.storage.recovery import reopen
from repro.storage.sqlite import wal_path
from repro.updates.language import UpdateBatch
from repro.updates.pul import BatchApplication
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.xmark import generate_document

import loadgen
from hostclock import HostClock

#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``recovery.reopen`` calls on the closed database in a traced run;
#: ``storage.reopen_s`` is their median (an untraced run reopens once,
#: for the check only).
REOPEN_REPEATS = 3
#: resident session workers -- measured, never projected (host nproc=2).
SESSION_WORKERS = 2
#: every increase amount the XMark generator emits: one σ view each
#: (the view set of ``bench_sigma_repair``).
SIGMA_VALUES = ("1.50", "3.00", "4.50", "6.00", "7.50", "9.00", "12.00", "15.00")
#: validity ceiling on the load itself.
MAX_STALE_SHARE = 0.10
#: ``ApplyQueue`` linger (``flush_interval``), in reference seconds.
LINGER_S = 0.01
#: the open-loop arrival rate and linger follow the host through the
#: mean of this many latest samples of the reference unit.
RATE_UNIT_SAMPLES = 16


def xmark_views() -> Dict[str, object]:
    """The seven XMark views of Appendix A.6."""
    return {name: view_pattern(name) for name in sorted(VIEW_TEXTS)}


def sigma_views() -> Dict[str, object]:
    """Eight Q3 variants, σ-filtering one increase amount each."""
    views = {}
    for amount in SIGMA_VALUES:
        pattern = view_pattern("Q3")
        for node in pattern.nodes():
            if node.value_pred is not None:
                node.value_pred = amount
        views["Q3_%s" % amount.replace(".", "_")] = pattern
    return views


def tenant_views(tenants: int = 4) -> Dict[str, object]:
    """Seven XMark views x four tenants = 28 (as in ``bench_rebalance``)."""
    return {
        name if tenant == 0 else "%s_t%d" % (name, tenant): view_pattern(name)
        for tenant in range(tenants)
        for name in sorted(VIEW_TEXTS)
    }


class Workload(NamedTuple):
    """One fixed-size workload.  ``*_per_second`` are sizing constants:
    the count actually run is ``round(constant * --seconds)``, chosen so
    that the timed region lasts about ``--seconds`` on the 2-CPU
    reference host.  The work is a statement *count*, identical on any
    two commits, never "whatever fits in the time"."""

    name: str
    mode: str  # "serial" | "session" | "queue"
    scale: int
    views: Callable[[], Dict[str, object]]
    kind: Callable[..., List[list]]
    options: Dict[str, object]
    batch_size: int
    segment_batches: int
    #: closed-loop batches (on ``queue``: burst batches) per --seconds.
    batches_per_second: float
    #: ``queue`` only: open-loop batches-worth of statements per
    #: --seconds, the open-loop segment length and the arrival rate
    #: per reference second.
    open_batches_per_second: float = 0.0
    open_segment_batches: int = 0
    open_rate: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "insert_bulk", "serial", 16, xmark_views,
            loadgen.mixed_batches, {"insert_ratio": 1.0},
            batch_size=64, segment_batches=16, batches_per_second=14.0,
        ),
        Workload(
            "delete_mix", "serial", 32, xmark_views,
            loadgen.mixed_batches, {"insert_ratio": 0.75},
            batch_size=32, segment_batches=8, batches_per_second=10.0,
        ),
        Workload(
            "churn_sigma", "serial", 16, sigma_views,
            loadgen.churn_sigma_batches, {"sigma_values": SIGMA_VALUES},
            batch_size=16, segment_batches=8, batches_per_second=24.0,
        ),
        Workload(
            "durable_stream", "queue", 16, xmark_views,
            loadgen.mixed_batches, {"insert_ratio": 1.0},
            batch_size=64, segment_batches=8, batches_per_second=5.6,
            open_batches_per_second=1.6, open_segment_batches=4, open_rate=150.0,
        ),
        Workload(
            "session_drift", "session", 16, tenant_views,
            loadgen.drift_rotation_batches, {"insert_ratio": 0.85},
            batch_size=32, segment_batches=24, batches_per_second=12.0,
        ),
    )
}


# -- bench-side shims ---------------------------------------------------------


class Probe:
    """``perf_counter`` shims around public calls (traced runs only).

    Each wrapped call adds its seconds to ``seconds[name]`` and records
    the same interval as an ``e2e.<name>`` span under whatever span is
    open on the calling thread, so the trace file and the per-layer
    sums cannot disagree.
    """

    def __init__(self, obs: Observability):
        self.obs = obs
        self.seconds: Dict[str, float] = {}
        self.broadcast_bytes = 0

    def timed(self, name: str, function):
        def shim(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
                self.obs.tracer.record("e2e." + name, elapsed, started)

        return shim

    def watch_backend(self, backend) -> None:
        """Instance-level wrappers on the durable backend's protocol
        calls: ``begin_batch`` is the WAL DATA append, ``commit_batch``
        the COMMIT marker plus the sqlite transaction, ``sync`` the
        checkpoint at registration and close."""
        backend.begin_batch = self.timed("wal_append", backend.begin_batch)
        backend.commit_batch = self.timed("commit", backend.commit_batch)
        backend.sync = self.timed("sync", backend.sync)


class TimedEngine:
    """The engine as ``ApplyQueue`` sees it, with a clock on the door.

    The queue drains in submission order, so batch *k* covers the next
    ``len(batch)`` submitted statements; the proxy stamps when each
    batch was taken off the queue and when its ``apply_batch`` returned
    (the tickets resolve a few microseconds later, on the same thread).
    After the second stamp it samples the reference unit, on the
    queue's own worker thread: the only place a sample can sit right
    next to the batch without fighting it for the interpreter lock.  The
    sample keeps the worker ~1.7 ms longer per batch, the same on every
    commit, and is outside both stamps.
    """

    def __init__(self, engine, probe: Optional[Probe], clock):
        self.engine = engine
        self.obs = engine.obs
        self.probe = probe
        self.clock = clock
        self.taken: List[float] = []
        self.done: List[float] = []
        self.sizes: List[int] = []
        self.units: List[float] = []  # unit sampled after batch k
        self.reports: List[object] = []
        self.failed = 0

    def apply_batch(self, batch, **options):
        taken = time.perf_counter()
        size = len(batch)
        try:
            with self.obs.span("e2e.batch", batch=len(self.taken)):
                if self.probe is not None:
                    batch = self.probe.timed("coalesce", batch.coalesced)()
                report = self.engine.apply_batch(batch, **options)
            self.reports.append(report)
            return report
        except Exception:
            self.failed += size
            raise
        finally:
            self.taken.append(taken)
            self.done.append(time.perf_counter())
            self.sizes.append(size)
            self.units.append(self.clock.sample())

    def sync_durability(self) -> None:
        self.engine.sync_durability()


# -- set-up -----------------------------------------------------------------


class Rig:
    """One built system under test.  ``setup_s`` is the reference
    seconds (``hostclock``) its set-up steps took: the unit is sampled
    between the steps, so each is read on the samples either side."""

    def __init__(self, workload: Workload, obs: Observability, probe, db_path, clock):
        self.workload = workload
        self.db_path = db_path if workload.mode == "queue" else None
        self.setup_s = 0.0
        unit = clock.sample()

        def step(function, *args, **kwargs):
            nonlocal unit
            started = time.perf_counter()
            result = function(*args, **kwargs)
            wall = time.perf_counter() - started
            before, unit = unit, clock.sample()
            self.setup_s += wall * clock.factor(before, unit)
            return result

        self.document = step(generate_document, scale=workload.scale)
        self.engine = step(MaintenanceEngine, self.document, obs=obs, backend=self.db_path)
        if probe is not None and self.engine.backend is not None:
            probe.watch_backend(self.engine.backend)
        for name, pattern in step(workload.views).items():
            step(self.engine.register_view, pattern, name)
        self.session = None
        self.proxy = None
        self.queue = None
        self.apply = self.engine.apply_batch
        if workload.mode == "session":
            self.session = step(self.engine.session, workers=SESSION_WORKERS, rebalance=True)
            self.apply = self.session.apply_batch
        elif workload.mode == "queue":
            self.proxy = TimedEngine(self.engine, probe, clock)
            self.queue = step(
                ApplyQueue, self.proxy, max_batch_size=workload.batch_size,
                flush_interval=LINGER_S,
            )
        self.closed = False

    def close(self) -> None:
        """Clean shutdown: drain, re-sync, checkpoint, release handles."""
        if self.closed:
            return
        self.closed = True
        if self.queue is not None:
            self.queue.close()
        if self.session is not None:
            self.session.close()
        if self.engine.backend is not None:
            self.engine.backend.close()


def build(workload: Workload, obs, probe, scratch: str, repeats: int, clock: HostClock):
    """Build the rig ``repeats`` times; returns the last one and the
    reference seconds each build took.  Earlier rigs are closed and
    released before the next build so the memory high-water mark is one
    rig's."""
    seconds: List[float] = []
    rig = None
    for index in range(repeats):
        if rig is not None:
            rig.close()
            rig = None
        gc.collect()
        db_path = os.path.join(scratch, "%s_%d.db" % (workload.name, index))
        rig = Rig(workload, obs, probe, db_path, clock)
        seconds.append(rig.setup_s)
    return rig, seconds


# -- drive ------------------------------------------------------------------


class Observed:
    """Raw observations of one run's timed region."""

    def __init__(self) -> None:
        self.submitted_batches: List[list] = []  # every statement handed over
        self.failed = 0
        #: (statements, reference seconds) of each closed-loop segment:
        #: the throughput samples ``stmts_per_s`` is the median of.
        self.segments: List[tuple] = []
        #: per-sample commit latency in reference ms (see ``hostclock``).
        self.commit_ms: List[float] = []
        #: raw wall seconds of each ``apply_batch`` call (the busy time
        #: the per-layer seconds are shares of).
        self.apply_walls: List[float] = []
        #: every sample of the reference unit taken during the drive.
        self.unit_seconds: List[float] = []
        self.reports: List[object] = []
        #: seconds of the explicit collections between segments.
        self.gc_seconds = 0.0
        # open loop only
        self.late_ms: List[float] = []
        self.wait_ms: List[float] = []
        self.depth_max = 0
        self.backlog_end = 0
        self.queue_batch_sizes: List[int] = []

    @property
    def submitted(self) -> int:
        return sum(len(batch) for batch in self.submitted_batches)

    def sample_unit(self, clock: HostClock) -> float:
        """One sample of the reference unit, outside every timed interval."""
        unit = clock.sample()
        self.unit_seconds.append(unit)
        return unit

    def collect_garbage(self) -> None:
        """The run's garbage-collection policy: CPython's automatic
        cyclic collector is off while the drive runs and the benchmark
        collects here, at segment boundaries, outside every timed
        interval.  A full pass over the document graph takes 100-300 ms
        and would land on ~5 % of the batches -- exactly where the 95th
        percentile sits, which then flips between two values by chance.
        The cost is still reported (``loadgen.gc_s``) and garbage never
        outlives a segment, so ``peak_rss_mb`` stays meaningful."""
        started = time.perf_counter()
        gc.collect()
        self.gc_seconds += time.perf_counter() - started


def drive_closed(rig: Rig, stream, batches: int, obs, probe, clock: HostClock) -> Observed:
    """One batch in flight at a time: submit, wait for the report.  The
    reference unit is sampled between batches, so each call is turned
    into reference time by the two samples that bracket it."""
    seen = Observed()
    for segment in stream.segments_for(batches):
        seen.collect_garbage()
        first = len(seen.commit_ms)
        unit = seen.sample_unit(clock)
        for statements in segment:
            seen.submitted_batches.append(statements)
            started = time.perf_counter()
            try:
                with obs.span("e2e.batch", batch=len(seen.apply_walls)):
                    batch = UpdateBatch(statements)
                    if probe is not None:
                        batch = probe.timed("coalesce", batch.coalesced)()
                    seen.reports.append(rig.apply(batch))
            except Exception:
                seen.failed += len(statements)
            wall = time.perf_counter() - started
            before, unit = unit, seen.sample_unit(clock)
            seen.apply_walls.append(wall)
            seen.commit_ms.append(wall * clock.factor(before, unit) * 1e3)
            if probe is not None and rig.session is not None:
                # What the session pickles down every worker's pipe.
                probe.broadcast_bytes += (
                    len(pickle.dumps(statements)) * rig.session.workers
                )
        seen.segments.append(
            (sum(len(batch) for batch in segment), sum(seen.commit_ms[first:]) / 1e3)
        )
    return seen


def drive_queue(rig: Rig, stream, open_batches: int, burst_batches: int, clock: HostClock) -> Observed:
    """Open loop through ``ApplyQueue``, then closed-loop drain bursts.

    Each open-loop segment is generated on the quiescent document,
    submitted on schedule, then flushed: a backlog never carries over a
    segment boundary (the generator may not walk a document the worker
    is mutating), and the flush wait is inside the latencies of the
    statements it delays because those are timed from their due times.

    The reference unit is sampled here before each segment and burst
    and by the proxy after every batch, so batch *k* is bracketed by
    ``before[k]`` and ``proxy.units[k]`` like a closed-loop batch.
    """
    workload = rig.workload
    seen = Observed()
    queue, proxy = rig.queue, rig.proxy
    dues: List[float] = []
    sents: List[float] = []
    before: List[float] = []  # unit sampled before open-loop batch k

    stream.segment_batches = workload.open_segment_batches
    for segment in stream.segments_for(open_batches):
        statements = [statement for batch in segment for statement in batch]
        seen.submitted_batches.append(statements)
        seen.collect_garbage()
        first_batch = len(proxy.done)
        unit = seen.sample_unit(clock)
        # The schedule runs on reference time too: on a host half as
        # fast, statements arrive half as often, so the queue sees the
        # same load relative to what the host can do and latencies
        # scale with the host instead of running away from it.  So does
        # the queue's linger (a public attribute it reads per batch),
        # or its fixed wall share of a latency would shrink in
        # reference time whenever the host is slow.
        dilation = clock.factor(*(proxy.units[-RATE_UNIT_SAMPLES:] or [unit]))
        queue.flush_interval = LINGER_S / dilation
        due, sent = loadgen.open_loop(
            queue.apply_async, statements, workload.open_rate * dilation
        )
        seen.backlog_end = max(seen.backlog_end, queue.pending_count)
        queue.flush()
        before.append(unit)
        before.extend(proxy.units[first_batch:-1])
        dues.extend(due)
        sents.extend(sent)
    open_batch_count = len(proxy.done)
    # Batch k covers the next sizes[k] statements in submission order.
    position = 0
    completed_before: List[int] = []
    for index in range(open_batch_count):
        taken, done, size = proxy.taken[index], proxy.done[index], proxy.sizes[index]
        factor = clock.factor(before[index], proxy.units[index])
        for offset in range(position, position + size):
            seen.commit_ms.append((done - dues[offset]) * factor * 1e3)
            seen.wait_ms.append((taken - dues[offset]) * 1e3)
        position += size
        completed_before.append(position)
    seen.late_ms = [(sent - due) * 1e3 for sent, due in zip(sents, dues)]
    # Queue depth as the generator saw it at each submission, rebuilt
    # from the stamps (no lock taken on the hot path to sample it).
    cursor = 0
    for index, sent in enumerate(sents):
        while cursor < open_batch_count and proxy.done[cursor] <= sent:
            cursor += 1
        completed = completed_before[cursor - 1] if cursor else 0
        seen.depth_max = max(seen.depth_max, index + 1 - completed)

    stream.segment_batches = workload.segment_batches
    for segment in stream.segments_for(burst_batches):
        statements = [statement for batch in segment for statement in batch]
        seen.submitted_batches.append(statements)
        seen.collect_garbage()
        first_batch = len(proxy.done)
        unit = seen.sample_unit(clock)
        started = time.perf_counter()
        queue.extend_async(statements)
        queue.flush()
        wall = time.perf_counter() - started
        # The worker sampled the unit inside this wall: take that out,
        # and read the rest on the samples taken across the burst.
        units = proxy.units[first_batch:]
        seen.segments.append(
            (len(statements), (wall - sum(units)) * clock.factor(unit, *units))
        )
    seen.unit_seconds.extend(proxy.units)
    seen.failed = proxy.failed
    seen.reports = proxy.reports
    seen.apply_walls = [done - taken for taken, done in zip(proxy.taken, proxy.done)]
    seen.queue_batch_sizes = proxy.sizes[:open_batch_count]
    return seen


# -- teardown and check ---------------------------------------------------------


def database_bytes(db_path: str) -> Dict[str, int]:
    """Bytes on disk after a clean close: the batch WAL, and the sqlite
    database with its own journal files."""
    def size(path: str) -> int:
        return os.path.getsize(path) if os.path.exists(path) else 0

    return {
        "wal": size(wal_path(db_path)),
        "sqlite": size(db_path) + size(db_path + "-wal") + size(db_path + "-shm"),
    }


def element_count(document) -> int:
    return sum(1 for _ in document.all_elements())


def replay_reference(workload: Workload, submitted_batches):
    """The submitted statements applied, in order, to a fresh base
    document with no views and no engine: the check's ground truth."""
    reference = generate_document(scale=workload.scale)
    for statements in submitted_batches:
        BatchApplication(reference, statements).apply()
    return reference


def extents_match(views, reference) -> float:
    """Seconds spent evaluating every view from scratch on
    ``reference`` -- the recompute baseline -- or raises on the first
    extent that differs from it."""
    started = time.perf_counter()
    for name, registered in views.items():
        if not registered.view.equals_fresh_evaluation(reference):
            raise AssertionError("view %s differs from fresh evaluation" % name)
    return time.perf_counter() - started


def reopen_closed_database(rig: Rig, repeats: int) -> Dict[str, object]:
    """``recovery.reopen`` on the closed database, ``repeats`` times, each
    onto a fresh base document; every recovery must reproduce the live
    engine's extents, which the caller has already checked against the
    reference (an acknowledged write is readable after a restart)."""
    seconds: List[float] = []
    report = None
    for _ in range(repeats):
        base = generate_document(scale=rig.workload.scale)
        gc.collect()
        started = time.perf_counter()
        recovered, report = reopen(rig.db_path, base, rig.workload.views())
        seconds.append(time.perf_counter() - started)
        try:
            for name, registered in rig.engine.views.items():
                if recovered.views[name].view.content() != registered.view.content():
                    raise AssertionError("reopened view %s differs" % name)
        finally:
            recovered.backend.close()
    return {
        "reopen_s": statistics.median(seconds),
        "replayed_batches": report.replayed_batches,
        "wal_records": report.wal_records,
        "lattices_rematerialized": report.lattices_rematerialized,
    }


def serial_baseline_seconds(workload: Workload, submitted_batches) -> float:
    """Seconds a serial in-memory engine with the same views spends
    applying the same batches: the baseline row the session's measured
    speed-up is a ratio to (traced runs only)."""
    document = generate_document(scale=workload.scale)
    engine = MaintenanceEngine(document)
    for name, pattern in workload.views().items():
        engine.register_view(pattern, name)
    total = 0.0
    gc.disable()  # the drive's policy: collect at segment boundaries only
    try:
        for index, statements in enumerate(submitted_batches):
            if index % workload.segment_batches == 0:
                gc.collect()
            started = time.perf_counter()
            engine.apply_batch(UpdateBatch(statements))
            total += time.perf_counter() - started
    finally:
        gc.enable()
    return total


# -- one run ----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Dict[str, object]:
    """Run one workload once; returns the raw result the caller turns
    into end-to-end or per-layer metrics (see ``layers.py``)."""
    workload = WORKLOADS[name]
    obs = Observability() if trace else NULL_OBS
    probe = Probe(obs) if trace else None
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run_", dir=out_dir)
    rig = None
    try:
        clock = HostClock()  # before anything else is resident
        rig, setup_seconds = build(
            workload, obs, probe, scratch, 1 if trace else SETUP_REPEATS, clock
        )
        nodes_start = element_count(rig.document)
        stream = loadgen.SegmentedStream(
            rig.document,
            workload.kind,
            seed,
            workload.batch_size,
            workload.segment_batches,
            **workload.options,
        )
        batches = max(1, round(workload.batches_per_second * seconds))
        started = time.perf_counter()
        gc.disable()  # see Observed.collect_garbage
        try:
            if workload.mode == "queue":
                open_batches = max(1, round(workload.open_batches_per_second * seconds))
                seen = drive_queue(rig, stream, open_batches, batches, clock)
            else:
                seen = drive_closed(rig, stream, batches, obs, probe, clock)
        finally:
            gc.enable()
        timed_s = (
            time.perf_counter() - started - stream.gen_seconds - seen.gc_seconds
            - sum(seen.unit_seconds)
        )
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - clock.footprint_mb  # the benchmark's own buffer, not the program's
        )
        rig.close()
        worker_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if workload.mode == "session"
            else 0.0
        )

        result: Dict[str, object] = {
            "setup_seconds": setup_seconds,
            "timed_s": timed_s,
            # What the reference clock multiplied this run's walls by,
            # typically: 1.0 on the quiet reference host.
            "host_factor": clock.factor(statistics.median(seen.unit_seconds)),
            "seen": seen,
            "views": len(rig.engine.views),
            "peak_rss_mb": peak_rss_mb,
            "worker_rss_mb": worker_rss_mb,
            "gen_s": stream.gen_seconds,
            "doc_nodes_start": nodes_start,
            "doc_nodes_end": element_count(rig.document),
            "extent_rows_end": sum(len(r.view) for r in rig.engine.views.values()),
            "probe": probe,
            "spans": obs.flush() if trace else [],
            "obs": obs,
            "storage": {},
            "serial_baseline_s": 0.0,
        }
        errors: List[str] = []
        try:
            # The serial engine's document *is* sequential application
            # (the same BatchApplication the replay would run); behind a
            # queue or a session other parties hold the truth, so there
            # the statements are replayed independently.
            if workload.mode == "serial":
                reference = rig.document
            else:
                reference = replay_reference(workload, seen.submitted_batches)
            result["recompute_s"] = extents_match(rig.engine.views, reference)
            if rig.db_path is not None:
                result["storage"] = dict(
                    database_bytes(rig.db_path),
                    **reopen_closed_database(rig, REOPEN_REPEATS if trace else 1),
                )
        except Exception as exc:  # the check is a boundary: report, don't crash
            errors.append("%s: %s" % (type(exc).__name__, exc))
            result.setdefault("recompute_s", 0.0)
        if seen.failed:
            errors.append("%d statements were in batches that raised" % seen.failed)
        if trace and workload.mode == "session":
            result["serial_baseline_s"] = serial_baseline_seconds(
                workload, seen.submitted_batches
            )
        result["errors"] = errors
        return result
    finally:
        if rig is not None:
            rig.close()
        shutil.rmtree(scratch, ignore_errors=True)
