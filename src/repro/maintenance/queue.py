"""Asynchronous batch application: the write path's persistence seam.

Document writers hand statements to :class:`ApplyQueue` and move on --
view maintenance happens on a background worker that drains the queue
in submission order, groups pending statements into
:class:`~repro.updates.language.UpdateBatch` units (bounded by
``max_batch_size``) and runs one
:meth:`~repro.maintenance.engine.MaintenanceEngine.apply_batch` round
per group.  The separation of update logic from the application layer
follows the DB-net reading of the paper's pipeline: the statement
stream is the transition log, the queue decides when its effects
become observable.

Consistency model: between submission and the completion of its batch,
a statement is invisible to the maintained views (the document too is
untouched -- statements are resolved by the worker, in order, so late
resolution sees every earlier effect exactly as sequential application
would).  ``flush()`` blocks until everything submitted so far is
applied; ``close()`` flushes, then stops the worker.  A statement that
fails poisons its whole batch: the engine restores view consistency by
recomputation and every ticket of the batch carries the error.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from repro.obs import NULL_OBS
from repro.updates.language import UpdateBatch, UpdateStatement


class ApplyTicket:
    """A writer's handle on one submitted statement.

    ``result()`` blocks until the statement's batch has been applied
    and returns the :class:`~repro.maintenance.engine.BatchReport` of
    that batch (shared by every statement the batch contained), or
    re-raises the error that poisoned the batch.
    """

    __slots__ = ("statement", "_event", "_report", "_error", "_enqueued")

    def __init__(self, statement: UpdateStatement):
        self.statement = statement
        self._event = threading.Event()
        self._report = None
        self._error: Optional[BaseException] = None
        #: monotonic submission stamp feeding the enqueue-to-commit
        #: latency histogram.
        self._enqueued = time.perf_counter()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError("statement not yet applied")
        if self._error is not None:
            raise self._error
        return self._report

    def _resolve(self, report, error: Optional[BaseException]) -> None:
        self._report = report
        self._error = error
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return "ApplyTicket(%s, %s)" % (getattr(self.statement, "name", "?"), state)


class ApplyQueue:
    """Background batch applier over a maintenance engine.

    ``engine`` is anything exposing ``apply_batch``: a
    :class:`~repro.maintenance.engine.MaintenanceEngine` or a
    :class:`~repro.sharding.ShardSession`.

    * ``max_batch_size`` caps how many statements one maintenance round
      merges;
    * ``flush_interval`` is how long the worker lingers for more
      arrivals before applying a non-full batch (seconds; ``0`` applies
      as soon as the queue is non-empty);
    * ``workers`` / ``shard_plan`` fan each maintenance round out
      through the sharded pipeline (passed through to
      :meth:`~repro.maintenance.engine.MaintenanceEngine.apply_batch`;
      ``None`` keeps the engine's own defaults).

    Usable as a context manager: leaving the block closes the queue
    (draining everything still pending).
    """

    def __init__(
        self,
        engine,
        max_batch_size: int = 64,
        flush_interval: float = 0.01,
        workers: Optional[int] = None,
        shard_plan=None,
        obs=None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if flush_interval < 0:
            raise ValueError("flush_interval must be >= 0")
        apply_batch = getattr(engine, "apply_batch", None)
        if apply_batch is None:
            raise TypeError("engine %r has no apply_batch" % (engine,))
        self._apply_batch = apply_batch
        #: telemetry facade: explicit ``obs`` wins, else the engine's
        #: own (so a queue over an instrumented engine shares one
        #: registry), else the shared null facade.
        self.obs = obs if obs is not None else getattr(engine, "obs", None) or NULL_OBS
        metrics = self.obs.metrics
        self._depth_gauge = metrics.gauge(
            "repro_queue_depth", "statements submitted but not yet applied"
        )
        self._commit_histogram = metrics.histogram(
            "repro_queue_commit_seconds",
            "enqueue-to-commit latency per statement",
        )
        self._flushes_counter = metrics.counter(
            "repro_queue_flushes_total", "explicit flush() calls"
        )
        self._poison_counter = metrics.counter(
            "repro_queue_poison_batches_total",
            "batches poisoned by a failing statement",
        )
        self._queue_batches_counter = metrics.counter(
            "repro_queue_batches_total", "batches drained by the queue worker"
        )
        #: kwargs forwarded to every apply_batch call; only populated
        #: when given, so engines without sharding options keep working.
        self._apply_options = {}
        if workers is not None:
            self._apply_options["workers"] = workers
        if shard_plan is not None:
            self._apply_options["shard_plan"] = shard_plan
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.flush_interval = flush_interval
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._pending: List[ApplyTicket] = []
        self._submitted = 0
        self._completed = 0
        self._flush_upto = 0  # apply immediately up to this submission count
        self._closed = False
        self._batches_applied = 0
        self._worker = threading.Thread(
            target=self._run, name="repro-apply-queue", daemon=True
        )
        self._worker.start()

    # -- submission ----------------------------------------------------------

    def apply_async(self, statement: UpdateStatement) -> ApplyTicket:
        """Enqueue a statement; returns immediately with its ticket."""
        ticket = ApplyTicket(statement)
        with self._wake:
            if self._closed:
                raise RuntimeError("queue is closed")
            self._pending.append(ticket)
            self._submitted += 1
            self._depth_gauge.set(float(self._submitted - self._completed))
            self._wake.notify()
        return ticket

    def extend_async(self, statements) -> List[ApplyTicket]:
        """Enqueue many statements (they may share batches)."""
        return [self.apply_async(statement) for statement in statements]

    # -- draining ------------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every statement submitted so far is applied."""
        with self._drained:
            target = self._submitted
            self._flush_upto = max(self._flush_upto, target)
            self._flushes_counter.inc()
            self._wake.notify()
            if not self._drained.wait_for(
                lambda: self._completed >= target, timeout
            ):
                raise TimeoutError("flush timed out")

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush, then stop the worker (idempotent)."""
        with self._wake:
            if self._closed and not self._worker.is_alive():
                return
            self._closed = True
            self._flush_upto = self._submitted
            self._wake.notify()
        self._worker.join(timeout)
        if self._worker.is_alive():
            raise TimeoutError("worker did not stop")
        # Durable engines checkpoint on close: buffered extent ops and
        # lattice snapshots land in sqlite so a clean shutdown leaves
        # no WAL tail to replay.
        sync = getattr(self.engine, "sync_durability", None)
        if sync is not None:
            sync()
        # The worker has stopped: every span it recorded is finished.
        # When the obs has a JSONL sink, write them out now so a close()
        # never strands buffered telemetry; without a sink the spans
        # stay buffered for the caller's own drain.
        if self.obs.trace_path is not None:
            self.obs.flush()

    def __enter__(self) -> "ApplyQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def pending_count(self) -> int:
        with self._lock:
            return self._submitted - self._completed

    @property
    def batches_applied(self) -> int:
        with self._lock:
            return self._batches_applied

    # -- worker --------------------------------------------------------------

    def _rush(self) -> bool:
        return (
            self._closed
            or len(self._pending) >= self.max_batch_size
            or self._flush_upto > self._completed
            or self.flush_interval == 0
        )

    def _take_batch(self) -> Tuple[List[ApplyTicket], bool]:
        """Wait for work; returns (tickets, keep_running)."""
        with self._wake:
            while True:
                if self._pending:
                    # Linger until the flush interval elapses (or a rush
                    # condition fires) so live writers accumulate into
                    # real batches; each arrival notifies the condition,
                    # hence the deadline loop rather than a single wait.
                    deadline = time.monotonic() + self.flush_interval
                    while not self._rush():
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._wake.wait(remaining)
                    taken = self._pending[: self.max_batch_size]
                    del self._pending[: len(taken)]
                    return taken, True
                if self._closed:
                    return [], False
                self._wake.wait()

    def _run(self) -> None:
        while True:
            tickets, keep_running = self._take_batch()
            if not tickets:
                if not keep_running:
                    return
                continue
            batch = UpdateBatch(
                [ticket.statement for ticket in tickets],
                name="async-batch-%d" % (self._batches_applied + 1),
            )
            report = None
            error: Optional[BaseException] = None
            try:
                report = self._apply_batch(batch, **self._apply_options)
            except BaseException as exc:  # poison batch, keep worker alive
                error = exc
            if error is not None:
                self._poison_counter.inc()
            self._queue_batches_counter.inc()
            committed = time.perf_counter()
            for ticket in tickets:
                self._commit_histogram.observe(committed - ticket._enqueued)
                ticket._resolve(report, error)
            with self._drained:
                self._completed += len(tickets)
                self._batches_applied += 1
                self._depth_gauge.set(float(self._submitted - self._completed))
                self._drained.notify_all()

    def __repr__(self) -> str:
        with self._lock:
            return "ApplyQueue(%d pending, %d applied in %d batches%s)" % (
                self._submitted - self._completed,
                self._completed,
                self._batches_applied,
                ", closed" if self._closed else "",
            )
