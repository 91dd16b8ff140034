"""Resident shard workers: fork once, maintain view replicas per batch.

:class:`ShardSession` is the engine's one parallel execution mode (the
other being the engine's own in-process batch round).  It forks its
workers **once** and keeps them resident, so the copy-on-write warm-up
amortizes over a whole statement stream -- the shape
:class:`~repro.maintenance.queue.ApplyQueue` produces.

Design (replicated state machines):

* at session start the registered views are partitioned across
  ``workers`` by an LPT schedule over their extent sizes; each worker
  is forked with a full copy-on-write replica of the engine and
  restricts itself to its owned views;
* per batch, the owner coalesces the statements once and broadcasts
  the resulting list (a few KB) to every worker.  Each worker applies
  the statements to its replica document -- resolution and Dewey
  assignment are deterministic, so every replica evolves
  byte-identically to the owner -- and runs the ordinary serial
  ``apply_batch`` over its views, which keeps its extents *and*
  lattices current for the next batch;
* workers ship back only the extent-delta inputs of the store pass
  (refresh pairs, Δ+/Δ− tuple counts -- recorded by the engine's
  ``record_deltas`` hook) plus slim per-view stats; the owner, which
  applied the same statements to its authoritative document
  concurrently, replays those deltas into its authoritative extents.
  The deltas are exactly what a serial engine would have computed, so
  owner extents stay byte-identical to in-process propagation.
* σ-flip repair runs on the workers (their replicas hold the lattices
  and survivor relations); the repair Δ± folds into the ordinary
  shipped delta rows, so the owner replays flips without ever seeing
  the repair machinery.  A view that still trips a true recompute
  fallback on its worker ships its full recomputed extent instead
  (rare; the owner holds no lattices, so it cannot recompute as
  cheaply itself).

Failure semantics mirror the engine's poison-batch contract: a
statement that fails poisons *its* batch only.  Owner and replicas run
the same deterministic application, so they fail the same statement
identically, each side restores its own views by recomputation, they
stay in lockstep, and the session keeps serving subsequent batches.
Only unrecoverable faults -- a dead worker, or a worker disagreeing
with the owner about a batch's outcome -- restore the owner's views
and close the session for good.

Adaptive rebalancing (opt-in via ``rebalance=``): the per-view
``maintenance_seconds`` each worker already ships feed a
:class:`~repro.sharding.rebalance.RebalancePolicy`; when the observed
imbalance ratio stays over its trigger long enough, the policy plans
ownership moves and the session executes them at the next batch
boundary *without re-forking*.  Every worker holds a byte-identical
document replica (idle views stay registered, just unmaintained), so
the target can rematerialize an adopted view against its own replica
-- or install the source's shipped extent pairs + snowcap rows when
the view is small -- through the pure units of
:mod:`repro.sharding.units`; the source drops the view, and the owner's
assignment map flips only after both sides acked.  Extents stay
byte-identical to serial propagation throughout, and a failure
mid-migration degrades exactly like a dead worker.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.sharding.merge import merge_span_fragments
from repro.updates.language import UpdateBatch, UpdateStatement
from repro.updates.pul import BatchApplication


def _canonical_row(row: tuple, canon: Dict[str, str]) -> tuple:
    """Rebuild a view tuple with string cells deduplicated via ``canon``."""
    return tuple(
        canon.setdefault(cell, cell) if type(cell) is str else cell
        for cell in row
    )


def _serve_migration(engine, idle_views: Dict, message: tuple):
    """Handle one ``migrate_out``/``migrate_in`` message on a worker.

    Releasing a view moves it from the maintained set into the idle
    stash (shipping its stored state when it fits the ship budget);
    adopting pulls it back, installing the shipped snapshot or
    rematerializing extent and snowcaps against this replica's own
    document -- which is byte-identical to the source's, so either
    route yields the same bytes.
    """
    from repro.sharding.merge import install_view_snapshot
    from repro.sharding.units import (
        ExtentRecomputeUnit,
        LatticeRecomputeUnit,
        ViewSnapshotUnit,
    )

    if message[0] == "migrate_out":
        _tag, names, ship_rows = message
        shipped: Dict[str, Optional[Dict]] = {}
        for name in names:
            registered = engine.views.pop(name)
            idle_views[name] = registered
            unit = ViewSnapshotUnit(name, registered=registered)
            shipped[name] = unit.execute() if unit.size() <= ship_rows else None
        return shipped
    if message[0] == "migrate_in":
        _tag, payloads = message
        for name in sorted(payloads):
            registered = idle_views.pop(name)
            payload = payloads[name]
            if payload is None:
                pairs = ExtentRecomputeUnit(
                    name, pattern=registered.pattern, document=engine.document
                ).execute()
                fragment = LatticeRecomputeUnit(
                    name,
                    pattern=registered.pattern,
                    document=engine.document,
                    selected=registered.lattice.selected,
                ).execute()
                payload = {"pairs": pairs, "lattice": fragment}
            install_view_snapshot(registered, payload, engine.document)
            engine.views[name] = registered
        return None
    raise RuntimeError("unknown session control message %r" % (message[0],))


def _session_worker_main(conn, owned_names: List[str]) -> None:
    """Worker loop: inherits the engine by fork, serves its views."""
    from repro.obs import NULL_OBS, Observability, spans_to_fragments

    engine = _FORK_STATE["engine"]
    # Non-owned views stay resident in an idle stash instead of being
    # dropped: a later migration may hand one over, and adoption reuses
    # the registration (pattern, lattice selection) this replica
    # already inherited.  Idle views are not maintained -- their
    # extents and lattices go stale -- so adoption reinstalls both.
    owned = set(owned_names)
    idle_views = {
        name: registered
        for name, registered in engine.views.items()
        if name not in owned
    }
    engine.views = {name: engine.views[name] for name in owned_names}
    engine.record_deltas = True
    # The inherited obs is the owner's copy-on-write twin: spans drained
    # here would never reach the owner.  Trace into a fresh worker-local
    # tracer instead and ship each batch's tree home as picklable
    # fragments (the owner stitches them under its replica_apply span).
    ship_spans = engine.obs.enabled
    engine.obs = Observability() if ship_spans else NULL_OBS
    conn.send(("ready", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        if isinstance(message, tuple):
            # Control message (migration); batches arrive as raw lists.
            try:
                reply = _serve_migration(engine, idle_views, message)
            except BaseException as exc:
                try:
                    conn.send(("error", exc))
                except Exception:
                    conn.send(("error", RuntimeError(repr(exc))))
                continue
            conn.send(("ok", reply))
            continue
        statements = message
        started = time.perf_counter()
        try:
            report = engine.apply_batch(statements)
            # One canonical object per distinct string across the whole
            # payload: XMark-style workloads repeat identical val/cont
            # text across thousands of delta rows, and pickle stores a
            # memo reference per repeated *object* -- deduplication
            # shrinks the shipped bytes by up to an order of magnitude.
            canon: Dict[str, str] = {}
            for name in engine.views:
                deltas = (report.view_deltas or {}).get(name, {})
                for key in ("additions", "removals"):
                    rows = deltas.get(key)
                    if rows:
                        deltas[key] = {
                            _canonical_row(row, canon): count
                            for row, count in rows.items()
                        }
                pairs = deltas.get("refresh")
                if pairs:
                    deltas["refresh"] = [
                        (_canonical_row(old, canon), _canonical_row(new, canon))
                        for old, new in pairs
                    ]
            payload: Dict[str, Dict] = {}
            for name in engine.views:
                deltas = (report.view_deltas or {}).get(name, {})
                view_report = report.view_reports.get(name)
                entry: Dict = {
                    "refresh": deltas.get("refresh", ()),
                    "additions": deltas.get("additions", {}),
                    "removals": deltas.get("removals", {}),
                    "fallback": report.fallbacks.get(name),
                    "repairs": report.repairs.get(name),
                    "stats": None,
                }
                if view_report is not None:
                    entry["stats"] = {
                        "targets": view_report.targets,
                        "terms_developed": view_report.terms_developed,
                        "terms_surviving": view_report.terms_surviving,
                        "term_eval_seconds": view_report.term_eval_seconds,
                        "maintenance_seconds": view_report.phases.total(),
                    }
                if entry["fallback"] is not None:
                    # The owner holds no lattice for this view; ship the
                    # recomputed extent outright.
                    entry["content"] = engine.views[name].view.content()
                payload[name] = entry
            span_rows = None
            if ship_spans:
                drained = engine.obs.tracer.drain()
                if drained:
                    span_rows = spans_to_fragments(drained)
            conn.send(
                (
                    "ok",
                    {
                        "views": payload,
                        "worker_wall_s": time.perf_counter() - started,
                        "apply_document_s": report.apply_document_seconds,
                        "propagation_s": report.propagation_seconds(),
                        "spans": span_rows,
                    },
                )
            )
        except BaseException as exc:  # ship the poison, stay alive
            if ship_spans:
                engine.obs.tracer.drain()  # don't let poison spans pile up
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error", RuntimeError(repr(exc))))
    conn.close()


#: fork hand-off slot read by the child right after Process.start().
_FORK_STATE: Dict = {}
#: serializes forks across sessions: ``_FORK_STATE`` is a module global
#: (that is what the children inherit), so two sessions starting
#: concurrently must take turns publishing into it.
_FORK_LOCK = threading.Lock()


class ShardSession:
    """Resident worker pool maintaining view replicas batch by batch.

    Exposes ``apply_batch`` (and ``apply``) with the engine's
    signature, so it can be handed directly to
    :class:`~repro.maintenance.queue.ApplyQueue`.  Use as a context
    manager or call :meth:`close`.
    """

    def __init__(
        self,
        engine,
        workers: int = 4,
        weights=None,
        obs=None,
        rebalance=None,
    ):
        import multiprocessing

        from repro.maintenance.engine import MaintenanceEngine
        from repro.obs import NULL_OBS
        from repro.sharding.rebalance import RebalancePolicy

        if not isinstance(engine, MaintenanceEngine):
            raise TypeError("ShardSession needs a MaintenanceEngine")
        if workers < 1:
            raise ValueError("a session needs at least one worker")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ShardSession requires the fork start method; without it, "
                "apply batches through the engine itself (in-process)"
            )
        if getattr(engine, "_shard_session_active", False):
            raise RuntimeError("engine already has an active ShardSession")
        self.engine = engine
        self.workers = min(workers, max(1, len(engine.views)))
        #: calibration knob (used by the bench on single-CPU hosts):
        #: apply the owner's document update *before* broadcasting, so
        #: owner and worker phases never overlap and each measured
        #: component is clean of time-slicing.  Results are identical;
        #: only the timeline changes.
        self.sequential_send = False
        #: optional view -> relative maintenance cost used by the LPT
        #: assignment (e.g. measured per-view propagation seconds from
        #: a profiling run); defaults to the extent+lattice size proxy.
        self.weights = dict(weights) if weights else None
        #: adaptive rebalancing policy (None keeps the fork-time
        #: assignment frozen, today's default; True means defaults).
        self.rebalance = RebalancePolicy.coerce(rebalance)
        #: shipped-row budget of the migration protocol: a migrating
        #: view at most this big travels as stored extent pairs +
        #: snowcap rows, a bigger one is rematerialized by the target.
        self.migration_ship_rows = (
            self.rebalance.ship_rows if self.rebalance is not None else 4096
        )
        #: telemetry facade: explicit ``obs`` wins, else the engine's
        #: own (one registry across engine, queue and session), else the
        #: shared null facade.
        self.obs = obs if obs is not None else getattr(engine, "obs", None) or NULL_OBS
        metrics = self.obs.metrics
        self._makespan_gauge = metrics.gauge(
            "repro_session_worker_makespan_seconds",
            "per-batch wall seconds of each resident worker",
            ("worker",),
        )
        self._skew_gauge = metrics.gauge(
            "repro_session_skew_seconds",
            "spread between the fastest and slowest party "
            "(owner document apply and every worker) in one batch",
        )
        self._imbalance_gauge = metrics.gauge(
            "repro_session_lpt_imbalance_ratio",
            "max over mean worker load: planned at assignment time, "
            "observed per batch from recorded view timings",
        )
        self._migrations_counter = metrics.counter(
            "repro_session_migrations_total",
            "view ownership moves executed by the migration protocol",
            ("view",),
        )
        self._closed = False
        self._assignment = self._assign_views()
        context = multiprocessing.get_context("fork")
        self._processes = []
        self._connections = []
        with _FORK_LOCK:
            for owned in self._assignment:
                parent_conn, child_conn = context.Pipe()
                _FORK_STATE["engine"] = engine
                try:
                    process = context.Process(
                        target=_session_worker_main,
                        args=(child_conn, owned),
                        daemon=True,
                    )
                    process.start()
                finally:
                    _FORK_STATE.clear()
                child_conn.close()
                self._processes.append(process)
                self._connections.append(parent_conn)
        for conn in self._connections:
            kind, _ = conn.recv()
            assert kind == "ready"
        # While the session drives maintenance, the owner's lattices go
        # stale (workers maintain their replicas' lattices instead);
        # block direct serial propagation until close() re-syncs them.
        engine._shard_session_active = True

    def _assign_views(self) -> List[List[str]]:
        """LPT partition of views across workers by maintenance weight.

        The weight proxy is extent size plus materialized lattice rows:
        per-batch cost is dominated by the store pass (O(extent)) and
        the term/snowcap work seeded from the lattice relations.  The
        partition itself is the planner module's shared
        :func:`~repro.sharding.planner.lpt_assignment`.
        """
        from repro.sharding.planner import imbalance_ratio, lpt_assignment

        def weight(name, registered) -> float:
            if self.weights is not None and name in self.weights:
                return max(1e-9, float(self.weights[name]))
            return float(
                max(1, len(registered.view) + registered.lattice.stored_tuples())
            )

        weights = {
            name: weight(name, registered)
            for name, registered in self.engine.views.items()
        }
        buckets = lpt_assignment(weights, self.workers)
        loads = [sum(weights[name] for name in owned) for owned in buckets]
        self._imbalance_gauge.set(imbalance_ratio(loads))
        return buckets

    @property
    def assignment(self) -> Dict[str, int]:
        """view name -> worker index (the session's shard map)."""
        return {
            name: index
            for index, owned in enumerate(self._assignment)
            for name in owned
        }

    # -- batch application ----------------------------------------------

    def apply_batch(self, batch: Union[UpdateBatch, Sequence[UpdateStatement]]):
        """Apply one batch through the resident workers.

        The owner's document is updated locally (concurrently with the
        replicas); view extents are updated from the workers' shipped
        deltas.  Returns a :class:`~repro.maintenance.engine.BatchReport`
        with ``mode`` visible via ``report.workers`` / ``shard_rounds``.
        """
        from repro.maintenance.engine import BatchReport

        if self._closed:
            raise RuntimeError("shard session is closed")
        if isinstance(batch, UpdateBatch):
            submitted = len(batch)
            statements = batch.coalesced().statements
        else:
            statements = list(batch)
            submitted = len(statements)
        report = BatchReport(statements)
        report.statements_submitted = submitted
        report.statements_applied = len(statements)
        report.workers = self.workers
        if not statements:
            return report
        # Durable engines WAL the batch here too; lattice snapshots are
        # skipped (the owner's lattices are stale while the session
        # runs), so the persisted lattice_version lags and recovery
        # rematerializes lattices only -- never extents.
        batch_id = self.engine._durability_begin(statements)
        try:
            with self.obs.span(
                "session_batch", statements=len(statements), workers=self.workers
            ):
                return self._apply_statements(statements, report)
        finally:
            self.engine._durability_commit(batch_id, include_lattices=False)

    def _apply_statements(self, statements: List[UpdateStatement], report):
        """One broadcast/apply/replay round under the session_batch span."""
        from repro.maintenance.engine import ViewReport

        tracer = self.obs.tracer

        def broadcast() -> None:
            broadcast_started = time.perf_counter()
            for conn in self._connections:
                try:
                    conn.send(statements)
                except (BrokenPipeError, OSError) as exc:
                    # A worker is gone before the owner touched its own
                    # document (default mode broadcasts first), so the
                    # views are still consistent; shut down cleanly.
                    self.close(force=True)
                    raise RuntimeError("shard worker died") from exc
            tracer.record(
                "broadcast",
                time.perf_counter() - broadcast_started,
                workers=len(self._connections),
            )

        started = time.perf_counter()
        if not self.sequential_send:
            broadcast()
        # Owner document apply overlaps the replicas' work (unless the
        # calibration knob sequences it first).
        application = BatchApplication(self.engine.document, statements)
        owner_error: Optional[BaseException] = None
        try:
            application.apply()
        except BaseException as exc:
            if self.sequential_send:
                # Workers never saw the batch; the owner's partial
                # apply desynchronized it from the replicas for good.
                self._poison()
                raise
            owner_error = exc
        if self.sequential_send:
            try:
                broadcast()
            except RuntimeError:
                # Here the owner HAS applied the batch; restore view
                # consistency against its document before surfacing.
                self._poison()
                raise
        if owner_error is None:
            tracer.record("owner_apply", application.apply_seconds)
            report.apply_document_seconds = application.apply_seconds
            report.pul_size = application.pul_size
            inserted = application.net_inserted_nodes()
            report.net_inserted = len(inserted)
            report.net_removed = len(application.net_removed_nodes())
            report.cancelled = application.cancelled_count()
        applied_done = time.perf_counter()

        worker_walls: List[float] = []
        worker_props: List[float] = []
        worker_applies: List[float] = []
        #: per-view maintenance seconds recorded by the owning workers
        #: this batch -- the rebalance policy's only input.
        batch_timings: Dict[str, float] = {}
        store_seconds = 0.0
        error: Optional[BaseException] = owner_error
        worker_died = False
        mixed_outcome = False
        for worker_index, conn in enumerate(self._connections):
            try:
                kind, payload = conn.recv()
            except EOFError:
                kind, payload = "error", RuntimeError("shard worker died")
                worker_died = True
            if kind == "error":
                if owner_error is None and not worker_died:
                    # Replicas are deterministic, so a worker failing a
                    # batch the owner applied means divergence.
                    mixed_outcome = True
                if error is None:
                    error = payload
                continue
            worker_walls.append(payload["worker_wall_s"])
            worker_props.append(payload["propagation_s"])
            worker_applies.append(payload["apply_document_s"])
            self._makespan_gauge.set(
                payload["worker_wall_s"], labels=(str(worker_index),)
            )
            replica_span = tracer.record(
                "replica_apply", payload["worker_wall_s"], worker=worker_index
            )
            if payload.get("spans"):
                tracer.adopt(
                    replica_span, merge_span_fragments([payload["spans"]])
                )
            if error is not None:
                if owner_error is not None:
                    mixed_outcome = True  # worker applied what the owner could not
                continue  # drain remaining workers, then poison
            store_started = time.perf_counter()
            for name, entry in payload["views"].items():
                registered = self.engine.views[name]
                view_report = ViewReport(name)
                stats = entry.get("stats")
                if stats:
                    view_report.targets = stats["targets"]
                    view_report.terms_developed = stats["terms_developed"]
                    view_report.terms_surviving = stats["terms_surviving"]
                    view_report.term_eval_seconds = stats["term_eval_seconds"]
                    batch_timings[name] = stats["maintenance_seconds"]
                report.view_reports[name] = view_report
                if entry.get("repairs"):
                    report.repairs[name] = entry["repairs"]
                if entry["fallback"] is not None:
                    report.fallbacks[name] = entry["fallback"]
                    # Content-level reload keeps the store object (and
                    # its durable table binding, if any).
                    registered.view.reload_content(entry["content"])
                    continue
                # ONE bulk store pass replays the Δ rows and the refresh
                # rewrites together; counters come back net of the churn.
                view_report.tuples_modified = len(entry["refresh"])
                (
                    view_report.derivations_added,
                    view_report.tuples_removed,
                    view_report.derivations_removed,
                ) = registered.view.apply_batch_delta(
                    entry["additions"], entry["removals"], entry["refresh"]
                )
            replay_seconds = time.perf_counter() - store_started
            store_seconds += replay_seconds
            tracer.record("delta_replay", replay_seconds, worker=worker_index)
        if error is not None:
            if worker_died or mixed_outcome:
                # Unrecoverable: a replica is gone or no longer agrees
                # with the owner; restore the views and shut down.
                self._poison()
                raise error
            # Deterministic poison: owner and every worker failed the
            # same statement identically, so owner document and
            # replicas are still in lockstep (each side's engine
            # restored its own views by recomputation).  Re-sync the
            # owner extents and keep serving -- a poison batch fails
            # only itself, as in the serial engine and the queue.
            self._resync_extents()
            raise error
        finished = time.perf_counter()
        if worker_walls:
            # Balance telemetry: how far apart the batch's parties
            # finished (owner document apply counted as one party).
            parties = worker_walls + [applied_done - started]
            self._skew_gauge.set(max(parties) - min(parties))
        # Observed balance: the recorded per-view maintenance seconds
        # grouped by the live assignment -- the same quantity the
        # planned-LPT gauge approximated with its size proxy, now
        # measured.  This (not wall clock) is what drives rebalancing.
        observed_ratio = None
        if batch_timings:
            from repro.sharding.planner import imbalance_ratio

            loads = [
                sum(batch_timings.get(name, 0.0) for name in owned)
                for owned in self._assignment
            ]
            observed_ratio = imbalance_ratio(loads)
            self._imbalance_gauge.set(observed_ratio)
        migrations: List[Dict] = []
        migration_seconds = 0.0
        if self.rebalance is not None and batch_timings:
            moves = self.rebalance.observe(self._assignment, batch_timings)
            if moves:
                migration_started = time.perf_counter()
                self._migrate(moves)
                migration_seconds = time.perf_counter() - migration_started
                migrations = [
                    {"view": name, "source": source, "target": target}
                    for name, source, target in moves
                ]
        # Time attributable to maintenance: everything past the owner's
        # own document apply, with the store replay counted in per-view
        # phases' stead (shard_seconds carries the wait + replay once);
        # migration work is maintenance too, so it is charged here.
        report.shard_seconds = max(0.0, finished - applied_done) + migration_seconds
        report.shard_rounds.append(
            {
                "mode": "session",
                "units": len(self._connections),
                "imbalance_ratio": (
                    None if observed_ratio is None else round(observed_ratio, 4)
                ),
                "migrations": migrations,
                "migration_s": round(migration_seconds, 6),
                "wall_s": round(finished - started, 6),
                "worker_s": round(sum(worker_walls), 6),
                "worker_propagation_s": round(sum(worker_props), 6),
                "worker_apply_s": round(sum(worker_applies), 6),
                "owner_prep_s": round(applied_done - started, 6),
                "store_s": round(store_seconds, 6),
                "unit_s": [
                    {
                        "view": "worker%d" % index,
                        "kind": "session",
                        "shard": index,
                        "seconds": round(wall, 6),
                    }
                    for index, wall in enumerate(worker_walls)
                ],
            }
        )
        return report

    # -- view migration ---------------------------------------------------

    def _migrate(self, moves: Sequence[Tuple[str, int, int]]) -> None:
        """Move view ownership between resident workers (batch boundary).

        ``moves`` is ``(view name, source worker, target worker)``
        triples, normally planned by the rebalance policy.  Two
        half-rounds: every source releases its outgoing views (shipping
        stored state for views within ``migration_ship_rows``), then
        every target adopts them -- installing the shipped snapshot or
        rematerializing against its own replica.  The owner's
        assignment map flips only after every ack, so a completed
        migration is atomic with respect to batches; any failure
        mid-protocol degrades exactly like a dead worker mid-batch
        (recompute owner extents, close the session).
        """
        if not moves:
            return
        if self._closed:
            raise RuntimeError("shard session is closed")
        by_source: Dict[int, List[str]] = {}
        by_target: Dict[int, List[str]] = {}
        for name, source, target in moves:
            if source == target:
                raise ValueError("move of %r has source == target %d" % (name, source))
            if name not in self._assignment[source]:
                raise ValueError(
                    "view %r is not owned by worker %d" % (name, source)
                )
            by_source.setdefault(source, []).append(name)
            by_target.setdefault(target, []).append(name)
        started = time.perf_counter()
        shipped: Dict[str, Optional[Dict]] = {}
        try:
            with self.obs.span("session_migration", moves=len(moves)):
                for source in sorted(by_source):
                    self._connections[source].send(
                        (
                            "migrate_out",
                            sorted(by_source[source]),
                            self.migration_ship_rows,
                        )
                    )
                for source in sorted(by_source):
                    kind, reply = self._connections[source].recv()
                    if kind != "ok":
                        raise reply
                    shipped.update(reply)
                for target in sorted(by_target):
                    self._connections[target].send(
                        (
                            "migrate_in",
                            {name: shipped[name] for name in sorted(by_target[target])},
                        )
                    )
                for target in sorted(by_target):
                    kind, reply = self._connections[target].recv()
                    if kind != "ok":
                        raise reply
        except BaseException as exc:
            # A replica died or failed mid-protocol; ownership state
            # across workers is no longer trustworthy.  Same degradation
            # as a dead worker during a batch: restore the owner's views
            # from its own document and shut the session down.
            self._poison()
            raise RuntimeError("shard worker died during migration") from exc
        for name, source, target in moves:
            self._assignment[source].remove(name)
            self._assignment[target].append(name)
            self._migrations_counter.inc(labels=(name,))
        self.obs.tracer.record(
            "view_migration", time.perf_counter() - started, moves=len(moves)
        )

    def _resync_extents(self) -> None:
        """Recompute every owner extent from the owner document."""
        from repro.views.view import MaterializedView

        for registered in self.engine.views.values():
            fresh = MaterializedView.materialize(
                registered.pattern, self.engine.document, name=registered.name
            )
            registered.view.reload_content(fresh.content())

    def _poison(self) -> None:
        """Restore owner views by recomputation, then shut down."""
        self._resync_extents()
        self.close(force=True)

    # -- lifecycle -------------------------------------------------------

    def close(self, force: bool = False) -> None:
        """Stop the workers and re-sync the owner engine (idempotent).

        The owner's lattices were not maintained while the session ran;
        closing re-materializes them from the owner document so direct
        serial propagation is valid again.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._connections:
            try:
                if not force:
                    conn.send(None)
                conn.close()
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
        self._connections = []
        self._processes = []
        for registered in self.engine.views.values():
            registered.lattice.materialize(self.engine.document)
        self.engine._shard_session_active = False
        # With a durable backend, checkpoint the re-materialized
        # lattices (and any buffered extent ops) so the persisted
        # lattice_version catches back up to the batch version.
        self.engine.sync_durability()

    def __enter__(self) -> "ShardSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return "ShardSession(%d workers, %d views%s)" % (
            self.workers,
            len(self.engine.views),
            ", closed" if self._closed else "",
        )
