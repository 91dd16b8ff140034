"""Resident shard parties: the owner plus forked view replicas.

:class:`ShardSession` is the engine's one parallel execution mode (the
other being the engine's own in-process batch round).  View maintenance
is per view -- each view's Δ terms read only the document and that
view's own lattice -- so the session splits the registered views across
``workers`` *parties*.  Party 0 is the owner's own process; parties
1..N−1 are replicas forked **once** and kept resident, so the
copy-on-write warm-up amortizes over a whole statement stream -- the
shape :class:`~repro.maintenance.queue.ApplyQueue` produces.  A
one-party session forks nothing.

Design (replicated state machines):

* at session start the registered views are partitioned across the
  parties by an LPT schedule over their extent sizes; each replica is
  forked with a full copy-on-write copy of the engine and restricts
  itself to its owned views;
* per batch, the owner coalesces the statements once and broadcasts
  the resulting list (a few KB) to every replica, then maintains
  party 0's views in-process with the engine's own batch pipeline
  (document apply included) while the replicas run theirs.  Each
  replica applies the statements to its replica document -- resolution
  and Dewey assignment are deterministic, so every replica evolves
  byte-identically to the owner -- and runs the ordinary serial
  ``apply_batch`` over its views, which keeps its extents *and*
  lattices current for the next batch;
* replicas ship back only the extent-delta inputs of the store pass
  (refresh pairs, Δ+/Δ− tuple counts -- recorded by the engine's
  ``record_deltas`` hook) plus slim per-view stats; the owner replays
  those deltas into its authoritative extents.  The deltas are exactly
  what a serial engine would have computed, so owner extents stay
  byte-identical to in-process propagation.  Party 0's views never
  cross a pipe: the owner's store pass writes them directly;
* σ-flip repair runs wherever the view is maintained; the repair Δ±
  folds into the ordinary shipped delta rows, so the owner replays
  flips without ever seeing the repair machinery;
* the owner keeps current lattices only for party 0's views.  The rest
  would only go stale, so it drops them once the replicas have forked
  (and on releasing a view to another party); :meth:`ShardSession.close`
  rematerializes exactly those.

Replicas fork under :func:`gc.freeze`, which the parent undoes right
after: the heap every replica inherits sits in the permanent
generation, so a replica's collections neither scan it nor touch (and
thus copy-on-write) its pages.  The cost is that garbage cycles a
replica inherits are never collected there -- bounded by the owner's
heap at fork time, since the replica's own garbage is collected as
usual.

A replica collects its own garbage *between* requests, never inside
one: right after the fork it turns automatic collection off, and after
every reply it sends (batch, control message or error) it runs the one
collection CPython's counters say is due -- ``gc.get_count()`` against
``gc.get_threshold()``, the oldest generation over its threshold.  So
garbage is collected on the usual generational schedule, but while the
owner replays the reply, not on the owner's critical path inside a
replica's batch.  A replica forked with collection off keeps it off.
The owner process's collection policy stays the application's.

Failure semantics mirror the engine's poison-batch contract: a
statement that fails poisons *its* batch only.  Owner and replicas run
the same deterministic application, so they fail the same statement
identically, each side restores its own views by recomputation, they
stay in lockstep, and the session keeps serving subsequent batches.
Only unrecoverable faults -- a dead replica, or a replica disagreeing
with the owner about a batch's outcome -- restore the owner's views
and close the session for good.  A replica the broadcast cannot reach
is a dead replica, handled *after* the owner applies the batch, so the
owner's document always holds what a durable engine's WAL committed.

Adaptive rebalancing (opt-in via ``rebalance=``): the per-view
``maintenance_seconds`` every party records feed a
:class:`~repro.sharding.rebalance.RebalancePolicy`; when the observed
imbalance ratio stays over its trigger long enough, the policy plans
ownership moves and the session executes them at the next batch
boundary *without re-forking*.  Every replica holds a byte-identical
document (idle views stay registered, just unmaintained), so the
target can rematerialize an adopted view against its own replica -- or
install the source's shipped extent pairs + snowcap rows when the view
is small -- through the pure units of :mod:`repro.sharding.units`; the
source drops the view, and the assignment map flips only after both
sides acked.  Party 0 serves the same release/adopt steps in-process:
it ships its authoritative extent pairs + snowcap rows and drops the
lattice, and it adopts **lattice rows only** -- its extent store is
authoritative (and possibly bound to sqlite), so it is never replaced.
Extents stay byte-identical to serial propagation throughout, and a
failure mid-migration degrades exactly like a dead replica.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import spans_to_fragments
from repro.sharding.merge import merge_span_fragments
from repro.updates.language import UpdateBatch, UpdateStatement


def _canonical_row(row: tuple, canon: Dict[str, str]) -> tuple:
    """Rebuild a view tuple with string cells deduplicated via ``canon``."""
    return tuple(
        canon.setdefault(cell, cell) if type(cell) is str else cell
        for cell in row
    )


def _release_payload(registered, ship_rows: int) -> Optional[Dict]:
    """What releasing a view ships: its stored extent pairs + snowcap
    rows when they fit ``ship_rows``, else None (the target rebuilds)."""
    from repro.sharding.units import ViewSnapshotUnit

    unit = ViewSnapshotUnit(registered.name, registered=registered)
    return unit.execute() if unit.size() <= ship_rows else None


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
    from repro.sharding.units import ExtentRecomputeUnit, LatticeRecomputeUnit

    if message[0] == "migrate_out":
        _tag, names, ship_rows = message
        shipped: Dict[str, Optional[Dict]] = {}
        for name in names:
            registered = engine.views.pop(name)
            idle_views[name] = registered
            shipped[name] = _release_payload(registered, ship_rows)
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


def _collect_due_garbage() -> None:
    """Run the one collection CPython's own counters say is due: the
    oldest generation whose count exceeds its threshold (a zero first
    threshold means automatic collection is off), else nothing."""
    counts = gc.get_count()
    thresholds = gc.get_threshold()
    if not thresholds[0]:
        return
    for generation in (2, 1, 0):
        if counts[generation] > thresholds[generation]:
            gc.collect(generation)
            return


def _serve_batch(engine, statements, ship_spans: bool) -> Dict:
    """Apply one batch to the replica's views; the reply payload: the
    store-pass inputs per view plus slim stats (see the module
    docstring)."""
    started = time.perf_counter()
    report = engine.apply_batch(statements)
    # One canonical object per distinct string across the whole
    # payload: XMark-style workloads repeat identical val/cont text
    # across thousands of delta rows, and pickle stores a memo
    # reference per repeated *object* -- deduplication shrinks the
    # shipped bytes by up to an order of magnitude.
    canon: Dict[str, str] = {}
    for name in engine.views:
        deltas = (report.view_deltas or {}).get(name, {})
        for key in ("additions", "removals"):
            rows = deltas.get(key)
            if rows:
                deltas[key] = {
                    _canonical_row(row, canon): count for row, count in rows.items()
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
        payload[name] = entry
    span_rows = None
    if ship_spans:
        drained = engine.obs.tracer.drain()
        if drained:
            span_rows = spans_to_fragments(drained)
    return {
        "views": payload,
        "worker_wall_s": time.perf_counter() - started,
        "apply_document_s": report.apply_document_seconds,
        "propagation_s": report.propagation_seconds(),
        "spans": span_rows,
    }


def _session_worker_main(conn, owned_names: List[str]) -> None:
    """Worker loop: inherits the engine by fork, serves its views."""
    from repro.obs import NULL_OBS, Observability

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
    # Garbage is collected between requests, never inside one (see the
    # module docstring); a fork with collection off keeps it off.
    collect = gc.isenabled()
    gc.disable()
    conn.send(("ready", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        try:
            if isinstance(message, tuple):
                # Control message (migration); batches arrive as raw lists.
                reply = ("ok", _serve_migration(engine, idle_views, message))
            else:
                reply = ("ok", _serve_batch(engine, message, ship_spans))
        except BaseException as exc:  # ship the poison, stay alive
            if ship_spans:
                engine.obs.tracer.drain()  # don't let poison spans pile up
            reply = ("error", exc)
        try:
            conn.send(reply)
        except Exception as exc:  # unpicklable: ship the error's repr
            failed = reply[1] if reply[0] == "error" else exc
            conn.send(("error", RuntimeError(repr(failed))))
        reply = None  # freed before the collection, not traversed by it
        if collect:
            _collect_due_garbage()
    conn.close()


#: fork hand-off slot read by the child right after Process.start().
_FORK_STATE: Dict = {}
#: serializes forks across sessions: ``_FORK_STATE`` is a module global
#: (that is what the children inherit), so two sessions starting
#: concurrently must take turns publishing into it.
_FORK_LOCK = threading.Lock()


class ShardSession:
    """Resident parties maintaining view shards batch by batch.

    Party 0 is the owner's own process; ``workers - 1`` replicas are
    forked for the other parties.  Exposes ``apply_batch`` with the
    engine's signature, so it can be handed directly to
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
        #: parties, the owner (party 0) included.
        self.workers = min(workers, max(1, len(engine.views)))
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
            "per-batch wall seconds of each party (0 is the owner)",
            ("worker",),
        )
        self._skew_gauge = metrics.gauge(
            "repro_session_skew_seconds",
            "spread between the fastest and slowest party in one batch",
        )
        self._imbalance_gauge = metrics.gauge(
            "repro_session_lpt_imbalance_ratio",
            "max over mean party load: planned at assignment time, "
            "observed per batch from recorded view timings",
        )
        self._migrations_counter = metrics.counter(
            "repro_session_migrations_total",
            "view ownership moves executed by the migration protocol",
            ("view",),
        )
        self._closed = False
        self._assignment = self._assign_views()
        #: views whose owner-side lattice is dropped because another
        #: party maintains them; close() rematerializes exactly these.
        self._stale_lattices: set = set()
        context = multiprocessing.get_context("fork")
        #: replica processes and pipes; party ``p`` is index ``p - 1``.
        self._processes = []
        self._connections = []
        with _FORK_LOCK:
            # Frozen, the inherited heap is invisible to the replicas'
            # collections (see the module docstring for the cost).
            gc.freeze()
            try:
                for owned in self._assignment[1:]:
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
            finally:
                gc.unfreeze()
        for conn in self._connections:
            kind, _ = conn.recv()
            assert kind == "ready"
        self._drop_lattices(name for owned in self._assignment[1:] for name in owned)
        # Block direct serial propagation until close() re-syncs the
        # dropped lattices.
        engine._shard_session_active = True

    def _assign_views(self) -> List[List[str]]:
        """LPT partition of views across parties by maintenance weight.

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
        """view name -> party index, 0 being the owner (the shard map)."""
        return {
            name: index
            for index, owned in enumerate(self._assignment)
            for name in owned
        }

    # -- batch application ----------------------------------------------

    def apply_batch(self, batch: Union[UpdateBatch, Sequence[UpdateStatement]]):
        """Apply one batch through every party.

        The owner applies the batch to its document and maintains
        party 0's views in-process, concurrently with the replicas;
        the other views' extents are updated from the replicas' shipped
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
        # skipped (the owner holds current lattices only for party 0),
        # so the persisted lattice_version lags and recovery
        # rematerializes lattices only -- never extents.
        batch_id = self.engine._durability_begin(statements)
        try:
            with self.obs.span(
                "session_batch", statements=len(statements), workers=self.workers
            ):
                self._apply_statements(statements, report)
        finally:
            self.engine._durability_commit(batch_id, include_lattices=False)
        self.engine._record_batch(report)
        return report

    def _run_owner_party(self, statements: List[UpdateStatement]):
        """Party 0's round: the engine's own batch pipeline over the
        views the owner maintains, document apply included, traced like
        a replica's (a ``replica_apply`` span, ``worker=0``, with the
        ``batch`` tree under it).  Returns ``(report, error, started,
        wall)``, ``started`` being the round's ``perf_counter`` start."""
        engine = self.engine
        owned = {name: engine.views[name] for name in self._assignment[0]}
        started = time.perf_counter()
        try:
            with self.obs.span("replica_apply", worker=0), engine.obs.span("batch"):
                local = engine._apply_batch_impl(statements, views=owned)
        except BaseException as exc:
            return None, exc, started, time.perf_counter() - started
        return local, None, started, time.perf_counter() - started

    def _apply_statements(self, statements: List[UpdateStatement], report):
        """One broadcast, party-0 round and replay under session_batch."""
        tracer = self.obs.tracer
        started = time.perf_counter()
        # Per replica, when the owner began sending it the batch: the
        # replica cannot start before, so its replica_apply span does.
        sent_at: List[float] = []
        # Parties the batch could not reach.  They read as dead in the
        # reply loop, after the owner's own round: the batch is in the
        # WAL by now, so the owner must apply it whatever the replicas do.
        unreachable = set()
        for party, conn in enumerate(self._connections, start=1):
            sent_at.append(time.perf_counter())
            try:
                conn.send(statements)
            except OSError:
                unreachable.add(party)
        tracer.record(
            "broadcast",
            time.perf_counter() - started,
            started,
            workers=len(self._connections),
        )

        def unit(party: int, wall: float, apply_s: float, propagation_s: float) -> Dict:
            return {
                "view": "worker%d" % party,
                "kind": "session",
                "shard": party,
                "views": len(self._assignment[party]),
                "seconds": round(wall, 6),
                "apply_s": round(apply_s, 6),
                "propagation_s": round(propagation_s, 6),
            }

        # Party 0's round overlaps the replicas' work.
        local, local_error, local_started, local_wall = self._run_owner_party(
            statements
        )
        prep_done = time.perf_counter()

        units: List[Dict] = []
        #: per-view maintenance seconds recorded by the owning parties
        #: this batch -- the rebalance policy's only input.
        batch_timings: Dict[str, float] = {}
        if local is not None:
            # The document apply opens party 0's round.
            tracer.record("owner_apply", local.apply_document_seconds, local_started)
            # Party 0's store pass ran inside its phases: nothing to
            # replay, recorded so every party reports the same spans.
            tracer.record("delta_replay", 0.0, prep_done, worker=0)
            self._makespan_gauge.set(local_wall, labels=("0",))
            units.append(
                unit(
                    0,
                    local_wall,
                    local.apply_document_seconds,
                    local.propagation_seconds(),
                )
            )
            for field in (
                "apply_document_seconds",
                "pul_size",
                "net_inserted",
                "net_removed",
                "cancelled",
                "net_effects_seconds",
                "dirty_restored",
            ):
                setattr(report, field, getattr(local, field))
            report.view_reports.update(local.view_reports)
            report.repairs.update(local.repairs)
            for name, view_report in local.view_reports.items():
                batch_timings[name] = view_report.phases.total()

        store_seconds = 0.0
        error: Optional[BaseException] = local_error
        worker_died = False
        mixed_outcome = False
        for party, conn in enumerate(self._connections, start=1):
            try:
                if party in unreachable:
                    raise EOFError
                kind, payload = conn.recv()
            except EOFError:
                kind, payload = "error", RuntimeError("shard worker died")
                worker_died = True
            if kind == "error":
                if local_error is None and not worker_died:
                    # Replicas are deterministic, so a replica failing a
                    # batch the owner applied means divergence.
                    mixed_outcome = True
                if error is None:
                    error = payload
                continue
            wall = payload["worker_wall_s"]
            units.append(
                unit(party, wall, payload["apply_document_s"], payload["propagation_s"])
            )
            self._makespan_gauge.set(wall, labels=(str(party),))
            replica_started = sent_at[party - 1]
            replica_span = tracer.record(
                "replica_apply", wall, replica_started, worker=party
            )
            if payload.get("spans"):
                tracer.adopt(
                    replica_span,
                    merge_span_fragments([payload["spans"]], origin=replica_started),
                )
            if error is not None:
                if local_error is not None:
                    mixed_outcome = True  # replica applied what the owner could not
                continue  # drain remaining replicas, then poison
            store_started = time.perf_counter()
            try:
                self._replay(payload["views"], report, batch_timings)
            except BaseException as exc:
                # The owner could not fold a replica's deltas: its
                # extents no longer match the replicas.  Drain the other
                # replies (a later batch must not read them) and poison,
                # exactly like a mixed outcome.
                error = exc
                mixed_outcome = True
                continue
            replay_seconds = time.perf_counter() - store_started
            store_seconds += replay_seconds
            tracer.record("delta_replay", replay_seconds, store_started, worker=party)
        if error is not None:
            if worker_died or mixed_outcome:
                # Unrecoverable: a replica is gone or no longer agrees
                # with the owner; restore the views and shut down.
                self._poison()
                raise error
            # Deterministic poison: every party failed the same
            # statement identically, so owner document and replicas are
            # still in lockstep (each side's engine restored its own
            # views by recomputation).  Re-sync the owner extents and
            # keep serving -- a poison batch fails only itself, as in
            # the serial engine and the queue.
            self._resync_extents()
            raise error
        finished = time.perf_counter()
        walls = [entry["seconds"] for entry in units]
        if walls:
            # Balance telemetry: how far apart the batch's parties
            # finished.
            self._skew_gauge.set(max(walls) - min(walls))
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
        # Time attributable to maintenance past the owner's own round
        # (whose phases and net effects the report already carries):
        # the wait for the replicas plus their replay, and migration.
        report.shard_seconds = max(0.0, finished - prep_done) + migration_seconds
        report.shard_rounds.append(
            {
                "mode": "session",
                "units": len(units),
                "imbalance_ratio": (
                    None if observed_ratio is None else round(observed_ratio, 4)
                ),
                "migrations": migrations,
                "migration_s": round(migration_seconds, 6),
                "wall_s": round(finished - started, 6),
                "owner_prep_s": round(prep_done - started, 6),
                "store_s": round(store_seconds, 6),
                "unit_s": units,
            }
        )
        return report

    def _replay(
        self, views: Dict[str, Dict], report, batch_timings: Dict[str, float]
    ) -> None:
        """Fold one replica's shipped per-view deltas into the owner's
        extents and its stats into ``report``."""
        from repro.maintenance.engine import ViewReport

        for name, entry in views.items():
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
            # ONE store pass replays the Δ rows and the refresh
            # rewrites together; counters come back net of the churn.
            view_report.tuples_modified = len(entry["refresh"])
            (
                view_report.derivations_added,
                view_report.tuples_removed,
                view_report.derivations_removed,
            ) = registered.view.apply_batch_delta(
                entry["additions"], entry["removals"], entry["refresh"]
            )

    # -- view migration ---------------------------------------------------

    def _migrate(self, moves: Sequence[Tuple[str, int, int]]) -> None:
        """Move view ownership between parties (batch boundary).

        ``moves`` is ``(view name, source party, target party)``
        triples, normally planned by the rebalance policy.  Two
        half-rounds: every source releases its outgoing views (shipping
        stored state for views within ``migration_ship_rows``), then
        every target adopts them -- installing the shipped snapshot or
        rematerializing against its own document.  Party 0 takes both
        steps in-process (see the module docstring).  The assignment
        map flips only after every ack, so a completed migration is
        atomic with respect to batches; any failure mid-protocol
        degrades exactly like a dead replica mid-batch (recompute owner
        extents, close the session).
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
                    if source:
                        self._connections[source - 1].send(
                            (
                                "migrate_out",
                                sorted(by_source[source]),
                                self.migration_ship_rows,
                            )
                        )
                for source in sorted(by_source):
                    names = sorted(by_source[source])
                    if source:
                        shipped.update(self._reply(source))
                        continue
                    for name in names:
                        shipped[name] = _release_payload(
                            self.engine.views[name], self.migration_ship_rows
                        )
                    self._drop_lattices(names)
                for target in sorted(by_target):
                    if target:
                        self._connections[target - 1].send(
                            (
                                "migrate_in",
                                {name: shipped[name] for name in sorted(by_target[target])},
                            )
                        )
                for target in sorted(by_target):
                    if target:
                        self._reply(target)
                    else:
                        self._adopt_lattices(
                            {name: shipped[name] for name in by_target[0]}
                        )
        except BaseException as exc:
            # A replica died or failed mid-protocol; ownership state
            # across parties is no longer trustworthy.  Same degradation
            # as a dead replica during a batch: restore the owner's views
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

    def _reply(self, party: int):
        """Receive one replica's control-message reply, raising its error."""
        kind, reply = self._connections[party - 1].recv()
        if kind != "ok":
            raise reply
        return reply

    def _drop_lattices(self, names) -> None:
        """Forget the owner's lattices of views another party maintains."""
        for name in names:
            self.engine.views[name].lattice.drop()
            self._stale_lattices.add(name)

    def _adopt_lattices(self, payloads: Dict[str, Optional[Dict]]) -> None:
        """Party 0 adopts views: lattice rows only, shipped or rebuilt
        against the owner's document; the extent it already holds."""
        from repro.sharding.merge import install_lattice_rows

        document = self.engine.document
        for name in sorted(payloads):
            lattice = self.engine.views[name].lattice
            payload = payloads[name]
            if payload is None:
                lattice.materialize(document)
            else:
                install_lattice_rows(lattice, payload["lattice"], document)
            self._stale_lattices.discard(name)

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
        """Stop the replicas and re-sync the owner engine (idempotent).

        The owner dropped the lattices of views other parties
        maintained; closing rematerializes those from the owner
        document so direct serial propagation is valid again.
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
            if force:
                # Poisoned: a replica has nothing left to finish, and a
                # live one never sees EOF (forked replicas hold copies
                # of the pipe ends the owner just closed).
                process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
        self._connections = []
        self._processes = []
        for name in sorted(self._stale_lattices):
            self.engine.views[name].lattice.materialize(self.engine.document)
        self._stale_lattices.clear()
        self.engine._shard_session_active = False
        # With a durable backend, checkpoint the lattices (and any
        # buffered extent ops) so the persisted lattice_version catches
        # back up to the batch version.
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
