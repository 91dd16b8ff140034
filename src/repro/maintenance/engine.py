"""End-to-end maintenance driver with the experiments' phase breakdown.

The engine owns a document plus any number of registered views (each
with its materialized extent and snowcap lattice) and propagates
statement batches through the combined PINT/MT and PDDT/MT pipelines
(Figures 8 and 9) -- a single statement is a batch of one -- timing the
five phases reported throughout Section 6:

* **Find Target Nodes** -- evaluating the update's target path
  (the job the paper delegates to Saxon);
* **Compute Delta Tables** -- CD+ / CD−;
* **Get Update Expression** -- developing the 2^k − 1 terms and pruning
  them (Props. 3.3/3.6/3.8 resp. 4.2/4.3/4.7);
* **Execute Update** -- evaluating surviving terms and applying tuple
  additions / derivation-count decrements (the val/cont rewrites run
  when the extent is next read; ``repro.bench`` times that read here);
* **Update Lattice** -- maintaining the materialized snowcaps.

Exactness note (beyond the paper): an update can flip the σ value
predicate of an *existing* node (e.g. inserting text under a node whose
``val`` a view filters on).  The 2^k − 1 terms cannot express this --
their all-R term is the unchanged view.  The engine detects flipped
candidates from ID-based ancestry plus merged first-seen val snapshots
and *repairs* the view with the bounded Δ± of
:mod:`repro.maintenance.repair`: evictions ride the ET-DEL machinery,
admissions the Δ+ store pass, and the snowcap lattice gets a
column-aware flip pass -- all in the same batch round, byte-identical
to recomputation.  Similarly, a net-removed node whose val/cont
drifted before its removal (*dirty subtree*) has its first-seen
``val`` snapshot restored into its memo cache, so the Δ− side's σ
filters see pre-batch values, every batch is repaired in place and no
view is ever recomputed to absorb it.  A drifted ``cont`` needs no
snapshot: Δ− rows match stored tuples by their IDs.

Every term reads its canonical relations from one source builder,
:meth:`MaintenanceEngine._sources`: the live relation with the batch's
Δ+ cut out, for R_old its Δ− merged back, and for σ relations the
view's flips rolled back, each a read-only
:class:`~repro.xmldom.index.Overlay` over the label's blocked rows or
value-index bucket: nothing is copied, probes read the edits in their
key range.

The batch round always runs in-process, view by view; the only other
execution mode is a resident :class:`~repro.sharding.ShardSession`
(``engine.session(...)``), whose parties -- the owner's own process and
its forked replicas -- each run this same in-process round over the
views they own.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.maintenance.delete import (
    delete_side,
    merge_addition_fragments,
    merge_embedding_fragments,
)
from repro.maintenance.delta import BatchCandidates, SideStats, touched_labels
from repro.maintenance.insert import (
    AffectedIDs,
    collect_attribute_refreshes,
    insert_side,
    refresh_anchors,
)
from repro.maintenance.plan import ViewPlan
from repro.maintenance.repair import (
    FlipSets,
    flip_lattice_repair,
    flip_repair,
    match_flips_to_pattern,
)
from repro.obs import NULL_OBS, Observability
from repro.storage.crashpoints import crash_point
from repro.storage.recovery import register_engine_factory
from repro.storage.sqlite import SqliteExtentBackend
from repro.pattern.evaluate import Sources
from repro.pattern.tree_pattern import Pattern
from repro.pattern.xquery import ViewDefinition, parse_view
from repro.updates.language import (
    DeleteUpdate,
    UpdateBatch,
    UpdateStatement,
    coalesce,
)
from repro.updates.pul import BatchApplication
from repro.views.lattice import DEFAULT_STRATEGY, SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.index import KeyedRows, Overlay
from repro.xmldom.model import Document, Node

PHASES = (
    "find_target_nodes",
    "compute_delta_tables",
    "get_update_expression",
    "execute_update",
    "update_lattice",
)

#: The sharding backend seam (dependency inversion).  Maintenance sits
#: *below* repro.sharding in the layer DAG (machine-checked by the
#: repro-lint ``layer-upward-import`` rule), so this module never
#: imports the sharding packages.  Instead ``repro.sharding`` calls
#: :func:`register_shard_backend` with its own module object when it is
#: imported, and :meth:`MaintenanceEngine.session` -- the one caller --
#: looks ``ShardSession`` up through it.  The batch path never needs
#: it.  The ``repro`` package ``__init__`` (the exempt aggregator)
#: imports the sharding layer, so any ``import repro.<anything>`` wires
#: the seam.
_SHARD_BACKEND = None


def register_shard_backend(backend) -> None:
    """Install the sharding layer's namespace as the engine's backend.

    Called by ``repro/sharding/__init__.py`` at the end of its own
    import; idempotent (last registration wins, which only matters for
    tests injecting instrumented backends).
    """
    global _SHARD_BACKEND
    _SHARD_BACKEND = backend


def shard_backend():
    """The registered sharding backend, or a pointed error if unwired."""
    if _SHARD_BACKEND is None:
        raise RuntimeError(
            "no sharding backend registered: import the 'repro' package "
            "(or 'repro.sharding') before opening a session so the "
            "sharding layer can register itself"
        )
    return _SHARD_BACKEND


#: sentinel distinguishing "no snapshot captured" (the value provably
#: never changed) from a captured snapshot whose value may be None.
_MISSING = object()


class PhaseTimes:
    """Per-phase wall-clock seconds for one propagated update."""

    def __init__(self) -> None:
        self.find_target_nodes = 0.0
        self.compute_delta_tables = 0.0
        self.get_update_expression = 0.0
        self.execute_update = 0.0
        self.update_lattice = 0.0

    def total(self) -> float:
        return sum(getattr(self, phase) for phase in PHASES)

    def as_dict(self) -> Dict[str, float]:
        return {phase: getattr(self, phase) for phase in PHASES}

    def add(self, other: "PhaseTimes") -> None:
        for phase in PHASES:
            setattr(self, phase, getattr(self, phase) + getattr(other, phase))

    def __repr__(self) -> str:
        parts = ", ".join("%s=%.4f" % (phase, getattr(self, phase)) for phase in PHASES)
        return "PhaseTimes(%s)" % parts


def aggregate_phase_seconds(phase_sets, base=0.0, exclude_find_targets=False):
    """The one seconds-accounting rule shared by every report shape.

    ``phase_sets`` yields :class:`PhaseTimes` instances or plain
    ``phase -> seconds`` mappings (the bench harness rows).  ``base``
    carries the report-level once-per-batch costs (net Δ construction,
    a session's wait + replay); ``exclude_find_targets`` drops the
    shared target-resolution time, which the propagation metrics leave
    out.  :class:`BatchReport` and ``repro.bench.harness.BreakdownRow``
    both sum through here, so their totals cannot drift apart -- and because every phase credit also
    lands in a trace span (see :class:`_PhaseTimer`), the summed spans
    equal these totals too (pinned by a regression test).
    """
    total = base
    for phases in phase_sets:
        if isinstance(phases, PhaseTimes):
            total += phases.total()
            if exclude_find_targets:
                total -= phases.find_target_nodes
        else:
            total += sum(phases.get(phase, 0.0) for phase in PHASES)
            if exclude_find_targets:
                total -= phases.get("find_target_nodes", 0.0)
    return total


class _PhaseTimer:
    """One ``perf_counter`` interval, credited once, reported twice.

    The interval is measured exactly once and the *same* float is added
    to the :class:`PhaseTimes` slot and recorded as a ``phase`` span,
    so the report's phase accounting and the trace can never disagree.
    With the null tracer the span side is a no-op.
    """

    __slots__ = ("tracer", "phases", "phase", "view", "started")

    def __init__(self, tracer, phases: PhaseTimes, phase: str, view: str) -> None:
        self.tracer = tracer
        self.phases = phases
        self.phase = phase
        self.view = view

    def __enter__(self) -> "_PhaseTimer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _credit(
            self.tracer,
            self.phases,
            self.phase,
            time.perf_counter() - self.started,
            self.view,
        )
        return False


def _credit(tracer, phases: PhaseTimes, phase: str, seconds: float, view: str) -> None:
    """Credit an already-measured interval to a phase slot and a span."""
    setattr(phases, phase, getattr(phases, phase) + seconds)
    tracer.record("phase", seconds, phase=phase, view=view)


class ViewReport:
    """Outcome of propagating one batch to one view."""

    def __init__(self, name: str):
        self.name = name
        self.phases = PhaseTimes()
        self.targets = 0
        self.delta_sizes: Dict[str, int] = {}
        self.terms_developed = 0
        self.terms_surviving = 0
        self.derivations_added = 0
        self.tuples_removed = 0
        self.derivations_removed = 0
        self.term_eval_seconds = 0.0

    def __repr__(self) -> str:
        return (
            "ViewReport(%s: +%d der, -%d der, terms %d/%d, %.4fs)"
            % (
                self.name,
                self.derivations_added,
                self.derivations_removed,
                self.terms_surviving,
                self.terms_developed,
                self.phases.total(),
            )
        )


class BatchReport:
    """Outcome of one batch of statements across all registered views."""

    def __init__(self, statements: Sequence[UpdateStatement]):
        self.statements = list(statements)
        self.view_reports: Dict[str, ViewReport] = {}
        self.apply_document_seconds = 0.0
        #: building the batch's net Δ candidate sets -- shared across
        #: views, so kept report-level rather than in per-view phases.
        self.net_effects_seconds = 0.0
        self.pul_size = 0
        #: statements handed in, before coalescing merged adjacent inserts.
        self.statements_submitted = 0
        #: statements actually resolved and applied.
        self.statements_applied = 0
        self.net_inserted = 0
        self.net_removed = 0
        #: nodes inserted and deleted within the batch (net no-ops).
        self.cancelled = 0
        #: always empty: every batch is repaired in place, so no view
        #: falls back to recomputation any more.  Kept because the
        #: end-to-end benchmark and the fallback-rate ceilings of
        #: ``run_smoke.py`` and ``bench_sigma_repair.py`` read it.
        self.fallbacks: Dict[str, Dict] = {}
        #: view name -> σ-flip repair counters (``sigma_flips``,
        #: ``evicted``/``admitted`` extent rows, ``lattice_dropped``/
        #: ``lattice_added``) for views repaired in place.
        self.repairs: Dict[str, Dict] = {}
        #: net-removed dirty nodes whose pre-batch val/cont snapshots
        #: were restored onto the detached subtree.
        self.dirty_restored = 0
        #: session parties that maintained the views, the owner
        #: included (0 when the engine ran the round in-process).
        self.workers = 0
        #: owner-side seconds a session spent past its own party's
        #: round: waiting for the replicas' counters, folding them and
        #: migrating views (0 in-process, where time lands in per-view
        #: phases).
        self.shard_seconds = 0.0
        #: one entry per round that ran any work: in-process rounds as
        #: ``{"mode": "serial", "units": n, "wall_s": s}``, session
        #: batches (``"mode": "session"``) with one ``unit_s`` entry
        #: per party: wall, document apply and propagation seconds and
        #: its view count.
        self.shard_rounds: List[Dict] = []

    def report_for(self, name: str) -> ViewReport:
        return self.view_reports[name]

    def total_maintenance_seconds(self) -> float:
        return aggregate_phase_seconds(
            (report.phases for report in self.view_reports.values()),
            base=self.net_effects_seconds + self.shard_seconds,
        )

    def propagation_seconds(self) -> float:
        """Maintenance-phase seconds with the shared find-targets time
        excluded; the once-per-batch net Δ construction and a
        session's ``shard_seconds`` are each counted once."""
        return aggregate_phase_seconds(
            (report.phases for report in self.view_reports.values()),
            base=self.net_effects_seconds + self.shard_seconds,
            exclude_find_targets=True,
        )

    def __repr__(self) -> str:
        return "BatchReport(%d statements, %d views, +%d/-%d net, %.4fs)" % (
            self.statements_applied,
            len(self.view_reports),
            self.net_inserted,
            self.net_removed,
            self.total_maintenance_seconds(),
        )


class RegisteredView:
    """A view under maintenance: extent + lattice + options, and the
    :class:`~repro.maintenance.plan.ViewPlan` its pattern compiles to
    once, at registration."""

    def __init__(self, name: str, view: MaterializedView, lattice: SnowcapLattice,
                 definition: Optional[ViewDefinition] = None):
        self.name = name
        #: the extent; its reads read through (current once a batch returned).
        self.view = view
        self.lattice = lattice
        self.definition = definition
        self.plan = ViewPlan(view.pattern)
        #: set by a :class:`~repro.sharding.ShardSession` while a replica
        #: party's batches have moved this extent past the owner's copy;
        #: the extent's read-through calls it first, and it clears itself.
        self.pull: Optional[Callable[[], None]] = None

    @property
    def pattern(self) -> Pattern:
        return self.view.pattern

    def __repr__(self) -> str:
        return "RegisteredView(%s, %d tuples, %s lattice)" % (
            self.name,
            len(self.view),
            self.lattice.strategy,
        )


class _ViewRound:
    """Mutable per-view state threaded through one batch round."""

    __slots__ = (
        "name",
        "registered",
        "report",
        "minus_due",
        "plus_due",
        "minus_live",
        "removals",
        "additions",
        "snowcap",
        "minus_sets",
        "plus_sets",
        "embedding_fragments",
        "addition_fragments",
    )

    def __init__(self, name: str, registered: "RegisteredView", report: ViewReport):
        self.name = name
        self.registered = registered
        self.report = report
        #: which sides this view runs this batch (Δ−, Δ+).
        self.minus_due = False
        self.plus_due = False
        self.minus_live = False
        self.removals: Dict[tuple, int] = {}
        self.additions: Dict[tuple, int] = {}
        self.snowcap: Optional[dict] = None
        #: this batch's σ flips bucketed under the view's σ nodes
        #: (flipped false resp. true).
        self.minus_sets: FlipSets = {}
        self.plus_sets: FlipSets = {}
        #: doomed-embedding maps (Δ− side + repair evictions) unioned
        #: once into ``removals``; counted row dicts (Δ+ side + repair
        #: admissions) summed once into ``additions``.
        self.embedding_fragments: List[Dict[tuple, tuple]] = []
        self.addition_fragments: List[Dict[tuple, int]] = []


def _watch_entries(
    sigma_nodes: Sequence, chain: Sequence[Node]
) -> List[Tuple[DeweyID, str, bool]]:
    """(node, constant, satisfied) snapshots for flippable σ candidates.

    ``chain`` is the self-and-ancestor candidate set of a statement's
    targets (sorted by ID); only label-compatible candidates are
    watched.  The batch pipeline merges these into first-seen
    snapshots per view.
    """
    entries: List[Tuple[DeweyID, str, bool]] = []
    for node in sigma_nodes:
        for candidate in chain:
            if node.label == "*":
                if candidate.kind != "element":
                    continue
            elif candidate.label != node.label:
                continue
            entries.append(
                (candidate.id, node.value_pred, candidate.val == node.value_pred)
            )
    return entries


def _resolve_view_source(
    view_source: Union[Pattern, ViewDefinition, str]
) -> Tuple[Pattern, Optional[ViewDefinition]]:
    """``(pattern, definition)`` of a tree pattern, a parsed
    :class:`ViewDefinition` or the view's XQuery text (no definition
    for a bare pattern)."""
    if isinstance(view_source, str):
        view_source = parse_view(view_source)
    if isinstance(view_source, ViewDefinition):
        return view_source.pattern, view_source
    return view_source, None


class MaintenanceEngine:
    """Propagates statement batches to registered views."""

    def __init__(
        self,
        document: Document,
        prune_even_terms: bool = True,
        use_data_pruning: bool = True,
        use_id_pruning: bool = True,
        obs: Optional[Observability] = None,
        backend: "Union[None, str, SqliteExtentBackend]" = None,
    ):
        self.document = document
        #: telemetry facade (:class:`repro.obs.Observability`); the
        #: shared null default makes every instrumentation site a no-op.
        self.obs = obs if obs is not None else NULL_OBS
        #: optional durable backend (:mod:`repro.storage`): batches
        #: write-ahead logged at apply_batch boundaries, extents
        #: checkpointed to sqlite.  A string is taken as a database
        #: path.  ``None`` (the default) keeps everything in memory.
        if isinstance(backend, str):
            backend = SqliteExtentBackend(backend, obs=self.obs)
        elif backend is not None:
            backend.bind_obs(self.obs)
        self.backend = backend
        metrics = self.obs.metrics
        self._batches_counter = metrics.counter(
            "repro_batches_total", "batches propagated through apply_batch"
        )
        self._statements_counter = metrics.counter(
            "repro_statements_total", "statements applied (post-coalescing)"
        )
        self._coalesced_counter = metrics.counter(
            "repro_coalesced_statements_total",
            "statements merged away by batch coalescing",
        )
        self._repairs_counter = metrics.counter(
            "repro_repairs_total", "sigma-flip repairs applied in place", ("view",)
        )
        self._propagation_histogram = metrics.histogram(
            "repro_propagation_seconds", "per-batch view-side propagation seconds"
        )
        self._refresh_rows_counter = metrics.counter(
            "repro_view_refresh_rows_total",
            "extent rows the read-time val/cont refresh rewrote",
            ("view",),
        )
        #: held by batches and extent reads, so a reader beside a queue
        #: worker waits for the batch in flight; re-entrant, as a
        #: checkpoint inside a batch reads session extents through.
        self.lock = threading.RLock()
        self.prune_even_terms = prune_even_terms
        self.use_data_pruning = use_data_pruning
        self.use_id_pruning = use_id_pruning
        #: set by an attached :class:`~repro.sharding.ShardSession`:
        #: while workers maintain the replicas, the owner's lattices are
        #: stale and direct propagation must go through the session.
        self._shard_session_active = False
        self.views: Dict[str, RegisteredView] = {}

    # -- registration ------------------------------------------------------

    def register_view(
        self,
        view_source: Union[Pattern, ViewDefinition, str],
        name: Optional[str] = None,
        strategy: str = DEFAULT_STRATEGY,
        update_profile: Optional[Sequence[str]] = None,
    ) -> RegisteredView:
        """Materialize a view over the document.

        ``view_source`` may be a tree pattern, a parsed
        :class:`ViewDefinition`, or the view's XQuery text.
        ``strategy`` picks the lattice: ``"leaves"`` (the default,
        :data:`~repro.views.lattice.DEFAULT_STRATEGY`) materializes
        nothing beside the extent; ``"snowcaps"``, the paper's mode
        (Section 3.5, Figs 29–32), also materializes a snowcap chain and
        keeps it current.  ``update_profile`` optionally lists the
        labels the workload is expected to update, steering the
        cost-based snowcap selection (Section 3.5); only ``"snowcaps"``
        accepts one.
        """
        # A live ShardSession's workers hold the view partition; adding
        # or removing views behind its back desynchronizes the replicas.
        self._check_no_active_session()
        pattern, definition = _resolve_view_source(view_source)
        name = name or "view%d" % (len(self.views) + 1)
        if name in self.views:
            raise ValueError("a view named %r is already registered" % name)
        # Built first: a strategy it rejects leaves no extent behind.
        lattice = SnowcapLattice(pattern, strategy=strategy, update_profile=update_profile)
        view = MaterializedView.materialize(pattern, self.document, name=name)
        lattice.materialize(self.document)
        registered = self._install(name, view, lattice, definition)
        if self.backend is not None:
            # Registration checkpoints the new view at the current
            # version: a reopen adopts the freshly materialized extent
            # and replays only the batches after it.
            self.backend.track(name, view)
            self.backend.checkpoint([name])
        return registered

    def adopt_view(
        self,
        view_source: Union[Pattern, ViewDefinition, str],
        name: str,
        strategy: str = DEFAULT_STRATEGY,
        update_profile: Optional[Sequence[str]] = None,
    ) -> RegisteredView:
        """Recovery seam: install a view from the durable backend.

        The extent is read from the view's checkpoint record (no
        pattern evaluation): its rows are ID projections, resolved on
        this engine's document (replayed to the record's version), whose
        ``val``/``cont`` cells the extent's first read fills.  The
        lattice is never stored: a ``"snowcaps"`` lattice is
        materialized from the same document.
        """
        self._check_no_active_session()
        if self.backend is None:
            raise RuntimeError("adopt_view needs a durable backend")
        pattern, definition = _resolve_view_source(view_source)
        if name in self.views:
            raise ValueError("a view named %r is already registered" % name)
        lattice = SnowcapLattice(pattern, strategy=strategy, update_profile=update_profile)
        view = MaterializedView(pattern, name=name)
        rows = self.backend.load_extent(name, view.derived, self.document)
        view._store.load_sorted(rows)
        view.defer_refresh(None)  # the derived cells fill on the first read
        self.backend.track(name, view)
        lattice.materialize(self.document)
        return self._install(name, view, lattice, definition)

    def _install(self, name, view, lattice, definition) -> RegisteredView:
        registered = RegisteredView(name, view, lattice, definition)
        view.refresh = partial(self._read_through, registered)
        self.views[name] = registered
        return registered

    def _read_through(self, registered: RegisteredView) -> int:
        """Bring one extent current before a read, under :attr:`lock`: a
        session's pull, then the pending val/cont refresh (a
        ``view_refresh`` span).  Returns the rows rewritten."""
        with self.lock:
            if registered.pull is not None:
                registered.pull()
            view = registered.view
            anchors = view.take_stale()
            if anchors == {}:
                return 0
            with self.obs.span("view_refresh", view=registered.name) as span:
                pairs = collect_attribute_refreshes(
                    registered.plan, view, self.document, anchors
                )
                view.rewrite_rows(new_row for _old_row, new_row in pairs)
            if self.obs.enabled:
                span.attrs["rows"] = len(pairs)
                self._refresh_rows_counter.inc(len(pairs), labels=(registered.name,))
            return len(pairs)

    def sync_durability(self) -> None:
        """Checkpoint every view (no-op without a backend;
        ``ApplyQueue.close`` and session close call this so a clean
        shutdown leaves nothing to replay)."""
        if self.backend is not None:
            self._bring_extents_current()
            self.backend.sync()

    def _bring_extents_current(self) -> None:
        """Read every extent through: a checkpoint reads the tracked
        :class:`MaterializedView` objects directly."""
        for registered in self.views.values():
            if registered.pull is not None:
                registered.pull()

    def unregister_view(self, name: str) -> None:
        self._check_no_active_session()
        del self.views[name]
        if self.backend is not None:
            self.backend.drop_view(name)

    # -- source relations ---------------------------------------------------

    def _sources(
        self,
        plan: ViewPlan,
        cut_by_label: Dict[str, List[DeweyID]],
        merge_by_label: Dict[str, List[Node]],
        cache: Dict[str, Overlay],
        rollback: Tuple[FlipSets, FlipSets] = ({}, {}),
    ) -> Sources:
        """σ-filtered canonical relations with one batch's edits overlaid.

        Every relation is the live one with the ``cut_by_label`` IDs cut
        out and the document-ordered ``merge_by_label`` nodes merged in:
        survivors R − Δ+ pass ``(Δ+ IDs, {})``; the pre-batch R_old adds
        the net-removed nodes, which -- detached with their subtrees
        intact and certified clean (or snapshot-restored) by the dirty
        machinery -- still expose their pre-batch ``val``/``cont``.
        ``rollback`` is a view's ``(minus_sets, plus_sets)`` σ flips:
        each flipped σ node's relation returns to pre-batch membership,
        its flipped-true candidates cut and flipped-false ones merged.

        A non-σ node of a label no edit touches reads the label index's
        own rows (no copy: term evaluation never mutates its sources); a
        touched label gets one :class:`Overlay` per batch in ``cache``
        (one cache per edit set).  A σ node overlays its value-index
        bucket: the label's cut IDs and flipped-true candidates out, its
        merge nodes whose detached ``val`` equals the constant and its
        flipped-false candidates in.  Either way building costs a sort
        of the label's edits, not ``|R_label|``, and a probe
        O(log|R_label| + edits in its key range).  A ``*`` node takes
        the edits of every label, and its non-σ relation starts from
        every element.
        """
        minus_sets, plus_sets = rollback
        sources: Sources = {}
        for node in plan.nodes:
            label = node.label
            if label == "*":
                cut = [node_id for ids in cut_by_label.values() for node_id in ids]
                merge = sorted(
                    (
                        n
                        for nodes in merge_by_label.values()
                        for n in nodes
                        if n.kind == "element"
                    ),
                    key=lambda n: n.id.sort_key,
                )
            else:
                cut = cut_by_label.get(label, ())
                merge = merge_by_label.get(label, ())
            constant = node.value_pred
            if constant is not None:
                cut_keys = [node_id.sort_key for node_id in cut]
                cut_keys.extend(n.id.sort_key for n in plus_sets.get(node.name, ()))
                merged = [n for n in merge if n.val == constant]
                merged.extend(minus_sets.get(node.name, ()))
                rows = self.document.keyed_value(label, constant)
                if cut_keys or merged:
                    merged.sort(key=lambda n: n.id.sort_key)
                    rows = Overlay(rows, cut_keys, merged)
                sources[node.name] = rows
                continue
            if label != "*" and not cut and not merge:
                sources[node.name] = self.document.keyed_label(label)
                continue
            rows = cache.get(label)
            if rows is None:
                if label == "*":
                    base = KeyedRows.of(
                        sorted(self.document.all_elements(), key=lambda n: n.id.sort_key)
                    )
                else:
                    base = self.document.keyed_label(label)
                rows = cache[label] = Overlay(
                    base, [node_id.sort_key for node_id in cut], merge
                )
            sources[node.name] = rows
        return sources

    # -- propagation ------------------------------------------------------------

    def _check_no_active_session(self) -> None:
        if self._shard_session_active:
            raise RuntimeError(
                "engine is driven by an active ShardSession; apply through "
                "the session (or close it) instead"
            )

    def session(self, workers: int = 4, weights=None, rebalance=None):
        """A resident :class:`~repro.sharding.ShardSession` over this
        engine, splitting the views across ``workers`` parties batch by
        batch (pair with ``ApplyQueue(engine.session(...))`` for a
        streaming write path).  ``workers`` counts the parties
        *including* this engine's own process, party 0, which maintains
        its share in-process; the session forks ``workers - 1``
        resident replicas for the rest, so ``workers=1`` forks nothing.
        ``weights`` optionally gives relative per-view maintenance costs
        for the assignment; ``rebalance`` (a ``RebalancePolicy``, or
        ``True`` for defaults) lets the session migrate view ownership
        between parties when the recorded per-view timings drift out of
        balance."""
        return shard_backend().ShardSession(
            self, workers=workers, weights=weights, rebalance=rebalance
        )

    def apply_update(self, statement: UpdateStatement) -> BatchReport:
        """Propagate one statement: a batch of one (see :meth:`apply_batch`)."""
        return self.apply_batch([statement])

    def _durability_begin(self, statements: Sequence[UpdateStatement]):
        """WAL the batch ahead of any application; None without a
        backend (or in a forked child, whose writes the owner shards
        back and logs itself)."""
        if self.backend is None or not self.backend.writable:
            return None
        return self.backend.begin_batch(statements)

    def _durability_commit(self, batch_id) -> None:
        """Seal the batch: its WAL commit marker (and, every
        ``CHECKPOINT_BATCHES`` batches, a checkpoint).

        Runs in a ``finally`` so even a raising (poison) batch commits
        -- statement application is deterministic, so recovery replay
        partial-applies it identically and the recomputed views match.
        """
        if batch_id is not None:
            if self.backend.checkpoint_due(batch_id):
                self._bring_extents_current()
            self.backend.commit_batch(batch_id)

    # -- batches (one propagation round per statement group) --------------------

    def apply_batch(
        self, batch: Union[UpdateBatch, Sequence[UpdateStatement]]
    ) -> BatchReport:
        """Propagate a whole batch: k statements, one maintenance round.

        The document is updated statement-at-a-time (so target
        resolution and Dewey assignment are byte-identical to
        sequential application), but the view side runs once on the
        batch's *net* effects: one label-bucketed Δ+/Δ− extraction
        shared across views, one term development + evaluation, one
        affected-ID bucketing for the val/cont refresh, whose anchors
        each view records for its next read, one store pass (Δ± netted
        by the tuples' IDs) and one lattice pass per view.  Nodes
        inserted and deleted within the batch cancel out of both Δ
        sets.  The whole batch runs under :attr:`lock`.

        The view-side round runs in-process, view by view in
        registration order; to spread views over resident worker
        processes, apply through ``engine.session(...)`` instead.

        Exactness: embeddings built purely from surviving pre-batch
        nodes are state-independent unless a σ predicate flipped
        (caught by the merged watchlists, repaired in place) or a
        net-removed node's σ-filtered val drifted before its removal
        (restored from first-seen snapshots), so the final extents
        always equal sequential application.
        """
        with self.lock:
            self._check_no_active_session()
            # Coalesced once: the list the WAL records is the list applied.
            statements, submitted = coalesce(batch)
            batch_id = self._durability_begin(statements)
            try:
                with self.obs.span("batch") as span:
                    report = self._apply_batch_impl(statements)
            finally:
                self._durability_commit(batch_id)
        report.statements_submitted = submitted
        if self.obs.enabled:
            span.attrs["statements"] = report.statements_applied
        self._record_batch(report)
        return report

    def _record_batch(self, report: BatchReport) -> None:
        """Count one applied batch into the engine's batch metrics; a
        session calls this with its merged report too."""
        if not self.obs.enabled:
            return
        self._batches_counter.inc()
        self._statements_counter.inc(report.statements_applied)
        self._coalesced_counter.inc(
            report.statements_submitted - report.statements_applied
        )
        for name in report.repairs:
            self._repairs_counter.inc(labels=(name,))
        self._propagation_histogram.observe(report.propagation_seconds())

    def _apply_batch_impl(
        self,
        statements: List[UpdateStatement],
        views: Optional[Dict[str, RegisteredView]] = None,
    ) -> BatchReport:
        """Apply coalesced ``statements`` to the document and propagate
        them to ``views`` (default: every registered view).  A session's
        party 0 passes the subset it maintains; the other views are
        left untouched."""
        if views is None:
            views = self.views
        report = BatchReport(statements)
        report.statements_submitted = len(statements)
        report.statements_applied = len(statements)
        if not statements:
            return report

        # Merged σ watchlists: first-seen satisfaction per (node,
        # constant), snapshotted against the pre-statement state --
        # i.e. the node's pre-batch value, since any earlier change
        # would itself have put the node on an earlier watchlist.
        watch: Dict[str, Dict[Tuple[DeweyID, str], bool]] = {
            name: {} for name in views
        }
        sigma_by_view = {
            name: registered.plan.sigma_nodes for name, registered in views.items()
        }
        any_sigma = any(sigma_by_view.values())

        # Labels whose val any registered view filters on (σ); a
        # net-removed node of another label cannot drift observably:
        # stored cells never decide a match, the tuples' IDs do.  Taken
        # over every registered view, not just ``views``, so a session's
        # party 0 counts the dirty nodes serial propagation would.
        val_sensitive = set().union(
            *(registered.plan.val_labels for registered in self.views.values())
        )
        # First-seen pre-batch snapshots powering dirty-subtree repair.
        # Only delete-bearing batches can net-remove a node, so
        # insert-only batches never pay the capture (or repair) cost.
        has_deletes = any(isinstance(s, DeleteUpdate) for s in statements)
        capture = bool(has_deletes and val_sensitive)
        val_snapshots: Dict[DeweyID, Optional[str]] = {}
        captures_any = "*" in val_sensitive

        def before_apply(index: int, statement: UpdateStatement, pul) -> None:
            if not pul.operations or not (any_sigma or capture):
                return
            # Self-and-ancestor chain of every target, via live parent
            # pointers (the update can only flip σ values along it --
            # and only along it can a later-removed node's val/cont
            # drift, so the same chain feeds the dirty snapshots).
            chain: List[Node] = []
            seen: set = set()
            for op in pul.operations:
                walk: Optional[Node] = op.target
                while walk is not None:
                    if walk.dewey in seen:
                        break
                    seen.add(walk.dewey)
                    chain.append(walk)
                    walk = walk.parent
            chain.sort(key=lambda n: n.id.sort_key)
            for name, sigma_nodes in sigma_by_view.items():
                if not sigma_nodes:
                    continue
                merged = watch[name]
                for node_id, constant, satisfied in _watch_entries(
                    sigma_nodes, chain
                ):
                    merged.setdefault((node_id, constant), satisfied)
            if not capture:
                return
            for node in chain:
                if node.label in val_sensitive or (
                    captures_any and node.kind == "element"
                ):
                    if node.id not in val_snapshots:
                        val_snapshots[node.id] = node.val

        application = BatchApplication(self.document, statements)
        try:
            application.apply(before_apply)
        except BaseException:
            if application.applied:
                # Partially applied batch: restore view consistency
                # before surfacing the failure.
                for registered in views.values():
                    self._recompute(registered)
            raise
        report.apply_document_seconds = application.apply_seconds
        report.pul_size = application.pul_size

        # Net batch effects: shared across views, the cost kept
        # report-level (net_effects_seconds) rather than multiplied
        # into per-view phases.
        started = time.perf_counter()
        inserted_candidates = BatchCandidates(application.net_inserted_nodes())
        removed_candidates = BatchCandidates(application.net_removed_nodes())
        report.net_inserted = len(inserted_candidates)
        report.net_removed = len(removed_candidates)
        report.cancelled = application.cancelled_count()
        if removed_candidates.nodes:
            # Restore the detached subtrees' pre-batch σ val from the
            # first-seen snapshots.
            report.dirty_restored = self._restore_dirty_snapshots(
                application.dirty_removed_nodes(), val_snapshots, val_sensitive
            )
        insert_target_ids = application.insert_target_ids
        delete_target_ids = application.delete_target_ids
        report.net_effects_seconds = time.perf_counter() - started
        # Same float as the report field: trace and report stay equal.
        self.obs.tracer.record("net_effects", report.net_effects_seconds)

        # Δ± IDs bucketed by label once (document order), and the
        # label-keyed source rows shared by every view this batch (the
        # per-view σ push-down happens on top of them).
        inserted_by_label = {
            label: [node.id for node in nodes]
            for label, nodes in inserted_candidates.by_label.items()
        }
        removed_by_label = {
            label: [node.id for node in nodes]
            for label, nodes in removed_candidates.by_label.items()
        }
        survivor_cache: Dict[str, Overlay] = {}
        pre_batch_cache: Dict[str, Overlay] = {}

        try:
            self._propagate_batch_to_views(
                views=views,
                report=report,
                application=application,
                watch=watch,
                inserted_candidates=inserted_candidates,
                inserted_by_label=inserted_by_label,
                removed_candidates=removed_candidates,
                removed_by_label=removed_by_label,
                insert_target_ids=insert_target_ids,
                delete_target_ids=delete_target_ids,
                survivor_cache=survivor_cache,
                pre_batch_cache=pre_batch_cache,
            )
        except BaseException:
            # A failure mid-propagation leaves the failing view (and
            # possibly its lattice) half-updated; restore consistency
            # before surfacing the error, as the queue contract
            # promises.
            for registered in views.values():
                self._recompute(registered)
            raise
        return report

    def _propagate_batch_to_views(
        self,
        *,
        views: Dict[str, RegisteredView],
        report: BatchReport,
        application: BatchApplication,
        watch: Dict[str, Dict[Tuple[DeweyID, str], bool]],
        inserted_candidates: BatchCandidates,
        inserted_by_label: Dict[str, List[DeweyID]],
        removed_candidates: BatchCandidates,
        removed_by_label: Dict[str, List[DeweyID]],
        insert_target_ids: Sequence[DeweyID],
        delete_target_ids: Sequence[DeweyID],
        survivor_cache: Dict[str, Overlay],
        pre_batch_cache: Dict[str, Overlay],
    ) -> None:
        """The batch's view-side round over ``views``, run in-process.

        1. if any view has a live Δ− side, a first round runs the Δ−
           evaluations, which read pre-batch state, and the doomed
           lattice rows are dropped;
        2. a second round (the only one for insert-only batches) runs
           the Δ+ evaluations, snowcap additions and σ repairs over
           survivor relations;
        3. each view's collected Δ± is merged and applied: one store
           pass and one lattice extend per view; a view that stores
           val/cont records the batch's refresh anchors for its next
           read.

        Within a round the views run in registration order; the merge
        and the store pass sort, so the order cannot change a result.
        """
        tracer = self.obs.tracer

        contexts: List[_ViewRound] = []
        for name, registered in views.items():
            view_report = ViewReport(name)
            view_report.targets = len(insert_target_ids) + len(delete_target_ids)
            _credit(
                tracer, view_report.phases, "find_target_nodes",
                application.find_targets_seconds, name,
            )
            report.view_reports[name] = view_report
            plan = registered.plan
            view_report.delta_sizes = dict.fromkeys(plan.names, 0)
            ctx = _ViewRound(name, registered, view_report)
            ctx.minus_due = bool(touched_labels(plan, removed_candidates))
            ctx.plus_due = bool(touched_labels(plan, inserted_candidates))
            flips = self._batch_flips(watch[name], application.inserted_ids)
            if flips:
                ctx.minus_sets, ctx.plus_sets = match_flips_to_pattern(plan, flips)
                if ctx.minus_sets or ctx.plus_sets:
                    report.repairs[name] = {"sigma_flips": len(flips)}
            contexts.append(ctx)
        if not contexts:
            return

        def survivor_sources(ctx: _ViewRound) -> Sources:
            return self._sources(
                ctx.registered.plan, inserted_by_label, {}, survivor_cache
            )

        # Bucketed on the first view whose refresh is due, then shared.
        affected = AffectedIDs(insert_target_ids, delete_target_ids)

        def minus(ctx: _ViewRound) -> int:
            if not ctx.minus_due:
                return 0
            plan = ctx.registered.plan
            started = time.perf_counter()
            embeddings, stats = delete_side(
                plan,
                removed_candidates,
                ctx.registered.lattice,
                lambda: self._sources(
                    plan,
                    inserted_by_label,
                    removed_candidates.by_label,
                    pre_batch_cache,
                    (ctx.minus_sets, ctx.plus_sets),
                ),
                self.prune_even_terms,
                self.use_data_pruning,
                self.use_id_pruning,
            )
            self._absorb_stats(ctx.report, stats, time.perf_counter() - started)
            ctx.minus_live = stats.live
            if embeddings:
                ctx.embedding_fragments.append(embeddings)
            return 1

        def plus(ctx: _ViewRound) -> int:
            if not ctx.plus_due:
                return 0
            started = time.perf_counter()
            additions, ctx.snowcap, stats = insert_side(
                ctx.registered.plan,
                inserted_candidates,
                ctx.registered.lattice,
                lambda: survivor_sources(ctx),
                affected.insert_labels,
                self.use_data_pruning,
                self.use_id_pruning,
            )
            self._absorb_stats(ctx.report, stats, time.perf_counter() - started)
            if additions:
                ctx.addition_fragments.append(additions)
            return 1

        def repair(ctx: _ViewRound) -> int:
            if not (ctx.minus_sets or ctx.plus_sets):
                return 0
            plan = ctx.registered.plan
            started = time.perf_counter()
            evictions, admissions, stats = flip_repair(
                plan,
                ctx.minus_sets,
                ctx.plus_sets,
                lambda: self._sources(
                    plan,
                    inserted_by_label,
                    {},
                    survivor_cache,
                    (ctx.minus_sets, ctx.plus_sets),
                ),
                lambda: survivor_sources(ctx),
            )
            self._absorb_stats(ctx.report, stats, time.perf_counter() - started)
            if evictions:
                # Disjoint from the Δ− embeddings by construction (evict
                # sources hold only survivors), so the final union never
                # collapses a genuine removal.
                ctx.embedding_fragments.append(evictions)
            if admissions:
                ctx.addition_fragments.append(admissions)
            entry = report.repairs.setdefault(ctx.name, {})
            entry["evicted"] = entry.get("evicted", 0) + len(evictions)
            entry["admitted"] = entry.get("admitted", 0) + sum(admissions.values())
            return 1

        def run_round(*sides) -> None:
            started = time.perf_counter()
            ran = sum(side(ctx) for ctx in contexts for side in sides)
            if ran:
                report.shard_rounds.append(
                    {
                        "mode": "serial",
                        "units": ran,
                        "wall_s": round(time.perf_counter() - started, 6),
                    }
                )

        # -- one round when the batch is insert-only, two when a Δ−
        # side must read the lattice before its doomed rows drop --
        if any(ctx.minus_due for ctx in contexts):
            run_round(minus)
            for ctx in contexts:
                if ctx.minus_live:
                    with _PhaseTimer(
                        tracer, ctx.report.phases, "update_lattice", ctx.name
                    ):
                        ctx.registered.lattice.apply_batch(removed_by_label, {})
        # σ-flip lattice upkeep sits between the rounds: the Δ− sides
        # must read the *pre-batch* lattice (their R-part seeds), while
        # the Δ+ sides' ET-INS and snowcap recurrences seed from the
        # current-survivor lattice -- which only the column-aware flip
        # pass (drop flipped-false rows, append flipped-true ones)
        # makes exact.  In the single-round case there is no Δ− reader,
        # so the repair simply precedes the round.
        for ctx in contexts:
            if not (ctx.minus_sets or ctx.plus_sets):
                continue
            lattice = ctx.registered.lattice
            if not lattice.materialized_sets():
                continue
            with _PhaseTimer(tracer, ctx.report.phases, "update_lattice", ctx.name):
                drops, flip_additions = flip_lattice_repair(
                    ctx.registered.plan,
                    lattice,
                    ctx.minus_sets,
                    ctx.plus_sets,
                    survivor_sources(ctx),
                )
                dropped = lattice.apply_flip_repair(drops, flip_additions)
                entry = report.repairs.setdefault(ctx.name, {})
                entry["lattice_dropped"] = dropped
                entry["lattice_added"] = sum(
                    len(relation.rows) for relation in flip_additions.values()
                )
        run_round(plus, repair)

        # -- merge + apply: one store pass and one lattice extend ------
        for ctx in contexts:
            if ctx.embedding_fragments:
                ctx.removals = merge_embedding_fragments(ctx.embedding_fragments)
            if ctx.addition_fragments:
                ctx.additions = merge_addition_fragments(ctx.addition_fragments)
            with _PhaseTimer(tracer, ctx.report.phases, "execute_update", ctx.name):
                view = ctx.registered.view
                added, tuples_removed, derivations_removed = view.apply_batch_delta(
                    ctx.additions, ctx.removals
                )
                view.defer_refresh(refresh_anchors(ctx.registered.plan, affected))
            crash_point("mid_bulk_apply")
            ctx.report.derivations_added = added
            ctx.report.tuples_removed = tuples_removed
            ctx.report.derivations_removed = derivations_removed
            if ctx.snowcap:
                with _PhaseTimer(
                    tracer, ctx.report.phases, "update_lattice", ctx.name
                ):
                    ctx.registered.lattice.apply_batch({}, ctx.snowcap)

    def _absorb_stats(
        self, view_report: ViewReport, stats: SideStats, seconds: float
    ) -> None:
        """Fold one side's counters and ``seconds`` into the view's
        report: its sub-timings go to their phases, the rest of
        ``seconds`` to ``execute_update``."""
        for node_name, size in stats.delta_sizes.items():
            view_report.delta_sizes[node_name] = (
                view_report.delta_sizes.get(node_name, 0) + size
            )
        view_report.terms_developed += stats.terms_developed
        view_report.terms_surviving += stats.terms_surviving
        view_report.term_eval_seconds += stats.eval_seconds
        tracer = self.obs.tracer
        phases = view_report.phases
        name = view_report.name
        _credit(tracer, phases, "compute_delta_tables", stats.delta_seconds, name)
        _credit(tracer, phases, "get_update_expression", stats.develop_seconds, name)
        _credit(tracer, phases, "update_lattice", stats.snowcap_seconds, name)
        _credit(
            tracer,
            phases,
            "execute_update",
            max(
                0.0,
                seconds
                - stats.delta_seconds
                - stats.develop_seconds
                - stats.snowcap_seconds,
            ),
            name,
        )

    def _restore_dirty_snapshots(
        self,
        dirty_nodes: Sequence[Node],
        val_snapshots: Dict[DeweyID, Optional[str]],
        val_sensitive: set,
    ) -> int:
        """Restore pre-batch val onto drifted detached subtrees.

        Every val change puts the node on a ``before_apply`` chain, so
        a sensitive-labeled dirty node with *no* snapshot provably never
        drifted -- it is clean.  A node whose snapshot equals its
        current (detached) value is clean too, and so is every text or
        attribute node, whose val is its own string.  Genuine drift is
        repaired by installing the snapshot into the element's memo
        cache, which every downstream σ reader (Δ− σ-filtering, R_old
        reconstruction) consults.  Returns how many nodes were
        restored.
        """
        restored = 0
        for node in dirty_nodes:
            if node.kind != "element":
                continue
            if node.label in val_sensitive or "*" in val_sensitive:
                snapshot = val_snapshots.get(node.id, _MISSING)
                if snapshot is not _MISSING and snapshot != node.val:
                    node._val_cache = snapshot
                    restored += 1
        return restored

    def _batch_flips(
        self,
        watch: Dict[Tuple[DeweyID, str], bool],
        inserted_ids: set,
    ) -> Dict[Tuple[DeweyID, str], Tuple[Node, bool]]:
        """Surviving pre-existing σ candidates that flipped this batch.

        Maps ``(node ID, constant)`` to ``(live node, satisfied now)``.
        ``inserted_ids`` holds the ``sort_key`` of every ID the batch
        inserted.
        Batch-inserted survivors are skipped (the Δ+ side σ-filters
        them against final values) and removed candidates are skipped
        (the Δ− side reads their detached values, which the dirty-
        subtree machinery certifies as pre-batch).
        """
        flips: Dict[Tuple[DeweyID, str], Tuple[Node, bool]] = {}
        for (node_id, constant), satisfied in watch.items():
            if node_id.sort_key in inserted_ids:
                continue
            node = self.document.node_by_id(node_id)
            if node is None:
                continue
            now = node.val == constant
            if now != satisfied:
                flips[(node_id, constant)] = (node, now)
        return flips

    # -- helpers -----------------------------------------------------------------

    def _recompute(self, registered: RegisteredView) -> None:
        """Rebuild extent and lattice in-process (a poisoned batch)."""
        fresh = MaterializedView.materialize(
            registered.pattern, self.document, name=registered.name
        )
        # Content-level reload: the registered view keeps its store
        # object.
        registered.view.reload_content(fresh.content())
        registered.lattice.materialize(self.document)


# Dependency inversion for crash recovery: ``repro.storage`` sits below
# this layer and cannot import it, so the engine class registers itself
# as the factory ``repro.storage.recovery.reopen`` instantiates.
register_engine_factory(MaintenanceEngine)
