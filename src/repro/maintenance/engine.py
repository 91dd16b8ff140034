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
  additions / derivation-count decrements / val-cont rewrites;
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
drifted before its removal (*dirty subtree*) is restored from the
first-seen snapshots instead of invalidating the whole view.  Only
genuinely unrepairable cases -- drift with hot-path caches disabled,
or ``sigma_repair=False`` forcing the historical behaviour -- fall
back to recomputing the affected view, and those recomputations run as
shard work units when a parallel executor is available
(``BatchReport.fallbacks`` records structured reasons).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.maintenance.delta import BatchCandidates
from repro.maintenance.insert import apply_attribute_refreshes
from repro.maintenance.repair import (
    flip_lattice_repair,
    match_flips_to_pattern,
)
from repro.obs import NULL_OBS, Observability
from repro.storage.recovery import register_engine_factory
from repro.storage.sqlite import SqliteExtentBackend
from repro.pattern.evaluate import Sources
from repro.pattern.tree_pattern import Pattern
from repro.pattern.xquery import ViewDefinition
from repro.updates.language import (
    DeleteUpdate,
    UpdateBatch,
    UpdateStatement,
)
from repro.updates.pul import BatchApplication
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.index import KeyedRows
from repro.xmldom.model import Document, Node, hot_path_caches_enabled

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
#: imported, and the engine dispatches planner/executor/unit/merge
#: lookups through the registered backend.  The ``repro`` package
#: ``__init__`` (the exempt aggregator) imports the sharding layer, so
#: any ``import repro.<anything>`` wires the seam before engine code
#: can run.
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
            "(or 'repro.sharding') before driving the engine so the "
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
    parallel shard-round walls); ``exclude_find_targets`` drops the
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
        self.tuples_modified = 0
        self.tuples_removed = 0
        self.derivations_removed = 0
        self.term_eval_seconds = 0.0
        self.predicate_fallback = False

    def __repr__(self) -> str:
        return (
            "ViewReport(%s: +%d der, -%d der, mod %d, terms %d/%d, %.4fs)"
            % (
                self.name,
                self.derivations_added,
                self.derivations_removed,
                self.tuples_modified,
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
        #: view name -> ``{"reason": str, "candidates": int}`` for each
        #: view whose recompute fallback fired (the candidate count is
        #: the unrepairable dirty nodes resp. suppressed σ flips).
        self.fallbacks: Dict[str, Dict] = {}
        #: view name -> σ-flip repair counters (``sigma_flips``,
        #: ``evicted``/``admitted`` extent rows, ``lattice_dropped``/
        #: ``lattice_added``) for views repaired in place of a fallback.
        self.repairs: Dict[str, Dict] = {}
        #: net-removed dirty nodes whose pre-batch val/cont snapshots
        #: were restored onto the detached subtree (no fallback needed).
        self.dirty_restored = 0
        #: worker count the propagation round actually fanned out to
        #: (0 = serial execution of the shard plan).
        self.workers = 0
        #: view name -> {"refresh", "additions", "removals"} extent
        #: deltas, recorded only when the engine's ``record_deltas`` is
        #: set (shard-session replica workers ship these to the owner).
        self.view_deltas: Optional[Dict[str, Dict]] = None
        #: wall-clock seconds spent inside parallel shard rounds
        #: (0 in serial mode, where unit time lands in per-view phases).
        self.shard_seconds = 0.0
        #: one entry per executed shard round: mode, wall/worker
        #: seconds and per-unit timing (see RoundResult.describe).
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
        excluded; the once-per-batch net Δ construction and the wall
        time of parallel shard rounds are each counted once."""
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
    """A view under maintenance: extent + lattice + options."""

    def __init__(self, name: str, view: MaterializedView, lattice: SnowcapLattice,
                 definition: Optional[ViewDefinition] = None):
        self.name = name
        self.view = view
        self.lattice = lattice
        self.definition = definition

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
    """Mutable per-view state threaded through one batch shard round."""

    __slots__ = (
        "name",
        "registered",
        "report",
        "has_minus_unit",
        "has_plus_unit",
        "has_repair_unit",
        "minus_live",
        "removals",
        "additions",
        "snowcap",
        "flips",
        "minus_sets",
        "plus_sets",
        "embedding_fragments",
        "addition_fragments",
    )

    def __init__(self, name: str, registered: "RegisteredView", report: ViewReport):
        self.name = name
        self.registered = registered
        self.report = report
        self.has_minus_unit = False
        self.has_plus_unit = False
        self.has_repair_unit = False
        self.minus_live = False
        self.removals: Dict[tuple, int] = {}
        self.additions: Dict[tuple, int] = {}
        self.snowcap: Optional[dict] = None
        #: ``(node ID, constant) -> (node, satisfied now)`` σ flips of
        #: this batch, and their bucketing under the view's σ nodes.
        self.flips: Dict[Tuple[DeweyID, str], Tuple[Node, bool]] = {}
        self.minus_sets: Dict[str, List[Node]] = {}
        self.plus_sets: Dict[str, List[Node]] = {}
        #: doomed-embedding maps (Δ− units + repair evictions) unioned
        #: once into ``removals``; counted row dicts (Δ+ units + repair
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


class MaintenanceEngine:
    """Propagates statement batches to registered views."""

    def __init__(
        self,
        document: Document,
        prune_even_terms: bool = True,
        use_data_pruning: bool = True,
        use_id_pruning: bool = True,
        workers: int = 0,
        shard_plan: "Union[None, int, ShardPlanner]" = None,
        sigma_repair: bool = True,
        obs: Optional[Observability] = None,
        backend: "Union[None, str, SqliteExtentBackend]" = None,
    ):
        self.document = document
        #: telemetry facade (:class:`repro.obs.Observability`); the
        #: shared null default makes every instrumentation site a no-op.
        self.obs = obs if obs is not None else NULL_OBS
        #: optional durable backend (:mod:`repro.storage`): extents in
        #: sqlite tables, batches write-ahead logged at apply_batch
        #: boundaries.  A string is taken as a database path.  ``None``
        #: (the default) keeps the historical all-in-memory behaviour.
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
        self._fallbacks_counter = metrics.counter(
            "repro_fallbacks_total", "whole-view recompute fallbacks", ("reason",)
        )
        self._repairs_counter = metrics.counter(
            "repro_repairs_total", "sigma-flip repairs applied in place", ("view",)
        )
        self._propagation_histogram = metrics.histogram(
            "repro_propagation_seconds", "per-batch view-side propagation seconds"
        )
        self.prune_even_terms = prune_even_terms
        self.use_data_pruning = use_data_pruning
        self.use_id_pruning = use_id_pruning
        #: incremental repair of σ-predicate flips (bounded Δ± terms)
        #: and dirty removed subtrees (snapshot restoration) in
        #: ``apply_batch``.  ``False`` restores the historical
        #: whole-view recompute fallback for both situations -- kept as
        #: a baseline for the repair benchmarks and regression tests.
        self.sigma_repair = sigma_repair
        #: default worker count for ``apply_batch`` (0 = in-process).
        self.workers = workers
        #: default shard planner (or shard count) for ``apply_batch``.
        self.shard_plan = shard_plan
        #: when True, ``apply_batch`` reports carry ``view_deltas`` --
        #: the exact extent-delta inputs of every view's store pass
        #: (used by shard-session replica workers).
        self.record_deltas = False
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
        strategy: str = "snowcaps",
        update_profile: Optional[Sequence[str]] = None,
    ) -> RegisteredView:
        """Materialize a view (and its snowcaps) over the document.

        ``view_source`` may be a tree pattern, a parsed
        :class:`ViewDefinition`, or the view's XQuery text.
        ``update_profile`` optionally lists the labels the workload is
        expected to update, steering the cost-based snowcap selection
        (Section 3.5).
        """
        # A live ShardSession's workers hold the view partition; adding
        # or removing views behind its back desynchronizes the replicas.
        self._check_no_active_session()
        definition: Optional[ViewDefinition] = None
        if isinstance(view_source, str):
            from repro.pattern.xquery import parse_view

            definition = parse_view(view_source)
            pattern = definition.pattern
        elif isinstance(view_source, ViewDefinition):
            definition = view_source
            pattern = definition.pattern
        else:
            pattern = view_source
        name = name or "view%d" % (len(self.views) + 1)
        if name in self.views:
            raise ValueError("a view named %r is already registered" % name)
        view = MaterializedView.materialize(
            pattern,
            self.document,
            name=name,
            store_factory=(
                self.backend.store_factory(name) if self.backend is not None else None
            ),
        )
        lattice = SnowcapLattice(pattern, strategy=strategy, update_profile=update_profile)
        lattice.materialize(self.document)
        registered = RegisteredView(name, view, lattice, definition)
        self.views[name] = registered
        if self.backend is not None:
            # Registration is durable at the current version: reopening
            # before any batch adopts the freshly materialized extent.
            self.backend.sync(self.views)
        return registered

    def adopt_view(
        self,
        view_source: Union[Pattern, ViewDefinition, str],
        name: str,
        adopt_lattice: bool = True,
        strategy: str = "snowcaps",
        update_profile: Optional[Sequence[str]] = None,
    ) -> bool:
        """Recovery seam: install a view from the durable backend.

        The extent is read verbatim from the view's sqlite table (no
        pattern evaluation); the snowcap relations come from their
        persisted snapshots when ``adopt_lattice`` is true and the
        snapshots resolve against the document, and are rematerialized
        otherwise.  Returns True when the lattice was adopted (i.e.
        nothing had to be rematerialized).
        """
        self._check_no_active_session()
        if self.backend is None:
            raise RuntimeError("adopt_view needs a durable backend")
        definition: Optional[ViewDefinition] = None
        if isinstance(view_source, str):
            from repro.pattern.xquery import parse_view

            definition = parse_view(view_source)
            pattern = definition.pattern
        elif isinstance(view_source, ViewDefinition):
            definition = view_source
            pattern = definition.pattern
        else:
            pattern = view_source
        if name in self.views:
            raise ValueError("a view named %r is already registered" % name)
        # Read the durable rows *before* building the view: the store
        # factory registers the extent table on first use, which would
        # turn "this view was never durable" (KeyError, caller's bug)
        # into a silently empty extent.
        content = self.backend.stored_extent_rows(name)
        view = MaterializedView(
            pattern, name=name, store_factory=self.backend.store_factory(name)
        )
        view._store.adopt_encoded(content)
        lattice = SnowcapLattice(pattern, strategy=strategy, update_profile=update_profile)
        adopted = False
        if not lattice.selected:
            adopted = True  # nothing materialized, nothing to rebuild
        elif adopt_lattice:
            try:
                relations = self.backend.load_lattice(
                    name, lattice.selected, self.document
                )
            except (KeyError, ValueError):
                pass
            else:
                for subset, relation in relations.items():
                    lattice.load_materialized(subset, relation)
                self.backend.mark_lattice_adopted(name, lattice)
                adopted = True
        if not adopted and lattice.selected:
            lattice.materialize(self.document)
        registered = RegisteredView(name, view, lattice, definition)
        self.views[name] = registered
        return adopted

    def sync_durability(self) -> None:
        """Flush buffered extent ops and lattice snapshots (no-op
        without a backend; ``ApplyQueue.close`` and session close call
        this so a clean shutdown leaves nothing to replay)."""
        if self.backend is not None:
            self.backend.sync(self.views)

    def unregister_view(self, name: str) -> None:
        self._check_no_active_session()
        del self.views[name]
        if self.backend is not None:
            self.backend.drop_view(name)

    # -- source relations ---------------------------------------------------

    def _sources_excluding(
        self,
        pattern: Pattern,
        excluded_ids: set,
        cache: Dict[str, KeyedRows],
        excluded_by_label: Dict[str, List[DeweyID]],
    ) -> Sources:
        """σ-filtered canonical relations, minus the given node IDs.

        After an insert has been applied, R_old = R_new − Δ+.  Labels
        untouched by the update reference the label index's (or the
        value index's) own keyed rows directly (no copy): term
        evaluation never mutates its sources, so copying is pure
        overhead.  A touched label's Δ+ nodes are cut out at their
        bisected positions (``KeyedRows.spliced``), so the cost follows
        the excluded IDs of that label, not ``|R_label|``.

        ``cache`` (label-keyed, one per batch) shares the unpredicated
        post-exclusion rows across calls with the same ``excluded_ids``
        so multi-view maintenance filters each label once.
        ``excluded_by_label`` is ``excluded_ids`` bucketed by label in
        document order, built once per batch.
        """
        sources: Sources = {}
        for node in pattern.nodes():
            label = node.label
            if node.value_pred is not None:
                # σ-constant selection via the document's value index
                # (wildcards through its all-labels entry); the
                # excluded IDs are cut out of the bucket by bisect.
                rows = self.document.keyed_value(label, node.value_pred)
                cut = excluded_ids if label == "*" else excluded_by_label.get(label)
                if cut:
                    rows = rows.spliced([node_id.sort_key for node_id in cut])
                sources[node.name] = rows
                continue
            if label != "*" and label not in excluded_by_label:
                sources[node.name] = self.document.keyed_label(label)
                continue
            rows = cache.get(label)
            if rows is None:
                if label == "*":
                    rows = KeyedRows.of(
                        sorted(
                            (
                                n
                                for n in self.document.all_elements()
                                if n.id not in excluded_ids
                            ),
                            key=lambda n: n.id.sort_key,
                        )
                    )
                else:
                    rows = self.document.keyed_label(label).spliced(
                        [node_id.sort_key for node_id in excluded_by_label[label]]
                    )
                cache[label] = rows
            sources[node.name] = rows
        return sources

    # -- propagation ------------------------------------------------------------

    def _check_no_active_session(self) -> None:
        if self._shard_session_active:
            raise RuntimeError(
                "engine is driven by an active ShardSession; apply through "
                "the session (or close it) instead"
            )

    def session(self, workers: int = 4, planner=None, weights=None, rebalance=None):
        """A resident :class:`~repro.sharding.ShardSession` over this
        engine: fork-once replica workers maintaining the views batch
        by batch (pair with ``ApplyQueue(engine.session(...))`` for a
        streaming write path).  ``weights`` optionally gives relative
        per-view maintenance costs for the worker assignment;
        ``rebalance`` (a ``RebalancePolicy``, or ``True`` for defaults)
        lets the session migrate view ownership between workers when
        the recorded per-view timings drift out of balance."""
        return shard_backend().ShardSession(
            self, workers=workers, planner=planner, weights=weights,
            rebalance=rebalance,
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

    def _durability_commit(self, batch_id, include_lattices: bool = True) -> None:
        """Seal the batch: commit marker + one sqlite txn.

        Runs in a ``finally`` so even a raising (poison) batch commits
        -- statement application is deterministic, so recovery replay
        partial-applies it identically and the recomputed views match.
        """
        if batch_id is not None:
            self.backend.commit_batch(
                batch_id, self.views, include_lattices=include_lattices
            )

    # -- sequences (Section 5) ------------------------------------------------

    def apply_sequence(
        self, statements: Sequence[UpdateStatement], optimize: bool = False
    ) -> List[BatchReport]:
        """Propagate a sequence of statements, optionally PUL-optimized.

        With ``optimize=True`` the statements' atomic operations are
        first reduced by the rules of Section 5 (O1, O3, I5); the
        reduced sequence is then applied to document and views, one
        batch-of-one report per statement.
        """
        if not optimize:
            return [self.apply_update(statement) for statement in statements]
        from repro.optimizer.rules import reduce_statements

        reduced = reduce_statements(self.document, statements)
        return [self.apply_update(statement) for statement in reduced]

    # -- batches (one propagation round per statement group) --------------------

    def apply_batch(
        self,
        batch: Union[UpdateBatch, Sequence[UpdateStatement]],
        workers: Optional[int] = None,
        shard_plan: "Union[None, int, ShardPlanner]" = None,
    ) -> BatchReport:
        """Propagate a whole batch: k statements, one maintenance round.

        The document is updated statement-at-a-time (so target
        resolution and Dewey assignment are byte-identical to
        sequential application), but the view side runs once on the
        batch's *net* effects: one label-bucketed Δ+/Δ− extraction
        shared across views, one term development + evaluation, one
        extent snapshot for the merged val/cont refresh, one store pass
        and one lattice pass per view.  Nodes inserted and deleted
        within the batch cancel out of both Δ sets.

        The view-side round is organized as a shard plan (see
        :mod:`repro.sharding`): the planner hashes the batch's Δ labels
        into shard groups and cuts the per-view propagation work into
        independent units.  With ``workers=0`` (the default) the units
        run in-process; with ``workers=N`` they fan out on a worker
        pool (fork process pool where available) and the returned
        fragments are merged deterministically, so the resulting
        extents are byte-identical either way.  ``workers`` /
        ``shard_plan`` (a :class:`~repro.sharding.ShardPlanner` or a
        shard count) override the engine-level defaults per call.

        Exactness: embeddings built purely from surviving pre-batch
        nodes are state-independent unless a σ predicate flipped
        (caught by the merged watchlists, repaired in place) or a
        net-removed node's stored attributes drifted before its removal
        (caught by the dirty-subtree guard, restored from snapshots);
        only what neither can repair falls back to recomputing the
        view, so the final extents always equal sequential application.
        """
        self._check_no_active_session()
        batch_id = None
        if self.backend is not None and self.backend.writable:
            # The WAL payload is the coalesced statement list -- what
            # the impl actually applies (coalesced() is idempotent, so
            # computing it here too costs one cheap pass).
            if isinstance(batch, UpdateBatch):
                payload = batch.coalesced().statements
            else:
                payload = list(batch)
            batch_id = self.backend.begin_batch(payload)
        try:
            with self.obs.span("batch") as span:
                report = self._apply_batch_impl(batch, workers, shard_plan)
        finally:
            self._durability_commit(batch_id)
        if self.obs.enabled:
            span.attrs["statements"] = report.statements_applied
            span.attrs["workers"] = report.workers
            self._batches_counter.inc()
            self._statements_counter.inc(report.statements_applied)
            self._coalesced_counter.inc(
                report.statements_submitted - report.statements_applied
            )
            for info in report.fallbacks.values():
                self._fallbacks_counter.inc(labels=(info["reason"],))
            for name in report.repairs:
                self._repairs_counter.inc(labels=(name,))
            self._propagation_histogram.observe(report.propagation_seconds())
        return report

    def _apply_batch_impl(
        self,
        batch: "Union[UpdateBatch, Sequence[UpdateStatement]]",
        workers: Optional[int],
        shard_plan: "Union[None, int, ShardPlanner]",
    ) -> BatchReport:
        backend = shard_backend()
        effective_workers = self.workers if workers is None else workers
        planner = backend.ShardPlanner.coerce(
            shard_plan if shard_plan is not None else self.shard_plan,
            effective_workers,
        )
        executor = backend.ShardExecutor(effective_workers, obs=self.obs)
        if isinstance(batch, UpdateBatch):
            submitted = len(batch)
            statements = batch.coalesced().statements
        else:
            statements = list(batch)
            submitted = len(statements)
        report = BatchReport(statements)
        report.statements_submitted = submitted
        report.statements_applied = len(statements)
        if self.record_deltas:
            report.view_deltas = {}
        if not statements:
            return report

        # Merged σ watchlists: first-seen satisfaction per (node,
        # constant), snapshotted against the pre-statement state --
        # i.e. the node's pre-batch value, since any earlier change
        # would itself have put the node on an earlier watchlist.
        watch: Dict[str, Dict[Tuple[DeweyID, str], bool]] = {
            name: {} for name in self.views
        }
        sigma_by_view = {
            name: [
                node
                for node in registered.pattern.nodes()
                if node.value_pred is not None
            ]
            for name, registered in self.views.items()
        }
        any_sigma = any(sigma_by_view.values())

        # Labels whose val/cont any view reads through value semantics
        # (σ filters and projection read val, stored cont reads cont);
        # a net-removed node of another label cannot drift observably.
        val_sensitive: set = set()
        cont_sensitive: set = set()
        for registered in self.views.values():
            for node in registered.pattern.nodes():
                if node.value_pred is not None or node.store_val:
                    val_sensitive.add(node.label)
                if node.store_cont:
                    cont_sensitive.add(node.label)
        # First-seen pre-batch snapshots powering dirty-subtree repair.
        # Only delete-bearing batches can net-remove a node, so
        # insert-only batches never pay the capture (or repair) cost.
        has_deletes = any(isinstance(s, DeleteUpdate) for s in statements)
        capture = bool(
            self.sigma_repair and has_deletes and (val_sensitive or cont_sensitive)
        )
        val_snapshots: Dict[DeweyID, Optional[str]] = {}
        cont_snapshots: Dict[DeweyID, Optional[str]] = {}

        def _captures_label(sensitive: set, node: Node) -> bool:
            return node.label in sensitive or (
                "*" in sensitive and node.kind == "element"
            )

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
                if _captures_label(val_sensitive, node):
                    if node.id not in val_snapshots:
                        val_snapshots[node.id] = node.val
                if _captures_label(cont_sensitive, node):
                    if node.id not in cont_snapshots:
                        cont_snapshots[node.id] = node.cont

        application = BatchApplication(self.document, statements)
        try:
            application.apply(before_apply)
        except BaseException:
            if application.applied:
                # Partially applied batch: restore view consistency
                # before surfacing the failure.
                for registered in self.views.values():
                    self._recompute(registered)
            raise
        report.apply_document_seconds = application.apply_seconds
        report.pul_size = application.pul_size

        # Net batch effects: shared across views, the cost kept
        # report-level (net_effects_seconds) rather than multiplied
        # into per-view phases.
        started = time.perf_counter()
        inserted_nodes = application.net_inserted_nodes()
        inserted_candidates = BatchCandidates(inserted_nodes)
        inserted_ids = {node.id for node in inserted_nodes}
        removed_candidates = BatchCandidates(application.net_removed_nodes())
        removed_ids = {node.id for node in removed_candidates.nodes}
        report.net_inserted = len(inserted_ids)
        report.net_removed = len(removed_ids)
        report.cancelled = application.cancelled_count()
        dirty_nodes = application.dirty_removed_nodes() if removed_ids else []
        if dirty_nodes and self.sigma_repair:
            # Restore the detached subtrees' pre-batch val/cont from the
            # first-seen snapshots; only genuinely unrestorable drift
            # (caches disabled) is left to trigger a per-view fallback.
            dirty_nodes, report.dirty_restored = self._restore_dirty_snapshots(
                dirty_nodes,
                val_snapshots,
                cont_snapshots,
                val_sensitive,
                cont_sensitive,
            )
        insert_target_ids = application.insert_target_ids
        delete_target_ids = application.delete_target_ids
        report.net_effects_seconds = time.perf_counter() - started
        # Same float as the report field: trace and report stay equal.
        self.obs.tracer.record("net_effects", report.net_effects_seconds)

        # Δ+ IDs bucketed by label once (document order), and the
        # label-keyed source rows shared by every view this batch (the
        # per-view σ push-down happens on top of them).
        inserted_by_label = {
            label: [node.id for node in nodes]
            for label, nodes in inserted_candidates.by_label.items()
        }
        survivor_cache: Dict[str, KeyedRows] = {}
        pre_batch_cache: Dict[str, KeyedRows] = {}

        try:
            self._propagate_batch_to_views(
                report=report,
                application=application,
                watch=watch,
                inserted_candidates=inserted_candidates,
                inserted_ids=inserted_ids,
                inserted_by_label=inserted_by_label,
                removed_candidates=removed_candidates,
                removed_ids=removed_ids,
                dirty_nodes=dirty_nodes,
                insert_target_ids=insert_target_ids,
                delete_target_ids=delete_target_ids,
                survivor_cache=survivor_cache,
                pre_batch_cache=pre_batch_cache,
                planner=planner,
                executor=executor,
            )
        except BaseException:
            # A failure mid-propagation leaves the failing view (and
            # possibly its lattice) half-updated; restore consistency
            # before surfacing the error, as the queue contract
            # promises.
            for registered in self.views.values():
                self._recompute(registered)
            raise
        return report

    def _propagate_batch_to_views(
        self,
        *,
        report: BatchReport,
        application: BatchApplication,
        watch: Dict[str, Dict[Tuple[DeweyID, str], bool]],
        inserted_candidates: BatchCandidates,
        inserted_ids: set,
        inserted_by_label: Dict[str, List[DeweyID]],
        removed_candidates: BatchCandidates,
        removed_ids: set,
        dirty_nodes: Sequence[Node],
        insert_target_ids: Sequence[DeweyID],
        delete_target_ids: Sequence[DeweyID],
        survivor_cache: Dict[str, KeyedRows],
        pre_batch_cache: Dict[str, KeyedRows],
        planner: "ShardPlanner",
        executor: "ShardExecutor",
    ) -> None:
        """The batch's view-side round: plan, execute shards, merge.

        The round runs in stages shared by the serial and parallel
        paths (so there is exactly one propagation code body):

        1. per view, the recompute-fallback guards, then the pure work
           is cut into shard units (refresh scan, Δ− side, Δ+ side);
        2. if any view has a live Δ− side, a first shard round runs the
           refresh scans and the Δ− evaluations -- both read pre-batch
           state -- and the doomed lattice rows are dropped;
        3. a second round (the only one for insert-only batches) runs
           the Δ+ evaluations and snowcap additions over survivor
           relations;
        4. fragments are merged deterministically and applied: one
           store pass and one lattice extend per view.

        Mutation happens only between rounds, on the owning process;
        units are pure, which is what makes the fan-out exact.
        """
        serial = not executor.parallel
        report.workers = executor.workers if executor.parallel else 0
        tracer = self.obs.tracer

        contexts: List[_ViewRound] = []
        fallback_views: List[RegisteredView] = []
        for name, registered in self.views.items():
            view_report = ViewReport(name)
            view_report.targets = len(insert_target_ids) + len(delete_target_ids)
            _credit(
                tracer, view_report.phases, "find_target_nodes",
                application.find_targets_seconds, name,
            )
            report.view_reports[name] = view_report
            pattern = registered.pattern

            flips = (
                self._batch_flips(watch[name], inserted_ids) if watch[name] else {}
            )
            reason = None
            candidates = 0
            if dirty_nodes:
                candidates = self._dirty_affects(pattern, dirty_nodes)
                if candidates:
                    reason = "dirty_removed_subtree"
            if reason is None and flips and not self.sigma_repair:
                reason = "predicate_flip"
                candidates = len(flips)
            if reason is not None:
                view_report.predicate_fallback = True
                report.fallbacks[name] = {
                    "reason": reason,
                    "candidates": candidates,
                }
                fallback_views.append(registered)
                continue
            view_report.delta_sizes = {
                node_name: 0 for node_name in pattern.node_names()
            }
            ctx = _ViewRound(name, registered, view_report)
            if flips:
                minus_sets, plus_sets = match_flips_to_pattern(pattern, flips)
                if minus_sets or plus_sets:
                    ctx.flips = flips
                    ctx.minus_sets = minus_sets
                    ctx.plus_sets = plus_sets
                    report.repairs[name] = {"sigma_flips": len(flips)}
            contexts.append(ctx)
        if fallback_views:
            self._recompute_views(
                fallback_views, planner=planner, executor=executor, report=report
            )
        if not contexts:
            return

        # -- plan: cut per-view work into shard units ------------------
        backend = shard_backend()
        refresh_units: List[RefreshUnit] = []
        minus_units: List[DeleteSideUnit] = []
        plus_units: List[InsertSideUnit] = []
        repair_units: List["SigmaRepairUnit"] = []
        by_name = {ctx.name: ctx for ctx in contexts}
        any_targets = bool(insert_target_ids or delete_target_ids)
        for ctx in contexts:
            pattern = ctx.registered.pattern
            if any_targets and pattern.content_nodes():
                refresh_units.append(
                    backend.RefreshUnit(
                        ctx.name,
                        planner.anchor_shard(()),
                        view=ctx.registered.view,
                        document=self.document,
                        insert_target_ids=insert_target_ids,
                        delete_target_ids=delete_target_ids,
                    )
                )
            minus_labels = planner.touched_labels(pattern, removed_candidates)
            if minus_labels:
                estimate = sum(
                    len(removed_candidates.by_label.get(label, ()))
                    for label in minus_labels
                )
                minus_units.append(
                    backend.DeleteSideUnit(
                        ctx.name,
                        planner.anchor_shard(minus_labels),
                        minus_labels,
                        estimate,
                        engine=self,
                        registered=ctx.registered,
                        removed_candidates=removed_candidates,
                        inserted_ids=inserted_ids,
                        inserted_by_label=inserted_by_label,
                        source_cache=pre_batch_cache,
                        flips=set(ctx.flips) if ctx.flips else None,
                    )
                )
                ctx.has_minus_unit = True
            plus_labels = planner.touched_labels(pattern, inserted_candidates)
            if plus_labels:
                estimate = sum(
                    len(inserted_candidates.by_label.get(label, ()))
                    for label in plus_labels
                )
                plus_units.append(
                    backend.InsertSideUnit(
                        ctx.name,
                        planner.anchor_shard(plus_labels),
                        plus_labels,
                        estimate,
                        engine=self,
                        registered=ctx.registered,
                        inserted_candidates=inserted_candidates,
                        inserted_ids=inserted_ids,
                        inserted_by_label=inserted_by_label,
                        insert_target_ids=insert_target_ids,
                        source_cache=survivor_cache,
                    )
                )
                ctx.has_plus_unit = True
            if ctx.minus_sets or ctx.plus_sets:
                flip_nodes = [
                    node
                    for sets in (ctx.minus_sets, ctx.plus_sets)
                    for nodes in sets.values()
                    for node in nodes
                ]
                flip_labels = sorted({node.label for node in flip_nodes})
                repair_units.append(
                    backend.SigmaRepairUnit(
                        ctx.name,
                        planner.anchor_shard(flip_labels),
                        flip_labels,
                        len(flip_nodes),
                        engine=self,
                        registered=ctx.registered,
                        minus_sets=ctx.minus_sets,
                        plus_sets=ctx.plus_sets,
                        inserted_ids=inserted_ids,
                        inserted_by_label=inserted_by_label,
                        source_cache=survivor_cache,
                    )
                )
                ctx.has_repair_unit = True
        if executor.parallel:
            self._prewarm_value_index(contexts)
            # Fill the shared per-label source rows in the parent so
            # every worker inherits them read-only (fork: copy-on-write
            # pages; thread: plain reads).  Without this each child
            # would re-filter the touched canonical relations -- once
            # per view per worker -- and the threaded fallback would
            # race on the shared cache dicts.
            if minus_units:
                for ctx in contexts:
                    if ctx.has_minus_unit:
                        with _PhaseTimer(
                            tracer, ctx.report.phases, "execute_update", ctx.name
                        ):
                            self._sources_pre_batch(
                                ctx.registered.pattern,
                                inserted_ids,
                                inserted_by_label,
                                removed_candidates,
                                pre_batch_cache,
                                flips=set(ctx.flips) if ctx.flips else None,
                            )
            if plus_units or repair_units:
                for ctx in contexts:
                    if ctx.has_plus_unit or ctx.has_repair_unit:
                        with _PhaseTimer(
                            tracer, ctx.report.phases, "execute_update", ctx.name
                        ):
                            self._sources_excluding(
                                ctx.registered.pattern,
                                inserted_ids,
                                cache=survivor_cache,
                                excluded_by_label=inserted_by_label,
                            )

        # -- execute: one round when the batch is insert-only, two when
        # a Δ− side must read the lattice before its doomed rows drop --
        two_rounds = bool(minus_units)
        if two_rounds:
            result = executor.run(planner.order_units(refresh_units + minus_units))
            self._absorb_round(report, result, serial)
            self._apply_round_fragments(result, by_name, serial, report)
            for ctx in contexts:
                if ctx.minus_live:
                    with _PhaseTimer(
                        tracer, ctx.report.phases, "update_lattice", ctx.name
                    ):
                        ctx.registered.lattice.apply_batch(removed_ids, {})
            round2_units = planner.order_units(plus_units + repair_units)
        else:
            round2_units = planner.order_units(
                refresh_units + plus_units + repair_units
            )
        # σ-flip lattice upkeep sits between the rounds: the Δ− units
        # must read the *pre-batch* lattice (their R-part seeds), while
        # the Δ+ units' ET-INS and snowcap recurrences seed from the
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
                r_sources = self._sources_excluding(
                    ctx.registered.pattern,
                    inserted_ids,
                    cache=survivor_cache,
                    excluded_by_label=inserted_by_label,
                )
                drops, flip_additions = flip_lattice_repair(
                    ctx.registered.pattern,
                    lattice,
                    ctx.minus_sets,
                    ctx.plus_sets,
                    r_sources,
                )
                dropped = lattice.apply_flip_repair(drops, flip_additions)
                entry = report.repairs.setdefault(ctx.name, {})
                entry["lattice_dropped"] = dropped
                entry["lattice_added"] = sum(
                    len(relation.rows) for relation in flip_additions.values()
                )
        # Snowcap rows are shipped as ID tuples only when the round will
        # really cross a process boundary; single-unit rounds run inline
        # (and thread rounds share memory), where the conversion plus
        # owner-side re-resolution would be pure overhead.
        crosses_process = executor.mode == "fork" and len(round2_units) >= 2
        for unit in round2_units:
            if unit.kind == "plus":
                unit.ship_ids = crosses_process
        result = executor.run(round2_units)
        self._absorb_round(report, result, serial)
        self._apply_round_fragments(result, by_name, serial, report)

        # -- merge + apply: one store pass and one lattice extend ------
        for ctx in contexts:
            if ctx.embedding_fragments:
                ctx.removals = backend.merge_embedding_fragments(
                    ctx.embedding_fragments
                )
            if ctx.addition_fragments:
                ctx.additions = backend.merge_addition_fragments(
                    ctx.addition_fragments
                )
            if report.view_deltas is not None:
                deltas = report.view_deltas.setdefault(ctx.name, {})
                deltas["additions"] = ctx.additions
                deltas["removals"] = ctx.removals
            with _PhaseTimer(tracer, ctx.report.phases, "execute_update", ctx.name):
                added, tuples_removed, derivations_removed = (
                    ctx.registered.view.apply_batch_delta(ctx.additions, ctx.removals)
                )
            ctx.report.derivations_added = added
            ctx.report.tuples_removed = tuples_removed
            ctx.report.derivations_removed = derivations_removed
            if ctx.snowcap:
                with _PhaseTimer(
                    tracer, ctx.report.phases, "update_lattice", ctx.name
                ):
                    lattice_additions = backend.resolve_snowcap_fragment(
                        ctx.snowcap, self.document
                    )
                    if lattice_additions:
                        ctx.registered.lattice.apply_batch(set(), lattice_additions)

    def _apply_round_fragments(
        self,
        result: "RoundResult",
        by_name: Dict[str, "_ViewRound"],
        serial: bool,
        report: BatchReport,
    ) -> None:
        """Merge one round's fragments into the per-view contexts."""
        backend = shard_backend()
        tracer = self.obs.tracer
        for unit, fragment, seconds in zip(
            result.units, result.fragments, result.unit_seconds
        ):
            ctx = by_name[unit.view_name]
            if unit.kind == "refresh":
                if report.view_deltas is not None:
                    report.view_deltas.setdefault(ctx.name, {})["refresh"] = fragment
                started = time.perf_counter()
                ctx.report.tuples_modified = apply_attribute_refreshes(
                    ctx.registered.view, fragment
                )
                applied = time.perf_counter() - started
                _credit(
                    tracer,
                    ctx.report.phases,
                    "execute_update",
                    applied + (seconds if serial else 0.0),
                    ctx.name,
                )
                continue
            if unit.kind == "minus":
                embeddings, stats = fragment
                ctx.minus_live = stats.live
                if embeddings:
                    ctx.embedding_fragments.append(embeddings)
            elif unit.kind == "repair":
                evictions, admissions, stats = fragment
                if evictions:
                    # Disjoint from the Δ− embeddings by construction
                    # (evict sources hold only survivors), so the final
                    # union never collapses a genuine removal.
                    ctx.embedding_fragments.append(evictions)
                if admissions:
                    ctx.addition_fragments.append(admissions)
                entry = report.repairs.setdefault(ctx.name, {})
                entry["evicted"] = entry.get("evicted", 0) + len(evictions)
                entry["admitted"] = entry.get("admitted", 0) + sum(
                    admissions.values()
                )
            else:
                additions, snowcap_rows, stats = fragment
                if additions:
                    ctx.addition_fragments.append(additions)
                ctx.snowcap = snowcap_rows
            self._absorb_unit_stats(ctx.report, stats, seconds, serial)

    def _absorb_unit_stats(
        self, view_report: ViewReport, stats: "UnitStats", seconds: float, serial: bool
    ) -> None:
        """Fold a unit's counters (and, serially, its time) into the report.

        In parallel mode per-unit compute happens on workers whose wall
        time is already counted once at report level
        (``BatchReport.shard_seconds``); adding it to per-view phases
        too would double-count, so only the counters are absorbed.
        """
        for node_name, size in stats.delta_sizes.items():
            view_report.delta_sizes[node_name] = (
                view_report.delta_sizes.get(node_name, 0) + size
            )
        view_report.terms_developed += stats.terms_developed
        view_report.terms_surviving += stats.terms_surviving
        view_report.term_eval_seconds += stats.eval_seconds
        if serial:
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

    def _absorb_round(
        self, report: BatchReport, result: "RoundResult", serial: bool
    ) -> None:
        if not result.units:
            return
        report.shard_rounds.append(result.describe())
        if not serial:
            report.shard_seconds += result.wall_seconds
            # Same float as the shard_seconds increment; worker-side
            # span trees (shipped as picklable fragments) are stitched
            # back under the round span in unit order.
            span = self.obs.tracer.record(
                "shard_round",
                result.wall_seconds,
                mode=result.mode,
                units=len(result.units),
            )
            fragments = getattr(result, "span_fragments", None)
            if fragments and any(fragments):
                self.obs.tracer.adopt(
                    span, shard_backend().merge_span_fragments(fragments)
                )

    def _prewarm_value_index(self, contexts: Sequence["_ViewRound"]) -> None:
        """Flush value-index dirty sets before fanning out.

        Worker processes inherit state by fork, so a lazy re-bucketing
        would otherwise be repeated in every child (and would race in
        the thread fallback); one parent-side lookup per σ predicate
        makes the subsequent unit-side lookups read-only.
        """
        seen = set()
        for ctx in contexts:
            for node in ctx.registered.pattern.nodes():
                if node.value_pred is None:
                    continue
                key = (node.label, node.value_pred)
                if key in seen:
                    continue
                seen.add(key)
                self.document.nodes_with_value(node.label, node.value_pred)

    def _dirty_affects(self, pattern: Pattern, dirty_nodes: Sequence[Node]) -> int:
        """How many drifted removed nodes reach this view's values?

        Drift matters only through value semantics: a σ-constant filter
        on the node's label (Δ− filtering and R_old reconstruction read
        the detached value) or a stored ``val``/``cont`` attribute (the
        removal tuple's projection must match what the extent holds).
        Views that bind the label by ID alone are exact regardless --
        structural joins never read values.  With snapshot repair
        active the caller passes only the *unrestorable* drifted nodes,
        so the returned count is per-candidate: it sizes the structured
        fallback entry and is zero exactly when no fallback is needed.
        """
        sensitive = [
            node
            for node in pattern.nodes()
            if node.value_pred is not None or node.store_val or node.store_cont
        ]
        if not sensitive:
            return 0
        count = 0
        for dirty in dirty_nodes:
            for node in sensitive:
                if node.label == "*":
                    if dirty.kind == "element":
                        count += 1
                        break
                elif node.matches_label(dirty.label):
                    count += 1
                    break
        return count

    def _restore_dirty_snapshots(
        self,
        dirty_nodes: Sequence[Node],
        val_snapshots: Dict[DeweyID, Optional[str]],
        cont_snapshots: Dict[DeweyID, Optional[str]],
        val_sensitive: set,
        cont_sensitive: set,
    ) -> Tuple[List[Node], int]:
        """Restore pre-batch val/cont onto drifted detached subtrees.

        Every val/cont change puts the node on a ``before_apply``
        chain, so a sensitive-labeled dirty node with *no* snapshot
        provably never drifted -- it is clean.  A node whose snapshot
        equals its current (detached) value is clean too.  Genuine
        drift is repaired by installing the snapshot into the hot-path
        memo caches, which every downstream reader (Δ− σ-filtering,
        R_old reconstruction, removal projection) consults; with the
        caches disabled there is nowhere to park the snapshot, and the
        node stays on the unrepaired list for the per-view fallback
        guard.  Returns ``(unrepaired nodes, snapshots restored)``.
        """
        caches_on = hot_path_caches_enabled()
        unrepaired: List[Node] = []
        restored = 0
        for node in dirty_nodes:
            is_element = node.kind == "element"
            broken = False
            repaired = False
            if node.label in val_sensitive or (
                "*" in val_sensitive and is_element
            ):
                snapshot = val_snapshots.get(node.id, _MISSING)
                if snapshot is not _MISSING and snapshot != node.val:
                    if caches_on and is_element:
                        node._val_cache = snapshot
                        repaired = True
                    else:
                        broken = True
            if not broken and (
                node.label in cont_sensitive
                or ("*" in cont_sensitive and is_element)
            ):
                snapshot = cont_snapshots.get(node.id, _MISSING)
                if snapshot is not _MISSING and snapshot != node.cont:
                    if caches_on and is_element:
                        node._cont_cache = snapshot
                        repaired = True
                    else:
                        broken = True
            if broken:
                unrepaired.append(node)
            elif repaired:
                restored += 1
        return unrepaired, restored

    def _batch_flips(
        self,
        watch: Dict[Tuple[DeweyID, str], bool],
        inserted_ids: set,
    ) -> Dict[Tuple[DeweyID, str], Tuple[Node, bool]]:
        """Surviving pre-existing σ candidates that flipped this batch.

        Maps ``(node ID, constant)`` to ``(live node, satisfied now)``.
        Batch-inserted survivors are skipped (the Δ+ side σ-filters
        them against final values) and removed candidates are skipped
        (the Δ− side reads their detached values, which the dirty-
        subtree machinery certifies as pre-batch).
        """
        flips: Dict[Tuple[DeweyID, str], Tuple[Node, bool]] = {}
        for (node_id, constant), satisfied in watch.items():
            if node_id in inserted_ids:
                continue
            node = self.document.node_by_id(node_id)
            if node is None:
                continue
            now = node.val == constant
            if now != satisfied:
                flips[(node_id, constant)] = (node, now)
        return flips

    def _sources_pre_batch(
        self,
        pattern: Pattern,
        inserted_ids: set,
        inserted_by_label: Dict[str, List[DeweyID]],
        removed_candidates: BatchCandidates,
        cache: Optional[Dict[str, KeyedRows]] = None,
        flips: Optional[set] = None,
    ) -> Sources:
        """Reconstructed pre-batch σ-filtered canonical relations.

        ``R_old`` per label = live survivors (current relation minus
        batch inserts) plus the net-removed nodes, which -- detached
        with their subtrees intact and certified clean (or snapshot-
        restored) by the dirty machinery -- still expose their
        pre-batch ``val``/``cont``.

        ``flips`` holds the batch's ``(node ID, constant)`` σ-flip keys
        for the calling view: a surviving candidate's *pre-batch*
        membership in a σ relation is its current test XOR-ed with flip
        membership, and a flipped label must skip the untouched-label
        fast path (its value-index rows reflect post-flip membership
        even though the batch inserted/removed no node of the label).

        Labels the batch never touched reference the live relation (or
        the value index) directly; touched labels build their merged
        base row once per batch in ``cache`` and σ-filter per view on
        top.  Term evaluation never mutates its sources, so shared
        lists are safe.
        """
        if cache is None:
            cache = {}
        flip_labels: set = (
            {node_id.label for node_id, _constant in flips} if flips else set()
        )
        sources: Sources = {}
        for node in pattern.nodes():
            label = node.label
            sigma_flipped = (
                node.value_pred is not None and flips and (
                    label == "*" or label in flip_labels
                )
            )
            if (
                label != "*"
                and label not in inserted_by_label
                and label not in removed_candidates.by_label
                and not sigma_flipped
            ):
                # Untouched label: R_old == R_new.
                if node.value_pred is not None:
                    sources[node.name] = self.document.keyed_value(
                        label, node.value_pred
                    )
                else:
                    sources[node.name] = self.document.keyed_label(label)
                continue
            base = cache.get(label)
            if base is None:
                if label == "*":
                    elements = [
                        candidate
                        for candidate in self.document.all_elements()
                        if candidate.id not in inserted_ids
                    ]
                    elements.extend(
                        candidate
                        for candidate in removed_candidates.nodes
                        if candidate.kind == "element"
                    )
                    elements.sort(key=lambda n: n.id.sort_key)
                    base = KeyedRows.of(elements)
                else:
                    # Δ+ cut out of / Δ− merged into the live relation
                    # at bisected positions: O(|Δ_label| log |R_label|)
                    # plus C-level slice copies.
                    base = self.document.keyed_label(label).spliced(
                        [i.sort_key for i in inserted_by_label.get(label, ())],
                        removed_candidates.by_label.get(label, ()),
                    )
                cache[label] = base
            constant = node.value_pred
            if constant is None:
                rows = base
            elif sigma_flipped:
                # Removed candidates are never flip keys (flips track
                # only live survivors), so their XOR term is False and
                # the test reads their detached pre-batch value as-is.
                rows = base.select(
                    [(n.val == constant) != ((n.id, constant) in flips) for n in base]
                )
            else:
                rows = base.select([n.val == constant for n in base])
            sources[node.name] = rows
        return sources

    def _sources_flip_pre(
        self,
        pattern: Pattern,
        inserted_ids: set,
        inserted_by_label: Dict[str, List[DeweyID]],
        cache: Optional[Dict[str, KeyedRows]],
        minus_sets: Dict[str, List[Node]],
        plus_sets: Dict[str, List[Node]],
    ) -> Sources:
        """Survivor relations at *pre-batch* σ membership, per flip.

        The evict side of a σ-flip repair reproduces embeddings the
        extent stored before the batch, so its sources are the current
        survivor relations with each flipped σ node's relation rolled
        back: flipped-true candidates (present now, absent then)
        dropped, flipped-false candidates (absent now, present then)
        restored.  Net-removed nodes stay excluded -- embeddings
        binding them are the Δ− side's job, which keeps the two
        doomed-embedding sets disjoint.
        """
        sources = self._sources_excluding(
            pattern, inserted_ids, cache=cache, excluded_by_label=inserted_by_label
        )
        for name in sorted(set(minus_sets) | set(plus_sets)):
            rows = sources.get(name)
            if rows is None:
                continue
            sources[name] = rows.spliced(
                [node.id.sort_key for node in plus_sets.get(name, ())],
                sorted(minus_sets.get(name, ()), key=lambda n: n.id.sort_key),
            )
        return sources

    # -- helpers -----------------------------------------------------------------

    def _recompute(self, registered: RegisteredView) -> None:
        """Whole-view fallback: rebuild extent and lattice in-process."""
        fresh = MaterializedView.materialize(
            registered.pattern, self.document, name=registered.name
        )
        # Content-level reload: the registered view keeps its store
        # object (and, with a durable backend, its table binding).
        registered.view.reload_content(fresh.content())
        registered.lattice.materialize(self.document)

    def _recompute_views(
        self,
        registered_views: Sequence[RegisteredView],
        planner=None,
        executor=None,
        report: Optional[BatchReport] = None,
    ) -> None:
        """Rebuild fallback views, as shard work when a pool is up.

        Materialization is pure (evaluate extent pairs, evaluate
        snowcap relations), so true fallbacks need not serialize on the
        owner: each view becomes an extent unit plus -- when snowcaps
        are materialized -- a lattice unit, executed through the same
        executor as the batch rounds and installed from the returned
        fragments.  With no parallel executor (or a single unit) the
        plain in-process rebuild is cheaper and byte-identical.
        """
        if not registered_views:
            return
        units: List = []
        parallel = executor is not None and executor.parallel
        if parallel and planner is not None:
            backend = shard_backend()
            for registered in registered_views:
                pattern = registered.pattern
                labels = sorted(
                    {
                        node.label
                        for node in pattern.nodes()
                        if node.label != "*"
                    }
                )
                shard = planner.anchor_shard(labels)
                units.append(
                    backend.ExtentRecomputeUnit(
                        registered.name,
                        shard,
                        pattern=pattern,
                        document=self.document,
                        estimate=max(len(registered.view), 1),
                    )
                )
                if registered.lattice.selected:
                    units.append(
                        backend.LatticeRecomputeUnit(
                            registered.name,
                            shard,
                            pattern=pattern,
                            document=self.document,
                            selected=registered.lattice.selected,
                            estimate=max(registered.lattice.stored_tuples(), 1),
                        )
                    )
        if len(units) < 2:
            for registered in registered_views:
                started = time.perf_counter()
                self._recompute(registered)
                if report is not None and registered.name in report.view_reports:
                    _credit(
                        self.obs.tracer,
                        report.view_reports[registered.name].phases,
                        "execute_update",
                        time.perf_counter() - started,
                        registered.name,
                    )
            return
        backend = shard_backend()
        by_name = {registered.name: registered for registered in registered_views}
        result = executor.run(planner.order_units(units))
        if report is not None:
            self._absorb_round(report, result, serial=False)
        for unit, fragment in zip(result.units, result.fragments):
            registered = by_name[unit.view_name]
            if unit.kind == "recompute_extent":
                pairs, _stats = fragment
                registered.view.reload_content(pairs)
            else:
                rows, _stats = fragment
                relations = backend.resolve_snowcap_fragment(rows, self.document)
                for subset, relation in relations.items():
                    registered.lattice.load_materialized(subset, relation)


# Dependency inversion for crash recovery: ``repro.storage`` sits below
# this layer and cannot import it, so the engine class registers itself
# as the factory ``repro.storage.recovery.reopen`` instantiates.
register_engine_factory(MaintenanceEngine)
