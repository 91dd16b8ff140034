"""Per-shard work units of one batch maintenance round.

A unit is the pure slice of one view's propagation work for one side of
the batch Δ: it reads engine state (document, canonical relations,
lattice, candidate buckets) that every worker shares -- by copy-on-write
fork locally, by construction in a serial run -- and returns a
**fragment**: a picklable value (plain tuples, ints, strings,
:class:`~repro.xmldom.dewey.DeweyID`) that crosses the process boundary
and is merged deterministically by :mod:`repro.sharding.merge`.

Three unit kinds cover the round:

* :class:`RefreshUnit` -- the PIMT/PDMT extent scan; fragment: the
  ``(old row, new row)`` rewrite pairs.
* :class:`DeleteSideUnit` -- Δ− extraction, term development and
  ET-DEL evaluation against reconstructed pre-batch relations;
  fragment: the doomed-embedding map ``{binding ID key: projected
  row}``.
* :class:`InsertSideUnit` -- Δ+ extraction, term development, ET-INS
  evaluation over survivor relations, plus the snowcap-addition rows
  (shipped as ID tuples and re-resolved to live nodes by the owner);
  fragment: ``(additions, snowcap id-rows)``.

Two more kinds serve the σ-flip repair and fallback paths:

* :class:`SigmaRepairUnit` -- the flip repair Δ± of one view: evict
  embeddings rooted at flipped-false candidates (pre-batch-membership
  survivor relations) and admit flipped-true ones (current-membership
  relations); fragment: ``(evictions, admissions)``.
* :class:`ExtentRecomputeUnit` / :class:`LatticeRecomputeUnit` -- when
  a true fallback fires, full materialization is itself pure work:
  these evaluate one view's extent rows resp. snowcap relations and
  ship them back (extent rows directly, lattice rows as ID tuples), so
  even recomputation fans out instead of serializing on the owner.

One kind serves the session's view-migration protocol:

* :class:`ViewSnapshotUnit` -- reads one registered view's *stored*
  extent pairs and materialized snowcap rows (no re-evaluation) into
  the same picklable shape the recompute units produce, so a migrating
  view can be shipped from its source replica and installed on the
  target via :func:`repro.sharding.merge.install_view_snapshot` when
  that is cheaper than rematerializing there.

Mutation of views, stores and lattices never happens here -- fragments
are applied by the engine on the owning process, which is what keeps
sharded extents byte-identical to the serial path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.maintenance.delete import (
    collect_delete_embeddings,
    removals_from_embeddings,
    surviving_delete_terms,
)
from repro.maintenance.delta import BatchCandidates, delta_from_candidates
from repro.maintenance.insert import (
    collect_attribute_refreshes,
    collect_insert_additions,
    snowcap_additions,
    surviving_insert_terms,
)
from repro.maintenance.repair import collect_flip_embeddings
from repro.pattern.evaluate import evaluate_bindings, evaluate_view
from repro.views.view import row_sort_key


class UnitStats:
    """Sub-timings and counters one unit reports back (picklable)."""

    __slots__ = (
        "live",
        "delta_sizes",
        "terms_developed",
        "terms_surviving",
        "delta_seconds",
        "develop_seconds",
        "eval_seconds",
        "snowcap_seconds",
    )

    def __init__(self) -> None:
        self.live = False
        self.delta_sizes: Dict[str, int] = {}
        self.terms_developed = 0
        self.terms_surviving = 0
        self.delta_seconds = 0.0
        self.develop_seconds = 0.0
        self.eval_seconds = 0.0
        self.snowcap_seconds = 0.0


class ShardWorkUnit:
    """Base: a schedulable, independently executable slice of work."""

    kind = "unit"

    def __init__(self, view_name: str, shard: int, labels: Sequence[str], estimate: int):
        self.view_name = view_name
        self.shard = shard
        self.labels = list(labels)
        #: rough work size used for LPT ordering (candidate rows, extent rows).
        self.estimate = estimate

    def execute(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(%s, shard=%d, est=%d)" % (
            type(self).__name__,
            self.view_name,
            self.shard,
            self.estimate,
        )


class RefreshUnit(ShardWorkUnit):
    """Collect the merged PIMT/PDMT val/cont rewrite pairs of one view."""

    kind = "refresh"

    def __init__(
        self,
        view_name: str,
        shard: int,
        *,
        view,
        document,
        insert_target_ids,
        delete_target_ids,
    ):
        super().__init__(view_name, shard, (), estimate=len(view))
        self.view = view
        self.document = document
        self.insert_target_ids = insert_target_ids
        self.delete_target_ids = delete_target_ids

    def execute(self) -> List[Tuple[tuple, tuple]]:
        return collect_attribute_refreshes(
            self.view, self.document, self.insert_target_ids, self.delete_target_ids
        )


class DeleteSideUnit(ShardWorkUnit):
    """Δ− extraction + ET-DEL for one view (pre-batch relations)."""

    kind = "minus"

    def __init__(
        self,
        view_name: str,
        shard: int,
        labels: Sequence[str],
        estimate: int,
        *,
        engine,
        registered,
        removed_candidates: BatchCandidates,
        inserted_ids: set,
        inserted_by_label: Dict[str, list],
        source_cache: Optional[dict],
        flips: Optional[set] = None,
    ):
        super().__init__(view_name, shard, labels, estimate)
        self.engine = engine
        self.registered = registered
        self.removed_candidates = removed_candidates
        self.inserted_ids = inserted_ids
        self.inserted_by_label = inserted_by_label
        self.source_cache = source_cache
        #: ``(node ID, constant)`` keys of σ flips in this batch; the
        #: pre-batch relation reconstruction XOR-corrects against them.
        self.flips = flips

    def execute(self) -> Tuple[Dict[tuple, tuple], UnitStats]:
        stats = UnitStats()
        pattern = self.registered.pattern
        started = time.perf_counter()
        delta_minus = delta_from_candidates(pattern, self.removed_candidates, "-")
        stats.delta_seconds = time.perf_counter() - started
        stats.delta_sizes = {
            name: len(delta_minus.nodes(name)) for name in pattern.node_names()
        }
        if not delta_minus.nonempty_names():
            return {}, stats
        stats.live = True
        started = time.perf_counter()
        terms, developed = surviving_delete_terms(
            pattern,
            delta_minus,
            self.engine.prune_even_terms,
            self.engine.use_data_pruning,
            self.engine.use_id_pruning,
        )
        stats.develop_seconds = time.perf_counter() - started
        stats.terms_developed = developed
        stats.terms_surviving = len(terms)
        old_sources = self.engine._sources_pre_batch(
            pattern,
            self.inserted_ids,
            self.inserted_by_label,
            self.removed_candidates,
            self.source_cache,
            flips=self.flips,
        )
        embeddings, stats.eval_seconds = collect_delete_embeddings(
            pattern, terms, old_sources, delta_minus, self.registered.lattice
        )
        return embeddings, stats


class InsertSideUnit(ShardWorkUnit):
    """Δ+ extraction + ET-INS + snowcap additions for one view."""

    kind = "plus"

    def __init__(
        self,
        view_name: str,
        shard: int,
        labels: Sequence[str],
        estimate: int,
        *,
        engine,
        registered,
        inserted_candidates: BatchCandidates,
        inserted_ids: set,
        inserted_by_label: Dict[str, list],
        insert_target_ids,
        source_cache: Optional[dict],
        ship_ids: bool = True,
    ):
        super().__init__(view_name, shard, labels, estimate)
        self.engine = engine
        self.registered = registered
        self.inserted_candidates = inserted_candidates
        self.inserted_ids = inserted_ids
        self.inserted_by_label = inserted_by_label
        self.insert_target_ids = insert_target_ids
        self.source_cache = source_cache
        #: True when the fragment crosses a process boundary: binding
        #: rows are then shipped as ID tuples (nodes would drag the
        #: whole tree through pickle) and re-resolved by the owner.
        #: In-process execution hands the relations over directly.
        self.ship_ids = ship_ids

    def execute(self) -> Tuple[Dict[tuple, int], Optional[dict], UnitStats]:
        stats = UnitStats()
        pattern = self.registered.pattern
        started = time.perf_counter()
        delta_plus = delta_from_candidates(pattern, self.inserted_candidates, "+")
        stats.delta_seconds = time.perf_counter() - started
        stats.delta_sizes = {
            name: len(delta_plus.nodes(name)) for name in pattern.node_names()
        }
        if not delta_plus.nonempty_names():
            return {}, None, stats
        stats.live = True
        started = time.perf_counter()
        terms, developed = surviving_insert_terms(
            pattern,
            delta_plus,
            self.insert_target_ids,
            self.engine.use_data_pruning,
            self.engine.use_id_pruning,
        )
        stats.develop_seconds = time.perf_counter() - started
        stats.terms_developed = developed
        stats.terms_surviving = len(terms)
        r_sources = self.engine._sources_excluding(
            pattern,
            self.inserted_ids,
            cache=self.source_cache,
            excluded_by_label=self.inserted_by_label,
        )
        additions, stats.eval_seconds = collect_insert_additions(
            pattern, terms, r_sources, delta_plus, self.registered.lattice
        )
        snowcap_rows: Optional[dict] = None
        lattice = self.registered.lattice
        if lattice.materialized_sets():
            started = time.perf_counter()
            relations = snowcap_additions(
                pattern,
                lattice,
                r_sources,
                delta_plus,
                self.insert_target_ids,
                self.engine.use_data_pruning,
                self.engine.use_id_pruning,
            )
            if self.ship_ids:
                snowcap_rows = {
                    subset: (
                        relation.schema,
                        [tuple(cell.id for cell in row) for row in relation.rows],
                    )
                    for subset, relation in relations.items()
                }
            else:
                snowcap_rows = relations
            stats.snowcap_seconds = time.perf_counter() - started
        return additions, snowcap_rows, stats


class SigmaRepairUnit(ShardWorkUnit):
    """σ-flip repair Δ± for one view: evict + admit embeddings.

    The evict side reads *pre-batch membership* survivor relations
    (flipped-true candidates removed, flipped-false restored) so the
    repair terms reproduce exactly the stored embeddings of the
    flipped-false candidates; the admit side reads current-membership
    survivor relations and projects with live vals, so admitted rows
    match a fresh evaluation byte for byte.  Fragment:
    ``(evictions, admissions)`` -- an embedding map keyed by binding
    IDs (merged with the batch Δ− fragments) and a counted row dict
    (merged with the batch Δ+ fragments).
    """

    kind = "repair"

    def __init__(
        self,
        view_name: str,
        shard: int,
        labels: Sequence[str],
        estimate: int,
        *,
        engine,
        registered,
        minus_sets: Dict[str, list],
        plus_sets: Dict[str, list],
        inserted_ids: set,
        inserted_by_label: Dict[str, list],
        source_cache: Optional[dict],
    ):
        super().__init__(view_name, shard, labels, estimate)
        self.engine = engine
        self.registered = registered
        self.minus_sets = minus_sets
        self.plus_sets = plus_sets
        self.inserted_ids = inserted_ids
        self.inserted_by_label = inserted_by_label
        self.source_cache = source_cache

    def execute(self) -> Tuple[Dict[tuple, tuple], Dict[tuple, int], UnitStats]:
        stats = UnitStats()
        stats.live = True
        pattern = self.registered.pattern
        stats.delta_sizes = {
            name: len(nodes)
            for sets in (self.minus_sets, self.plus_sets)
            for name, nodes in sets.items()
        }
        evictions: Dict[tuple, tuple] = {}
        if self.minus_sets:
            pre_sources = self.engine._sources_flip_pre(
                pattern,
                self.inserted_ids,
                self.inserted_by_label,
                self.source_cache,
                self.minus_sets,
                self.plus_sets,
            )
            evictions, seconds = collect_flip_embeddings(
                pattern, self.minus_sets, pre_sources, "-"
            )
            stats.eval_seconds += seconds
        admissions: Dict[tuple, int] = {}
        if self.plus_sets:
            r_sources = self.engine._sources_excluding(
                pattern,
                self.inserted_ids,
                cache=self.source_cache,
                excluded_by_label=self.inserted_by_label,
            )
            embeddings, seconds = collect_flip_embeddings(
                pattern, self.plus_sets, r_sources, "+"
            )
            stats.eval_seconds += seconds
            admissions = removals_from_embeddings(embeddings)
        return evictions, admissions, stats


class ExtentRecomputeUnit(ShardWorkUnit):
    """Full extent materialization of one view, run as shard work.

    A true fallback (e.g. an unrepairable dirty subtree) still has to
    re-evaluate the view, but the evaluation itself is pure: this unit
    ships the sorted ``(row, count)`` pairs back to the owner, which
    installs them via :meth:`MaterializedView.from_pairs` -- so several
    falling-back views rematerialize in parallel instead of
    serializing on the owning process.
    """

    kind = "recompute_extent"

    def __init__(self, view_name: str, shard: int, *, pattern, document, estimate: int):
        super().__init__(view_name, shard, (), estimate)
        self.pattern = pattern
        self.document = document

    def execute(self) -> Tuple[List[Tuple[tuple, int]], UnitStats]:
        stats = UnitStats()
        stats.live = True
        started = time.perf_counter()
        content = evaluate_view(self.pattern, self.document)
        stats.eval_seconds = time.perf_counter() - started
        pairs = sorted(content, key=lambda item: row_sort_key(item[0]))
        return pairs, stats


class LatticeRecomputeUnit(ShardWorkUnit):
    """Snowcap rematerialization of one view, run as shard work.

    Evaluates every selected snowcap's binding relation and ships the
    rows as ID tuples (the resolve step on the owner swaps live nodes
    back in); paired with :class:`ExtentRecomputeUnit` to cover a full
    fallback materialization.
    """

    kind = "recompute_lattice"

    def __init__(
        self,
        view_name: str,
        shard: int,
        *,
        pattern,
        document,
        selected: Sequence[frozenset],
        estimate: int,
    ):
        super().__init__(view_name, shard, (), estimate)
        self.pattern = pattern
        self.document = document
        self.selected = list(selected)

    def execute(self) -> Tuple[Dict[frozenset, tuple], UnitStats]:
        stats = UnitStats()
        stats.live = True
        started = time.perf_counter()
        fragment: Dict[frozenset, tuple] = {}
        for subset in self.selected:
            sub = self.pattern.subpattern(subset)
            relation = evaluate_bindings(sub, self.document)
            fragment[subset] = (
                relation.schema,
                [tuple(cell.id for cell in row) for row in relation.rows],
            )
        stats.eval_seconds = time.perf_counter() - started
        return fragment, stats


class ViewSnapshotUnit(ShardWorkUnit):
    """Snapshot one registered view's stored state for migration.

    Unlike the recompute units, nothing is re-evaluated: the extent
    pairs come straight out of the store and the snowcap rows out of
    the materialized relations, both already current on the source
    replica.  The payload shape matches the recompute units' fragments
    exactly -- sorted ``(row, count)`` pairs plus ``{subset: (schema,
    ID rows)}`` -- so :func:`repro.sharding.merge.install_view_snapshot`
    installs either indistinguishably.
    """

    kind = "snapshot"

    def __init__(self, view_name: str, shard: int, *, registered, estimate: int = 0):
        super().__init__(view_name, shard, (), estimate)
        self.registered = registered

    def size(self) -> int:
        """Extent tuples plus materialized lattice rows -- the shipped
        row count the migration ship-vs-recompute criterion compares
        (identical on every replica, so the decision is too)."""
        return len(self.registered.view) + self.registered.lattice.stored_tuples()

    def execute(self) -> Tuple[Dict[str, object], UnitStats]:
        stats = UnitStats()
        stats.live = True
        started = time.perf_counter()
        lattice = self.registered.lattice
        fragment = {}
        for subset in lattice.materialized_sets():
            relation = lattice.relation_for(subset)
            fragment[subset] = (
                relation.schema,
                [tuple(cell.id for cell in row) for row in relation.rows],
            )
        payload = {
            "pairs": self.registered.view.content(),
            "lattice": fragment,
        }
        stats.eval_seconds = time.perf_counter() - started
        return payload, stats
