"""The per-statement propagation pipeline, kept as a test oracle.

Until ``MaintenanceEngine.apply_update`` became a batch of one, the
engine carried the paper's per-statement algorithms as a second
pipeline beside the batch one: PINT/MT (CD+, ET-INS, PIMT, lattice
additions) after the document insert, and PDDT/MT (CD−, ET-DEL with
derivation decrements over the *old* relations, then the document
delete, PDMT and lattice cleanup).  On a σ-predicate flip it
recomputed the whole view where the batch pipeline repairs in place.

``tests/test_statement_oracle.py`` holds ``apply_update`` to this code
on extents and lattices; the batch-equivalence tests use it as their
sequential side.  The code below is the removed engine path, turned
from methods into functions of the engine.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.relation import Relation
from repro.maintenance.delete import collect_delete_embeddings, surviving_delete_terms
from repro.maintenance.delta import (
    BatchCandidates,
    DeltaTables,
    delta_from_candidates,
    doomed_nodes,
)
from repro.maintenance.engine import (
    ViewReport,
    _PhaseTimer,
    _credit,
    _watch_entries,
    aggregate_phase_seconds,
)
from repro.maintenance.insert import (
    AffectedIDs,
    collect_attribute_refreshes,
    collect_insert_additions,
    snowcap_additions,
    surviving_insert_terms,
)
from repro.maintenance.plan import ViewPlan
from repro.maintenance.terms import NodeSet, Term, self_and_ancestor_labels
from repro.pattern.evaluate import Sources
from repro.pattern.tree_pattern import Pattern
from repro.updates.language import DeleteUpdate, InsertUpdate, UpdateStatement
from repro.updates.pul import apply_pul, compute_pul
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document, Node

# -- CD+ / CD− -----------------------------------------------------------------


def insert_candidates(inserted_roots: Sequence[Node]) -> BatchCandidates:
    """Candidate set of freshly inserted subtrees (document order)."""
    nodes: List[Node] = []
    for root in inserted_roots:
        nodes.extend(root.self_and_descendants())
    return BatchCandidates(nodes)


def compute_delta_plus(pattern: Pattern, inserted_roots: Sequence[Node]) -> DeltaTables:
    """CD+ (Algorithm 2): Δ+ tables from freshly inserted subtrees.

    ``inserted_roots`` are the copies produced by *apply-insert*, so
    their nodes already carry the Dewey IDs assigned in the document.
    """
    return delta_from_candidates(
        ViewPlan(pattern), insert_candidates(inserted_roots), "+"
    )


def compute_delta_minus(pattern: Pattern, removed_nodes: Sequence[Node]) -> DeltaTables:
    """CD−: Δ− tables from the doomed node set (targets + descendants)."""
    return delta_from_candidates(ViewPlan(pattern), BatchCandidates(removed_nodes), "-")


# -- ET-INS / PIMT -------------------------------------------------------------


def et_ins(
    plan: ViewPlan,
    view: MaterializedView,
    terms: Sequence[Term],
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Tuple[int, float]:
    """Algorithm 3: evaluate terms, add results to the view.

    Returns ``(derivations added, term-evaluation seconds)``.  Tuples
    already present have their derivation count increased; new tuples
    enter with the count of their fresh derivations.
    """
    accumulated, eval_seconds = collect_insert_additions(
        plan, terms, r_sources, deltas, lattice
    )
    added = 0
    for row, count in accumulated.items():
        view.add(row, count)
        added += count
    return added, eval_seconds


def refresh_stored_attributes(
    plan: ViewPlan,
    view: MaterializedView,
    document: Document,
    insert_target_ids: Sequence[DeweyID],
    delete_target_ids: Sequence[DeweyID],
) -> int:
    """The shared PIMT/PDMT rewrite loop: collect, then rewrite each
    tuple in place, its derivations moving to the new form."""
    pairs = collect_attribute_refreshes(
        plan, view, document, AffectedIDs(insert_target_ids, delete_target_ids)
    )
    for old_row, new_row in pairs:
        count = view.count(old_row)
        view.remove(old_row)
        view.add(new_row, count)
    return len(pairs)


def pimt(
    plan: ViewPlan,
    view: MaterializedView,
    document: Document,
    target_ids: Sequence[DeweyID],
) -> int:
    """Algorithm 4: rewrite stored val/cont affected by the insertion.

    A stored node's value or content changes iff the node is the target
    of an insert or an ancestor of one -- an ID-only test (``t.n = n_i``
    or ``t.n ≺≺ n_i``).  Returns the number of rewritten tuples.
    """
    return refresh_stored_attributes(plan, view, document, target_ids, ())


# -- ET-DEL / PDDT / PDMT ------------------------------------------------------


def et_del(
    plan: ViewPlan,
    view: MaterializedView,
    terms: Sequence[Term],
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Tuple[Dict[tuple, int], float]:
    """Evaluate the deletion terms into Δ−_v.

    One doomed embedding can surface in several terms, so embeddings
    are deduplicated by their binding IDs.  Returns ``({view tuple:
    distinct doomed embeddings projecting onto it}, term-evaluation
    seconds)``.
    """
    embeddings, eval_seconds = collect_delete_embeddings(
        plan, terms, r_sources, deltas, lattice
    )
    removals: Dict[tuple, int] = {}
    for row in embeddings.values():
        removals[row] = removals.get(row, 0) + 1
    return removals, eval_seconds


def pddt_apply(
    view: MaterializedView,
    removals: Dict[tuple, int],
    clamp: bool = False,
) -> Tuple[int, int]:
    """Decrement derivation counts; drop tuples reaching zero.

    Returns ``(tuples_removed, derivations_removed)``.  With ``clamp``
    (set-semantics mode) decrements larger than the stored count are
    truncated instead of rejected.
    """
    tuples_removed = 0
    derivations_removed = 0
    for row, count in removals.items():
        if clamp:
            current = view.count(row)
            if current == 0:
                continue
            count = min(count, current)
        if view.decrement(row, count):
            tuples_removed += 1
        derivations_removed += count
    return tuples_removed, derivations_removed


def pdmt(
    plan: ViewPlan,
    view: MaterializedView,
    document: Document,
    doomed_target_ids: Sequence[DeweyID],
) -> int:
    """Algorithm PDMT: refresh val/cont of surviving tuples.

    Runs after the document delete.  A surviving stored node's value or
    content changed iff the node is a proper ancestor of a deleted
    target.  Returns the number of rewritten tuples.
    """
    return refresh_stored_attributes(plan, view, document, (), doomed_target_ids)


# -- lattice upkeep ------------------------------------------------------------


def apply_insert_additions(
    lattice: SnowcapLattice, additions: Dict[NodeSet, Relation]
) -> None:
    """Append freshly derived rows to materialized snowcaps."""
    lattice.apply_batch({}, additions)


def apply_delete(lattice: SnowcapLattice, deleted_ids: Set[DeweyID]) -> int:
    """Drop rows binding any deleted node; returns rows removed."""
    by_label: Dict[str, List[DeweyID]] = {}
    for node_id in deleted_ids:
        by_label.setdefault(node_id.label, []).append(node_id)
    return lattice.apply_batch(by_label, {})


# -- the per-statement driver --------------------------------------------------


class PropagationReport:
    """Outcome of one statement across all registered views."""

    def __init__(self, statement: UpdateStatement):
        self.statement = statement
        self.view_reports: Dict[str, ViewReport] = {}
        self.apply_document_seconds = 0.0
        self.pul_size = 0

    def report_for(self, name: str) -> ViewReport:
        return self.view_reports[name]

    def total_maintenance_seconds(self) -> float:
        return aggregate_phase_seconds(
            report.phases for report in self.view_reports.values()
        )

    def propagation_seconds(self) -> float:
        return aggregate_phase_seconds(
            (report.phases for report in self.view_reports.values()),
            exclude_find_targets=True,
        )


def _survivor_sources(engine, plan: ViewPlan, excluded_ids: set) -> Sources:
    """R − Δ+ through the engine's one source builder."""
    excluded_by_label: Dict[str, List[DeweyID]] = {}
    for node_id in excluded_ids:
        excluded_by_label.setdefault(node_id.label, []).append(node_id)
    return engine._sources(plan, excluded_by_label, {}, {})


def _watch_predicates(
    engine,
    pattern: Pattern,
    target_ids: Sequence[DeweyID],
    excluded_ids: Optional[set] = None,
) -> List[Tuple[DeweyID, str, bool]]:
    """Snapshot (node, constant, satisfied) for flippable σ nodes."""
    watch: List[Tuple[DeweyID, str, bool]] = []
    if not target_ids:
        return watch
    sigma_nodes = [node for node in pattern.nodes() if node.value_pred is not None]
    if not sigma_nodes:
        return watch
    seen: set = set()
    chain: List[Node] = []
    for target in target_ids:
        for candidate_id in list(target.ancestor_ids()) + [target]:
            if candidate_id in seen:
                continue
            seen.add(candidate_id)
            if excluded_ids and candidate_id in excluded_ids:
                continue
            candidate = engine.document.node_by_id(candidate_id)
            if candidate is not None:
                chain.append(candidate)
    chain.sort(key=lambda n: n.id.sort_key)
    return _watch_entries(sigma_nodes, chain)


def _watch_changed(engine, watch: List[Tuple[DeweyID, str, bool]]) -> bool:
    for node_id, constant, satisfied in watch:
        node = engine.document.node_by_id(node_id)
        now = node is not None and node.val == constant
        if now != satisfied:
            return True
    return False


def _predicate_guard(engine, registered, watchlist) -> bool:
    """Whole-view recompute on a σ flip; True when it fired."""
    if not _watch_changed(engine, watchlist):
        return False
    engine._recompute(registered)
    return True


def _apply_insert(engine, statement: InsertUpdate) -> PropagationReport:
    report = PropagationReport(statement)

    started = time.perf_counter()
    pul = compute_pul(engine.document, statement)
    find_targets_seconds = time.perf_counter() - started
    report.pul_size = len(pul)
    target_ids = [op.target.id for op in pul.inserts()]

    watchlists = {
        name: _watch_predicates(engine, registered.pattern, target_ids)
        for name, registered in engine.views.items()
    }

    applied = apply_pul(engine.document, pul)
    report.apply_document_seconds = applied.apply_seconds
    inserted_ids = {
        node.id
        for root in applied.inserted_roots
        for node in root.self_and_descendants()
    }

    tracer = engine.obs.tracer
    for name, registered in engine.views.items():
        view_report = ViewReport(name)
        view_report.targets = len(target_ids)
        _credit(
            tracer, view_report.phases, "find_target_nodes",
            find_targets_seconds, name,
        )
        plan = registered.plan

        if _predicate_guard(engine, registered, watchlists[name]):
            report.view_reports[name] = view_report
            continue

        with _PhaseTimer(tracer, view_report.phases, "compute_delta_tables", name):
            deltas = delta_from_candidates(
                plan, insert_candidates(applied.inserted_roots), "+"
            )
        view_report.delta_sizes = {
            node_name: len(rows) for node_name, rows in deltas.tables.items()
        }

        with _PhaseTimer(tracer, view_report.phases, "get_update_expression", name):
            terms, developed = surviving_insert_terms(
                plan,
                deltas,
                self_and_ancestor_labels(target_ids),
                engine.use_data_pruning,
                engine.use_id_pruning,
            )
        view_report.terms_developed = developed
        view_report.terms_surviving = len(terms)

        with _PhaseTimer(tracer, view_report.phases, "execute_update", name):
            view_report.tuples_modified = pimt(
                plan, registered.view, engine.document, target_ids
            )
            r_sources = _survivor_sources(engine, plan, inserted_ids)
            view_report.derivations_added, view_report.term_eval_seconds = et_ins(
                plan, registered.view, terms, r_sources, deltas, registered.lattice
            )

        with _PhaseTimer(tracer, view_report.phases, "update_lattice", name):
            additions = snowcap_additions(
                plan,
                registered.lattice,
                r_sources,
                deltas,
                self_and_ancestor_labels(target_ids),
                engine.use_data_pruning,
                engine.use_id_pruning,
            )
            apply_insert_additions(registered.lattice, additions)

        report.view_reports[name] = view_report
    return report


def _apply_delete(engine, statement: DeleteUpdate) -> PropagationReport:
    report = PropagationReport(statement)

    started = time.perf_counter()
    pul = compute_pul(engine.document, statement)
    find_targets_seconds = time.perf_counter() - started
    report.pul_size = len(pul)
    targets = [op.target for op in pul.deletes()]
    target_ids = [node.id for node in targets]
    doomed = doomed_nodes(targets)
    doomed_ids = {node.id for node in doomed}

    watchlists = {
        name: _watch_predicates(
            engine, registered.pattern, target_ids, excluded_ids=doomed_ids
        )
        for name, registered in engine.views.items()
    }

    # Per-view term evaluation happens against the *old* document.
    tracer = engine.obs.tracer
    for name, registered in engine.views.items():
        view_report = ViewReport(name)
        view_report.targets = len(target_ids)
        _credit(
            tracer, view_report.phases, "find_target_nodes",
            find_targets_seconds, name,
        )
        plan = registered.plan

        with _PhaseTimer(tracer, view_report.phases, "compute_delta_tables", name):
            deltas = delta_from_candidates(plan, BatchCandidates(doomed), "-")
        view_report.delta_sizes = {
            node_name: len(rows) for node_name, rows in deltas.tables.items()
        }

        with _PhaseTimer(tracer, view_report.phases, "get_update_expression", name):
            terms, developed = surviving_delete_terms(
                plan,
                deltas,
                engine.prune_even_terms,
                engine.use_data_pruning,
                engine.use_id_pruning,
            )
        view_report.terms_developed = developed
        view_report.terms_surviving = len(terms)

        with _PhaseTimer(tracer, view_report.phases, "execute_update", name):
            r_sources = _survivor_sources(engine, plan, set())
            removals, view_report.term_eval_seconds = et_del(
                plan, registered.view, terms, r_sources, deltas, registered.lattice
            )
            tuples_removed, derivations_removed = pddt_apply(
                registered.view, removals
            )
        view_report.tuples_removed = tuples_removed
        view_report.derivations_removed = derivations_removed
        report.view_reports[name] = view_report

    applied = apply_pul(engine.document, pul)
    report.apply_document_seconds = applied.apply_seconds

    for name, registered in engine.views.items():
        view_report = report.view_reports[name]
        if _predicate_guard(engine, registered, watchlists[name]):
            continue
        with _PhaseTimer(tracer, view_report.phases, "execute_update", name):
            view_report.tuples_modified = pdmt(
                registered.plan, registered.view, engine.document, target_ids
            )

        with _PhaseTimer(tracer, view_report.phases, "update_lattice", name):
            apply_delete(registered.lattice, doomed_ids)
    return report


def apply_statement(engine, statement: UpdateStatement) -> PropagationReport:
    """Propagate one statement through the per-statement pipeline."""
    engine._check_no_active_session()
    batch_id = engine._durability_begin([statement])
    try:
        if isinstance(statement, InsertUpdate):
            return _apply_insert(engine, statement)
        if isinstance(statement, DeleteUpdate):
            return _apply_delete(engine, statement)
        raise TypeError("unknown statement %r" % (statement,))
    finally:
        engine._durability_commit(batch_id)

