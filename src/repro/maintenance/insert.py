"""Insertion propagation: PINT (Alg. 1), ET-INS (Alg. 3), PIMT (Alg. 4).

The driver (:mod:`repro.maintenance.engine`) applies the batch's
statements to the document (obtaining the inserted subtrees' fresh
Dewey IDs) and runs CD+ over the net inserted nodes; this module
contains the view-side work:

* :func:`collect_insert_additions` -- evaluate the surviving union
  terms into projected tuples with derivation counts (the two loops of
  Algorithm 3); the engine merges them into the view in one store pass;
* :func:`collect_attribute_refreshes` -- the PIMT/PDMT rewrites of the
  ``val`` / ``cont`` attributes of existing view tuples whose stored
  nodes gained or lost descendants (Algorithm 4), reading only the
  extent runs under each affected node's *anchor* (see there);
* :func:`snowcap_additions` -- incremental upkeep of the materialized
  snowcaps (Prop. 3.13): each snowcap is itself a view whose surviving
  terms are evaluated from smaller snowcaps, the leaves, and Δ+.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.relation import Relation
from repro.algebra.structural import probe_descendants, structural_join
from repro.maintenance.delta import (
    BatchCandidates,
    DeltaTables,
    SideStats,
    delta_from_candidates,
)
from repro.maintenance.plan import ViewPlan
from repro.maintenance.terms import (
    NodeSet,
    Term,
    evaluate_term,
    prune_by_empty_delta,
    prune_insert_by_ids,
    self_and_ancestor_labels,
)
from repro.pattern.evaluate import Sources, project_bindings
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document


def surviving_insert_terms(
    plan: ViewPlan,
    deltas: DeltaTables,
    target_labels: AbstractSet[str],
    use_data_pruning: bool = True,
    use_id_pruning: bool = True,
) -> Tuple[List[Term], int]:
    """Prune the plan's union terms; returns (survivors, developed).

    Development already embodies Prop. 3.3 (only snowcap-complement
    Δ-sets are generated, once per plan); the optional prunings are
    Prop. 3.6 (``use_data_pruning``) and Prop. 3.8 (``use_id_pruning``,
    over ``target_labels``, the labels on the insertion targets'
    self-and-ancestor chains).
    """
    terms: Sequence[Term] = plan.insert_terms
    if use_data_pruning:
        terms = prune_by_empty_delta(terms, deltas)
    if use_id_pruning:
        terms = prune_insert_by_ids(terms, plan, target_labels)
    return list(terms), len(plan.insert_terms)


def collect_insert_additions(
    plan: ViewPlan,
    terms: Sequence[Term],
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Tuple[Dict[tuple, int], float]:
    """The term-evaluation half of Algorithm 3.

    Returns ``({projected tuple: fresh derivations}, seconds)`` without
    touching any view -- the batch pipeline merges these Δ+ tuples with
    the deletion side and applies both in one store pass.
    """
    accumulated: Dict[tuple, int] = {}
    eval_seconds = 0.0
    for term in terms:
        started = time.perf_counter()
        bindings = evaluate_term(plan, term, r_sources, deltas, lattice)
        eval_seconds += time.perf_counter() - started
        if not bindings.rows:
            continue
        projected = project_bindings(plan.projection, bindings)
        for row in projected.rows:
            accumulated[row] = accumulated.get(row, 0) + 1
    return accumulated, eval_seconds


def insert_side(
    plan: ViewPlan,
    candidates: BatchCandidates,
    lattice: SnowcapLattice,
    r_sources: Callable[[], Sources],
    target_labels: AbstractSet[str],
    use_data_pruning: bool,
    use_id_pruning: bool,
) -> Tuple[Dict[tuple, int], Optional[Dict[NodeSet, Relation]], SideStats]:
    """Δ+ extraction + ET-INS + snowcap additions for one view.

    ``r_sources`` builds the survivor relations (R = current − Δ+); it
    is only called when a Δ+ table is non-empty.  Returns the counted
    Δ+ rows, the snowcap-addition relations (None without materialized
    snowcaps) and the side's stats.
    """
    stats = SideStats()
    started = time.perf_counter()
    delta_plus = delta_from_candidates(plan, candidates, "+")
    stats.delta_seconds = time.perf_counter() - started
    stats.delta_sizes = {name: len(delta_plus.nodes(name)) for name in plan.names}
    if not delta_plus.nonempty_names():
        return {}, None, stats
    stats.live = True
    started = time.perf_counter()
    terms, developed = surviving_insert_terms(
        plan, delta_plus, target_labels, use_data_pruning, use_id_pruning
    )
    stats.develop_seconds = time.perf_counter() - started
    stats.terms_developed = developed
    stats.terms_surviving = len(terms)
    sources = r_sources()
    additions, stats.eval_seconds = collect_insert_additions(
        plan, terms, sources, delta_plus, lattice
    )
    snowcap = None
    if lattice.materialized_sets():
        started = time.perf_counter()
        snowcap = snowcap_additions(
            plan,
            lattice,
            sources,
            delta_plus,
            target_labels,
            use_data_pruning,
            use_id_pruning,
        )
        stats.snowcap_seconds = time.perf_counter() - started
    return additions, snowcap, stats


class AffectedIDs:
    """The nodes whose stored ``val`` / ``cont`` a batch can change: the
    insertion targets with their ancestors and the deletion targets'
    proper ancestors (Algorithms 4 / 6).  Read off the targets' Dewey
    chains and bucketed by label in document order once per batch, on
    the first view that asks; every other view shares them.
    """

    def __init__(self, insert_target_ids, delete_target_ids) -> None:
        self._targets = (insert_target_ids, delete_target_ids)

    @cached_property
    def insert_labels(self) -> Set[str]:
        """The labels on the insertion targets' self-and-ancestor
        chains: Prop. 3.8's test for every view of the batch."""
        return self_and_ancestor_labels(self._targets[0])

    @cached_property
    def ids(self) -> Set[DeweyID]:
        ids = set(self._targets[0])
        for target_ids in self._targets:
            for target_id in target_ids:
                ids.update(target_id.ancestor_ids())
        return ids

    @cached_property
    def by_label(self) -> Dict[str, List[DeweyID]]:
        buckets: Dict[str, List[DeweyID]] = {}
        for node_id in sorted(self.ids, key=lambda node_id: node_id.sort_key):
            buckets.setdefault(node_id.label, []).append(node_id)
        return buckets


def collect_attribute_refreshes(
    plan: ViewPlan,
    view: MaterializedView,
    document: Document,
    affected: AffectedIDs,
) -> List[Tuple[tuple, tuple]]:
    """The read-only half of the PIMT/PDMT rewrite loop.

    Column 0 is always an ID (val/cont nodes store their ID, and ID is
    a node's first annotation); let ``lead`` own it, and ``meet`` be
    the lowest common pattern ancestor of ``lead`` and a content node
    ``n``.  Every embedding binds ``meet`` to an ancestor-or-self of
    both the leading cell and ``n``'s node, so a row storing an
    affected ``x`` at ``n`` is led from inside one *anchor* subtree:
    ``x``'s own when ``meet`` is ``n``, else that of ``x``'s outermost
    proper ancestor labeled like ``meet`` (none: ``x`` is stored
    nowhere here).  A subtree is one key run of the extent, so only
    those bisected runs are read, merged, in store order, under the
    scan's per-row test: the pairs are the scan's, in the same order,
    for affected IDs x (depth + log|extent|) plus the rows in the runs.

    Returns the ``(old row, new row)`` rewrite pairs without touching
    the view; :meth:`MaterializedView.apply_batch_delta` folds them
    into the store pass, and session replicas ship them to the owner.
    """
    if not plan.refresh or not affected.ids:
        return []
    anchors: Dict[DeweyID, None] = {}
    for label, at_node, meet_label in plan.refresh:
        if label == "*":
            candidates = affected.ids  # anchor order is immaterial: runs are sorted
        else:
            candidates = affected.by_label.get(label, ())
        for node_id in candidates:
            if at_node:
                anchors[node_id] = None
                continue
            for ancestor_id in node_id.ancestor_ids():  # outermost first
                if meet_label in ("*", ancestor_id.label):
                    anchors[ancestor_id] = None
                    break
    if not anchors:
        return []  # no stored node can have changed: the extent is not read
    affected_ids = affected.ids  # a stored ID has its node's label: no cut
    replacements: List[Tuple[tuple, tuple]] = []
    for row in view.rows_led_by(anchors):
        new_row = None
        for id_index, val_index, cont_index in plan.refresh_columns:
            stored_id = row[id_index]
            if stored_id not in affected_ids:
                continue
            doc_node = document.node_by_id(stored_id)
            if doc_node is None:
                continue  # removed with its subtree; Δ− handles the tuple
            if new_row is None:
                new_row = list(row)
            if val_index is not None:
                new_row[val_index] = doc_node.val
            if cont_index is not None:
                new_row[cont_index] = doc_node.cont
        if new_row is not None and tuple(new_row) != row:
            replacements.append((row, tuple(new_row)))
    return replacements


def snowcap_additions(
    plan: ViewPlan,
    lattice: SnowcapLattice,
    r_sources: Sources,
    deltas: DeltaTables,
    target_labels: AbstractSet[str],
    use_data_pruning: bool = True,
    use_id_pruning: bool = True,
) -> Dict[NodeSet, Relation]:
    """Rows to append to each materialized snowcap (Prop. 3.13).

    The proposition's constructive proof is followed literally: along
    the nested snowcap chain ``s_1 ⊂ s_2 ⊂ ...`` (``s_i`` extends
    ``s_{i-1}`` by one leaf ``n_i``),

        added(s_i) = added(s_{i-1}) ⋈ (R ∪ Δ+)_{n_i}
                   ∪ old(s_{i-1})   ⋈ Δ+_{n_i}

    -- three Δ-sized joins per snowcap instead of re-deriving each
    snowcap's own union terms.  ``old`` is the pre-update materialized
    content, so this must run before the lattice is extended.
    """
    additions: Dict[NodeSet, Relation] = {}
    chain = sorted(lattice.materialized_sets(), key=len)
    if not chain:
        return additions
    previous_set: NodeSet = frozenset()
    previous_added: Optional[Relation] = None
    for subset in chain:
        extra = subset - previous_set
        if len(extra) != 1 or previous_set != subset - extra:
            # Not a nested chain (custom selection): fall back to the
            # generic term machinery for this snowcap.
            additions[subset] = _snowcap_additions_generic(
                plan.sub_plan(subset), lattice, r_sources, deltas, target_labels,
                use_data_pruning, use_id_pruning,
            )
            previous_set, previous_added = subset, additions[subset]
            continue
        (new_name,) = extra
        node = plan.pattern.node(new_name)
        delta_rows = deltas.nodes(new_name)
        if node.parent is None:
            # s_1 = {root}: only freshly inserted roots can be added,
            # and a child-axis root never is (inserts add children).
            rows = [] if node.axis == "child" else list(delta_rows)
            added = Relation((new_name,), [(n,) for n in rows])
        else:
            axis = "parent" if node.axis == "child" else "ancestor"
            parent_name = node.parent.name
            delta_rel = Relation.single_column(new_name, delta_rows)
            pieces: List[Relation] = []
            if previous_added is not None and previous_added.rows:
                # added(s_{i-1}) ⋈ (R ∪ Δ+), R and Δ+ being disjoint:
                # R is probed below the few added rows, Δ+ hash-joined.
                pieces.append(
                    probe_descendants(
                        previous_added, parent_name, r_sources[new_name], new_name, axis
                    )
                )
                if delta_rows:
                    pieces.append(
                        structural_join(
                            previous_added, delta_rel, parent_name, new_name, axis
                        )
                    )
            old = lattice.relation_for(previous_set)
            if old is not None and old.rows and delta_rows:
                pieces.append(
                    structural_join(old, delta_rel, parent_name, new_name, axis)
                )
            order = plan.sub_plan(subset).names
            added = Relation(order)
            for piece in pieces:
                added.extend(piece.reordered(order))
        additions[subset] = added
        previous_set, previous_added = subset, added
    return {subset: added for subset, added in additions.items() if added.rows}


def _snowcap_additions_generic(
    sub: ViewPlan,
    lattice: SnowcapLattice,
    r_sources: Sources,
    deltas: DeltaTables,
    target_labels: AbstractSet[str],
    use_data_pruning: bool,
    use_id_pruning: bool,
) -> Relation:
    """Union-of-terms additions for one snowcap (non-chain selections),
    from the snowcap sub-pattern's plan ``sub``."""
    terms, _ = surviving_insert_terms(
        sub, deltas, target_labels, use_data_pruning, use_id_pruning
    )
    collected = Relation(sub.names)
    for term in terms:
        rows = evaluate_term(sub, term, r_sources, deltas, lattice)
        if rows.rows:
            collected.extend(rows.reordered(sub.names))
    return collected
