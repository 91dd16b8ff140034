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
  nodes gained or lost descendants (Algorithm 4);
* :func:`snowcap_additions` -- incremental upkeep of the materialized
  snowcaps (Prop. 3.13): each snowcap is itself a view whose surviving
  terms are evaluated from smaller snowcaps, the leaves, and Δ+.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.relation import Relation
from repro.algebra.structural import probe_descendants, structural_join
from repro.maintenance.delta import DeltaTables
from repro.maintenance.terms import (
    NodeSet,
    Term,
    evaluate_term,
    expand_insert_terms,
    prune_by_empty_delta,
    prune_insert_by_ids,
)
from repro.pattern.evaluate import Sources, project_bindings
from repro.pattern.tree_pattern import Pattern
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document, Node


def surviving_insert_terms(
    pattern: Pattern,
    deltas: DeltaTables,
    target_ids: Sequence[DeweyID],
    use_data_pruning: bool = True,
    use_id_pruning: bool = True,
) -> Tuple[List[Term], int]:
    """Develop and prune the union terms; returns (survivors, developed).

    Development already embodies Prop. 3.3 (only snowcap-complement
    Δ-sets are generated); the optional prunings are Prop. 3.6
    (``use_data_pruning``) and Prop. 3.8 (``use_id_pruning``).
    """
    terms = expand_insert_terms(pattern)
    developed = len(terms)
    if use_data_pruning:
        terms = prune_by_empty_delta(terms, deltas)
    if use_id_pruning:
        terms = prune_insert_by_ids(terms, pattern, target_ids)
    return terms, developed


def collect_insert_additions(
    pattern: Pattern,
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
    import time

    accumulated: Dict[tuple, int] = {}
    eval_seconds = 0.0
    for term in terms:
        started = time.perf_counter()
        bindings = evaluate_term(pattern, term, r_sources, deltas, lattice)
        eval_seconds += time.perf_counter() - started
        if not bindings.rows:
            continue
        projected = project_bindings(pattern, bindings)
        for row in projected.rows:
            accumulated[row] = accumulated.get(row, 0) + 1
    return accumulated, eval_seconds


def collect_attribute_refreshes(
    view: MaterializedView,
    document: Document,
    insert_target_ids: Sequence[DeweyID],
    delete_target_ids: Sequence[DeweyID],
) -> List[Tuple[tuple, tuple]]:
    """The read-only half of the PIMT/PDMT rewrite loop.

    A surviving stored node's attributes changed iff it is an
    ancestor-or-self of an insertion target or a proper ancestor of a
    deletion target.  The test is inverted into a probe: the Dewey
    chains of the targets give the set of affected IDs once per batch
    (O(|targets| x depth), shared ID objects, no allocation), cut down
    to the labels the view's content nodes can store; each stored
    content-node ID is one hash membership test against it while the
    extent is read lazily in place -- and not at all when no affected
    ID carries such a label.

    Returns the ``(old row, new row)`` rewrite pairs without touching
    the view -- the sharded pipeline computes these on workers (the
    pairs are plain picklable tuples) and applies them on the owning
    process.
    """
    pattern = view.pattern
    cvn = pattern.content_nodes()
    if not cvn or (not insert_target_ids and not delete_target_ids):
        return []
    affected: set = set(insert_target_ids)
    for target_ids in (insert_target_ids, delete_target_ids):
        for target_id in target_ids:
            affected.update(target_id.ancestor_ids())
    labels = {node.label for node in cvn}
    if "*" not in labels:
        # A stored content node carries its pattern node's label, so an
        # affected ID labeled otherwise is stored nowhere in this view.
        affected = {node_id for node_id in affected if node_id.label in labels}
    if not affected:
        return []  # no stored node can have changed: the extent is not read
    column_index = {pair: i for i, pair in enumerate(pattern.return_columns())}
    # (ID column, val column or None, cont column or None) per content node.
    probes = [
        (
            column_index[(node.name, "ID")],
            column_index[(node.name, "val")] if node.store_val else None,
            column_index[(node.name, "cont")] if node.store_cont else None,
        )
        for node in cvn
    ]
    replacements: List[Tuple[tuple, tuple]] = []
    for row, _count in view.iter_content():
        new_row = None
        for id_index, val_index, cont_index in probes:
            stored_id = row[id_index]
            if stored_id not in affected:
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


def apply_attribute_refreshes(
    view: MaterializedView, replacements: Sequence[Tuple[tuple, tuple]]
) -> int:
    """Apply collected rewrite pairs; returns the number applied."""
    for old_row, fresh_row in replacements:
        view.replace(old_row, fresh_row)
    return len(replacements)


def snowcap_additions(
    pattern: Pattern,
    lattice: SnowcapLattice,
    r_sources: Sources,
    deltas: DeltaTables,
    target_ids: Sequence[DeweyID],
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
    names = [node.name for node in pattern.nodes()]

    previous_set: NodeSet = frozenset()
    previous_added: Optional[Relation] = None
    for subset in chain:
        extra = subset - previous_set
        if len(extra) != 1 or previous_set != subset - extra:
            # Not a nested chain (custom selection): fall back to the
            # generic term machinery for this snowcap.
            additions[subset] = _snowcap_additions_generic(
                pattern, subset, lattice, r_sources, deltas, target_ids,
                use_data_pruning, use_id_pruning,
            )
            previous_set, previous_added = subset, additions[subset]
            continue
        (new_name,) = extra
        node = pattern.node(new_name)
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
            order = [name for name in names if name in subset]
            added = Relation(order)
            for piece in pieces:
                added.extend(piece.reordered(order))
        additions[subset] = added
        previous_set, previous_added = subset, added
    return {subset: added for subset, added in additions.items() if added.rows}


def _snowcap_additions_generic(
    pattern: Pattern,
    subset: NodeSet,
    lattice: SnowcapLattice,
    r_sources: Sources,
    deltas: DeltaTables,
    target_ids: Sequence[DeweyID],
    use_data_pruning: bool,
    use_id_pruning: bool,
) -> Relation:
    """Union-of-terms additions for one snowcap (non-chain selections)."""
    sub = pattern.subpattern(subset)
    terms, _ = surviving_insert_terms(
        sub, deltas, target_ids, use_data_pruning, use_id_pruning
    )
    order = [node.name for node in sub.nodes()]
    collected = Relation(order)
    for term in terms:
        rows = evaluate_term(sub, term, r_sources, deltas, lattice)
        if rows.rows:
            collected.extend(rows.reordered(order))
    return collected
