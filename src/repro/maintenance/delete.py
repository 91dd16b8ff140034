"""Deletion propagation: PDDT (Alg. 5), ET-DEL, PDMT, PDDT/MT (Alg. 6).

Deletion terms are evaluated *before* the document delete is applied:
the difference expression of Section 4.1 reads the **old** canonical
relations (``R`` everywhere except the term's Δ−-set), and view keys
still carry pre-delete val/cont.  The engine therefore sequences:

    find targets → CD− (doomed set) → develop+prune terms →
    ET-DEL + derivation-count decrements → apply document delete →
    PDMT val/cont refresh → lattice cleanup

Counting semantics: doomed embeddings (bindings with at least one
deleted component) are collected as a *set* across terms -- the same
embedding surfaces in several difference terms because ``R`` denotes
the old relations -- and each distinct doomed embedding decrements its
projected tuple's derivation count by exactly one.  Under this reading
the paper's Prop. 4.3(ii) (dropping the even, add-back terms) is not an
approximation but exact, and Prop. 4.2's pruning removes terms that are
merely redundant with larger-Δ ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.maintenance.delta import DeltaTables
from repro.maintenance.insert import refresh_stored_attributes
from repro.maintenance.terms import (
    Term,
    absorb_embeddings,
    evaluate_term,
    expand_delete_terms,
    prune_by_empty_delta,
    prune_delete_by_ids,
)
from repro.pattern.evaluate import Sources
from repro.pattern.tree_pattern import Pattern
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document


def surviving_delete_terms(
    pattern: Pattern,
    deltas: DeltaTables,
    prune_even_terms: bool = False,
    use_data_pruning: bool = True,
    use_id_pruning: bool = True,
) -> Tuple[List[Term], int]:
    """Develop and prune the deletion expression; (survivors, developed)."""
    terms = expand_delete_terms(pattern, prune_even_terms=prune_even_terms)
    developed = len(terms)
    if use_data_pruning:
        terms = prune_by_empty_delta(terms, deltas)
    if use_id_pruning:
        terms = prune_delete_by_ids(terms, pattern, deltas)
    return terms, developed


def collect_delete_embeddings(
    pattern: Pattern,
    terms: Sequence[Term],
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Tuple[Dict[tuple, tuple], float]:
    """Evaluate deletion terms into ``{binding ID key: projected row}``.

    The map keeps one entry per distinct doomed embedding, keyed by the
    embedding's binding IDs -- the representation the sharded pipeline
    merges across workers (cross-term duplicates collapse under dict
    union because projection is a function of the binding alone).
    Returns the map plus term-evaluation seconds.
    """
    import time

    embeddings: Dict[tuple, tuple] = {}
    eval_seconds = 0.0
    for term in terms:
        if term.sign < 0:
            continue  # add-back terms are subsumed under binding-set semantics
        started = time.perf_counter()
        bindings = evaluate_term(pattern, term, r_sources, deltas, lattice)
        eval_seconds += time.perf_counter() - started
        absorb_embeddings(pattern, bindings, embeddings)
    return embeddings, eval_seconds


def removals_from_embeddings(embeddings: Dict[tuple, tuple]) -> Dict[tuple, int]:
    """Count distinct doomed embeddings per projected view tuple.

    Iterates binding keys in Dewey order so the resulting dict is
    deterministic regardless of which worker produced which fragment.
    """
    removals: Dict[tuple, int] = {}
    for key in sorted(
        embeddings, key=lambda ids: tuple(node_id.sort_key for node_id in ids)
    ):
        row = embeddings[key]
        removals[row] = removals.get(row, 0) + 1
    return removals


def et_del(
    view: MaterializedView,
    terms: Sequence[Term],
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Tuple[Dict[tuple, int], float]:
    """Evaluate the deletion terms into Δ−_v.

    The difference expression reads the *old* canonical relations, so
    one doomed embedding (a binding with ≥ 1 deleted component) can
    surface in several terms; embeddings are therefore deduplicated by
    their binding IDs -- the set-level view of the expression under
    which dropping the even (add-back) terms, Prop. 4.3(ii), is exact.

    Returns ``({view tuple: distinct doomed embeddings projecting onto
    it}, term-evaluation seconds)``; the embedding counts are precisely
    the derivations to subtract.
    """
    embeddings, eval_seconds = collect_delete_embeddings(
        view.pattern, terms, r_sources, deltas, lattice
    )
    # Plain counting in first-occurrence order: both consumers
    # (pddt_apply decrements, apply_batch_delta's sorted store pass)
    # are order-independent, so the Dewey sort of
    # removals_from_embeddings would be pure overhead here.
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
    view: MaterializedView,
    document: Document,
    doomed_target_ids: Sequence[DeweyID],
) -> int:
    """Algorithm PDMT: refresh val/cont of surviving tuples.

    Runs after the document delete.  A surviving stored node's value or
    content changed iff the node is a proper ancestor of a deleted
    target (the target's subtree vanished from under it) -- again an
    ID-only structural test.  Returns the number of rewritten tuples.
    """
    return refresh_stored_attributes(view, document, (), doomed_target_ids)
