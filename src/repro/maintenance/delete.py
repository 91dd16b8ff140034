"""Deletion propagation: PDDT (Alg. 5), ET-DEL, PDMT, PDDT/MT (Alg. 6).

Deletion terms read the **old** canonical relations: the difference
expression of Section 4.1 has ``R`` everywhere except the term's
Δ−-set.  The batch engine applies the document first and evaluates the
terms over reconstructed pre-batch relations (live survivors plus the
detached net-removed nodes); a Δ− row finds its stored tuple by its ID
cells, whatever val/cont it carries.  The PDMT val/cont refresh is
shared with insertion
(:func:`repro.maintenance.insert.collect_attribute_refreshes`).

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

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.maintenance.delta import (
    BatchCandidates,
    DeltaTables,
    SideStats,
    delta_from_candidates,
)
from repro.maintenance.plan import ViewPlan
from repro.maintenance.terms import (
    Term,
    absorb_embeddings,
    evaluate_term,
    prune_by_empty_delta,
    prune_delete_by_ids,
)
from repro.pattern.evaluate import Sources
from repro.views.lattice import SnowcapLattice
from repro.views.view import row_sort_key


def surviving_delete_terms(
    plan: ViewPlan,
    deltas: DeltaTables,
    prune_even_terms: bool = False,
    use_data_pruning: bool = True,
    use_id_pruning: bool = True,
) -> Tuple[List[Term], int]:
    """Prune the plan's deletion expression; (survivors, developed)."""
    developed = terms = plan.delete_terms(prune_even_terms)
    if use_data_pruning:
        terms = prune_by_empty_delta(terms, deltas)
    if use_id_pruning:
        terms = prune_delete_by_ids(terms, plan, deltas)
    return list(terms), len(developed)


def collect_delete_embeddings(
    plan: ViewPlan,
    terms: Sequence[Term],
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Tuple[Dict[tuple, tuple], float]:
    """Evaluate deletion terms into ``{binding ID key: projected row}``.

    The map keeps one entry per distinct doomed embedding, keyed by the
    embedding's binding IDs -- the representation
    :func:`merge_embedding_fragments` unions with the σ-repair
    evictions (cross-term duplicates collapse under dict union because
    projection is a function of the binding alone).  Returns the map
    plus term-evaluation seconds.
    """
    embeddings: Dict[tuple, tuple] = {}
    eval_seconds = 0.0
    for term in terms:
        if term.sign < 0:
            continue  # add-back terms are subsumed under binding-set semantics
        started = time.perf_counter()
        bindings = evaluate_term(plan, term, r_sources, deltas, lattice)
        eval_seconds += time.perf_counter() - started
        absorb_embeddings(plan, bindings, embeddings)
    return embeddings, eval_seconds


def delete_side(
    plan: ViewPlan,
    candidates: BatchCandidates,
    lattice: SnowcapLattice,
    old_sources: Callable[[], Sources],
    prune_even_terms: bool,
    use_data_pruning: bool,
    use_id_pruning: bool,
) -> Tuple[Dict[tuple, tuple], SideStats]:
    """Δ− extraction + ET-DEL for one view.

    ``old_sources`` builds the reconstructed pre-batch relations; it is
    only called when a Δ− table is non-empty.  Returns the doomed-
    embedding map of :func:`collect_delete_embeddings` plus the side's
    stats (``live`` is False when every Δ− table is empty).
    """
    stats = SideStats()
    started = time.perf_counter()
    delta_minus = delta_from_candidates(plan, candidates, "-")
    stats.delta_seconds = time.perf_counter() - started
    stats.delta_sizes = {name: len(delta_minus.nodes(name)) for name in plan.names}
    if not delta_minus.nonempty_names():
        return {}, stats
    stats.live = True
    started = time.perf_counter()
    terms, developed = surviving_delete_terms(
        plan, delta_minus, prune_even_terms, use_data_pruning, use_id_pruning
    )
    stats.develop_seconds = time.perf_counter() - started
    stats.terms_developed = developed
    stats.terms_surviving = len(terms)
    embeddings, stats.eval_seconds = collect_delete_embeddings(
        plan, terms, old_sources(), delta_minus, lattice
    )
    return embeddings, stats


def removals_from_embeddings(embeddings: Dict[tuple, tuple]) -> Dict[tuple, int]:
    """Count distinct doomed embeddings per projected view tuple.

    Iterates binding keys in Dewey order so the resulting dict does
    not depend on the order the embeddings were collected in.
    """
    removals: Dict[tuple, int] = {}
    for key in sorted(
        embeddings, key=lambda ids: tuple(node_id.sort_key for node_id in ids)
    ):
        row = embeddings[key]
        removals[row] = removals.get(row, 0) + 1
    return removals


def merge_embedding_fragments(
    fragments: Iterable[Dict[tuple, tuple]]
) -> Dict[tuple, int]:
    """Union doomed-embedding maps, then count per projected tuple.

    One embedding surfacing in several fragments (the same binding
    reached through different terms) collapses under dict union; the
    projected row is a function of the binding, so whichever fragment
    contributed it carries the same row.

    A single fragment is counted in its own (deterministic) insertion
    order -- both consumers are order-independent, so the Dewey sort of
    :func:`removals_from_embeddings` is only needed to canonicalize a
    genuine multi-fragment union.
    """
    fragments = list(fragments)
    if len(fragments) == 1:
        removals: Dict[tuple, int] = {}
        for row in fragments[0].values():
            removals[row] = removals.get(row, 0) + 1
        return removals
    merged: Dict[tuple, tuple] = {}
    for fragment in fragments:
        merged.update(fragment)
    return removals_from_embeddings(merged)


def merge_addition_fragments(
    fragments: Iterable[Dict[tuple, int]]
) -> Dict[tuple, int]:
    """Sum per-tuple derivation counts across Δ+ fragments, keys in
    Dewey order.

    A single fragment passes through untouched: its insertion order is
    already deterministic (the term loop), and the store pass sorts
    keys itself.
    """
    fragments = list(fragments)
    if len(fragments) == 1:
        return fragments[0]
    accumulated: Dict[tuple, int] = {}
    for fragment in fragments:
        for row, count in fragment.items():
            accumulated[row] = accumulated.get(row, 0) + count
    return {row: accumulated[row] for row in sorted(accumulated, key=row_sort_key)}
