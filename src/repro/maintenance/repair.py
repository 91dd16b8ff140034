"""σ-flip repair: bounded Δ± instead of whole-view recomputation.

An update can flip the σ value predicate of an *existing* node (e.g.
inserting text under a node whose ``val`` a view filters on).  The
2^k − 1 insertion/deletion terms cannot express this -- their all-R
term is the unchanged view -- and the engine historically fell back to
recomputing the affected view.  But the effect of a flip is bounded by
the flipped candidates, not by the view: a candidate flipping *false*
evicts exactly the stored embeddings binding it at a σ column, one
flipping *true* admits exactly the fresh embeddings binding it there.

This module synthesizes that repair Δ±:

* :func:`collect_flip_embeddings` evaluates one single-name repair term
  per flipped σ node (``Δ`` = the flipped candidates at that node,
  canonical survivor relations elsewhere) and deduplicates embeddings
  by their binding IDs across terms -- the same set semantics as
  ET-DEL, which is what makes multi-flip batches exact without 2^k
  inclusion–exclusion: an embedding binding two flipped-false nodes
  surfaces in both terms but is evicted once.

* :func:`flip_lattice_repair` produces the matching snowcap upkeep:
  column-aware drops for flipped-false candidates (a flipped node may
  legitimately bind non-σ columns of other rows, so the column-blind
  deletion filter of ``SnowcapLattice.apply_batch`` would over-drop)
  plus flipped-true rows per materialized subset.

Evictions are evaluated against *pre-batch membership* survivor
relations and admissions against *current membership* ones; both read
live nodes, so projected rows carry final val/cont and line up with
the refreshed extent.  :func:`flip_repair` returns both as plain
containers (binding-ID-keyed rows, row counts) that the engine merges
alongside the ordinary batch Δ±.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Set, Tuple

from repro.algebra.relation import Relation
from repro.maintenance.delete import removals_from_embeddings
from repro.maintenance.delta import SideStats, flip_delta
from repro.maintenance.plan import ViewPlan
from repro.maintenance.terms import (
    NodeSet,
    absorb_embeddings,
    evaluate_term,
    flip_repair_term,
)
from repro.pattern.evaluate import Sources
from repro.views.lattice import SnowcapLattice
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Node

#: σ pattern-node name -> flipped candidates bound to repair there.
FlipSets = Dict[str, List[Node]]


def collect_flip_embeddings(
    plan: ViewPlan,
    flip_sets: FlipSets,
    r_sources: Sources,
    sign: str,
) -> Tuple[Dict[tuple, tuple], float]:
    """Evaluate flip repair terms into ``{binding ID key: projected row}``.

    One term per flipped σ node; ``r_sources`` must hold survivor
    relations at the membership matching ``sign`` ("-": pre-batch, for
    evictions; "+": current, for admissions).  Cross-term duplicates
    (embeddings binding several flipped nodes) collapse by binding IDs,
    so each gained/lost embedding contributes exactly one derivation.
    Returns the map plus term-evaluation seconds.
    """
    embeddings: Dict[tuple, tuple] = {}
    eval_seconds = 0.0
    for name in sorted(flip_sets):
        nodes = flip_sets[name]
        if not nodes:
            continue
        deltas = flip_delta(plan.pattern, name, nodes, sign)
        started = time.perf_counter()
        bindings = evaluate_term(plan, flip_repair_term(name), r_sources, deltas)
        eval_seconds += time.perf_counter() - started
        absorb_embeddings(plan, bindings, embeddings)
    return embeddings, eval_seconds


def flip_repair(
    plan: ViewPlan,
    minus_sets: FlipSets,
    plus_sets: FlipSets,
    pre_sources: Callable[[], Sources],
    r_sources: Callable[[], Sources],
) -> Tuple[Dict[tuple, tuple], Dict[tuple, int], SideStats]:
    """σ-flip repair Δ± for one view: evict + admit embeddings.

    The evict side reads *pre-batch membership* survivor relations
    (``pre_sources``: flipped-true candidates removed, flipped-false
    restored) so the repair terms reproduce exactly the stored
    embeddings of the flipped-false candidates; the admit side reads
    current-membership survivor relations (``r_sources``) and projects
    with live vals, so admitted rows match a fresh evaluation byte for
    byte.  Returns ``(evictions, admissions, stats)`` -- an embedding
    map keyed by binding IDs (merged with the batch Δ− embeddings) and a
    counted row dict (merged with the batch Δ+ rows).
    """
    stats = SideStats()
    stats.live = True
    stats.delta_sizes = {
        name: len(nodes)
        for sets in (minus_sets, plus_sets)
        for name, nodes in sets.items()
    }
    evictions: Dict[tuple, tuple] = {}
    if minus_sets:
        evictions, seconds = collect_flip_embeddings(
            plan, minus_sets, pre_sources(), "-"
        )
        stats.eval_seconds += seconds
    admissions: Dict[tuple, int] = {}
    if plus_sets:
        embeddings, seconds = collect_flip_embeddings(
            plan, plus_sets, r_sources(), "+"
        )
        stats.eval_seconds += seconds
        admissions = removals_from_embeddings(embeddings)
    return evictions, admissions, stats


def flip_lattice_repair(
    plan: ViewPlan,
    lattice: SnowcapLattice,
    minus_sets: FlipSets,
    plus_sets: FlipSets,
    r_sources: Sources,
) -> Tuple[Dict[str, Set[DeweyID]], Dict[NodeSet, Relation]]:
    """Snowcap upkeep for a σ flip: per-column drops plus fresh rows.

    ``minus_sets`` / ``plus_sets`` map σ node names to their flipped-
    false / flipped-true candidates; ``r_sources`` holds *current
    membership* survivor relations.  Returns the ``(drops_by_name,
    additions)`` pair consumed by ``SnowcapLattice.apply_flip_repair``.
    Additions are deduplicated by binding IDs across the per-node
    terms, mirroring :func:`collect_flip_embeddings`.
    """
    drops: Dict[str, Set[DeweyID]] = {
        name: {node.id for node in nodes}
        for name, nodes in minus_sets.items()
        if nodes
    }
    additions: Dict[NodeSet, Relation] = {}
    if not any(plus_sets.values()):
        return drops, additions
    for subset in lattice.materialized_sets():
        relevant = [
            name for name in sorted(plus_sets) if name in subset and plus_sets[name]
        ]
        if not relevant:
            continue
        sub = plan.sub_plan(subset)
        order = sub.names
        seen: set = set()
        rows: List[tuple] = []
        for name in relevant:
            deltas = flip_delta(sub.pattern, name, plus_sets[name], "+")
            relation = evaluate_term(sub, flip_repair_term(name), r_sources, deltas)
            if not relation.rows:
                continue
            for row in relation.reordered(order).rows:
                key = tuple(cell.id for cell in row)
                if key in seen:
                    continue
                seen.add(key)
                rows.append(row)
        if rows:
            additions[subset] = Relation._trusted(order, rows)
    return drops, additions


def match_flips_to_pattern(
    plan: ViewPlan,
    flips: Dict[Tuple[DeweyID, str], Tuple[Node, bool]],
) -> Tuple[FlipSets, FlipSets]:
    """Bucket a view's flipped candidates under its σ pattern nodes.

    ``flips`` maps ``(node ID, constant)`` to ``(live node, satisfied
    now)``; a candidate repairs under every label-compatible σ node
    carrying that constant (several σ nodes may share label and
    constant -- each needs its own repair term).  Returns
    ``(minus_sets, plus_sets)`` for the evict resp. admit side.
    """
    minus_sets: FlipSets = {}
    plus_sets: FlipSets = {}
    for sigma in plan.sigma_nodes:
        minus: List[Node] = []
        plus: List[Node] = []
        for (node_id, constant), (node, now) in flips.items():
            if constant != sigma.value_pred:
                continue
            if sigma.label == "*":
                if node.kind != "element":
                    continue
            elif node.label != sigma.label:
                continue
            (plus if now else minus).append(node)
        if minus:
            minus_sets[sigma.name] = minus
        if plus:
            plus_sets[sigma.name] = plus
    return minus_sets, plus_sets
