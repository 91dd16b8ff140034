"""Per-figure experiment drivers (Section 6).

Scales are sized for a pure-Python engine: the paper's 100 KB / 10 MB /
50 MB documents map to generator scales keeping the same *ratios*
(DESIGN.md, substitution table).  Every driver returns plain-dict rows
ready for printing or assertion; shapes expected from the paper are
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.baselines.ivma import IVMAMaintainer
from repro.baselines.recompute import full_recompute
from repro.bench.harness import BreakdownRow, run_maintenance_pair, statement_for
from repro.maintenance.delta import doomed_nodes
from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateStatement,
)
from repro.updates.pul import apply_pul, compute_pul
from repro.updates.reduce import pul_to_operations, reduce_operations
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.workloads.queries import view_pattern
from repro.workloads.updates import VIEW_UPDATE_GROUPS, delete_variant, insert_update
from repro.workloads.xmark import generate_document, size_of


# ---------------------------------------------------------------------------
# Figures 18-21: phase breakdowns / totals across the view-update matrix
# ---------------------------------------------------------------------------


def run_breakdown_matrix(
    scale: int,
    kind: str,
    views: Sequence[str] = ("Q1", "Q3", "Q6"),
    verify: bool = True,
) -> List[BreakdownRow]:
    """Figures 18 (insert) / 19 (delete), and 20/21 with all views."""
    rows: List[BreakdownRow] = []
    for view_name in views:
        for update_name in VIEW_UPDATE_GROUPS[view_name]:
            rows.append(
                run_maintenance_pair(
                    scale, view_name, update_name, kind, verify=verify
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 22/23: deletion path depth sweep (view Q1)
# ---------------------------------------------------------------------------

PATH_DEPTH_TARGETS = (
    "/site",
    "/site/people",
    "/site/people/person",
    "/site/people/person/@id",
    "/site/people/person/name",
)


def run_path_depth(scale: int, verify: bool = True) -> List[Dict[str, object]]:
    """Deletion X1_L variants of growing depth against fixed view Q1.

    Expected shape: maintenance time *decreases* as the path lengthens
    (shorter paths doom more nodes).
    """
    rows: List[Dict[str, object]] = []
    for path in PATH_DEPTH_TARGETS:
        statement = DeleteUpdate(path, name="X1_L@%s" % path)
        row = run_maintenance_pair(
            scale, "Q1", statement.name, "delete", statement=statement, verify=verify
        )
        entry = row.as_dict()
        entry["path"] = path
        entry["depth"] = path.count("/")
        rows.append(entry)
    return rows


# ---------------------------------------------------------------------------
# Figure 24: annotation placement (view Q1 variants, fixed delete X1_L)
# ---------------------------------------------------------------------------


def _q1_variant(variant: str):
    """Q1 as /site/people/person[@id]/name with movable val/cont."""
    pattern = view_pattern("Q1")
    names = pattern.node_names()  # site, people, person, @id, name (preorder)
    annotations: Dict[str, Sequence[str]] = {name: ("ID",) for name in names}
    leaf = names[-1]
    root = names[0]
    if variant == "IDs":
        pass
    elif variant == "VC Leaf":
        annotations[leaf] = ("ID", "val", "cont")
    elif variant == "VC Root":
        annotations[root] = ("ID", "val", "cont")
    elif variant == "VC All Nodes but Root":
        for name in names[1:]:
            annotations[name] = ("ID", "val", "cont")
    elif variant == "VC All Nodes":
        for name in names:
            annotations[name] = ("ID", "val", "cont")
    else:
        raise ValueError("unknown Q1 variant %r" % variant)
    return pattern.with_annotations(annotations)


ANNOTATION_VARIANTS = (
    "IDs",
    "VC Leaf",
    "VC Root",
    "VC All Nodes but Root",
    "VC All Nodes",
)


def run_annotation_variants(scale: int, verify: bool = True) -> List[Dict[str, object]]:
    """Fixed update X1_L (delete person0) against annotation variants.

    Expected shape: the closer val/cont sit to the root, the more
    expensive PDDT/PDMT becomes (bigger values to search and rewrite).
    """
    statement = DeleteUpdate(
        "/site/people/person[@id = 'person0']", name="X1_L_pred"
    )
    rows: List[Dict[str, object]] = []
    for variant in ANNOTATION_VARIANTS:
        pattern = _q1_variant(variant)
        row = run_maintenance_pair(
            scale,
            "Q1",
            statement.name,
            "delete",
            pattern=pattern,
            statement=DeleteUpdate(
                "/site/people/person[@id = 'person0']", name="X1_L_pred"
            ),
            verify=verify,
        )
        entry = row.as_dict()
        entry["variant"] = variant
        rows.append(entry)
    return rows


# ---------------------------------------------------------------------------
# Figure 25: scalability in document size (view Q1, update A6_A)
# ---------------------------------------------------------------------------


def run_scalability(
    scales: Sequence[int] = (1, 2, 20, 100),
    view: str = "Q1",
    update: str = "A6_A",
    kinds: Sequence[str] = ("insert", "delete"),
    verify: bool = True,
) -> List[Dict[str, object]]:
    """Phase breakdown across document sizes (paper: 500 KB → 50 MB).

    The scale ratios 1:2:20:100 mirror the paper's size ratios.
    """
    rows: List[Dict[str, object]] = []
    for kind in kinds:
        for scale in scales:
            row = run_maintenance_pair(scale, view, update, kind, verify=verify)
            entry = row.as_dict()
            entry["scale"] = scale
            rows.append(entry)
    return rows


# ---------------------------------------------------------------------------
# Figures 26/27: incremental vs full recomputation
# ---------------------------------------------------------------------------


def _selective_statement(scale: int, update_name: str, kind: str, fraction: float):
    """A statement hitting only the first ``fraction`` of its targets.

    Mirrors the paper's selective-deletion settings (Section 6.3 adds
    predicates like ``[@id="person0"]`` to the test-set paths): the
    update's target path is evaluated once, and the statement is pinned
    to the leading share of the matched nodes.
    """
    document = generate_document(scale=scale)
    base = statement_for(update_name, kind)
    targets = base.target.evaluate(document)
    chosen = [node.id for node in targets[: max(1, int(len(targets) * fraction))]]
    if kind == "delete":
        return ResolvedDeleteUpdate(chosen, name="%s_sel" % update_name)
    return ResolvedInsertUpdate(chosen, base.flat, name="%s_sel" % update_name)


def run_vs_full(
    scale: int,
    kind: str,
    views: Sequence[str] = ("Q1", "Q2", "Q4"),
    verify: bool = True,
    selectivity: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Incremental maintenance vs recompute-from-scratch, per pair.

    ``selectivity`` restricts each update to the leading fraction of
    its targets (the regime incremental maintenance is designed for;
    ``None`` runs the raw test-set statements, which for deletions wipe
    entire label populations -- the honest worst case, reported too).
    """
    rows: List[Dict[str, object]] = []
    for view_name in views:
        for update_name in VIEW_UPDATE_GROUPS[view_name]:
            statement = (
                _selective_statement(scale, update_name, kind, selectivity)
                if selectivity is not None
                else None
            )
            row = run_maintenance_pair(
                scale, view_name, update_name, kind,
                statement=statement, verify=verify,
            )
            # Full recomputation on an identically updated twin document.
            document = generate_document(scale=scale)
            pattern = view_pattern(view_name)
            twin = (
                _selective_statement(scale, update_name, kind, selectivity)
                if selectivity is not None
                else statement_for(update_name, kind)
            )
            pul = compute_pul(document, twin)
            apply_pul(document, pul)
            lattice = SnowcapLattice(pattern, strategy="snowcaps")
            _view, full_seconds = full_recompute(pattern, document, lattice)
            rows.append(
                {
                    "view": view_name,
                    "update": update_name,
                    "kind": kind,
                    "incremental_s": round(row.total_seconds, 6),
                    "full_s": round(full_seconds, 6),
                    "speedup": round(full_seconds / max(row.total_seconds, 1e-9), 2),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 28: bulk PINT/PIMT vs node-at-a-time IVMA
# ---------------------------------------------------------------------------


def run_vs_ivma(
    scale: int,
    view: str = "Q1",
    updates: Optional[Sequence[str]] = None,
    verify: bool = True,
) -> List[Dict[str, object]]:
    """Execution time of one bulk insertion vs per-node IVMA calls.

    Each test-set insertion adds a five-node tree per target, handled in
    one shot by PINT and by five consecutive calls in IVMA.
    """
    updates = list(updates) if updates is not None else VIEW_UPDATE_GROUPS[view]
    rows: List[Dict[str, object]] = []
    for update_name in updates:
        # Bulk algebraic propagation.
        row = run_maintenance_pair(scale, view, update_name, "insert", verify=verify)
        bulk_exec = row.phase_seconds["execute_update"] + row.phase_seconds["update_lattice"]

        # IVMA on an identical twin.
        document = generate_document(scale=scale)
        pattern = view_pattern(view)
        view_store = MaterializedView.materialize(pattern, document, name=view)
        statement = statement_for(update_name, "insert")
        pul = compute_pul(document, statement)
        applied = apply_pul(document, pul)
        maintainer = IVMAMaintainer(view_store, document)
        ivma_seconds = maintainer.propagate_insert_nodes(applied.inserted_roots)
        if verify and not view_store.equals_fresh_evaluation(document):
            raise AssertionError("IVMA diverged on %s/%s" % (view, update_name))
        rows.append(
            {
                "view": view,
                "update": update_name,
                "bulk_exec_s": round(bulk_exec, 6),
                "ivma_exec_s": round(ivma_seconds, 6),
                "ivma_calls": maintainer.calls,
                "slowdown": round(ivma_seconds / max(bulk_exec, 1e-9), 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 29-32: snowcaps vs leaves across document sizes
# ---------------------------------------------------------------------------


def run_snowcaps_vs_leaves(
    view: str,
    scales: Sequence[int] = (1, 2, 4, 8),
    update: Optional[str] = None,
    kind: str = "insert",
    verify: bool = True,
) -> List[Dict[str, object]]:
    """(R) evaluate-terms time and (U) lattice-update time per strategy.

    Expected shape: Snowcaps beats Leaves on (R); the margin narrows as
    the snowcap tuple volume grows (Q4's benefit < Q6's).
    """
    if update is None:
        update = {"Q4": "X2_L", "Q6": "E6_L"}.get(view, VIEW_UPDATE_GROUPS[view][0])
    rows: List[Dict[str, object]] = []
    for scale in scales:
        for strategy in ("snowcaps", "leaves"):
            row = run_maintenance_pair(
                scale,
                view,
                update,
                kind,
                strategy=strategy,
                verify=verify,
                use_update_profile=True,
            )
            evaluate_terms = float(row.counters["term_eval_s"])
            update_lattice = row.phase_seconds["update_lattice"]
            rows.append(
                {
                    "view": view,
                    "scale": scale,
                    "doc_bytes": row.document_bytes,
                    "strategy": strategy,
                    "evaluate_terms_s": round(evaluate_terms, 6),
                    "update_lattice_s": round(update_lattice, 6),
                    "total_s": round(evaluate_terms + update_lattice, 6),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 33-35: PUL reduction rules O1, O3, I5
# ---------------------------------------------------------------------------


def _overlap_statements(
    engine: MaintenanceEngine, rule: str, percent: int
) -> List[UpdateStatement]:
    """Build the Section 6.8 scenario for one rule at one overlap level.

    The base update X1_L targets every person; a companion update
    targets the first ``percent`` % of the same nodes, producing exactly
    the duplicate (O1), ancestor-shadowed (O3) or mergeable (I5) atomic
    operations the rule eliminates.
    """
    document = engine.document
    persons = list(document.nodes_with_label("person"))
    overlap = persons[: max(1, len(persons) * percent // 100)]
    overlap_ids = [node.id for node in overlap]
    if rule == "O1":
        return [
            ResolvedDeleteUpdate(overlap_ids, name="overlap_del"),
            DeleteUpdate("/site/people/person", name="X1_L_del"),
        ]
    if rule == "O3":
        return [
            ResolvedDeleteUpdate(overlap_ids, name="overlap_del"),
            DeleteUpdate("/site/people", name="ancestor_del"),
        ]
    if rule == "I5":
        snippet = "<name>I5<name>extra</name></name>"
        return [
            ResolvedInsertUpdate(overlap_ids, snippet, name="overlap_ins"),
            InsertUpdate("/site/people/person", snippet, name="X1_L_ins"),
        ]
    raise ValueError("unknown rule %r" % rule)


def run_reduction_rule(
    rule: str,
    scale: int = 2,
    percents: Sequence[int] = (20, 40, 60, 80, 100),
    view: str = "Q1",
    repeats: int = 3,
    verify: bool = True,
) -> List[Dict[str, object]]:
    """Optimised vs unoptimised propagation of overlapping updates.

    The optimisation time itself is included in the optimised runs, as
    in the paper.  Each configuration takes the best of ``repeats``
    fresh runs to damp timer noise.  Expected shape: optimised ≤
    unoptimised, the gap widening with the overlap percentage
    (Figures 33, 34, 35).
    """
    rows: List[Dict[str, object]] = []
    for percent in percents:
        timings: Dict[bool, float] = {}
        op_counts: Dict[bool, int] = {}
        for optimize in (True, False):
            best = float("inf")
            for _ in range(max(1, repeats)):
                document = generate_document(scale=scale)
                engine = MaintenanceEngine(document)
                registered = engine.register_view(
                    view_pattern(view), view, strategy="snowcaps"
                )
                statements = _overlap_statements(engine, rule, percent)
                # Section 6.8: "we modified our system to operate in this
                # [atomic] manner" -- both variants propagate one atomic
                # operation at a time; optimisation reduces the list first
                # and its own cost is included in the measurement.
                operations = [
                    op
                    for statement in statements
                    for op in pul_to_operations(compute_pul(document, statement))
                ]
                started = time.perf_counter()
                if optimize:
                    operations = reduce_operations(operations)
                for op in operations:
                    engine.apply_update(op)
                    registered.view.refresh()  # the eager refresh, timed
                best = min(best, time.perf_counter() - started)
                op_counts[optimize] = len(operations)
                if verify and not registered.view.equals_fresh_evaluation(document):
                    raise AssertionError(
                        "rule %s at %d%% diverged (optimize=%s)" % (rule, percent, optimize)
                    )
            timings[optimize] = best
        rows.append(
            {
                "rule": rule,
                "percent": percent,
                "optimized_s": round(timings[True], 6),
                "unoptimized_s": round(timings[False], 6),
                "ops_optimized": op_counts[True],
                "ops_unoptimized": op_counts[False],
                "saving": round(1.0 - timings[True] / max(timings[False], 1e-9), 3),
            }
        )
    return rows
