"""Shared machinery for the experiment drivers.

The central primitive is :func:`run_maintenance_pair`: build a fresh
document at a given scale, register one view, propagate one update, and
return the five-phase timing breakdown plus result counters -- one bar
of Figures 18/19 (or one matrix cell of Figures 20/21).

Every run also *verifies* the maintained extent against recomputation,
so benchmark numbers can never come from an incorrect propagation.

The paper's PIMT/PDMT refresh is eager, the engine's runs on the next
read: each timed update reads the view inside the timed region, its
seconds credited to Execute Update and its rows to ``tuples_modified``.

The harness reproduces the paper, so it registers views with the
``"snowcaps"`` lattice (Section 3.5) unless a caller passes
``strategy="leaves"``, the engine's own default.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.maintenance.engine import MaintenanceEngine, PHASES, RegisteredView
from repro.pattern.tree_pattern import Pattern
from repro.updates.language import UpdateStatement
from repro.workloads.queries import view_pattern
from repro.workloads.updates import delete_variant, insert_update
from repro.workloads.xmark import generate_document, size_of
from repro.xmldom.model import Document


class BreakdownRow:
    """One (view, update) measurement with the paper's phase breakdown."""

    def __init__(self, view: str, update: str, kind: str):
        self.view = view
        self.update = update
        self.kind = kind  # 'insert' | 'delete'
        self.phase_seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.counters: Dict[str, float] = {}
        self.document_bytes = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "view": self.view,
            "update": self.update,
            "kind": self.kind,
            "total_s": round(self.total_seconds, 6),
            "doc_bytes": self.document_bytes,
        }
        for phase in PHASES:
            out[phase] = round(self.phase_seconds[phase], 6)
        out.update(self.counters)
        return out

    def __repr__(self) -> str:
        return "BreakdownRow(%s %s %s: %.4fs)" % (
            self.view,
            self.update,
            self.kind,
            self.total_seconds,
        )


def fresh_engine(
    scale: int,
    view_names: Sequence[str] = (),
    strategy: str = "snowcaps",
    seed: int = 20110322,
) -> MaintenanceEngine:
    """A new engine over a freshly generated document with views."""
    document = generate_document(scale=scale, seed=seed)
    engine = MaintenanceEngine(document)
    for name in view_names:
        engine.register_view(view_pattern(name), name, strategy=strategy)
    return engine


def statement_for(update_name: str, kind: str) -> UpdateStatement:
    if kind == "insert":
        return insert_update(update_name)
    if kind == "delete":
        return delete_variant(update_name)
    raise ValueError("kind must be 'insert' or 'delete', got %r" % kind)


def update_profile_of(statement: UpdateStatement) -> list:
    """The labels an update statement is expected to touch.

    This is the paper's *update profile* (Section 3.5): for insertions,
    the labels of the inserted forest; for deletions, the label of the
    target path's last step.  It steers snowcap selection.
    """
    labels = set()
    forest = getattr(statement, "forest", None)
    if forest:
        for tree in forest:
            for node in tree.self_and_descendants():
                labels.add(node.label)
    elif getattr(statement, "target", None) is not None:
        labels.add(statement.target.steps[-1].test)
    return sorted(labels)


def run_maintenance_pair(
    scale: int,
    view_name: str,
    update_name: str,
    kind: str,
    strategy: str = "snowcaps",
    pattern: Optional[Pattern] = None,
    statement: Optional[UpdateStatement] = None,
    verify: bool = True,
    use_update_profile: bool = False,
) -> BreakdownRow:
    """Propagate one update to one view on a fresh document.

    ``pattern`` / ``statement`` override the named workload entries
    (used by the annotation-variant and path-depth experiments).
    ``use_update_profile`` feeds the statement's update profile to the
    snowcap selection, as Section 3.5's cost-based choice would.
    """
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document)
    update_for_profile = statement if statement is not None else statement_for(update_name, kind)
    registered = engine.register_view(
        pattern if pattern is not None else view_pattern(view_name),
        view_name,
        strategy=strategy,
        update_profile=(
            update_profile_of(update_for_profile)
            if use_update_profile and strategy == "snowcaps"
            else None
        ),
    )
    update = statement if statement is not None else statement_for(update_name, kind)
    report = engine.apply_update(update)
    started = time.perf_counter()
    tuples_modified = registered.view.refresh()  # the eager PIMT/PDMT share
    refresh_seconds = time.perf_counter() - started
    view_report = report.report_for(view_name)

    row = BreakdownRow(view_name, update_name, kind)
    row.document_bytes = size_of(document)
    row.phase_seconds = dict(view_report.phases.as_dict())
    row.phase_seconds["execute_update"] += refresh_seconds
    row.counters = {
        "term_eval_s": round(view_report.term_eval_seconds, 6),
        "targets": view_report.targets,
        "terms_developed": view_report.terms_developed,
        "terms_surviving": view_report.terms_surviving,
        "derivations_added": view_report.derivations_added,
        "derivations_removed": view_report.derivations_removed,
        "tuples_modified": tuples_modified,
        "view_tuples": len(registered.view),
    }
    if verify and not registered.view.equals_fresh_evaluation(document):
        raise AssertionError(
            "maintained view %s diverged under %s (%s)" % (view_name, update_name, kind)
        )
    return row


def format_rows(rows: Sequence[BreakdownRow], title: str = "") -> str:
    """A paper-style text table (ms per phase, stacked like the bars)."""
    header = "%-6s %-12s %-7s" % ("view", "update", "kind")
    header += "".join(" %14s" % phase[:14] for phase in PHASES)
    header += " %10s" % "total_ms"
    lines = [title, header] if title else [header]
    for row in rows:
        line = "%-6s %-12s %-7s" % (row.view, row.update, row.kind)
        for phase in PHASES:
            line += " %14.2f" % (row.phase_seconds[phase] * 1000.0)
        line += " %10.2f" % (row.total_seconds * 1000.0)
        lines.append(line)
    return "\n".join(lines)
