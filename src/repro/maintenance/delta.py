"""Δ table computation: Algorithm 2 (CD+) and its deletion mirror (CD−).

For every view node ``n`` labeled ``l``, the Δ+ table collects the
``(ID, val, cont)`` tuples of the ``l``-labeled nodes among the newly
inserted subtrees (``extr-pattern(//l, t_i)`` over every inserted tree
``t_i``); the Δ− table collects the doomed nodes of that label.

Δ tables here hold node references (IDs plus lazily-derived val/cont),
filtered by the view node's σ value predicate up front -- the paper's
``σ_n(Δ+_n)`` push-down that powers Prop. 3.6/Example 3.5 pruning.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Sequence

from repro.pattern.evaluate import filter_by_predicate
from repro.pattern.tree_pattern import Pattern
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Node


class DeltaTables:
    """Per-pattern-node Δ tables (insert or delete flavour)."""

    def __init__(self, pattern: Pattern, tables: Dict[str, List[Node]], sign: str):
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-', got %r" % sign)
        self.pattern = pattern
        self.tables = tables
        self.sign = sign

    def nodes(self, name: str) -> List[Node]:
        return self.tables.get(name, [])

    def is_empty(self, name: str) -> bool:
        return not self.tables.get(name)

    def nonempty_names(self) -> List[str]:
        return [name for name, rows in self.tables.items() if rows]

    def __repr__(self) -> str:
        sizes = {name: len(rows) for name, rows in self.tables.items() if rows}
        return "DeltaTables(Δ%s, %r)" % (self.sign, sizes)


class BatchCandidates:
    """Label-bucketed Δ candidates, built once and shared across views.

    One sorted, label-indexed candidate set serves every registered
    view's σ-filtering (the candidates are view-independent -- only
    the σ push-down is per view).
    """

    __slots__ = ("nodes", "by_label")

    #: document-order key read via C-level dotted attrgetter (every
    #: candidate is attached or detached-with-ID, so ``dewey`` is set).
    _order = attrgetter("dewey.sort_key")

    def __init__(self, nodes: Sequence[Node]):
        self.nodes: List[Node] = sorted(nodes, key=BatchCandidates._order)
        by_label: Dict[str, List[Node]] = {}
        for node in self.nodes:
            bucket = by_label.get(node.label)
            if bucket is None:
                by_label[node.label] = [node]
            else:
                bucket.append(node)
        self.by_label = by_label

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return "BatchCandidates(%d nodes, %d labels)" % (
            len(self.nodes),
            len(self.by_label),
        )


class SideStats:
    """Sub-timings and counters of one view's Δ−, Δ+ or σ-repair side,
    folded into its :class:`~repro.maintenance.engine.ViewReport`."""

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


def touched_labels(pattern: Pattern, candidates: BatchCandidates) -> List[str]:
    """Candidate labels this pattern's Δ tables can see (label-level
    liveness check: an empty result proves every Δ table empty, so the
    whole side can be skipped without σ-filtering anything)."""
    if not candidates.by_label:
        return []
    if any(node.label == "*" for node in pattern.nodes()):
        return sorted(candidates.by_label)
    pattern_labels = {node.label for node in pattern.nodes()}
    return sorted(label for label in candidates.by_label if label in pattern_labels)


def _extract_for_pattern(pattern: Pattern, candidates: BatchCandidates) -> Dict[str, List[Node]]:
    # Each pattern node σ-filters its own label's bucket instead of
    # re-walking the whole candidate list (patterns share labels across
    # nodes); buckets are document-ordered already.
    tables: Dict[str, List[Node]] = {}
    for node in pattern.nodes():
        pool = candidates.nodes if node.label == "*" else candidates.by_label.get(node.label, [])
        tables[node.name] = filter_by_predicate(pool, node)
    return tables


def delta_from_candidates(
    pattern: Pattern, candidates: BatchCandidates, sign: str
) -> DeltaTables:
    """σ-filter a shared candidate set into one view's Δ tables."""
    return DeltaTables(pattern, _extract_for_pattern(pattern, candidates), sign)


def flip_delta(
    pattern: Pattern, name: str, nodes: Sequence[Node], sign: str
) -> DeltaTables:
    """Single-name Δ table for a σ-flip repair term.

    A flip's effect is bounded by the flipped candidates of one σ
    pattern node (they joined -- or now join -- the node's filtered
    relation without the document gaining or losing nodes), so the
    repair Δ± reads Δ at exactly that one name and the canonical
    relations everywhere else.  Candidates are sorted into document
    order so repair fragments are deterministic across workers.
    """
    ordered = sorted(nodes, key=BatchCandidates._order)
    return DeltaTables(pattern, {name: ordered}, sign)


def doomed_nodes(targets: Sequence[Node]) -> List[Node]:
    """Expand deletion targets to the full removed node set, pre-apply.

    XQuery delete semantics removes each target with its whole subtree;
    CD− needs the full set *before* the document is touched, so that
    term evaluation still sees the old canonical relations.
    """
    out: List[Node] = []
    seen: set = set()
    for target in targets:
        for node in target.self_and_descendants():
            if node.id not in seen:
                seen.add(node.id)
                out.append(node)
    out.sort(key=lambda n: n.id.sort_key)
    return out
