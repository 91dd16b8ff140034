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
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set

from repro.pattern.evaluate import filter_by_predicate
from repro.pattern.tree_pattern import Pattern
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Node

if TYPE_CHECKING:
    from repro.maintenance.plan import ViewPlan


class DeltaTables:
    """Per-pattern-node Δ tables (insert or delete flavour)."""

    def __init__(self, pattern: Pattern, tables: Dict[str, List[Node]], sign: str):
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-', got %r" % sign)
        self.pattern = pattern
        #: a table may be the batch's own label bucket
        #: (:func:`delta_from_candidates`): read, never mutate.
        self.tables = tables
        self.sign = sign
        self._ancestor_labels: Dict[str, FrozenSet[str]] = {}

    def nodes(self, name: str) -> List[Node]:
        return self.tables.get(name, [])

    def ancestor_labels(self, name: str) -> FrozenSet[str]:
        """The labels of the proper ancestors of the table's nodes, per
        their Dewey IDs (Prop. 4.7's test), collected once per table:
        a chain stops at the first ancestor already seen."""
        labels = self._ancestor_labels.get(name)
        if labels is None:
            found: Set[str] = set()
            seen: Set[bytes] = set()
            for node in self.nodes(name):
                walk = node.id.parent()
                while walk is not None and walk.sort_key not in seen:
                    seen.add(walk.sort_key)
                    found.add(walk.label)
                    walk = walk.parent()
            labels = self._ancestor_labels[name] = frozenset(found)
        return labels

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


def touched_labels(plan: "ViewPlan", candidates: BatchCandidates) -> List[str]:
    """Candidate labels this view's Δ tables can see (label-level
    liveness check: an empty result proves every Δ table empty, so the
    whole side can be skipped without σ-filtering anything)."""
    if not candidates.by_label:
        return []
    if plan.wildcard:
        return sorted(candidates.by_label)
    return sorted(label for label in candidates.by_label if label in plan.labels)


def delta_from_candidates(
    plan: "ViewPlan", candidates: BatchCandidates, sign: str
) -> DeltaTables:
    """Split a shared candidate set into one view's Δ tables.

    Each pattern node reads its own label's bucket (document-ordered
    already) instead of re-walking the whole candidate list: a node
    with no σ and no ``*`` takes the bucket itself, shared with every
    other view (read-only); a σ node σ-filters it, a ``*`` node keeps
    the candidate elements.
    """
    by_label = candidates.by_label
    tables: Dict[str, List[Node]] = {}
    for name, label, filtered in plan.extraction:
        if filtered is None:
            tables[name] = by_label.get(label, [])
        else:
            pool = candidates.nodes if label == "*" else by_label.get(label, [])
            tables[name] = filter_by_predicate(pool, filtered)
    return DeltaTables(plan.pattern, tables, sign)


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
