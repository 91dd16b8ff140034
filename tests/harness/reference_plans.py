"""Per-call derivations of what a ``ViewPlan`` holds, kept as oracle.

Before views were compiled into ``repro.maintenance.plan.ViewPlan``
at registration, every live Δ± side of every view re-developed its
term lattice, and every term evaluation re-picked its join order one
pattern node at a time.  This module keeps both derivations as they
were made per call, by their definitions:

* :func:`descendant_closed_sets` enumerates every node subset of the
  pattern and keeps the non-empty ones closed under taking pattern
  children (Props. 3.3 / 4.2), in the developed order (by size, then
  by sorted names); :func:`insert_terms` / :func:`delete_terms` sign
  them (Prop. 4.3(i), the even ones dropped under Prop. 4.3(ii));
* :func:`join_order` replays the removed evaluator loop: starting from
  the ``seed`` schema, it repeatedly joins the pending node adjacent
  to the bound part with the best rank (Δ, then reached upward, then
  reached downward; preorder breaks ties).

``tests/test_view_plans.py`` holds the plans of registered views to
these.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.maintenance.terms import Term
from repro.pattern.tree_pattern import Pattern, PatternNode


def descendant_closed_sets(pattern: Pattern) -> List[FrozenSet[str]]:
    """Every non-empty node set holding, with each node, its children."""
    nodes = pattern.nodes()
    names = [node.name for node in nodes]
    closed = []
    for size in range(1, len(names) + 1):
        for subset in combinations(names, size):
            chosen = frozenset(subset)
            if all(
                child.name in chosen
                for node in nodes
                if node.name in chosen
                for child in node.children
            ):
                closed.append(chosen)
    return sorted(closed, key=lambda s: (len(s), sorted(s)))


def insert_terms(pattern: Pattern) -> List[Term]:
    return [Term(delta_set, +1) for delta_set in descendant_closed_sets(pattern)]


def delete_terms(pattern: Pattern, prune_even_terms: bool) -> List[Term]:
    terms = [
        Term(delta_set, +1 if len(delta_set) % 2 else -1)
        for delta_set in descendant_closed_sets(pattern)
    ]
    return [term for term in terms if term.sign > 0 or not prune_even_terms]


def _next_neighbor(
    pending: Sequence[PatternNode], bound: Sequence[str], delta_set: FrozenSet[str]
) -> Tuple[PatternNode, Optional[PatternNode]]:
    best = None
    for node in pending:
        if node.parent is not None and node.parent.name in bound:
            below: Optional[PatternNode] = None
        else:
            below = next((c for c in node.children if c.name in bound), None)
            if below is None:
                continue
        if node.name in delta_set:
            rank = 0
        elif below is not None:
            rank = 1
        else:
            rank = 2
        if best is None or rank < best[0]:
            best = (rank, node, below)
    assert best is not None
    return best[1], best[2]


def join_order(
    pattern: Pattern, delta_set: FrozenSet[str], seed: Tuple[str, ...]
) -> Tuple[tuple, ...]:
    """The ``(name, from Δ, bound child, parent, label, axis)`` steps the
    per-call evaluator took from ``seed`` over the whole pattern."""
    schema = list(seed)
    pending = [node for node in pattern.nodes() if node.name not in schema]
    steps = []
    while pending:
        node, below = _next_neighbor(pending, schema, delta_set)
        pending.remove(node)
        lower = node if below is None else below
        steps.append(
            (
                node.name,
                node.name in delta_set,
                below.name if below is not None else None,
                node.parent.name if node.parent is not None else None,
                node.label,
                "parent" if lower.axis == "child" else "ancestor",
            )
        )
        schema.append(node.name)
    return tuple(steps)
