"""Embedding-based tree-pattern semantics (the correctness oracle).

The customary semantics of tree patterns [Amer-Yahia et al. 2002]
defines the result through *embeddings*: mappings from pattern nodes to
document nodes preserving labels, value predicates and edge axes.  The
derivation count of a view tuple is the number of distinct embeddings
projecting onto it.

This evaluator is implemented independently of the algebraic one
(:mod:`repro.pattern.evaluate`) -- top-down recursive matching with
memoization instead of structural joins -- so the two can cross-check
each other in tests and so maintenance results have a ground truth:
``maintain(v, u) == embeddings(v, apply(u, d))`` must always hold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.relation import Relation
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.xmldom.model import Document, ElementNode, Node


def _matches(pnode: PatternNode, node: Node) -> bool:
    if pnode.label == "*":
        if not isinstance(node, ElementNode):
            return False
    elif node.label != pnode.label:
        return False
    if pnode.value_pred is not None and node.val != pnode.value_pred:
        return False
    return True


def _candidates(pnode: PatternNode, context: ElementNode) -> List[Node]:
    if pnode.axis == "child":
        return [child for child in context.children if _matches(pnode, child)]
    return [node for node in context.descendants() if _matches(pnode, node)]


def _match_subtree(
    pnode: PatternNode,
    node: Node,
    memo: Dict[Tuple[int, Node], List[tuple]],
) -> List[tuple]:
    """All embeddings of the pattern subtree rooted at ``pnode`` mapping
    ``pnode`` to ``node``; rows follow the subtree's preorder columns."""
    key = (id(pnode), node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not pnode.children:
        result = [(node,)]
        memo[key] = result
        return result
    per_child: List[List[tuple]] = []
    for child in pnode.children:
        rows: List[tuple] = []
        if isinstance(node, ElementNode):
            for candidate in _candidates(child, node):
                rows.extend(_match_subtree(child, candidate, memo))
        if not rows:
            memo[key] = []
            return []
        per_child.append(rows)
    combined: List[tuple] = [(node,)]
    for rows in per_child:
        combined = [prefix + row for prefix in combined for row in rows]
    memo[key] = combined
    return combined


def evaluate_embeddings(pattern: Pattern, document: Document) -> Relation:
    """The binding relation computed by embedding enumeration."""
    root = pattern.root
    memo: Dict[Tuple[int, Node], List[tuple]] = {}
    if root.axis == "child":
        roots: List[Node] = [document.root] if _matches(root, document.root) else []
    else:
        roots = [
            node
            for node in document.root.self_and_descendants()
            if _matches(root, node)
        ]
        roots.sort(key=lambda n: n.id.sort_key)
    rows: List[tuple] = []
    for start in roots:
        rows.extend(_match_subtree(root, start, memo))
    schema = [node.name for node in pattern.nodes()]
    relation = Relation(schema, rows)
    relation.rows.sort(key=lambda row: tuple(cell.id for cell in row))
    return relation
