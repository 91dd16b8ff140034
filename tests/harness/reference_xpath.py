"""XPath by the definition, kept as the oracle of the indexed evaluator.

Every location step visits every node of the document and keeps, in a
preorder walk (document order), the nodes that pass the name test,
stand in the step's axis relation to some node of the previous
frontier -- their parent, or any proper ancestor for ``//`` -- and
satisfy each predicate, checked node by node.  Nothing here reads a
label relation, a Dewey key, a cached ``val`` or a sort; the AST is the
only thing shared with ``repro.pattern.xpath_parser``.
``tests/test_xpath.py`` holds ``PathExpr.evaluate`` and
``PathExpr.match_from`` to it, node for node and in order.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.pattern.xpath_parser import (
    AndFilter,
    ExistsFilter,
    FilterExpr,
    OrFilter,
    PathExpr,
    Step,
    ValueFilter,
)
from repro.xmldom.model import Document, Node, fresh_val


def _preorder(node: Node) -> Iterator[Node]:
    yield node
    for child in getattr(node, "children", ()):
        yield from _preorder(child)


def _passes(test: str, node: Node) -> bool:
    if test == "*":
        return node.kind == "element"
    if test == "text()":
        return node.kind == "text"
    if test.startswith("@"):
        return node.kind == "attribute" and node.label == test
    return node.kind == "element" and node.label == test


def _related(axis: str, node: Node, frontier: Optional[List[Node]]) -> bool:
    """Whether ``node`` is a child (``child``) or a proper descendant
    (``desc``) of some frontier node; ``None`` is the document node,
    the root's parent."""
    if frontier is None:
        return axis == "desc" or node.parent is None
    above = node.parent
    while above is not None:
        if any(above is context for context in frontier):
            return True
        if axis == "child":
            return False
        above = above.parent
    return False


def _holds(expr: FilterExpr, node: Node, everything: List[Node]) -> bool:
    if isinstance(expr, ExistsFilter):
        return bool(_steps(expr.path.steps, [node], everything))
    if isinstance(expr, ValueFilter):
        if expr.path is None:
            return fresh_val(node) == expr.constant
        return any(
            fresh_val(match) == expr.constant
            for match in _steps(expr.path.steps, [node], everything)
        )
    if isinstance(expr, AndFilter):
        return all(_holds(part, node, everything) for part in expr.parts)
    if isinstance(expr, OrFilter):
        return any(_holds(part, node, everything) for part in expr.parts)
    raise TypeError("unknown filter %r" % (expr,))


def _steps(
    steps: List[Step], frontier: Optional[List[Node]], everything: List[Node]
) -> List[Node]:
    for step in steps:
        frontier = [
            node
            for node in everything
            if _passes(step.test, node)
            and _related(step.axis, node, frontier)
            and all(_holds(pred, node, everything) for pred in step.predicates)
        ]
    return frontier  # type: ignore[return-value]


def reference_evaluate(path: PathExpr, document: Document) -> List[Node]:
    """Absolute evaluation from the document node."""
    return _steps(path.steps, None, list(_preorder(document.root)))


def reference_match_from(path: PathExpr, context: Node, document: Document) -> List[Node]:
    """Relative evaluation from ``context``."""
    return _steps(path.steps, [context], list(_preorder(document.root)))
