"""Algebraic evaluation of tree patterns over per-node source relations.

This module realizes the pattern semantics of Figure 4::

    s(δ(π(σ(R_a1 × R_a2 × ... × R_ak))))

as a chain of *structural joins* (never a raw product), exactly the
evaluation strategy the maintenance algorithms reuse: term evaluation in
ET-INS / ET-DEL calls :func:`evaluate_bindings` with some sources bound
to canonical relations ``R`` and others to Δ tables.

Sources are document-ordered rows per pattern-node name
(:data:`~repro.xmldom.index.Rows`: a label's blocked rows, a value-index
bucket, or either with one batch's edits overlaid): full evaluation
below iterates them whole, term evaluation probes them by key.  They
are the indexes' own rows, handed out rather than copied -- read, never
mutate.
Value predicates (σ) are applied when sources are drawn
(:func:`sources_from_document`), mirroring the paper's
``σ_a(R_a ∪ Δ+_a)`` selection push-down; σ-constant selections over
named labels resolve through the document's value index
(:meth:`~repro.xmldom.model.Document.nodes_with_value`) rather than
scanning and re-deriving ``val`` for the whole canonical relation.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.operators import duplicate_eliminate, project, sort_rows
from repro.algebra.relation import Relation
from repro.algebra.structural import structural_join
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.xmldom.index import KeyedRows, Rows
from repro.xmldom.model import Document, ElementNode, Node

Sources = Dict[str, Rows]


def _node_source(document: Document, node: PatternNode) -> Rows:
    if node.value_pred is not None:
        # σ-constant selection: an index lookup, not a relation scan
        # (wildcards resolve through the all-labels value index).
        return document.keyed_value(node.label, node.value_pred)
    if node.label == "*":
        return KeyedRows.of(
            sorted(document.all_elements(), key=lambda n: n.id.sort_key)
        )
    return document.keyed_label(node.label)


def filter_by_predicate(nodes: Sequence[Node], node: PatternNode) -> List[Node]:
    """σ: keep nodes matching the pattern node's label and value predicate."""
    out = []
    for candidate in nodes:
        if not node.matches_label(candidate.label):
            continue
        if node.label == "*" and not isinstance(candidate, ElementNode):
            continue
        if node.value_pred is not None and candidate.val != node.value_pred:
            continue
        out.append(candidate)
    return out


def sources_from_document(pattern: Pattern, document: Document) -> Sources:
    """Canonical-relation sources (σ applied) for every pattern node."""
    return {node.name: _node_source(document, node) for node in pattern.nodes()}


def evaluate_bindings(
    pattern: Pattern,
    document: Optional[Document] = None,
    sources: Optional[Sources] = None,
    require_root_at_document_root: bool = True,
) -> Relation:
    """The binding relation: one column per pattern node, one row per
    embedding of the pattern into the (virtual) source relations.

    Either a document or explicit per-node ``sources`` must be given.
    A ``child``-axis pattern root anchors at the document root
    (matching absolute paths like ``/site/...``); pass
    ``require_root_at_document_root=False`` for patterns evaluated
    against free forests (e.g. extraction from inserted subtrees).
    """
    if sources is None:
        if document is None:
            raise ValueError("need a document or explicit sources")
        sources = sources_from_document(pattern, document)
    nodes = pattern.nodes()
    root = nodes[0]
    root_nodes = sources[root.name]
    if root.axis == "child" and require_root_at_document_root:
        root_nodes = [n for n in root_nodes if n.id.depth == 1]
    relation = Relation.single_column(root.name, root_nodes)
    for parent, child in pattern.edges():
        axis = "parent" if child.axis == "child" else "ancestor"
        right = Relation.single_column(child.name, sources[child.name])
        relation = structural_join(relation, right, parent.name, child.name, axis)
    # Restore preorder column order and sort by all binding IDs.
    relation = relation.reordered([node.name for node in nodes])
    return sort_rows(relation)


ViewTuple = tuple
ViewContent = List[Tuple[ViewTuple, int]]


def view_columns(pattern: Pattern) -> List[str]:
    """Column names of the view output, e.g. ``person#1.ID``."""
    return ["%s.%s" % (name, attr) for name, attr in pattern.return_columns()]


#: stored annotation -> the node attribute that carries it.
_ANNOTATION_ATTRIBUTES = {"ID": "id", "val": "val", "cont": "cont"}


class ProjectionPlan:
    """π compiled from a pattern: the view's output schema and, per
    output column, the binding column it reads (by the pattern's
    preorder, the schema every evaluator returns bindings in) and the
    node attribute it extracts."""

    __slots__ = ("schema", "binding_schema", "cells")

    def __init__(self, pattern: Pattern):
        names = [node.name for node in pattern.nodes()]
        self.binding_schema: Tuple[str, ...] = tuple(names)
        self.schema: Tuple[str, ...] = tuple(view_columns(pattern))
        self.cells: Tuple[Tuple[int, str], ...] = tuple(
            (names.index(name), _ANNOTATION_ATTRIBUTES[annotation])
            for name, annotation in pattern.return_columns()
        )


def project_bindings(plan: ProjectionPlan, bindings: Relation) -> Relation:
    """π: stored-attribute extraction over a binding relation whose
    columns are the pattern's nodes in preorder, one output column at a
    time (an attribute read per row, in C-level iteration), then zipped
    into rows."""
    if bindings.schema != plan.binding_schema:
        raise ValueError(
            "bindings %r are not in pattern preorder %r"
            % (bindings.schema, plan.binding_schema)
        )
    rows = bindings.rows
    cells = plan.cells
    if not cells:
        return Relation._trusted(plan.schema, [()] * len(rows))
    columns = [
        map(attrgetter(attribute), map(itemgetter(index), rows))
        for index, attribute in cells
    ]
    return Relation._trusted(plan.schema, list(zip(*columns)))


def evaluate_view(
    pattern: Pattern,
    document: Optional[Document] = None,
    sources: Optional[Sources] = None,
) -> ViewContent:
    """Full view semantics ``s(δ(π(σ(...))))``.

    Returns distinct view tuples with their derivation counts, sorted
    by the binding IDs (the paper's output order).
    """
    bindings = evaluate_bindings(pattern, document=document, sources=sources)
    projected = project_bindings(ProjectionPlan(pattern), bindings)
    return duplicate_eliminate(projected)
