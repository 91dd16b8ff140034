"""The whole-state scans the ID probes replaced, kept as test oracles.

Until the probe rewrite every batch paid five passes over state that
grows with the document, not with the batch: XPath ``//label`` steps
walked every node, the PIMT/PDMT refresh bisected sorted target lists
once per stored row, the lattice upkeep filtered every stored row, and
the source reconstruction filtered (and re-sorted) whole canonical
relations.  Dirty-subtree detection likewise bisected two key lists
per net-removed node before it probed the touch points' ancestor
chains instead.  The probe versions must compute *exactly* what these did;
``tests/test_probe_oracles.py`` holds them to it on random documents
and batches.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.pattern.xpath_parser import (
    AndFilter,
    ExistsFilter,
    FilterExpr,
    OrFilter,
    PathExpr,
    Step,
    ValueFilter,
    _test_matches,
)
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document, ElementNode, Node

# -- XPath: walk every node for a descendant step ------------------------------


def _filter_holds(expr: FilterExpr, node: Node) -> bool:
    if isinstance(expr, ExistsFilter):
        return any(True for _ in scan_match_from(expr.path, node))
    if isinstance(expr, ValueFilter):
        if expr.path is None:
            return node.val == expr.constant
        return any(
            match.val == expr.constant for match in scan_match_from(expr.path, node)
        )
    if isinstance(expr, AndFilter):
        return all(_filter_holds(part, node) for part in expr.parts)
    if isinstance(expr, OrFilter):
        return any(_filter_holds(part, node) for part in expr.parts)
    raise TypeError("unknown filter %r" % (expr,))


def _step_matches(step: Step, context: Node) -> Iterator[Node]:
    if not isinstance(context, ElementNode):
        return
    candidates = context.children if step.axis == "child" else context.descendants()
    for node in candidates:
        if _test_matches(step.test, node) and all(
            _filter_holds(pred, node) for pred in step.predicates
        ):
            yield node


def scan_match_from(path: PathExpr, context: Node) -> Iterator[Node]:
    """Relative evaluation by subtree walks, deduplicated and re-sorted
    per step."""
    frontier: List[Node] = [context]
    for step in path.steps:
        seen = set()
        next_frontier: List[Node] = []
        for node in frontier:
            for match in _step_matches(step, node):
                if match.id not in seen:
                    seen.add(match.id)
                    next_frontier.append(match)
        next_frontier.sort(key=lambda n: n.id)
        frontier = next_frontier
        if not frontier:
            break
    return iter(frontier)


def scan_evaluate(path: PathExpr, document: Document) -> List[Node]:
    """Absolute evaluation: ``//x`` visits the root and every descendant."""
    first, rest = path.steps[0], path.steps[1:]
    root = document.root
    pool = [root] if first.axis == "child" else [root, *root.descendants()]
    roots = [
        node
        for node in pool
        if _test_matches(first.test, node)
        and all(_filter_holds(pred, node) for pred in first.predicates)
    ]
    if not rest:
        return roots
    tail = PathExpr(rest, absolute=False)
    out: List[Node] = []
    seen = set()
    for start in roots:
        for match in scan_match_from(tail, start):
            if match.id not in seen:
                seen.add(match.id)
                out.append(match)
    out.sort(key=lambda n: n.id)
    return out


# -- PIMT/PDMT refresh: one bisect pair per stored row ---------------------------


def has_descendant_or_self(sorted_ids: Sequence[DeweyID], ancestor: DeweyID) -> bool:
    position = bisect.bisect_left(sorted_ids, ancestor)
    return position < len(sorted_ids) and ancestor.is_ancestor_or_self(
        sorted_ids[position]
    )


def has_strict_descendant(sorted_ids: Sequence[DeweyID], ancestor: DeweyID) -> bool:
    position = bisect.bisect_right(sorted_ids, ancestor)
    return position < len(sorted_ids) and ancestor.is_ancestor_of(sorted_ids[position])


def scan_attribute_refreshes(
    view,
    document: Document,
    insert_target_ids: Sequence[DeweyID],
    delete_target_ids: Sequence[DeweyID],
) -> List[Tuple[tuple, tuple]]:
    """Snapshot the extent; per stored content node, bisect the sorted
    insert targets (descendant-or-self) and delete targets (strict)."""
    pattern = view.pattern
    cvn = pattern.content_nodes()
    if not cvn or (not insert_target_ids and not delete_target_ids):
        return []
    sorted_insert_targets = sorted(set(insert_target_ids))
    sorted_delete_targets = sorted(set(delete_target_ids))
    column_index = {pair: i for i, pair in enumerate(pattern.return_columns())}
    replacements: List[Tuple[tuple, tuple]] = []
    for row, _count in view.content():
        new_row = None
        for node in cvn:
            stored_id: DeweyID = row[column_index[(node.name, "ID")]]
            touched = has_descendant_or_self(
                sorted_insert_targets, stored_id
            ) or has_strict_descendant(sorted_delete_targets, stored_id)
            if not touched:
                continue
            doc_node = document.node_by_id(stored_id)
            if doc_node is None:
                continue
            if new_row is None:
                new_row = list(row)
            if node.store_val:
                new_row[column_index[(node.name, "val")]] = doc_node.val
            if node.store_cont:
                new_row[column_index[(node.name, "cont")]] = doc_node.cont
        if new_row is not None and tuple(new_row) != row:
            replacements.append((row, tuple(new_row)))
    return replacements


# -- lattice upkeep: filter every stored row ----------------------------------------


def scan_drop_deleted(rows: Sequence[tuple], deleted_ids: Set[DeweyID]) -> List[tuple]:
    """Column-blind Δ− filter: a row dies when any cell was deleted."""
    return [row for row in rows if not any(cell.id in deleted_ids for cell in row)]


def scan_drop_flipped(
    schema: Sequence[str],
    rows: Sequence[tuple],
    drops_by_name: Dict[str, Set[DeweyID]],
) -> List[tuple]:
    """Column-aware σ-flip filter: a row dies when a flipped-false node
    is bound at that σ node's own column."""
    columns = [
        (index, drops_by_name[name])
        for index, name in enumerate(schema)
        if drops_by_name.get(name)
    ]
    return [
        row
        for row in rows
        if not any(row[index].id in doomed for index, doomed in columns)
    ]


# -- source reconstruction: filter + re-sort a whole canonical relation ---------------


def scan_spliced(
    rows: Sequence[Node], cut_ids: Set[DeweyID], merge_nodes: Sequence[Node]
) -> List[Node]:
    """``R_label`` minus Δ+ plus Δ−: a ``not in`` comprehension over the
    whole relation and a Python-keyed re-sort."""
    base = [node for node in rows if node.id not in cut_ids]
    base.extend(merge_nodes)
    base.sort(key=lambda n: n.id)
    return base


# -- dirty-subtree detection: one bisect per net-removed node and statement -----------


def scan_dirty_removed_nodes(application) -> List[Node]:
    """Net-removed nodes with a batch-inserted node, or a node removed
    by an earlier statement, strictly below them: every net-removed
    node's subtree key range is bisected into the sorted inserted keys
    and into each earlier statement's sorted removed keys."""

    def strictly_below(sorted_keys, node_id) -> bool:
        position = bisect.bisect_right(sorted_keys, node_id.sort_key)
        return (
            position < len(sorted_keys)
            and sorted_keys[position] < node_id.subtree_end_key
        )

    inserted_keys = sorted(node_id.sort_key for node_id in application.inserted_ids)
    removed_by_statement: Dict[int, list] = {}
    for node, index in application.removed_records:
        removed_by_statement.setdefault(index, []).append(node.id.sort_key)
    for keys in removed_by_statement.values():
        keys.sort()
    return [
        node
        for node, index in application.net_removed_records()
        if strictly_below(inserted_keys, node.id)
        or any(
            strictly_below(keys, node.id)
            for earlier, keys in removed_by_statement.items()
            if earlier < index
        )
    ]
