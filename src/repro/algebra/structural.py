"""Physical ID-based operators: structural joins, PathFilter, PathNavigate.

The paper's Section 3.4 assumes three physical primitives from the
underlying XML engine, all of which exploit Compact Dynamic Dewey IDs:

* **structural join** [Al-Khalifa et al. 2002]: join two inputs on a
  parent (``≺``) or ancestor (``≺≺``) condition between ID columns;
* **PathFilter**: check whether a node (by ID alone) lies on a path
  satisfying a label condition;
* **PathNavigate**: obtain from node IDs the IDs of their parents.

Structural joins come in three physical forms, chosen by what the
caller holds on the two sides of a pattern edge:

:func:`structural_join`
    the hash join: both sides are relations that will be read in full
    -- full pattern evaluation, and term evaluation when the new side
    is a Δ table.  It exploits Dewey property (2): the ancestors of a
    node are readable off its own ID, so the join is a hash lookup per
    candidate ancestor prefix -- no sorting or stack needed.

:func:`probe_ancestors`
    the upward probe: the lower end of the edge is bound in a (Δ-sized)
    relation and the upper end is a keyed canonical relation.  Each
    bound ID's parent chain is walked and only its same-label ancestors
    are bisected into the source -- O(depth · log|R|) per row.

:func:`probe_descendants`
    the downward probe: the upper end is bound, the lower end is a
    keyed canonical relation.  Each bound ID's subtree is one
    contiguous key run of the source, bounded by two bisects and read
    as a slice -- O(log|R| + matches) per distinct bound ID on the
    descendant axis.  The child axis reads the same run and keeps the
    nodes one level down, so it costs O(log|R| + that label's subtree
    run): nested same-label nodes (the deeper ``b``'s of ``//*/b``) are
    read and dropped.

    Neither probe reads a source row outside the ancestor chains and
    subtree runs of the rows it extends, which is what keeps a term's
    cost on its Δ rather than on |R|.

:func:`stack_tree_pairs`
    the classic sort-merge Stack-Tree-Desc algorithm, kept as an
    independently-tested reference implementation (it is also the
    natural choice for stores whose IDs are start/end intervals rather
    than Dewey paths).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.algebra.relation import Relation
from repro.xmldom.dewey import DeweyID
from repro.xmldom.index import Rows
from repro.xmldom.model import Node


def _row_id(row: tuple, index: int) -> DeweyID:
    cell = row[index]
    if isinstance(cell, Node):
        return cell.id
    if isinstance(cell, DeweyID):
        return cell
    raise TypeError("structural join column holds %r, need node or ID" % (cell,))


def _check_axis(axis: str) -> None:
    if axis not in ("parent", "ancestor"):
        raise ValueError("axis must be 'parent' or 'ancestor', got %r" % (axis,))


def structural_join(
    left: Relation,
    right: Relation,
    left_column: str,
    right_column: str,
    axis: str = "ancestor",
) -> Relation:
    """Join rows where ``left_column`` ≺ / ≺≺ ``right_column``.

    ``axis`` is ``"parent"`` (≺) or ``"ancestor"`` (≺≺).  The output
    schema is the concatenation of both schemas; output order follows
    the right input (then the left input within one right row).
    """
    _check_axis(axis)
    right_index = right.column_index(right_column)
    by_id = left.index_by(left_column)
    schema = left.schema + right.schema
    out: List[tuple] = []
    if axis == "parent":
        for row in right.rows:
            for left_row in by_id.get(_row_id(row, right_index).parent(), ()):
                out.append(left_row + row)
    else:
        for row in right.rows:
            for ancestor_id in _row_id(row, right_index).ancestor_ids():
                for left_row in by_id.get(ancestor_id, ()):
                    out.append(left_row + row)
    return Relation._trusted(schema, out)


def probe_ancestors(
    relation: Relation,
    column: str,
    source: Rows,
    name: str,
    label: str,
    axis: str = "ancestor",
) -> Relation:
    """Extend each binding row by the ``source`` nodes that are the
    parent (≺) / the proper ancestors (≺≺) of its ``column`` node.

    ``label`` is the label every ``source`` node carries (``"*"``: any);
    ancestors labeled otherwise are skipped without a bisect.  The
    output schema is ``relation.schema + (name,)``.
    """
    _check_axis(axis)
    index = relation.column_index(column)
    find = source.find
    any_label = label == "*"
    parent_only = axis == "parent"
    out: List[tuple] = []
    for row in relation.rows:
        walk = row[index].id.parent()
        while walk is not None:
            if any_label or walk.label == label:
                node = find(walk.sort_key)
                if node is not None:
                    out.append(row + (node,))
            if parent_only:
                break
            walk = walk.parent()
    return Relation._trusted(relation.schema + (name,), out)


def probe_descendants(
    relation: Relation,
    column: str,
    source: Rows,
    name: str,
    axis: str = "ancestor",
) -> Relation:
    """Extend each binding row by the ``source`` nodes that are
    children (≺) / proper descendants (≺≺) of its ``column`` node.

    The child axis reads the same subtree run and keeps the nodes one
    level down, so it reads (and drops) the deeper same-label nodes of
    the run: its cost is the run, not the matches.  The output schema
    is ``relation.schema + (name,)``.
    """
    _check_axis(axis)
    index = relation.column_index(column)
    # Rows fanned out by earlier joins share their bound node: bisect
    # its run once.
    runs: Dict[DeweyID, List[Node]] = {}
    out: List[tuple] = []
    for row in relation.rows:
        node_id = row[index].id
        run = runs.get(node_id)
        if run is None:
            run = source.below(node_id)
            if axis == "parent":
                depth = node_id.depth + 1
                run = [node for node in run if node.id.depth == depth]
            runs[node_id] = run
        for node in run:
            out.append(row + (node,))
    return Relation._trusted(relation.schema + (name,), out)


def structural_semijoin(
    left: Relation,
    right: Relation,
    left_column: str,
    right_column: str,
    axis: str = "ancestor",
) -> Relation:
    """Right rows having at least one structural match on the left."""
    left_index = left.column_index(left_column)
    right_index = right.column_index(right_column)
    ids = {_row_id(row, left_index) for row in left.rows}
    out: List[tuple] = []
    for row in right.rows:
        node_id = _row_id(row, right_index)
        if axis == "parent":
            parent = node_id.parent()
            if parent is not None and parent in ids:
                out.append(row)
        else:
            if any(ancestor in ids for ancestor in node_id.ancestor_ids()):
                out.append(row)
    return Relation._trusted(right.schema, out)


def stack_tree_pairs(
    ancestors: Sequence[Node],
    descendants: Sequence[Node],
    axis: str = "ancestor",
) -> List[Tuple[Node, Node]]:
    """Classic Stack-Tree-Desc merge join over document-ordered inputs.

    Both inputs must be sorted in document order (canonical relations
    are).  Returns (ancestor, descendant) pairs sorted by descendant.
    """
    _check_axis(axis)
    out: List[Tuple[Node, Node]] = []
    stack: List[Node] = []
    a_iter = iter(ancestors)
    a = next(a_iter, None)
    for d in descendants:
        d_id = d.id
        # Bring every ancestor-stream node preceding d onto the stack.
        # Popped entries can never match later descendants: once the
        # stream has moved past a node's subtree, it never re-enters it.
        while a is not None and a.id < d_id:
            while stack and not stack[-1].id.is_ancestor_of(a.id):
                stack.pop()
            stack.append(a)
            a = next(a_iter, None)
        # Now the stack's ancestor chain is pruned to d's ancestors.
        while stack and not stack[-1].id.is_ancestor_of(d_id):
            stack.pop()
        for entry in stack:
            if axis == "ancestor" or entry.id.is_parent_of(d_id):
                out.append((entry, d))
    return out


def path_navigate(ids: Iterable[DeweyID]) -> List[DeweyID]:
    """PathNavigate: the parent ID of each input ID (root yields nothing)."""
    out: List[DeweyID] = []
    for node_id in ids:
        parent = node_id.parent()
        if parent is not None:
            out.append(parent)
    return out


def path_filter(
    ids: Iterable[DeweyID],
    required_ancestor_label: str,
    include_self: bool = False,
) -> List[DeweyID]:
    """PathFilter: keep IDs lying under an ancestor with the given label.

    This is the primitive behind the ID-driven prunings (Props. 3.8 and
    4.7): whether a node has an ancestor labeled ``l`` is decided from
    its ID alone.  ``include_self`` additionally accepts nodes that
    themselves carry the label.  A ``"*"`` label accepts everything.
    """
    out: List[DeweyID] = []
    for node_id in ids:
        if required_ancestor_label == "*":
            out.append(node_id)
        elif include_self and node_id.label == required_ancestor_label:
            out.append(node_id)
        elif node_id.has_ancestor_labeled(required_ancestor_label):
            out.append(node_id)
    return out
