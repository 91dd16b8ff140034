"""Physical ID-based operators: structural joins, PathFilter, PathNavigate.

The paper's Section 3.4 assumes three physical primitives from the
underlying XML engine, all of which exploit Compact Dynamic Dewey IDs:

* **structural join** [Al-Khalifa et al. 2002]: join two inputs on a
  parent (``≺``) or ancestor (``≺≺``) condition between ID columns;
* **PathFilter**: check whether a node (by ID alone) lies on a path
  satisfying a label condition;
* **PathNavigate**: obtain from node IDs the IDs of their parents.

Two structural-join implementations are provided:

:func:`structural_join`
    the workhorse, used by pattern evaluation and term evaluation.  It
    exploits Dewey property (2): the ancestors of a node are readable
    off its own ID, so the join is a hash lookup per candidate ancestor
    prefix -- no sorting or stack needed.

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
from repro.xmldom.model import Node


def _row_id(row: tuple, index: int) -> DeweyID:
    cell = row[index]
    if isinstance(cell, Node):
        return cell.id
    if isinstance(cell, DeweyID):
        return cell
    raise TypeError("structural join column holds %r, need node or ID" % (cell,))


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
    if axis not in ("parent", "ancestor"):
        raise ValueError("axis must be 'parent' or 'ancestor', got %r" % (axis,))
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
    if axis not in ("parent", "ancestor"):
        raise ValueError("axis must be 'parent' or 'ancestor', got %r" % (axis,))
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
