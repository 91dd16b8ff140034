"""Sequential PUL rules of Section 5: reduction O1/O3/I5 (Figure 14)
and aggregation A1/A2/D6 (Figure 16), after Cavalieri et al. 2011.

Statements compile to atomic operations -- ``ins↘(v, P)``, insert
forest ``P`` after the last child of node ``v``, and ``del(v)`` --
whose targets are Dewey IDs (the paper: "we represent the PULs in our
syntax, i.e., by making the IDs of nodes explicit").  An atomic
operation is a single-target resolved statement,
``ResolvedInsertUpdate([v], P)`` or ``ResolvedDeleteUpdate([v])``, so
a reduced list runs through ``MaintenanceEngine.apply_batch`` as is.

Reduction of one sequential list:

* **O1** -- ``op(n, _) ; del(n)`` with ``op ∈ {ins↘, del}``: only the
  deletion needs to run;
* **O3** -- ``op(n, _) ; del(n')`` with ``n`` a descendant of ``n'``:
  only the (ancestor) deletion needs to run;
* **I5** -- ``ins↘(n, L1) ; ins↘(n, L2)``: one insertion carrying
  ``[L1, L2]``.

Aggregation of ``Δ1 ; Δ2`` (``Δ2`` runs on the document as updated by
``Δ1``):

* **A1** -- ``ins↘(v, L1) ∈ Δ1`` and ``ins↘(v, L2) ∈ Δ2``: fold the
  second insert into the first as ``ins↘(v, [L1, L2])``;
* **A2** -- the mirror image, folding into Δ2's insert;
* **D6** -- an operation of Δ2 targets a node that only exists inside
  a tree Δ1 is about to insert: apply it to the fragment directly and
  drop it from Δ2 (Example 5.3's ``<d><b/></d>`` gaining a second
  ``<b/>``).

Reduction preserves the *document* modulo Dewey ordinals; the
experiments of Section 6.8 measure how much view-maintenance work it
saves.  The batch-level counterpart that keeps ordinals byte-identical
is ``UpdateBatch.reduced``; both decide O1/O3 with
:func:`~repro.updates.language.covered_by_deletes`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateStatement,
    _merge_inserts,
    covered_by_deletes,
)
from repro.updates.pul import AtomicInsert, PendingUpdateList
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document, ElementNode, Node


def pul_to_operations(pul: PendingUpdateList) -> List[UpdateStatement]:
    """A PUL's atomic operations as single-target resolved statements.

    Forests stay shared flat tuples: rule D6 writes a new statement.
    """
    return [
        ResolvedInsertUpdate([op.target.id], op.flat)
        if isinstance(op, AtomicInsert)
        else ResolvedDeleteUpdate([op.target.id])
        for op in pul.operations
    ]


def reduce_operations(operations: Sequence[UpdateStatement]) -> List[UpdateStatement]:
    """Apply O1, O3 and I5 to an atomic operation sequence."""
    # O1/O3: a deletion voids every *earlier* operation targeting the
    # deleted node or one of its descendants.  One reverse pass collects
    # the later deletions; a voided deletion still voids what precedes
    # it, so every deletion joins the set.
    later_deletes: set = set()
    survivors: List[UpdateStatement] = []
    for op in reversed(operations):
        (target,) = op.target_ids
        if not covered_by_deletes(target, later_deletes):
            survivors.append(op)
        if isinstance(op, DeleteUpdate):
            later_deletes.add(target)
    survivors.reverse()
    # I5 merges insertions sharing a target, at the position of the
    # first occurrence, keeping the forests' order.
    merged: List[UpdateStatement] = []
    insert_at: Dict[DeweyID, int] = {}
    for op in survivors:
        if isinstance(op, InsertUpdate):
            index = insert_at.get(op.target_ids[0])
            if index is not None:
                merged[index] = _merge_inserts(merged[index], op)
                continue
            insert_at[op.target_ids[0]] = len(merged)
        merged.append(op)
    return merged


def _find_fragment_node(
    ins: InsertUpdate, target: DeweyID
) -> Optional[Tuple[List[Node], ElementNode]]:
    """Locate, inside an insert's fragment, the future node ``target``:
    the fragment rebuilt as nodes, and the node in it.

    ``target`` must extend the insertion point's ID; the extra label
    steps are matched against the fragment's structure (the Dewey
    encoding makes the would-be path of fragment nodes predictable).
    """
    base = ins.target_ids[0]
    if not base.is_ancestor_of(target):
        return None
    labels = []
    walk = target
    while walk.depth > base.depth:
        labels.append(walk.label)
        walk = walk.parent()
    forest = ins.forest
    candidates: Sequence[Node] = forest
    node: Optional[ElementNode] = None
    for label in reversed(labels):
        matches = [
            child
            for child in candidates
            if isinstance(child, ElementNode) and child.label == label
        ]
        if len(matches) != 1:
            return None  # ambiguous or absent: rule does not apply
        node = matches[0]
        candidates = node.children
    return None if node is None else (forest, node)


def aggregate_puls(
    document: Document,
    pul1: Sequence[UpdateStatement],
    pul2: Sequence[UpdateStatement],
) -> Tuple[List[UpdateStatement], List[UpdateStatement]]:
    """Apply A1/A2/D6 to a sequential pair of PULs over ``document``.

    Returns the rewritten ``(Δ1', Δ2')``; their sequential execution is
    equivalent to the input's.  D6 fires only for a Δ2 target absent
    from ``document``: an existing node is never a fragment-to-be, even
    when its labels match one.
    """
    first: List[UpdateStatement] = list(pul1)
    second: List[UpdateStatement] = []
    for op2 in pul2:
        (target,) = op2.target_ids
        folded = False
        # A1: merge into an existing Δ1 insert on the same target.
        if isinstance(op2, InsertUpdate):
            for index, op1 in enumerate(first):
                if isinstance(op1, InsertUpdate) and op1.target_ids[0] == target:
                    first[index] = _merge_inserts(op1, op2)
                    folded = True
                    break
        # D6: op2 references a node inside a Δ1 fragment-to-be, edited
        # as nodes and written back as a new statement.
        if not folded and document.node_by_id(target) is None:
            for index, op1 in enumerate(first):
                if not isinstance(op1, InsertUpdate):
                    continue
                found = _find_fragment_node(op1, target)
                if found is None:
                    continue
                forest, spot = found
                if isinstance(op2, InsertUpdate):
                    for tree in op2.forest:
                        spot.append(tree)
                elif spot.parent is not None:
                    spot.parent.children.remove(spot)
                    spot.parent = None
                else:
                    forest.remove(spot)
                if forest:
                    first[index] = ResolvedInsertUpdate(
                        op1.target_ids, forest, name=op1.name
                    )
                else:
                    del first[index]  # D6 emptied the insertion
                folded = True
                break
        if not folded:
            second.append(op2)
    # A2 (a Δ1 insert folded forward into a same-target Δ2 insert) has
    # nothing left to do: A1 already folded every such pair.
    return first, second
