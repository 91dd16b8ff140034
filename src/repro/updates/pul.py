"""Pending update lists: compute-pul and apply (Section 3.4).

``compute-pul(u)`` evaluates the statement's target path -- the *Find
Target Nodes* phase of the experiments -- and produces atomic
operations:

* :class:`AtomicInsert` ``(target node, flat forest)``: each tree of
  the statement's flat forest will be inserted under the target;
* :class:`AtomicDelete` ``(node)``: the node (with its subtree) will be
  removed.

``apply_pul`` performs the document update, returning the *materialized
effects*: each inserted subtree's nodes carrying their freshly assigned
Dewey IDs (the paper's ``apply-insert`` helper; the document's one walk
over the tuple creates and lists them, so nothing here walks them
again) or the complete removed node sets -- the inputs of CD+ / CD−.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple, Union

from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    UpdateStatement,
    covered_by_deletes,
)
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document, ElementNode, Node, build_forest


class AtomicInsert:
    """Insert a forest, the statement's ``flat`` tuple, after the last
    child of a target node; ``forest`` rebuilds it as detached nodes."""

    __slots__ = ("target", "flat")

    kind = "insert"

    def __init__(self, target: ElementNode, flat: tuple):
        self.target = target
        self.flat = flat

    @property
    def forest(self) -> List[Node]:
        return build_forest(self.flat)

    def __repr__(self) -> str:
        return "AtomicInsert(into=%s, %d trees)" % (self.target.id, len(self.forest))


class AtomicDelete:
    """Remove one node and its subtree."""

    __slots__ = ("target",)

    kind = "delete"

    def __init__(self, target: Node):
        self.target = target

    def __repr__(self) -> str:
        return "AtomicDelete(%s)" % (self.target.id,)

AtomicOp = Union[AtomicInsert, AtomicDelete]


class PendingUpdateList:
    """An ordered list of atomic operations from one (or more) statements."""

    def __init__(self, operations: Sequence[AtomicOp] = ()):
        self.operations: List[AtomicOp] = list(operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def inserts(self) -> List[AtomicInsert]:
        return [op for op in self.operations if isinstance(op, AtomicInsert)]

    def deletes(self) -> List[AtomicDelete]:
        return [op for op in self.operations if isinstance(op, AtomicDelete)]

    def __repr__(self) -> str:
        return "PendingUpdateList(%r)" % (self.operations,)


def compute_pul(document: Document, update: UpdateStatement) -> PendingUpdateList:
    """Evaluate the statement target and build its PUL.

    For insertions this yields one :class:`AtomicInsert` per target node
    (all carrying the statement's forest); for deletions, one
    :class:`AtomicDelete` per matched node, skipping nodes whose
    ancestor is also matched (deleting the ancestor subsumes them).
    """
    resolved_ids = getattr(update, "target_ids", None)
    if resolved_ids is not None:
        targets = [
            node
            for node in (document.node_by_id(t) for t in resolved_ids)
            if node is not None
        ]
    else:
        targets = update.target.evaluate(document)
    if isinstance(update, InsertUpdate):
        operations: List[AtomicOp] = []
        for node in targets:
            if not isinstance(node, ElementNode):
                raise ValueError("insert target %s is not an element" % node.id)
            operations.append(AtomicInsert(node, update.flat))
        return PendingUpdateList(operations)
    if isinstance(update, DeleteUpdate):
        # Deleting the document root is interpreted as emptying it (the
        # Fig. 22/23 depth sweep deletes "/site"); the root element must
        # survive for the document to stay well-formed.
        expanded: List[Node] = []
        seen_ids = set()
        for node in targets:
            replacements = node.children if node is document.root else [node]
            for replacement in replacements:
                if replacement.id not in seen_ids:
                    seen_ids.add(replacement.id)
                    expanded.append(replacement)
        # O3 within one statement: a matched ancestor's deletion
        # subsumes the node (expanded nodes are never the root).
        matched_ids = {node.id for node in expanded}
        return PendingUpdateList(
            [
                AtomicDelete(node)
                for node in expanded
                if not covered_by_deletes(node.id.parent(), matched_ids)
            ]
        )
    raise TypeError("unknown update statement %r" % (update,))


class AppliedUpdate:
    """The outcome of applying a PUL to a document."""

    def __init__(
        self,
        inserted_subtrees: List[List[Node]],
        removed_nodes: List[Node],
        apply_seconds: float,
    ):
        #: Each inserted subtree's nodes with their new IDs, in
        #: document order, root first (:meth:`Document.insert_forest`).
        self.inserted_subtrees = inserted_subtrees
        #: Every removed node, descendants included (document order).
        self.removed_nodes = removed_nodes
        self.apply_seconds = apply_seconds

    @property
    def inserted_roots(self) -> List[Node]:
        """Roots of inserted subtrees, with their new IDs."""
        return [nodes[0] for nodes in self.inserted_subtrees]

    def __repr__(self) -> str:
        return "AppliedUpdate(+%d trees, -%d nodes)" % (
            len(self.inserted_subtrees),
            len(self.removed_nodes),
        )


class BatchApplication:
    """Materialized effects of applying a statement batch in order.

    Target resolution and document application stay strictly
    sequential -- statement *k* resolves against the document as left
    by statements ``1..k-1``, so the updated document is byte-identical
    to per-statement application.  What the batch changes is the view
    side: the *net* insert/delete effects are exposed so maintenance
    runs one Δ extraction and one propagation round for the whole
    stream.

    Net semantics implement the batch-level cancellation rule: a node
    inserted and deleted within the same batch appears in neither
    ``net_inserted_nodes`` nor ``net_removed_nodes`` (its whole
    round-trip is invisible to the views), and a deleted node counts as
    Δ− only if it predates the batch.
    """

    def __init__(self, document: Document, statements: Sequence) -> None:
        self.document = document
        self.statements = list(statements)
        self.puls: List[PendingUpdateList] = []
        self.applied: List[AppliedUpdate] = []
        self.find_targets_seconds = 0.0
        self.apply_seconds = 0.0
        #: every node inserted at any point, in insertion order; IDs are
        #: captured at insert time (they survive later removal).
        self.inserted_records: List[Node] = []
        #: the ``sort_key`` of every ID the batch inserted.
        self.inserted_ids: set = set()
        #: every node removed at any point, with the statement index.
        self.removed_records: List[Tuple[Node, int]] = []

    # -- execution --------------------------------------------------------

    def apply(self, before_apply=None) -> "BatchApplication":
        """Resolve and apply every statement, in order.

        ``before_apply(index, statement, pul)`` runs after target
        resolution and before the document changes -- the hook the
        engine uses to snapshot σ-predicate watchlists against the
        pre-statement state.
        """
        for index, statement in enumerate(self.statements):
            started = time.perf_counter()
            pul = compute_pul(self.document, statement)
            self.find_targets_seconds += time.perf_counter() - started
            if before_apply is not None:
                before_apply(index, statement, pul)
            applied = apply_pul(self.document, pul)
            self.apply_seconds += applied.apply_seconds
            for nodes in applied.inserted_subtrees:
                self.inserted_records.extend(nodes)
                self.inserted_ids.update([node.dewey.sort_key for node in nodes])
            for node in applied.removed_nodes:
                self.removed_records.append((node, index))
            self.puls.append(pul)
            self.applied.append(applied)
        return self

    @property
    def pul_size(self) -> int:
        return sum(len(pul) for pul in self.puls)

    @property
    def insert_target_ids(self) -> List:
        return [op.target.id for pul in self.puls for op in pul.inserts()]

    @property
    def delete_target_ids(self) -> List:
        return [op.target.id for pul in self.puls for op in pul.deletes()]

    # -- net effects ------------------------------------------------------

    def net_inserted_nodes(self) -> List[Node]:
        """Every batch-inserted node still in the document (Δ+).  A
        removed ID is never reissued, so a node survives exactly when
        the document still resolves its ID to it."""
        if not self.removed_records:
            return list(self.inserted_records)
        node_by_id = self.document.node_by_id
        return [
            node for node in self.inserted_records if node_by_id(node.dewey) is node
        ]

    def net_removed_records(self) -> List[Tuple[Node, int]]:
        """Pre-batch nodes removed by the batch (Δ−), with event index."""
        return [
            (node, index)
            for node, index in self.removed_records
            if node.dewey.sort_key not in self.inserted_ids
        ]

    def net_removed_nodes(self) -> List[Node]:
        return [node for node, _index in self.net_removed_records()]

    def cancelled_count(self) -> int:
        """Nodes inserted and deleted within the batch (net no-ops)."""
        inserted_ids = self.inserted_ids
        return sum(node.dewey.sort_key in inserted_ids for node, _ in self.removed_records)

    def dirty_removed_nodes(self) -> List[Node]:
        """Net-removed nodes whose detached val/cont may differ from
        their pre-batch state.

        A removed node's stored attributes drifted iff its subtree was
        touched *before* its own removal: a batch-inserted node ever
        lived below it, or a strictly-descendant node was removed by an
        earlier statement (same-statement removals take whole subtrees
        atomically and never nest, so they cannot drift).  The engine
        restores such nodes from first-seen snapshots.

        The test is probed from the touch points up: a drifted node is
        a strict ancestor of an inserted root or of an earlier
        statement's delete target, and the Dewey scheme encodes those
        ancestor chains in the IDs.  One pass over the chains maps each
        ancestor to the earliest statement that touched below it
        (inserts count whatever their statement: nothing is inserted
        under a detached node), and each removed node costs one dict
        lookup -- O((roots + targets) x depth + |Δ−|).  The removed
        records are walked once, the probe first: only its hits pay the
        net-removal (not batch-inserted) test.
        """
        touched: Dict[DeweyID, int] = {}
        for index, (pul, applied) in enumerate(zip(self.puls, self.applied)):
            for root in applied.inserted_roots:
                for ancestor_id in root.id.ancestor_ids():
                    touched[ancestor_id] = -1
            for op in pul.deletes():
                for ancestor_id in op.target.id.ancestor_ids():
                    touched.setdefault(ancestor_id, index)
        if not touched:
            return []
        inserted_ids = self.inserted_ids
        return [
            node
            for node, index in self.removed_records
            if touched.get(node.dewey, index) < index
            and node.dewey.sort_key not in inserted_ids
        ]

    def __repr__(self) -> str:
        return "BatchApplication(%d statements, +%d ids, -%d records)" % (
            len(self.statements),
            len(self.inserted_ids),
            len(self.removed_records),
        )


def apply_pul(document: Document, pul: PendingUpdateList) -> AppliedUpdate:
    """Apply every atomic operation, in order, to the document."""
    started = time.perf_counter()
    inserted_subtrees: List[List[Node]] = []
    removed_nodes: List[Node] = []
    for op in pul.operations:
        if isinstance(op, AtomicInsert):
            inserted_subtrees += document.insert_forest(op.target, op.flat)
        else:
            if op.target.parent is None and op.target is not document.root:
                continue  # already detached by an earlier delete
            removed_nodes.extend(document.delete_subtree(op.target))
    elapsed = time.perf_counter() - started
    return AppliedUpdate(inserted_subtrees, removed_nodes, elapsed)
