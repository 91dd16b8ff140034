"""The four-walk subtree insert and delete: the oracle of the one-walk path.

``repro.xmldom.model.Document`` creates, numbers and indexes an
inserted forest in one walk over its flat preorder tuple
(``Document.insert_forest``) and hands the walk's node lists on, so
``BatchApplication`` neither re-walks the new nodes nor walks the
surviving roots again for Δ+.  Before that, each inserted node was
visited once per step below, and this module keeps those steps, by
their definitions:

* :func:`repro.xmldom.model.build_forest` rebuilds the forest's trees
  and :func:`repro.xmldom.model.deep_copy` copies each one, detached;
* :func:`number_below` gives every node below the copy's root its
  initial Dewey ID and lists the subtree in document order;
* :func:`add_subtree` groups that flat list by label before splicing
  it into the label index (:func:`remove_subtree` likewise on delete);
* the value index hears of every node on its own;
* :func:`net_inserted_nodes` walks the outermost surviving inserted
  roots of a batch.

:class:`FourWalkDocument` is a ``Document`` that inserts, deletes and
bulk-numbers this way; its delete walks the subtree and then sorts the
removed nodes by key.  ``tests/test_xmldom.py::TestOneWalk`` drives both
documents with the same statements and compares their whole state.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Sequence

from repro.updates.pul import BatchApplication
from repro.xmldom.dewey import DeweyID, ordinal_after, ordinal_between, ordinal_initial
from repro.xmldom.index import KeyedRows, LabelIndex
from repro.xmldom.model import Document, ElementNode, Node, build_forest, deep_copy


def number_below(top: Node) -> List[Node]:
    """Give every proper descendant of ``top`` (already numbered) its
    initial Dewey ID; returns the subtree's nodes in document order."""
    nodes: List[Node] = []
    stack: List[Node] = [top]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, ElementNode):
            node_id = node.id
            for position, child in enumerate(node.children, start=1):
                child.dewey = node_id.child(child.label, ordinal_initial(position))
            stack.extend(reversed(node.children))
    return nodes


def label_runs(nodes: Sequence[Node]) -> Dict[str, List[Node]]:
    """``nodes`` grouped by label, each group kept in input order."""
    runs: Dict[str, List[Node]] = {}
    for node in nodes:
        runs.setdefault(node.label, []).append(node)
    return runs


def add_subtree(index: LabelIndex, nodes: Sequence[Node]) -> None:
    """Index a subtree from its flat document-ordered node list."""
    index.add_runs({label: KeyedRows.of(run) for label, run in label_runs(nodes).items()})


def remove_subtree(index: LabelIndex, nodes: Sequence[Node]) -> None:
    """Unindex a subtree from its flat document-ordered node list."""
    index.remove_runs(label_runs(nodes))


class FourWalkDocument(Document):
    """A document whose subtree updates take the four-walk path."""

    def _assign_ids(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.root.dewey = DeweyID.root(self.root.label)
            all_nodes = number_below(self.root)
            add_subtree(self._index, all_nodes)
            for node in all_nodes:
                self._by_id[node.id.sort_key] = node
        finally:
            if collecting:
                gc.enable()

    def insert_forest(
        self,
        parent: ElementNode,
        flat: Sequence[object],
        position: Optional[int] = None,
    ) -> List[List[Node]]:
        if position is None:
            position = len(parent.children)
        return [
            self.insert_copy(parent, tree, position + offset)
            for offset, tree in enumerate(build_forest(flat))
        ]

    def insert_copy(
        self,
        parent: ElementNode,
        subtree: Node,
        position: Optional[int] = None,
    ) -> List[Node]:
        if position is None:
            position = len(parent.children)
        clone = deep_copy(subtree)
        ordinal = self._sibling_ordinal(parent, position)
        right = (
            parent.children[position].id.ordinal
            if position < len(parent.children)
            else None
        )
        while parent.id.child(clone.label, ordinal) in self._retired_ids:
            if right is None:
                ordinal = ordinal_after(ordinal)
            else:
                ordinal = ordinal_between(ordinal, right)
        clone.parent = parent
        parent.children.insert(position, clone)
        clone.dewey = parent.id.child(clone.label, ordinal)
        new_nodes = number_below(clone)
        add_subtree(self._index, new_nodes)
        text_changed = False
        for node in new_nodes:
            self._by_id[node.id.sort_key] = node
            self._values.on_add({node.label: [node]})
            if node.kind == "text":
                text_changed = True
        self._invalidate_ancestors(parent, text_changed)
        return new_nodes

    def delete_subtree(self, node: Node) -> List[Node]:
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        removed = list(node.self_and_descendants())
        removed.sort(key=lambda n: n.id.sort_key)
        remove_subtree(self._index, removed)
        text_changed = False
        for gone in removed:
            self._by_id.pop(gone.id.sort_key, None)
            self._values.on_remove({gone.label: [gone]})
            if gone.kind == "text":
                text_changed = True
        self._retired_ids.add(node.id)
        parent = node.parent
        parent.children.remove(node)
        node.parent = None
        self._invalidate_ancestors(parent, text_changed)
        return removed


def net_inserted_nodes(application: BatchApplication) -> List[Node]:
    """Δ+ by walking the batch's surviving inserted roots, outermost
    only: a root is dropped when it was itself deleted later, or when
    it sits inside another inserted subtree (the outer root's walk
    reaches its nodes)."""
    document = application.document
    out: List[Node] = []
    for applied in application.applied:
        for root in applied.inserted_roots:
            if document.node_by_id(root.id) is not root:
                continue  # cancelled: inserted then deleted
            walk = root.parent
            while (
                walk is not None
                and walk.dewey.sort_key not in application.inserted_ids
            ):
                walk = walk.parent
            if walk is None:
                out.extend(root.self_and_descendants())
    return out
