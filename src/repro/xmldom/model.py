"""Ordered labeled trees and documents (Section 2.1 of the paper).

Documents are ordered trees of element, attribute and text nodes.
Element and attribute nodes carry a label; text nodes carry a string
value.  Every node owns a :class:`~repro.xmldom.dewey.DeweyID`.

A :class:`Document` additionally maintains, for every label ``a``, the
paper's *virtual canonical relation* ``R_a``: the document-ordered list
of ``a``-labeled nodes, from which ``(ID, val, cont)`` tuples are drawn
by the algebra layer.  The index is kept consistent under subtree
insertion and deletion with one bisect and one slice per distinct
label of the moved subtree (:class:`repro.xmldom.index.LabelIndex`),
and a lazily built per-label value index
(:class:`repro.xmldom.index.ValueIndex`) answers σ-constant selections
(:meth:`Document.nodes_with_value`) without scanning.

Elements memoize ``val`` and ``cont``, and both compose from their
children's caches, so re-deriving either after a change costs the
changed ancestor chain plus whatever was never read (a fresh subtree),
not the whole stored subtree.  The caches are invalidated by the
document's update choke points (:meth:`Document.insert_subtree` /
:meth:`Document.delete_subtree`) walking the target's ancestor chain:
``cont`` on every structural change, ``val`` only when the moved
subtree contains text; the same walk feeds the value index's dirty
set.  Invariant: a set ``val`` (``cont``) cache implies no
un-notified text (structural) change anywhere in the element's subtree
(every change clears the whole chain above it).

Conventions:

* attribute nodes are modeled as children with label ``@name`` (so tree
  patterns can match them uniformly, as in ``person[@id]``);
* ``val`` of an element is the concatenation of its text descendants in
  document order (XPath string value); ``val`` of an attribute or text
  node is its own string;
* ``cont`` is the serialized XML image of the subtree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.xmldom.index import KeyedRows, LabelIndex, ValueIndex
from repro.xmldom.dewey import (
    DeweyID,
    Ordinal,
    ordinal_after,
    ordinal_before,
    ordinal_between,
    ordinal_initial,
)

TEXT_LABEL = "#text"


def escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(text: str) -> str:
    return escape_text(text).replace('"', "&quot;")


def fresh_val(node: "Node") -> str:
    """``val`` recomputed from the tree, bypassing any memoized value."""
    if isinstance(node, ElementNode):
        parts: List[str] = []
        node._collect_text(parts)
        return "".join(parts)
    return node.val


class Node:
    """Common behaviour of element, attribute and text nodes."""

    __slots__ = ("label", "parent", "dewey")

    kind = "node"

    def __init__(self, label: str):
        self.label = label
        self.parent: Optional["ElementNode"] = None
        self.dewey: Optional[DeweyID] = None

    # -- tree navigation ------------------------------------------------

    def ancestors(self) -> Iterator["ElementNode"]:
        """Proper ancestors, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def self_and_descendants(self) -> Iterator["Node"]:
        yield self

    def descendants(self) -> Iterator["Node"]:
        return iter(())

    # -- stored attributes (ID / val / cont) ----------------------------

    @property
    def id(self) -> DeweyID:
        if self.dewey is None:
            raise ValueError("node %r is not part of a document yet" % (self.label,))
        return self.dewey

    @property
    def val(self) -> str:
        raise NotImplementedError

    @property
    def cont(self) -> str:
        from repro.xmldom.serializer import serialize_fragment

        return serialize_fragment(self)

    def __repr__(self) -> str:
        ident = str(self.dewey) if self.dewey is not None else "<detached>"
        return "%s(%s)" % (type(self).__name__, ident)


class TextNode(Node):
    """A text node; its ``val`` is its character data."""

    __slots__ = ("text",)

    kind = "text"

    def __init__(self, text: str):
        super().__init__(TEXT_LABEL)
        self.text = text

    @property
    def val(self) -> str:
        return self.text


class AttributeNode(Node):
    """An attribute, modeled as a labeled child node ``@name``."""

    __slots__ = ("value",)

    kind = "attribute"

    def __init__(self, name: str, value: str):
        label = name if name.startswith("@") else "@" + name
        super().__init__(label)
        self.value = value

    @property
    def name(self) -> str:
        return self.label[1:]

    @property
    def val(self) -> str:
        return self.value


class ElementNode(Node):
    """An element with an ordered child list (attributes come first).

    ``val`` and ``cont`` are memoized and each composes from the
    children's caches (``cont`` is byte-identical to
    :func:`~repro.xmldom.serializer.serialize_fragment`); the owning
    document invalidates the caches along the ancestor chain of every
    subtree change (see the module docstring for the invariant).
    Detached construction (:meth:`append` / :meth:`set_attribute`)
    needs no invalidation: attached-tree mutations must go through the
    document's ``insert_subtree`` / ``delete_subtree``, which deep-copy
    their input and therefore never see pre-populated caches.
    """

    __slots__ = ("children", "_val_cache", "_cont_cache")

    kind = "element"

    def __init__(self, label: str, children: Sequence[Node] = ()):
        super().__init__(label)
        self.children: List[Node] = []
        self._val_cache: Optional[str] = None
        self._cont_cache: Optional[str] = None
        for child in children:
            self.append(child)

    # -- construction ----------------------------------------------------

    def append(self, child: Node) -> Node:
        """Attach ``child`` as the last child (no ID assignment)."""
        if child.parent is not None:
            raise ValueError("node %r already has a parent" % (child.label,))
        child.parent = self
        self.children.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> AttributeNode:
        attr = AttributeNode(name, value)
        # Attributes conventionally precede other children.
        attr.parent = self
        index = 0
        while index < len(self.children) and self.children[index].kind == "attribute":
            index += 1
        self.children.insert(index, attr)
        return attr

    # -- navigation -------------------------------------------------------

    def self_and_descendants(self) -> Iterator[Node]:
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ElementNode):
                stack.extend(reversed(node.children))

    def descendants(self) -> Iterator[Node]:
        nodes = self.self_and_descendants()
        next(nodes)
        return nodes

    def child_elements(self) -> Iterator["ElementNode"]:
        return (child for child in self.children if isinstance(child, ElementNode))

    def attribute(self, name: str) -> Optional[AttributeNode]:
        label = name if name.startswith("@") else "@" + name
        for child in self.children:
            if child.kind == "attribute" and child.label == label:
                return child  # type: ignore[return-value]
        return None

    @property
    def val(self) -> str:
        """XPath string value: concatenated text descendants in order.

        Memoized via the children's caches, so recomputation after an
        invalidation costs only the dirty chain, not the full subtree.
        """
        cached = self._val_cache
        if cached is None:
            pieces: List[str] = []
            for child in self.children:
                if child.kind == "text":
                    pieces.append(child.text)  # type: ignore[attr-defined]
                elif child.kind == "element":
                    pieces.append(child.val)
            cached = "".join(pieces)
            self._val_cache = cached
        return cached

    @property
    def cont(self) -> str:
        """Serialized XML image of the subtree, memoized.

        Composed like ``val``: the element's tags (attributes in the
        open tag, ``<label .../>`` when nothing else is below) around
        the children's cached ``cont`` and escaped text.
        """
        cached = self._cont_cache
        if cached is None:
            attributes: List[str] = []
            pieces: List[str] = []
            for child in self.children:
                kind = child.kind
                if kind == "element":
                    pieces.append(child.cont)
                elif kind == "text":
                    pieces.append(escape_text(child.text))  # type: ignore[attr-defined]
                else:
                    attributes.append(
                        ' %s="%s"' % (child.name, escape_attribute(child.value))  # type: ignore[attr-defined]
                    )
            label, attrs = self.label, "".join(attributes)
            if pieces:
                cached = "<%s%s>%s</%s>" % (label, attrs, "".join(pieces), label)
            else:
                cached = "<%s%s/>" % (label, attrs)
            self._cont_cache = cached
        return cached

    def _collect_text(self, parts: List[str]) -> None:
        for child in self.children:
            if child.kind == "text":
                parts.append(child.val)
            elif isinstance(child, ElementNode):
                child._collect_text(parts)


def deep_copy(node: Node) -> Node:
    """Structural copy of a subtree, detached (no parent, no IDs)."""
    if isinstance(node, TextNode):
        return TextNode(node.text)
    if isinstance(node, AttributeNode):
        return AttributeNode(node.name, node.value)
    assert isinstance(node, ElementNode)
    clone = ElementNode(node.label)
    for child in node.children:
        clone.append(deep_copy(child))
    return clone


def _number_below(top: Node) -> List[Node]:
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


class Document:
    """A rooted XML document with structural IDs and canonical relations."""

    def __init__(self, root: ElementNode, uri: str = "doc.xml"):
        self.uri = uri
        self.root = root
        self._index = LabelIndex()
        self._values = ValueIndex(self._index, elements=self.all_elements)
        self._by_id: Dict[DeweyID, Node] = {}
        # IDs of deleted nodes are *retired*, never reissued: node
        # identity is immutable (XDM) and the Dewey scheme guarantees
        # a dead ID stays dead, so references held by pending update
        # lists or optimizers can never silently re-bind.
        self._retired_ids: set = set()
        self._assign_ids()

    # -- bulk loading ------------------------------------------------------

    def _assign_ids(self) -> None:
        self.root.dewey = DeweyID.root(self.root.label)
        all_nodes = _number_below(self.root)
        self._index.add_subtree(all_nodes)
        for node in all_nodes:
            self._by_id[node.id] = node

    # -- canonical relations -------------------------------------------------

    def labels(self) -> Iterator[str]:
        """All labels with at least one node in the document."""
        return self._index.labels()

    def nodes_with_label(self, label: str) -> List[Node]:
        """The canonical relation ``R_label`` (document-ordered, live view)."""
        return self._index.nodes(label)

    def descendants_with_label(self, node: Node, label: str) -> List[Node]:
        """``R_label`` restricted to the proper descendants of ``node``
        (document-ordered): two bisects and a slice, no subtree walk."""
        return self._index.descendants(label, node.id)

    def keyed_label(self, label: str) -> KeyedRows:
        """``R_label`` with its parallel ``sort_key`` list (live view)."""
        return self._index.keyed(label)

    def snapshot_label(self, label: str) -> List[Node]:
        """A copy of ``R_label``, immune to subsequent updates."""
        return self._index.copy_label(label)

    def nodes_with_value(self, label: str, constant: str) -> List[Node]:
        """σ-constant selection ``σ_{val=constant}(R_label)`` via the
        value index (document-ordered, fresh list).

        ``label`` may be ``"*"``: the selection then runs over every
        element via the lazily built all-labels entry, so wildcard σ
        pattern nodes avoid the ``all_elements()`` scan.
        """
        return list(self.keyed_value(label, constant).nodes)

    def keyed_value(self, label: str, constant: str) -> KeyedRows:
        """:meth:`nodes_with_value` as the value index's own bucket
        with its key list (live view; nothing is copied)."""
        return self._values.lookup(label, constant)

    def all_elements(self) -> Iterator[ElementNode]:
        for node in self.root.self_and_descendants():
            if isinstance(node, ElementNode):
                yield node

    def node_by_id(self, dewey: DeweyID) -> Optional[Node]:
        """Resolve an ID to its node (None if absent)."""
        return self._by_id.get(dewey)

    def size_in_nodes(self) -> int:
        return sum(len(self._index.nodes(label)) for label in self._index.labels())

    # -- updates (used by repro.updates.pul) ---------------------------------

    def _sibling_ordinal(self, parent: ElementNode, position: int) -> Ordinal:
        """A fresh ordinal for a child inserted at ``position``."""
        siblings = parent.children
        left = siblings[position - 1].id.ordinal if position > 0 else None
        right = siblings[position].id.ordinal if position < len(siblings) else None
        if left is None and right is None:
            return ordinal_initial(1)
        if left is None:
            assert right is not None
            return ordinal_before(right)
        if right is None:
            return ordinal_after(left)
        return ordinal_between(left, right)

    def insert_subtree(
        self,
        parent: ElementNode,
        subtree: Node,
        position: Optional[int] = None,
    ) -> Node:
        """Copy ``subtree`` as a new child of ``parent`` and index it.

        Implements the paper's *apply-insert(n, t)* helper: the returned
        tree is a fresh copy whose nodes carry the Dewey IDs assigned in
        their new context.  ``position`` defaults to "after the last
        child" (the XQuery Update ``insert into`` semantics used by the
        paper's ``ins↘`` operation).
        """
        if position is None:
            position = len(parent.children)
        clone = deep_copy(subtree)
        ordinal = self._sibling_ordinal(parent, position)
        # Never reissue a retired ID: nudge the ordinal upward (staying
        # below the right sibling, if any) until the ID is fresh.
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
        new_nodes = _number_below(clone)
        self._index.add_subtree(new_nodes)
        text_changed = False
        for node in new_nodes:
            self._by_id[node.id] = node
            self._values.on_add(node)
            if node.kind == "text":
                text_changed = True
        self._invalidate_ancestors(parent, text_changed)
        return clone

    def delete_subtree(self, node: Node) -> List[Node]:
        """Remove ``node`` and its subtree; returns the removed nodes.

        Per XQuery Update semantics, deleting a node removes all its
        descendants as well; the returned list (document order) is what
        CD− turns into Δ− tables.
        """
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        removed = list(node.self_and_descendants())
        removed.sort(key=lambda n: n.id.sort_key)
        self._index.remove_subtree(removed)
        text_changed = False
        for gone in removed:
            self._by_id.pop(gone.id, None)
            self._retired_ids.add(gone.id)
            self._values.on_remove(gone)
            if gone.kind == "text":
                text_changed = True
        parent = node.parent
        parent.children.remove(node)
        node.parent = None
        self._invalidate_ancestors(parent, text_changed)
        return removed

    def _invalidate_ancestors(self, element: Optional[ElementNode], text_changed: bool) -> None:
        """Clear memoized val/cont along the ancestor chain of a change.

        ``cont`` changes for every structural change; ``val`` only when
        the moved subtree contained text, in which case the value index
        is told to re-bucket the affected elements on its next lookup.
        """
        walk = element
        while walk is not None:
            walk._cont_cache = None
            if text_changed:
                walk._val_cache = None
                self._values.on_val_change(walk)
            walk = walk.parent

    def __repr__(self) -> str:
        return "Document(uri=%r, root=%r)" % (self.uri, self.root.label)


def build_document(root: ElementNode, uri: str = "doc.xml") -> Document:
    """Wrap a detached element tree into a document, assigning IDs."""
    return Document(root, uri=uri)
