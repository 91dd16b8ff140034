"""Ordered labeled trees and documents (Section 2.1 of the paper).

Documents are ordered trees of element, attribute and text nodes.
Element and attribute nodes carry a label; text nodes carry a string
value.  Every node owns a :class:`~repro.xmldom.dewey.DeweyID`.

A :class:`Document` additionally maintains, for every label ``a``, the
paper's *virtual canonical relation* ``R_a``: the document-ordered
``a``-labeled nodes, from which ``(ID, val, cont)`` tuples are drawn by
the algebra layer, kept in bounded blocks
(:class:`repro.xmldom.index.LabelRows`).  The index is kept consistent
under subtree insertion and deletion by touching one or two blocks per
distinct label of the moved subtree
(:class:`repro.xmldom.index.LabelIndex`), and a lazily built per-label
value index (:class:`repro.xmldom.index.ValueIndex`) answers
σ-constant selections (:meth:`Document.nodes_with_value`) without
scanning.  An inserted forest arrives as its flat preorder tuple
(:func:`flatten_forest`), and one walk over that tuple
(:meth:`Document.insert_forest`) creates, links, numbers and registers
each node and groups it into the label index's per-label runs; no
template node graph is built or copied.
One walk over a deleted subtree collects it the same way.

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

import gc
from typing import Dict, Iterator, List, Optional, Sequence

from repro.xmldom.index import KeyedRows, LabelIndex, LabelRows, ValueIndex
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
        # The Node slots are set here, not through super().__init__:
        # constructors run once per inserted node.
        self.label = TEXT_LABEL
        self.parent: Optional["ElementNode"] = None
        self.dewey: Optional[DeweyID] = None
        self.text = text

    @property
    def val(self) -> str:
        return self.text


class AttributeNode(Node):
    """An attribute, modeled as a labeled child node ``@name``."""

    __slots__ = ("value",)

    kind = "attribute"

    def __init__(self, name: str, value: str):
        self.label = name if name.startswith("@") else "@" + name
        self.parent: Optional["ElementNode"] = None
        self.dewey: Optional[DeweyID] = None
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
    document's ``insert_forest`` / ``delete_subtree``; an insert
    builds fresh nodes from a flat tuple and therefore never sees
    pre-populated caches.
    """

    __slots__ = ("children", "_val_cache", "_cont_cache")

    kind = "element"

    def __init__(self, label: str, children: Sequence[Node] = ()):
        self.label = label
        self.parent: Optional["ElementNode"] = None
        self.dewey: Optional[DeweyID] = None
        self.children: List[Node] = []
        self._val_cache: Optional[str] = None
        self._cont_cache: Optional[str] = None
        if children:
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
    return build_forest(flatten_forest((node,)))[0]


def flatten_forest(forest: Sequence[Node]) -> tuple:
    """A detached forest as one flat preorder tuple: per node its label,
    then its child count (element), its text (text node) or its value
    (attribute).  The label tells the kinds apart: ``#text`` is a text
    node, ``@name`` an attribute, anything else an element.  It is how
    an insert statement stores its forest; :func:`build_forest` inverts it."""
    flat: List[object] = []
    stack: List[Node] = list(reversed(forest))
    while stack:
        node = stack.pop()
        kind = node.kind
        if kind == "element":
            children = node.children  # type: ignore[attr-defined]
            flat += (node.label, len(children))
            stack.extend(reversed(children))
        elif kind == "text":
            flat += (TEXT_LABEL, node.text)  # type: ignore[attr-defined]
        else:
            flat += (node.label, node.value)  # type: ignore[attr-defined]
    return tuple(flat)


def build_forest(flat: Sequence[object]) -> List[Node]:
    """The detached forest :func:`flatten_forest` encoded."""
    forest: List[Node] = []
    #: ``[element, children still to read]`` down the current path.
    open_elements: List[list] = []
    items = iter(flat)
    for label, payload in zip(items, items):
        if label == TEXT_LABEL:
            node: Node = TextNode(payload)  # type: ignore[arg-type]
        elif label[0] == "@":  # type: ignore[index]
            node = AttributeNode(label, payload)  # type: ignore[arg-type]
        else:
            node = ElementNode(label)  # type: ignore[arg-type]
        if open_elements:
            top = open_elements[-1]
            node.parent = top[0]
            top[0].children.append(node)
            top[1] -= 1
            if not top[1]:
                open_elements.pop()
        else:
            forest.append(node)
        if node.kind == "element" and payload:
            open_elements.append([node, payload])
    return forest


class Document:
    """A rooted XML document with structural IDs and canonical relations."""

    def __init__(self, root: ElementNode, uri: str = "doc.xml"):
        self.uri = uri
        self.root = root
        self._index = LabelIndex()
        self._values = ValueIndex(self._index, elements=self.all_elements)
        #: ``sort_key`` -> node: bytes hash in C, a DeweyID in Python.
        self._by_id: Dict[bytes, Node] = {}
        # IDs of deleted nodes are *retired*, never reissued: node
        # identity is immutable (XDM) and the Dewey scheme guarantees
        # a dead ID stays dead, so references held by pending update
        # lists or optimizers can never silently re-bind.  Only a
        # deleted subtree's root is recorded: a new ID is a *live*
        # parent's child, and every other deleted ID has a deleted
        # parent, so it can never be issued again anyway.
        self._retired_ids: set = set()
        self._assign_ids()

    # -- bulk loading ------------------------------------------------------

    def _assign_ids(self) -> None:
        # Numbering allocates one DeweyID per node, every one of them
        # live and none in a cycle, so an automatic collection during
        # it only re-traverses live objects (on XMark scale 16, some 40
        # young passes and, in a large heap, a full one): pause it, and
        # restore the caller's setting.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.root.dewey = DeweyID.root(self.root.label)
            self._graft()
        finally:
            if collecting:
                gc.enable()

    # -- canonical relations -------------------------------------------------

    def labels(self) -> Iterator[str]:
        """All labels with at least one node in the document."""
        return self._index.labels()

    def nodes_with_label(self, label: str) -> LabelRows:
        """The canonical relation ``R_label``: a document-ordered,
        read-only live view of its blocks (``len`` is O(1); a slice
        materializes a list)."""
        return self._index.nodes(label)

    def descendants_with_label(self, node: Node, label: str) -> List[Node]:
        """``R_label`` restricted to the proper descendants of ``node``
        (document-ordered): bisects bound the run and it is cut out of
        the blocks it spans, no subtree walk."""
        return self._index.descendants(label, node.id)

    def keyed_label(self, label: str) -> LabelRows:
        """``R_label`` as a probe source (``find`` / ``below``; live
        view)."""
        return self._index.keyed(label)

    def snapshot_label(self, label: str) -> List[Node]:
        """A flat copy of ``R_label``, immune to subsequent updates."""
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
        return self._by_id.get(dewey.sort_key)

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
        return self.insert_copy(parent, subtree, position)[0]

    def insert_copy(
        self,
        parent: ElementNode,
        subtree: Node,
        position: Optional[int] = None,
    ) -> List[Node]:
        """:meth:`insert_subtree`, returning all of the copy's nodes
        (its Δ+) in document order, root first, via :meth:`insert_forest`."""
        return self.insert_forest(parent, flatten_forest((subtree,)), position)[0]

    def _fresh_child_id(self, parent: ElementNode, label: str, position: int) -> DeweyID:
        """The ID of a new ``label`` child of ``parent`` at ``position``,
        its ordinal nudged upward (below the right sibling, if any) past
        retired IDs: a retired ID is never reissued."""
        ordinal = self._sibling_ordinal(parent, position)
        siblings = parent.children
        right = siblings[position].id.ordinal if position < len(siblings) else None
        fresh = parent.id.child(label, ordinal)
        while fresh in self._retired_ids:
            if right is None:
                ordinal = ordinal_after(ordinal)
            else:
                ordinal = ordinal_between(ordinal, right)
            fresh = parent.id.child(label, ordinal)
        return fresh

    def insert_forest(
        self,
        parent: ElementNode,
        flat: Sequence[object],
        position: Optional[int] = None,
    ) -> List[List[Node]]:
        """Insert the forest ``flat`` encodes (:func:`flatten_forest`) as
        children of ``parent`` from ``position`` on (default: after the
        last child).  One walk over the tuple creates, links and numbers
        each node, enters it in ``_by_id`` and adds it to its label's
        run for the label and value indexes (the trees are adjacent
        siblings, so a run is one key range).  Returns each tree's nodes
        in document order, root first."""
        if position is None:
            position = len(parent.children)
        trees: List[List[Node]] = []
        runs: Dict[str, KeyedRows] = {}
        by_id = self._by_id
        text = False
        #: ``(element, child count)`` down the current path.
        open_elements: List[tuple] = []
        items = iter(flat)
        for label, payload in zip(items, items):
            if label == TEXT_LABEL:
                node: Node = TextNode(payload)  # type: ignore[arg-type]
                text = True
            elif label[0] == "@":  # type: ignore[index]
                node = AttributeNode(label, payload)  # type: ignore[arg-type]
            else:
                node = ElementNode(label)  # type: ignore[arg-type]
            if open_elements:
                top, count = open_elements[-1]
                siblings = top.children
                siblings.append(node)
                node.parent = top
                node_id = top.dewey.child(label, (len(siblings),))
                if len(siblings) == count:
                    open_elements.pop()
                nodes.append(node)
            else:
                node_id = self._fresh_child_id(parent, label, position)  # type: ignore[arg-type]
                node.parent = parent
                parent.children.insert(position, node)
                position += 1
                nodes = [node]
                trees.append(nodes)
            node.dewey = node_id
            key = node_id.sort_key
            by_id[key] = node
            run = runs.get(label)  # type: ignore[arg-type]
            if run is None:
                runs[label] = KeyedRows([node], [key])  # type: ignore[index]
            else:
                run.nodes.append(node)
                run.keys.append(key)
            if payload and node.kind == "element":
                open_elements.append((node, payload))
        self._index.add_runs(runs)
        self._values.on_add(runs)
        self._invalidate_ancestors(parent, text)
        return trees

    def _graft(self) -> None:
        """Bulk loading: number and index the numbered root's subtree
        in place, in one preorder walk that gives each node
        ``parent_id.child(label, (position,))``, enters it in
        ``_by_id`` and adds it to its label's run; each label's blocks
        are then cut straight from its run."""
        runs: Dict[str, KeyedRows] = {}
        by_id = self._by_id
        stack: List[Node] = [self.root]
        while stack:
            node = stack.pop()
            node_id = node.dewey
            key = node_id.sort_key
            by_id[key] = node
            run = runs.get(node.label)
            if run is None:
                runs[node.label] = KeyedRows([node], [key])
            else:
                run.nodes.append(node)
                run.keys.append(key)
            if node.kind == "element" and node.children:
                children = node.children
                for position, child in enumerate(children, 1):
                    child.dewey = node_id.child(child.label, (position,))
                stack.extend(reversed(children))
        self._index.add_runs(runs)
        self._values.on_add(runs)

    def delete_subtree(self, node: Node) -> List[Node]:
        """Remove ``node`` and its subtree; returns the removed nodes.

        Per XQuery Update semantics, deleting a node removes all its
        descendants as well; the returned list (document order) is what
        CD− turns into Δ− tables.  One preorder walk collects it and its
        label runs; children keep ordinal order and a key encodes the
        ordinal before the label, so preorder is key order.
        """
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        removed: List[Node] = []
        runs: Dict[str, List[Node]] = {}
        text_changed = False
        for gone in node.self_and_descendants():
            removed.append(gone)
            self._by_id.pop(gone.dewey.sort_key, None)
            runs.setdefault(gone.label, []).append(gone)
            text_changed = text_changed or gone.kind == "text"
        self._index.remove_runs(runs)
        self._values.on_remove(runs)
        self._retired_ids.add(node.id)
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
