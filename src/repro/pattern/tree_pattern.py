"""The tree-pattern dialect *P* (Section 2.2).

A pattern is a rooted tree whose nodes carry:

* a *label* (an element/attribute name, or ``*``);
* an *axis* connecting the node to its parent: ``child`` (``/``) or
  ``desc`` (``//``); the root's axis relates it to the document root;
* an optional value predicate ``[val = c]``;
* stored-attribute annotations: any subset of ``ID``, ``val``, ``cont``.

The *algebraic semantics* of a pattern (Figure 4) is::

    s(δ(π(σ(R_a1 × ... × R_ak))))

where the σ carries value predicates and the ≺/≺≺ constraints of the
edges, π keeps the annotated attributes, δ eliminates duplicates while
producing derivation counts and s sorts by binding IDs.  Evaluators live
in :mod:`repro.pattern.evaluate` / :mod:`repro.pattern.embedding`.

Pattern nodes have stable unique *names* (``label#k`` by declaration
order) used as relation column names throughout the system.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

ANNOTATIONS = ("ID", "val", "cont")


class PatternNode:
    """One node of a tree pattern."""

    __slots__ = (
        "label",
        "axis",
        "value_pred",
        "store_id",
        "store_val",
        "store_cont",
        "children",
        "parent",
        "name",
    )

    def __init__(
        self,
        label: str,
        axis: str = "child",
        value_pred: Optional[str] = None,
        store_id: bool = False,
        store_val: bool = False,
        store_cont: bool = False,
    ):
        if axis not in ("child", "desc"):
            raise ValueError("axis must be 'child' or 'desc', got %r" % (axis,))
        self.label = label
        self.axis = axis
        self.value_pred = value_pred
        self.store_id = store_id
        self.store_val = store_val
        self.store_cont = store_cont
        self.children: List["PatternNode"] = []
        self.parent: Optional["PatternNode"] = None
        self.name: str = ""  # assigned by Pattern

    def add_child(self, child: "PatternNode") -> "PatternNode":
        child.parent = self
        self.children.append(child)
        return child

    @property
    def annotations(self) -> Tuple[str, ...]:
        out = []
        if self.store_id:
            out.append("ID")
        if self.store_val:
            out.append("val")
        if self.store_cont:
            out.append("cont")
        return tuple(out)

    @property
    def stores_value_or_content(self) -> bool:
        """Is this a *cvn* node in the sense of Algorithms 4 / 6?"""
        return self.store_val or self.store_cont

    def matches_label(self, label: str) -> bool:
        return self.label == "*" or self.label == label

    def __repr__(self) -> str:
        return "PatternNode(%s)" % (self.name or self.label,)


class Pattern:
    """A rooted tree pattern with named nodes."""

    def __init__(self, root: PatternNode):
        self.root = root
        # The tree is complete when the pattern is built (every builder
        # grafts children first), so its preorder is walked once here.
        self._preorder: List[PatternNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            self._preorder.append(node)
            stack.extend(reversed(node.children))
        self._assign_names()

    def _assign_names(self) -> None:
        counts: Dict[str, int] = {}
        self._by_name: Dict[str, PatternNode] = {}
        for node in self.nodes():
            counts[node.label] = counts.get(node.label, 0) + 1
            node.name = "%s#%d" % (node.label, counts[node.label])
            self._by_name[node.name] = node

    # -- traversal --------------------------------------------------------

    def nodes(self) -> List[PatternNode]:
        """All nodes in preorder (document order of declaration); a
        fresh list each call, so callers may mutate it."""
        return list(self._preorder)

    def node(self, name: str) -> PatternNode:
        return self._by_name[name]

    def node_names(self) -> List[str]:
        return [node.name for node in self.nodes()]

    def __len__(self) -> int:
        return len(self.nodes())

    def edges(self) -> List[Tuple[PatternNode, PatternNode]]:
        """(parent, child) pairs in preorder of the child."""
        return [(node.parent, node) for node in self.nodes() if node.parent is not None]

    def parent_of(self, name: str) -> Optional[str]:
        parent = self.node(name).parent
        return parent.name if parent is not None else None

    def labels(self) -> List[str]:
        return [node.label for node in self.nodes()]

    # -- stored attributes --------------------------------------------------

    def return_columns(self) -> List[Tuple[str, str]]:
        """``(node name, annotation)`` pairs, preorder, ID < val < cont."""
        out: List[Tuple[str, str]] = []
        for node in self.nodes():
            for annotation in node.annotations:
                out.append((node.name, annotation))
        return out

    def content_nodes(self) -> List[PatternNode]:
        """The *cvn* set: nodes annotated with val or cont."""
        return [node for node in self.nodes() if node.stores_value_or_content]

    def validate_for_maintenance(self) -> None:
        """PIMT/PDMT require every val/cont node to also store its ID."""
        for node in self.content_nodes():
            if not node.store_id:
                raise ValueError(
                    "node %s stores val/cont but not ID; "
                    "tuple modification algorithms need the ID" % node.name
                )

    # -- sub-patterns (for the lattice, Section 3.5) -------------------------

    def subpattern(self, names: FrozenSet[str]) -> "Pattern":
        """The induced sub-pattern on an ancestor-closed node subset.

        ``names`` must contain, with every node, its pattern parent
        (this holds for all snowcaps, the only sub-patterns the
        maintenance algorithms materialize, so original edges and axes
        are preserved exactly).
        """
        if self.root.name not in names:
            raise ValueError("a sub-pattern must contain the root")
        for name in names:
            parent = self.parent_of(name)
            if parent is not None and parent not in names:
                raise ValueError(
                    "subset %r is not ancestor-closed (%s lacks its parent %s)"
                    % (sorted(names), name, parent)
                )

        def clone(node: PatternNode) -> PatternNode:
            copy = PatternNode(
                node.label,
                axis=node.axis,
                value_pred=node.value_pred,
                store_id=node.store_id,
                store_val=node.store_val,
                store_cont=node.store_cont,
            )
            for child in node.children:
                if child.name in names:
                    copy.add_child(clone(child))
            return copy

        sub = Pattern(clone(self.root))
        # Preserve the original node names so relations line up; both
        # trees enumerate the kept nodes in the same preorder.
        for node, original_name in zip(sub.nodes(), self._names_in_preorder(names)):
            node.name = original_name
        sub._by_name = {node.name: node for node in sub.nodes()}
        return sub

    def _names_in_preorder(self, names: FrozenSet[str]) -> List[str]:
        return [node.name for node in self.nodes() if node.name in names]

    # -- variants -------------------------------------------------------------

    def with_annotations(
        self, annotations: Dict[str, Sequence[str]], keep_existing: bool = False
    ) -> "Pattern":
        """A copy with stored attributes replaced per node name.

        Used by the Figure 24 experiment, which compares otherwise
        identical views differing only in where val/cont is stored.
        """
        copy = self.subpattern(frozenset(self.node_names()))
        for node in copy.nodes():
            wanted = annotations.get(node.name)
            if wanted is None:
                if not keep_existing:
                    node.store_id = node.store_val = node.store_cont = False
                continue
            node.store_id = "ID" in wanted
            node.store_val = "val" in wanted
            node.store_cont = "cont" in wanted
        return copy

    # -- display ---------------------------------------------------------------

    def to_string(self) -> str:
        """A compact XPath-like rendering with annotation subscripts."""

        def render(node: PatternNode) -> str:
            step = "/" if node.axis == "child" else "//"
            text = step + node.label
            if node.annotations:
                text += "{%s}" % ",".join(node.annotations)
            if node.value_pred is not None:
                text += "[val=%s]" % node.value_pred
            if node.children:
                inner = "".join("[%s]" % render(child) for child in node.children[:-1])
                text += inner + render(node.children[-1])
            return text

        return render(self.root)

    def __repr__(self) -> str:
        return "Pattern(%s)" % self.to_string()


def pattern_from_spec(spec: Sequence) -> Pattern:
    """Build a pattern from a nested-tuple spec (testing convenience).

    Spec: ``(label, axis, options_dict, [child_spec, ...])`` where the
    dict may carry ``pred``, ``id``, ``val``, ``cont``.
    """

    def build(item: Sequence) -> PatternNode:
        label, axis, options, children = item
        node = PatternNode(
            label,
            axis=axis,
            value_pred=options.get("pred"),
            store_id=bool(options.get("id")),
            store_val=bool(options.get("val")),
            store_cont=bool(options.get("cont")),
        )
        for child in children:
            node.add_child(build(child))
        return node

    return Pattern(build(spec))
