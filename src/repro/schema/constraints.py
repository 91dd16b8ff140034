"""Run-time schema-violation detection from Δ+ tables (Section 3.3).

Two layers, as the paper sketches:

1. **Δ-implications** (:func:`derive_delta_implications`): from the DTD
   derive rules of the form ``Δ+_a ≠ ∅ ⇒ Δ+_b ≠ ∅`` (Example 3.10; the
   contrapositive of Example 3.9's ``Δ+_c = ∅ ⇒ Δ+_b = ∅``) and check
   them on the Δ+ tables of an insertion *before* touching the
   document.  Cheap but incomplete.
2. **Target revalidation** (:func:`check_insert_against_dtd`): rebuild
   each target's would-be child-label sequence and match it against the
   target's content model, and validate the inserted trees internally.
   Complete for the supported DTD fragment (covers the sibling
   constraints of Example 3.10: inserting ``a`` under ``d2`` demands
   ``b`` and ``c`` ride along).

The user-facing contract matches the paper: when a violation is
reported the caller may refuse the update or let it through knowingly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.schema.dtd import DTD
from repro.updates.pul import AtomicInsert, PendingUpdateList
from repro.xmldom.model import Document, ElementNode, Node


class DeltaImplication:
    """``Δ+_antecedent ≠ ∅ ⇒ Δ+_consequent ≠ ∅``."""

    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: str, consequent: str):
        self.antecedent = antecedent
        self.consequent = consequent

    def holds(self, delta_labels: Set[str]) -> bool:
        return self.antecedent not in delta_labels or self.consequent in delta_labels

    def __repr__(self) -> str:
        return "Δ+%s≠∅ ⇒ Δ+%s≠∅" % (self.antecedent, self.consequent)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeltaImplication)
            and self.antecedent == other.antecedent
            and self.consequent == other.consequent
        )

    def __hash__(self) -> int:
        return hash((self.antecedent, self.consequent))


def derive_delta_implications(dtd: DTD) -> List[DeltaImplication]:
    """All required-descendant implications the DTD induces.

    For DTD d1 of Figure 5 (``b → c``) this yields ``Δ+_b ≠ ∅ ⇒
    Δ+_c ≠ ∅``, whose violation rejects update u5 of Example 3.9.
    """
    out: List[DeltaImplication] = []
    for label in sorted(dtd.rules):
        for required in sorted(dtd.required_descendants(label)):
            out.append(DeltaImplication(label, required))
    return out


def _inserted_labels(forest: Sequence[Node]) -> Set[str]:
    labels: Set[str] = set()
    for tree in forest:
        for node in tree.self_and_descendants():
            if isinstance(node, ElementNode):
                labels.add(node.label)
    return labels


def check_delta_implications(
    dtd: DTD, forest: Sequence[Node], implications: Sequence[DeltaImplication] = ()
) -> List[str]:
    """Layer 1: check Δ-implications over an insertion's forest."""
    rules = list(implications) or derive_delta_implications(dtd)
    labels = _inserted_labels(forest)
    return [
        "inserted %s without the required %s (%r)"
        % (rule.antecedent, rule.consequent, rule)
        for rule in rules
        if not rule.holds(labels)
    ]


def _element_children_labels(element: ElementNode) -> List[str]:
    return [child.label for child in element.children if isinstance(child, ElementNode)]


def _validate_tree(dtd: DTD, tree: Node, problems: List[str]) -> None:
    if not isinstance(tree, ElementNode):
        return
    if not dtd.allows_children(tree.label, _element_children_labels(tree)):
        problems.append(
            "element <%s> with children %r violates its content model"
            % (tree.label, _element_children_labels(tree))
        )
    for child in tree.children:
        _validate_tree(dtd, child, problems)


def check_insert_against_dtd(dtd: DTD, pul: PendingUpdateList) -> List[str]:
    """Layer 2: full revalidation of an insertion PUL.

    Checks (a) every inserted tree internally and (b) every target's
    post-insert child sequence, without touching the document.
    """
    problems: List[str] = []
    for op in pul.inserts():
        assert isinstance(op, AtomicInsert)
        forest = op.forest
        for tree in forest:
            _validate_tree(dtd, tree, problems)
        target = op.target
        future = _element_children_labels(target) + [
            tree.label for tree in forest if isinstance(tree, ElementNode)
        ]
        if not dtd.allows_children(target.label, future):
            problems.append(
                "inserting %r under <%s> (%s) yields invalid children %r"
                % (
                    [tree.label for tree in forest],
                    target.label,
                    target.id,
                    future,
                )
            )
    return problems


def validate_document(dtd: DTD, document: Document) -> List[str]:
    """Validate the whole document against the DTD."""
    problems: List[str] = []
    _validate_tree(dtd, document.root, problems)
    if dtd.root is not None and document.root.label != dtd.root:
        problems.append(
            "root is <%s>, DTD expects <%s>" % (document.root.label, dtd.root)
        )
    return problems
