"""Statement-level update language (Section 2.3).

Statements carry a *target path* (where the update applies) and, for
insertions, an XML forest to copy under each target, stored only as
its flat preorder tuple (``InsertUpdate.flat``).  The textual forms
accepted by :func:`parse_update` cover the paper's grammar plus the
``let $c := doc("uri") for $x in $c/path insert <xml/>`` phrasing used
throughout Appendix A.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple, Union

from repro.pattern.xpath_parser import PathExpr, parse_xpath
from repro.xmldom.model import Node, build_forest, flatten_forest
from repro.xmldom.parser import parse_fragment
from repro.xmldom.serializer import serialize_fragment


class UpdateStatement:
    """Base class: a named, targeted statement-level update."""

    kind = "update"

    def __init__(self, target: Union[str, PathExpr, None], name: Optional[str] = None):
        #: ``None`` for the resolved forms, which carry ``target_ids``.
        self.target: Optional[PathExpr] = (
            parse_xpath(target) if isinstance(target, str) else target
        )
        self.name = name or self.kind

    def __repr__(self) -> str:
        return "%s(%s, target=%r)" % (type(self).__name__, self.name, self.target)


class DeleteUpdate(UpdateStatement):
    """``delete q``: remove every node matched by ``q`` (and subtrees)."""

    kind = "delete"


class InsertUpdate(UpdateStatement):
    """``for $x in q insert xml into $x``: copy a forest under targets.

    ``flat`` (:func:`~repro.xmldom.model.flatten_forest`) is the one
    stored form of the forest: built once from XML text or a node list,
    or a given tuple kept as is; batches merge, pickle and apply it.
    """

    kind = "insert"

    def __init__(
        self,
        target: Union[str, PathExpr],
        fragment: Union[str, Sequence[Node], tuple],
        name: Optional[str] = None,
    ):
        super().__init__(target, name=name)
        if isinstance(fragment, tuple):
            self.flat: tuple = fragment
        elif isinstance(fragment, str):
            self.flat = flatten_forest(parse_fragment(fragment))
        else:
            self.flat = flatten_forest(fragment)
        if not self.flat:
            raise ValueError("insert statement with an empty forest")

    @property
    def forest(self) -> List[Node]:
        """Fresh detached nodes rebuilt from ``flat`` on every read."""
        return build_forest(self.flat)

    def fragment_xml(self) -> str:
        return "".join(serialize_fragment(tree) for tree in self.forest)


class ResolvedDeleteUpdate(DeleteUpdate):
    """A deletion whose target nodes are already known by ID.

    Produced by the Section 5 reduction rules (an atomic ``del(v)`` is
    a single-target ``ResolvedDeleteUpdate([v])``) and by experiment
    drivers that pick target sets directly; ``compute_pul`` resolves
    the IDs instead of evaluating a path.
    """

    def __init__(self, target_ids, name: Optional[str] = None):
        super().__init__(None, name=name)
        self.target_ids = list(target_ids) if isinstance(target_ids, (list, tuple)) else [target_ids]

    def __repr__(self) -> str:
        return "ResolvedDeleteUpdate(%d targets)" % len(self.target_ids)


class ResolvedInsertUpdate(InsertUpdate):
    """An insertion whose target nodes are already known by ID (an
    atomic ``ins↘(v, forest)`` is ``ResolvedInsertUpdate([v], forest)``)."""

    def __init__(
        self, target_ids, forest: Union[str, Sequence[Node], tuple], name: Optional[str] = None
    ):
        super().__init__(None, forest, name=name)
        self.target_ids = list(target_ids) if isinstance(target_ids, (list, tuple)) else [target_ids]

    def __repr__(self) -> str:
        return "ResolvedInsertUpdate(%d targets, %d trees)" % (
            len(self.target_ids),
            len(self.forest),
        )


# -- batches ----------------------------------------------------------------


def _filter_labels(pred) -> set:
    """Every label a predicate expression can test (for merge safety)."""
    from repro.pattern.xpath_parser import (
        AndFilter,
        ExistsFilter,
        OrFilter,
        ValueFilter,
    )

    if isinstance(pred, (AndFilter, OrFilter)):
        out: set = set()
        for part in pred.parts:
            out |= _filter_labels(part)
        return out
    if isinstance(pred, ExistsFilter):
        return _path_labels(pred.path)
    if isinstance(pred, ValueFilter):
        if pred.path is None:
            # Self-value test ``[. = c]``: inserting text under any
            # matched node can flip it, so nothing is safely mergeable.
            return {"*"}
        return _path_labels(pred.path)
    return {"*"}  # unknown predicate kind: assume it can match anything


def _path_labels(path: Optional[PathExpr]) -> set:
    """Every label a path (steps and predicates) can match."""
    if path is None:
        return set()
    labels: set = set()
    for step in path.steps:
        labels.add("#text" if step.test == "text()" else step.test)
        for pred in step.predicates:
            labels |= _filter_labels(pred)
    return labels


def _mergeable_inserts(first: InsertUpdate, second: InsertUpdate) -> bool:
    """Can two adjacent inserts share one target resolution?

    Resolved inserts merge iff they name the same target IDs.  Path
    inserts merge iff the paths are textually identical *and* neither
    forest contains a label the path (steps or predicates) can match --
    otherwise the first insert could create or enable targets for the
    second, and merging would change which nodes receive copies.
    """
    first_ids = getattr(first, "target_ids", None)
    second_ids = getattr(second, "target_ids", None)
    if (first_ids is None) != (second_ids is None):
        return False
    if first_ids is not None:
        return list(first_ids) == list(second_ids)
    if repr(first.target) != repr(second.target):
        return False
    path_labels = _path_labels(first.target)
    if "*" in path_labels:
        return False
    # A flat forest's labels sit at its even positions.
    return path_labels.isdisjoint(first.flat[0::2] + second.flat[0::2])


def _merge_inserts(first: InsertUpdate, second: InsertUpdate) -> InsertUpdate:
    name = "%s+%s" % (first.name, second.name)
    forest = first.flat + second.flat
    first_ids = getattr(first, "target_ids", None)
    if first_ids is not None:
        return ResolvedInsertUpdate(first_ids, forest, name=name)
    return InsertUpdate(first.target, forest, name=name)


def covered_by_deletes(target_id, delete_ids: set) -> bool:
    """Is ``target_id`` one of (O1) or a descendant of (O3) the deleted
    IDs?  Purely ID-based: the Dewey ID encodes the ancestor chain, so
    the test is one set lookup per ancestor, O(depth) per target."""
    if target_id in delete_ids:
        return True
    return any(ancestor in delete_ids for ancestor in target_id.ancestor_ids())


def _under_deleted_keys(target_id, deleted_keys: set) -> bool:
    """:func:`covered_by_deletes` over ``sort_key`` bytes: the parent
    chain is walked by slot reads, and each key is hashed in C."""
    walk = target_id
    while walk is not None:
        if walk.sort_key in deleted_keys:
            return True
        walk = walk._parent or walk.parent()
    return False


def _reduced_segment(segment: Sequence[UpdateStatement]) -> List[UpdateStatement]:
    """O1/O3 over a run of resolved statements (no barrier inside) in
    one backward pass: every delete's target keys join the set the
    inserts before it are tested against, so each target costs one
    parent-chain walk, whatever the number of later deletes.  An insert
    with some targets voided is rewritten to the survivors, one with
    all of them voided is dropped."""
    deleted_keys: set = set()
    kept: List[UpdateStatement] = []
    for statement in reversed(segment):
        if isinstance(statement, DeleteUpdate):
            deleted_keys.update(target.sort_key for target in statement.target_ids)
        elif deleted_keys and isinstance(statement, InsertUpdate):
            targets = statement.target_ids  # type: ignore[attr-defined]
            survivors = [
                target for target in targets if not _under_deleted_keys(target, deleted_keys)
            ]
            if not survivors and targets:
                continue  # fully voided (O1/O3)
            if len(survivors) != len(targets):
                statement = ResolvedInsertUpdate(
                    survivors, statement.flat, name=statement.name
                )
        kept.append(statement)
    kept.reverse()
    return kept


class UpdateBatch:
    """An ordered group of statements propagated as one unit.

    A batch is the engine's unit of maintenance: one merged pending
    update list, one Δ extraction, one lattice pass.  ``coalesced``
    first shrinks the stream with the Section 5 reduction rules over
    resolved statements (``reduced``: O1/O3 void earlier operations a
    later deletion subsumes), then merges adjacent inserts that
    provably share a target set (the statement-level I5), so the batch
    pays one target resolution per surviving run; insert-then-delete
    cancellation of whole subtrees happens later, at the net-delta
    level (nodes inserted and removed within one batch appear in
    neither Δ+ nor Δ−).
    """

    def __init__(self, statements: Sequence[UpdateStatement] = (), name: Optional[str] = None):
        self.statements: List[UpdateStatement] = list(statements)
        self.name = name or "batch"

    def append(self, statement: UpdateStatement) -> "UpdateBatch":
        self.statements.append(statement)
        return self

    def extend(self, statements: Sequence[UpdateStatement]) -> "UpdateBatch":
        self.statements.extend(statements)
        return self

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    def reduced(self) -> "UpdateBatch":
        """Apply the Figure 14 reduction rules O1/O3 at batch level.

        A :class:`ResolvedDeleteUpdate` voids every *earlier* resolved
        **insertion** targeting a deleted node (O1's ``ins↘(n); del(n)``)
        or a node inside a deleted subtree (O3): the deletion removes
        the whole subtree anyway, so the insert never needs to run.
        Both tests read only Dewey IDs, so queued streams shrink
        *before* target resolution touches the document.

        Earlier *deletions* are deliberately left alone even when a
        later deletion subsumes them: removing a node early frees its
        sibling slot, so an intervening insert into the surviving
        parent would be assigned a different ordinal than in the
        sequential run.  (Operation-level reduction,
        :func:`repro.updates.reduce.reduce_operations`, still applies
        the full O1 in the paper's setting of pre-compiled operation
        lists, where only the document modulo ordinals must agree.)

        Reduction never reaches across an unresolved (path-targeted)
        statement either: a path resolves against the document state
        its predecessors produced, and a voided insert could have
        created or enabled matches for it.  Under these two
        restrictions a voided insert only ever added children inside
        subtrees the later deletion takes out whole, so the reduced
        batch's final extents -- and Dewey assignment -- stay
        byte-identical to the unreduced run.
        """
        out: List[UpdateStatement] = []
        segment: List[UpdateStatement] = []
        for statement in self.statements:
            if getattr(statement, "target_ids", None) is None:
                out += _reduced_segment(segment)
                out.append(statement)
                segment = []
            else:
                segment.append(statement)
        out += _reduced_segment(segment)
        return UpdateBatch(out, name=self.name)

    def coalesced(self) -> "UpdateBatch":
        """A semantically equivalent batch, reduced (O1/O3) with
        adjacent same-target inserts merged (statement-level I5)."""
        out: List[UpdateStatement] = []
        for statement in self.reduced().statements:
            if (
                out
                and isinstance(statement, InsertUpdate)
                and isinstance(out[-1], InsertUpdate)
                and _mergeable_inserts(out[-1], statement)
            ):
                out[-1] = _merge_inserts(out[-1], statement)
            else:
                out.append(statement)
        return UpdateBatch(out, name=self.name)

    def __repr__(self) -> str:
        return "UpdateBatch(%s, %d statements)" % (self.name, len(self.statements))


def coalesce(
    batch: Union[UpdateBatch, Sequence[UpdateStatement]]
) -> Tuple[List[UpdateStatement], int]:
    """The statements a batch applies, with the submitted count: an
    :class:`UpdateBatch` is coalesced, a plain sequence applies as is."""
    if isinstance(batch, UpdateBatch):
        return batch.coalesced().statements, len(batch)
    statements = list(batch)
    return statements, len(statements)


_LET_RE = re.compile(
    r"^\s*let\s+(\$[\w]+)\s*:?=\s*doc\s*\(\s*[\"']([^\"']*)[\"']\s*\)\s*", re.DOTALL
)
_FOR_RE = re.compile(r"^\s*for\s+(\$[\w]+)\s+in\s+(.+?)\s*(?=insert\b|delete\b)", re.DOTALL)
_INSERT_RE = re.compile(r"^\s*insert\s+(.*?)(?:\s+into\s+(.+?))?\s*$", re.DOTALL)
_DELETE_RE = re.compile(r"^\s*delete\s+(.+?)\s*$", re.DOTALL)


def _strip_doc_var(path_text: str, doc_var: Optional[str]) -> str:
    path_text = path_text.strip()
    if doc_var and path_text.startswith(doc_var):
        path_text = path_text[len(doc_var):].strip()
    doc_call = re.match(r"doc\s*\(\s*[\"'][^\"']*[\"']\s*\)\s*(.*)$", path_text, re.DOTALL)
    if doc_call:
        path_text = doc_call.group(1).strip()
    return path_text


def parse_update(text: str, name: Optional[str] = None) -> UpdateStatement:
    """Parse a textual update statement.

    Accepted shapes (whitespace-insensitive)::

        delete //a/b
        insert <x/> into /site/people
        for $p in /site/people/person insert <name>n</name>
        let $c := doc("auction.xml")
        for $p in $c/site/people/person
        insert <name>n</name>
        for $p in //person delete $p/name     (sugar: delete //person/name)
    """
    remaining = text.strip()
    doc_var: Optional[str] = None
    let_match = _LET_RE.match(remaining)
    if let_match:
        doc_var = let_match.group(1)
        remaining = remaining[let_match.end():]

    for_var: Optional[str] = None
    for_path: Optional[str] = None
    for_match = _FOR_RE.match(remaining)
    if for_match:
        for_var = for_match.group(1)
        for_path = _strip_doc_var(for_match.group(2), doc_var)
        remaining = remaining[for_match.end():]

    delete_match = _DELETE_RE.match(remaining)
    if delete_match:
        raw_target = delete_match.group(1)
        target_text = _strip_doc_var(raw_target, doc_var)
        if for_var is not None and target_text.startswith(for_var):
            suffix = target_text[len(for_var):].strip()
            target_text = (for_path or "") + suffix
        return DeleteUpdate(target_text, name=name)

    insert_match = _INSERT_RE.match(remaining)
    if insert_match:
        fragment_text = insert_match.group(1).strip()
        into_text = insert_match.group(2)
        if into_text is not None:
            target_text = _strip_doc_var(into_text, doc_var)
            if for_var is not None and target_text.startswith(for_var):
                suffix = target_text[len(for_var):].strip()
                target_text = (for_path or "") + suffix
        elif for_path is not None:
            target_text = for_path
        else:
            raise ValueError("insert statement without a target: %r" % text)
        return InsertUpdate(target_text, fragment_text, name=name)

    raise ValueError("unrecognized update statement: %r" % text)
