"""Hot-path indexes over a document's canonical relations.

The maintenance pipeline's asymptotics (each update touches Δ-sized
data, Section 6) depend on three per-update costs staying sublinear in
the document size:

* keeping every ``R_a`` (label → document-ordered node list) sorted
  under subtree insertion/deletion,
* answering σ-constant selections ``σ_{val=c}(R_a)`` without scanning
  and re-deriving every node's string value,
* re-deriving ``val``/``cont`` only for nodes whose text content
  actually changed.

This module provides the first two as index structures; the third is
the memoized ``val``/``cont`` cache on the node classes
(:mod:`repro.xmldom.model`), whose invalidation walk feeds
:class:`ValueIndex`.

Invariants
----------

:class:`KeyedRows`
    A document-ordered node list paired with the parallel list of its
    ``sort_key`` s: what both indexes hand out (their own live lists,
    nothing rebuilt) and what term evaluation probes.  An ID names its
    ancestors and a subtree is one contiguous key run, so ``find`` (one
    bisect) and ``below`` (two bisects and a slice) reach the rows a Δ
    touches without reading the others; ``spliced`` applies one edit
    list to both lists.

:class:`LabelIndex`
    For every label, ``_nodes[label]`` and ``_keys[label]`` are
    parallel lists in document order; ``_keys[label][i]`` is the
    ``sort_key`` of ``_nodes[label][i].id`` at all times (byte strings
    compared by memcmp, so every bisect compares in C and never calls
    ``DeweyID.__lt__``).  The index changes a whole subtree at a time
    and a subtree is one contiguous key run, so a subtree's nodes of
    one label are one contiguous run of that label's lists: inserted
    subtrees carry fresh IDs (no live key falls in their range) and
    deletes take whole subtrees.  The document's one walk over a
    subtree hands the index that subtree's nodes already grouped into
    per-label runs, so ``add_runs`` / ``remove_runs`` cost one bisect
    and one slice insert / delete per *distinct label* of the subtree
    -- not one list shift per node, and no regrouping pass.

:class:`ValueIndex`
    Entries exist only for labels that have been queried at least once
    (σ predicates name few labels).  Within an entry, every *live*
    node of the label is either bucketed under the string value it had
    when last flushed (``_indexed``) or queued in ``_dirty``; lookups
    flush the dirty set first, so a returned bucket always reflects
    current ``val``s.  Buckets are document-ordered (parallel sorted
    key lists, as above).  Consistency relies on the document calling
    ``on_add`` / ``on_remove`` with every subtree entering/leaving the
    document (grouped by label, as its walk hands the label index) and
    ``on_val_change`` for every element whose text descendants changed
    (the same ancestor walk that invalidates the ``val`` cache).

    The pseudo-label ``"*"`` is served by an *all-labels* entry over
    every element in the document, built lazily from the ``elements``
    provider on the first wildcard σ lookup; from then on it is kept
    incremental by the same notifications (restricted to element
    nodes), so ``*``-labeled σ pattern nodes resolve without an
    ``all_elements()`` scan.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence

_ABSENT = object()


class KeyedRows:
    """Document-ordered ``nodes`` with their parallel ``sort_key`` list.

    Iterates, slices and measures as its node list.  Rows handed out by
    an index are its live lists: read them before the document changes
    again and never mutate them.
    """

    __slots__ = ("nodes", "keys")

    def __init__(self, nodes: List[Any], keys: List[Any]):
        self.nodes = nodes
        self.keys = keys

    @classmethod
    def of(cls, nodes: Iterable[Any]) -> "KeyedRows":
        """Key an already document-ordered node sequence."""
        nodes = list(nodes)
        return cls(nodes, [node.id.sort_key for node in nodes])

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.nodes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return KeyedRows(self.nodes[item], self.keys[item])
        return self.nodes[item]

    def __repr__(self) -> str:
        return "KeyedRows(%d nodes)" % len(self.nodes)

    def find(self, key: Any) -> Any:
        """The node whose ``sort_key`` is ``key``, or None."""
        keys = self.keys
        position = bisect.bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            return self.nodes[position]
        return None

    def below(self, ancestor_id: Any) -> List[Any]:
        """The nodes properly below ``ancestor_id``: Dewey order keeps
        a subtree in one contiguous run, so two bisects bound it and
        the answer is a slice."""
        keys = self.keys
        start = bisect.bisect_right(keys, ancestor_id.sort_key)
        stop = bisect.bisect_left(keys, ancestor_id.subtree_end_key, start)
        return self.nodes[start:stop]

    def spliced(
        self, cut_keys: Iterable[Any], merge_nodes: Sequence[Any] = ()
    ) -> "KeyedRows":
        """A copy without the rows keyed by ``cut_keys`` (absent ones
        are ignored) and with ``merge_nodes`` (document-ordered, not
        among the rows) merged in.

        Costs one bisect per edit plus C-level slice copies between the
        edit positions -- never a Python-level pass over the rows.
        """
        nodes, keys = self.nodes, self.keys
        # (position, 0 = merge before it / 1 = cut it, merge rank, node)
        edits = []
        for key in cut_keys:
            position = bisect.bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                edits.append((position, 1, 0, None))
        for rank, node in enumerate(merge_nodes):
            position = bisect.bisect_left(keys, node.id.sort_key)
            edits.append((position, 0, rank, node))
        edits.sort()
        out_nodes: List[Any] = []
        out_keys: List[Any] = []
        start = 0
        for position, cut, _rank, node in edits:
            out_nodes.extend(nodes[start:position])
            out_keys.extend(keys[start:position])
            if cut:
                start = position + 1
            else:
                out_nodes.append(node)
                out_keys.append(node.id.sort_key)
                start = position
        out_nodes.extend(nodes[start:])
        out_keys.extend(keys[start:])
        return KeyedRows(out_nodes, out_keys)


class LabelIndex:
    """Per-label canonical relation ``R_a`` with incremental upkeep."""

    __slots__ = ("_nodes", "_keys")

    def __init__(self) -> None:
        self._nodes: Dict[str, List[Any]] = {}
        self._keys: Dict[str, List[Any]] = {}

    def labels(self) -> Iterator[str]:
        return iter(self._nodes)

    def nodes(self, label: str) -> List[Any]:
        """The live document-ordered row of ``label`` (do not mutate)."""
        return self._nodes.get(label, [])

    def copy_label(self, label: str) -> List[Any]:
        return list(self._nodes.get(label, ()))

    def add_runs(self, runs: Mapping[str, KeyedRows]) -> None:
        """Index a subtree entering the document, given as its label
        runs: for each label, the subtree's nodes of that label in
        document order with their keys (a new label adopts the run's
        lists).  The subtree's IDs are fresh, so no live key falls in
        its range: one bisect and one slice insert per label.

        _ValueEntry keeps the same parallel-list discipline but inserts
        node by node: a value bucket's share of a subtree is not one
        run of it.
        """
        for label, run in runs.items():
            row = self._nodes.get(label)
            if row is None:
                self._nodes[label] = run.nodes
                self._keys[label] = run.keys
                continue
            keys = self._keys[label]
            position = bisect.bisect(keys, run.keys[0])
            keys[position:position] = run.keys
            row[position:position] = run.nodes

    def remove_runs(self, runs: Mapping[str, Sequence[Any]]) -> None:
        """Unindex a whole subtree leaving the document, given as its
        label runs (each label's nodes of the subtree, document order).
        One bisect and one slice delete per label; raises
        :class:`LookupError` when a run's two ends are not the indexed
        nodes, which means the index is corrupt."""
        for label, run in runs.items():
            row = self._nodes.get(label, [])
            keys = self._keys.get(label, [])
            start = bisect.bisect_left(keys, run[0].id.sort_key)
            stop = start + len(run)
            if stop > len(row) or row[start] is not run[0] or row[stop - 1] is not run[-1]:
                raise LookupError(
                    "label index corrupt: the %d %r nodes under %s are not "
                    "one indexed run" % (len(run), label, run[0].id)
                )
            del keys[start:stop]
            del row[start:stop]

    def keyed(self, label: str) -> KeyedRows:
        """The live row of ``label`` with its key list (do not mutate)."""
        return KeyedRows(self._nodes.get(label, []), self._keys.get(label, []))

    def descendants(self, label: str, ancestor_id: Any) -> List[Any]:
        """The ``label`` nodes properly below ``ancestor_id``."""
        return self.keyed(label).below(ancestor_id)


class _ValueEntry:
    """One label's value buckets: val → document-ordered nodes."""

    __slots__ = ("_keys", "_nodes", "_indexed", "_dirty")

    def __init__(self, nodes: Sequence[Any]):
        self._keys: Dict[str, List[Any]] = {}
        self._nodes: Dict[str, List[Any]] = {}
        #: node → the value it is currently bucketed under.
        self._indexed: Dict[Any, str] = {}
        #: nodes whose bucket may be stale (insertion-ordered set).
        self._dirty: Dict[Any, None] = {}
        for node in nodes:  # already document-ordered: plain appends
            value = node.val
            self._keys.setdefault(value, []).append(node.id.sort_key)
            self._nodes.setdefault(value, []).append(node)
            self._indexed[node] = value

    def _insert(self, node: Any, value: str) -> None:
        # Same parallel keys/nodes discipline as LabelIndex, node by
        # node (see LabelIndex.add_runs for why).
        key = node.id.sort_key
        keys = self._keys.get(value)
        if keys is None:
            self._keys[value] = [key]
            self._nodes[value] = [node]
        else:
            position = bisect.bisect(keys, key)
            keys.insert(position, key)
            self._nodes[value].insert(position, node)
        self._indexed[node] = value

    def _unbucket(self, node: Any) -> None:
        value = self._indexed.pop(node, _ABSENT)
        if value is _ABSENT:
            return
        keys = self._keys[value]
        position = bisect.bisect_left(keys, node.id.sort_key)
        row = self._nodes[value]
        if position < len(row) and row[position] is node:
            keys.pop(position)
            row.pop(position)
        if not row:
            # Drop emptied buckets so memory tracks live values, not
            # every value ever seen.
            del self._keys[value]
            del self._nodes[value]

    def mark(self, node: Any) -> None:
        self._dirty[node] = None

    def discard(self, node: Any) -> None:
        self._dirty.pop(node, None)
        self._unbucket(node)

    def lookup(self, value: str) -> KeyedRows:
        """The live bucket of ``value`` (do not mutate)."""
        if self._dirty:
            for node in self._dirty:
                current = node.val
                if self._indexed.get(node, _ABSENT) == current:
                    continue
                self._unbucket(node)
                self._insert(node, current)
            self._dirty.clear()
        return KeyedRows(self._nodes.get(value, []), self._keys.get(value, []))


WILDCARD_LABEL = "*"


class ValueIndex:
    """Lazy per-label value index over the canonical relations.

    ``lookup(label, value)`` returns the document-ordered nodes of
    ``label`` whose current ``val`` equals ``value`` -- the σ-constant
    selection of :func:`repro.pattern.evaluate.sources_from_document` --
    in O(#dirty + #matches) instead of O(|R_label| · |subtree|).

    ``lookup("*", value)`` answers wildcard σ nodes from an all-labels
    entry over every element, built lazily from the ``elements``
    provider (a callable returning the document's elements in document
    order) and maintained incrementally afterwards.
    """

    __slots__ = ("_label_index", "_entries", "_elements")

    def __init__(self, label_index: LabelIndex, elements=None):
        self._label_index = label_index
        self._entries: Dict[str, _ValueEntry] = {}
        #: document-ordered element provider backing the "*" entry.
        self._elements = elements

    def lookup(self, label: str, value: str) -> KeyedRows:
        entry = self._entries.get(label)
        if entry is None:
            if label == WILDCARD_LABEL:
                if self._elements is None:
                    raise ValueError("no element provider for wildcard lookups")
                entry = _ValueEntry(
                    sorted(self._elements(), key=lambda n: n.id.sort_key)
                )
            else:
                entry = _ValueEntry(self._label_index.nodes(label))
            self._entries[label] = entry
        return entry.lookup(value)

    # -- document notifications (cheap no-ops for untracked labels) -----

    def on_add(self, runs: Mapping[str, Iterable[Any]]) -> None:
        """Nodes entering the document, grouped by label: nodes are
        read only for a label with an entry or for the wildcard one."""
        self._notify(runs, _ValueEntry.mark)

    def on_remove(self, runs: Mapping[str, Iterable[Any]]) -> None:
        """Nodes leaving the document, grouped as for :meth:`on_add`."""
        self._notify(runs, _ValueEntry.discard)

    def _notify(self, runs: Mapping[str, Iterable[Any]], action) -> None:
        entries = self._entries
        if not entries:
            return
        wildcard = entries.get(WILDCARD_LABEL)
        for label, nodes in runs.items():
            entry = entries.get(label)
            if entry is not None:
                for node in nodes:
                    action(entry, node)
            if wildcard is not None:
                for node in nodes:
                    if node.kind == "element":
                        action(wildcard, node)

    def on_val_change(self, node: Any) -> None:
        entry = self._entries.get(node.label)
        if entry is not None:
            entry.mark(node)
        if node.kind == "element":
            wildcard = self._entries.get(WILDCARD_LABEL)
            if wildcard is not None:
                wildcard.mark(node)
