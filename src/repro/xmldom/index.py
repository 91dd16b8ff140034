"""Hot-path indexes over a document's canonical relations.

The maintenance pipeline's asymptotics (each update touches Δ-sized
data, Section 6) depend on three per-update costs staying sublinear in
the document size:

* keeping every ``R_a`` (label → document-ordered nodes) sorted under
  subtree insertion/deletion,
* answering σ-constant selections ``σ_{val=c}(R_a)`` without scanning
  and re-deriving every node's string value,
* re-deriving ``val``/``cont`` only for nodes whose text content
  actually changed.

This module provides the first two as index structures; the third is
the memoized ``val``/``cont`` cache on the node classes
(:mod:`repro.xmldom.model`), whose invalidation walk feeds
:class:`ValueIndex`.

Every row source term evaluation probes answers two calls: ``find``
(the node of one ``sort_key``) and ``below`` (the nodes properly below
an ID).  An ID names its ancestors and a subtree is one contiguous key
run, so both reach the rows a Δ touches without reading the others.
Keys are byte strings compared by memcmp, so every bisect compares in
C and never calls ``DeweyID.__lt__``.

Invariants
----------

:class:`KeyedRows`
    A flat document-ordered node list paired with the parallel list of
    its ``sort_key`` s: a value-index bucket, the ``*`` relation, or
    rows a caller keyed itself.

:class:`LabelRows`
    One label's ``R_a`` as document-ordered bounded blocks: parallel
    keys/nodes lists of at most ``2 * BLOCK`` entries each, in order,
    none empty, and ``firsts[i]`` the first key of block ``i``.  One
    bisect over ``firsts`` and one inside a block find a key, so a
    subtree's run is inserted or removed in O(log n + BLOCK + run)
    (a block past ``2 * BLOCK`` splits; a small one merges into a
    neighbour with room) -- never a shift of the relation's tail.

:class:`LabelIndex`
    Every label with at least one node maps to its :class:`LabelRows`.
    The index changes a whole subtree at a time and a subtree is one
    contiguous key run, so a subtree's nodes of one label are one
    contiguous run of that label's rows: inserted subtrees carry fresh
    IDs (no live key falls in their range) and deletes take whole
    subtrees.  The document's one walk over a subtree hands the index
    that subtree's nodes already grouped into per-label runs, so
    ``add_runs`` / ``remove_runs`` touch one or two blocks per
    *distinct label* of the subtree.  It is also the document's one
    node index: an ID names its label, so ``find`` on that label's rows
    resolves it.

:class:`Overlay`
    A read-only view of base rows with one batch's edits applied: the
    rows keyed by a sorted set of cut keys left out, a small sorted
    merge list let in.  Nothing is copied: ``find`` and ``below`` cost
    O(log|R| + edits in range); iterating materializes the relation
    (oracles and tests only).

:class:`ValueIndex`
    Entries exist only for labels that have been queried at least once
    (σ predicates name few labels).  Within an entry, every *live*
    node of the label is either bucketed under the string value it had
    when last flushed (``_indexed``) or queued in ``_dirty``; lookups
    flush the dirty set first, so a returned bucket always reflects
    current ``val``s.  Buckets are document-ordered :class:`KeyedRows`
    lists.  Consistency relies on the document calling ``on_add`` /
    ``on_remove`` with every subtree entering/leaving the document
    (grouped by label, as its walk hands the label index) and
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
from collections import abc
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

_ABSENT = object()

#: Block size B: a label's rows live in blocks of at most ``2 * BLOCK``
#: entries, so an edit moves at most that many references.
BLOCK = 128


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

    def _span(self, ancestor_id: Any) -> Tuple[int, int]:
        keys = self.keys
        start = bisect.bisect_right(keys, ancestor_id.sort_key)
        return start, bisect.bisect_left(keys, ancestor_id.subtree_end_key, start)

    def below(self, ancestor_id: Any) -> List[Any]:
        """The nodes properly below ``ancestor_id``: Dewey order keeps
        a subtree in one contiguous run, so two bisects bound it and
        the answer is a slice."""
        start, stop = self._span(ancestor_id)
        return self.nodes[start:stop]

    def keyed_below(self, ancestor_id: Any) -> Tuple[List[Any], List[Any]]:
        """:meth:`below` with the run's keys: ``(keys, nodes)``."""
        start, stop = self._span(ancestor_id)
        return self.keys[start:stop], self.nodes[start:stop]


def _cut_blocks(blocks: List[List[Any]], first: int, start: int, last: int, stop: int) -> List[Any]:
    """Entries ``start`` of block ``first`` up to ``stop`` of block
    ``last``, as one list."""
    if first == last:
        return blocks[first][start:stop]
    out = blocks[first][start:]
    for block in blocks[first + 1 : last]:
        out += block
    out += blocks[last][:stop]
    return out


class LabelRows(abc.Sequence):
    """One label's canonical relation ``R_a`` in bounded blocks.

    ``key_blocks[i]`` and ``node_blocks[i]`` are parallel, each block
    holds at most ``2 * BLOCK`` entries and ``firsts[i]`` is block
    ``i``'s first key.  Handed out live by :class:`LabelIndex`: a
    read-only sequence (``len`` is O(1), an int index walks the
    blocks, a slice or :attr:`nodes` / :attr:`keys` materializes a
    list) and a probe source (``find`` / ``below``); read it before
    the document changes again.
    """

    __slots__ = ("firsts", "key_blocks", "node_blocks", "size")

    def __init__(self, keys: Optional[List[Any]] = None, nodes: Optional[List[Any]] = None):
        keys, nodes = keys or [], nodes or []
        self.key_blocks: List[List[Any]] = [
            keys[start : start + BLOCK] for start in range(0, len(keys), BLOCK)
        ]
        self.node_blocks: List[List[Any]] = [
            nodes[start : start + BLOCK] for start in range(0, len(nodes), BLOCK)
        ]
        self.firsts: List[Any] = [block[0] for block in self.key_blocks]
        self.size = len(keys)

    # -- the read-only sequence ------------------------------------------

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(self.node_blocks)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.nodes[item]
        if item < 0:
            item += self.size
        for block in self.node_blocks:
            if 0 <= item < len(block):
                return block[item]
            item -= len(block)
        raise IndexError("label row index out of range")

    def __repr__(self) -> str:
        return "LabelRows(%d nodes in %d blocks)" % (self.size, len(self.firsts))

    @property
    def nodes(self) -> List[Any]:
        """The row as one fresh flat node list."""
        return list(chain.from_iterable(self.node_blocks))

    @property
    def keys(self) -> List[Any]:
        """The row's keys as one fresh flat list."""
        return list(chain.from_iterable(self.key_blocks))

    # -- probes -------------------------------------------------------------

    def find(self, key: Any) -> Any:
        """The node whose ``sort_key`` is ``key``, or None."""
        block = bisect.bisect_right(self.firsts, key) - 1
        if block < 0:
            return None
        keys = self.key_blocks[block]
        position = bisect.bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            return self.node_blocks[block][position]
        return None

    def _bounds(self, ancestor_id: Any):
        """``(first block, start, last block, stop)`` of the keys
        properly below ``ancestor_id``, or None when no block can hold
        one."""
        low, high = ancestor_id.sort_key, ancestor_id.subtree_end_key
        firsts = self.firsts
        last = bisect.bisect_left(firsts, high) - 1
        if last < 0:
            return None
        first = max(bisect.bisect_right(firsts, low) - 1, 0)
        key_blocks = self.key_blocks
        start = bisect.bisect_right(key_blocks[first], low)
        stop = bisect.bisect_left(key_blocks[last], high)
        return first, start, last, stop

    def below(self, ancestor_id: Any) -> List[Any]:
        """The nodes properly below ``ancestor_id``: one contiguous key
        run, bounded by bisects and cut out of the blocks it spans."""
        bounds = self._bounds(ancestor_id)
        return [] if bounds is None else _cut_blocks(self.node_blocks, *bounds)

    def keyed_below(self, ancestor_id: Any) -> Tuple[List[Any], List[Any]]:
        """:meth:`below` with the run's keys: ``(keys, nodes)``."""
        bounds = self._bounds(ancestor_id)
        if bounds is None:
            return [], []
        return _cut_blocks(self.key_blocks, *bounds), _cut_blocks(self.node_blocks, *bounds)

    # -- upkeep (LabelIndex only) ---------------------------------------------

    def _insert(self, keys: List[Any], nodes: List[Any]) -> None:
        """Insert a run of fresh keys into this non-empty row (no live
        key falls between them): one block takes it whole, then splits
        if it overflowed."""
        firsts = self.firsts
        block = max(bisect.bisect_right(firsts, keys[0]) - 1, 0)
        block_keys = self.key_blocks[block]
        position = bisect.bisect_right(block_keys, keys[0])
        block_keys[position:position] = keys
        self.node_blocks[block][position:position] = nodes
        if not position:
            firsts[block] = keys[0]
        self.size += len(keys)
        if len(block_keys) > 2 * BLOCK:
            self._split(block)

    def _split(self, block: int) -> None:
        """Cut an overfull block into pieces of BLOCK to 2·BLOCK."""
        keys, nodes = self.key_blocks[block], self.node_blocks[block]
        count = len(keys) // BLOCK
        cuts = [len(keys) * piece // count for piece in range(count + 1)]
        pieces = range(count)
        self.key_blocks[block : block + 1] = [keys[cuts[i] : cuts[i + 1]] for i in pieces]
        self.node_blocks[block : block + 1] = [nodes[cuts[i] : cuts[i + 1]] for i in pieces]
        self.firsts[block : block + 1] = [keys[cuts[i]] for i in pieces]

    def _remove(self, run: Sequence[Any]) -> bool:
        """Remove the run ``run`` (document-ordered nodes); False, with
        nothing removed, when its two ends are not the indexed nodes
        one run apart."""
        first_key = run[0].id.sort_key
        block = bisect.bisect_right(self.firsts, first_key) - 1
        if block < 0:
            return False
        key_blocks, node_blocks = self.key_blocks, self.node_blocks
        keys, nodes = key_blocks[block], node_blocks[block]
        start = bisect.bisect_left(keys, first_key)
        if start >= len(keys) or nodes[start] is not run[0]:
            return False
        # The run's last entry: ``stop`` is one past it, in block ``last``.
        last, stop = block, start + len(run)
        while stop > len(node_blocks[last]):
            stop -= len(node_blocks[last])
            last += 1
            if last == len(node_blocks):
                return False
        if node_blocks[last][stop - 1] is not run[-1]:
            return False
        self.size -= len(run)
        if block == last:
            del keys[start:stop]
            del nodes[start:stop]
            if start and len(keys) >= BLOCK // 2:
                return True  # the block kept its first key and its size
        else:
            del keys[start:]
            del nodes[start:]
            del key_blocks[last][:stop]
            del node_blocks[last][:stop]
            # Blocks strictly between the two ends go whole.
            del key_blocks[block + 1 : last]
            del node_blocks[block + 1 : last]
            del self.firsts[block + 1 : last]
            self._settle(block + 1)
        self._settle(block)
        return True

    def _settle(self, block: int) -> None:
        """After removals from ``block``: drop it when empty, else
        refresh its first key and fold it into a neighbour when it
        fell under BLOCK / 2 and the two fit in one block."""
        if block >= len(self.firsts):
            return
        key_blocks, node_blocks, firsts = self.key_blocks, self.node_blocks, self.firsts
        keys = key_blocks[block]
        if not keys:
            del key_blocks[block], node_blocks[block], firsts[block]
            return
        firsts[block] = keys[0]
        if len(keys) >= BLOCK // 2:
            return
        for left in (block - 1, block):
            right = left + 1
            if left < 0 or right >= len(firsts):
                continue
            if len(key_blocks[left]) + len(key_blocks[right]) <= 2 * BLOCK:
                key_blocks[left] += key_blocks[right]
                node_blocks[left] += node_blocks[right]
                del key_blocks[right], node_blocks[right], firsts[right]
                return


#: The rows of a label with no node.
_NO_ROWS = LabelRows()


def _splice(
    keys: List[Any],
    nodes: List[Any],
    cut_keys: Sequence[Any],
    merge_keys: Sequence[Any],
    merge_nodes: Sequence[Any],
) -> List[Any]:
    """``nodes`` without the entries keyed by ``cut_keys`` (absent
    ones are ignored) and with the sorted ``merge_nodes`` merged in:
    one bisect per edit plus C-level slice copies between them."""
    # (position, 0 = merge before it / 1 = cut it, merge rank)
    edits = []
    for key in cut_keys:
        position = bisect.bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            edits.append((position, 1, 0))
    for rank, key in enumerate(merge_keys):
        edits.append((bisect.bisect_left(keys, key), 0, rank))
    edits.sort()
    out: List[Any] = []
    start = 0
    for position, cut, rank in edits:
        out += nodes[start:position]
        if cut:
            start = position + 1
        else:
            out.append(merge_nodes[rank])
            start = position
    out += nodes[start:]
    return out


class Overlay:
    """Read-only rows: ``base`` (:class:`LabelRows` or
    :class:`KeyedRows`) without the rows keyed by ``cut_keys`` (absent
    ones are ignored) and with the document-ordered ``merge_nodes``
    (not among the base rows) let in.

    Built once per batch and label instead of a spliced copy: ``find``
    and ``below`` read the base and the edits in their key range, so a
    probe costs O(log|R| + edits in range) and building costs the
    edits.  Iterating (and :attr:`nodes` / :attr:`keys`) materializes
    the relation, for oracles and tests.
    """

    __slots__ = ("base", "cut_keys", "merge_keys", "merge_nodes")

    def __init__(self, base: Any, cut_keys: Iterable[Any], merge_nodes: Sequence[Any] = ()):
        self.base = base
        self.cut_keys: List[Any] = sorted(set(cut_keys))
        self.merge_nodes: List[Any] = list(merge_nodes)
        self.merge_keys: List[Any] = [node.id.sort_key for node in self.merge_nodes]

    def find(self, key: Any) -> Any:
        """The node whose ``sort_key`` is ``key``, or None."""
        merge_keys = self.merge_keys
        position = bisect.bisect_left(merge_keys, key)
        if position < len(merge_keys) and merge_keys[position] == key:
            return self.merge_nodes[position]
        cut_keys = self.cut_keys
        position = bisect.bisect_left(cut_keys, key)
        if position < len(cut_keys) and cut_keys[position] == key:
            return None
        return self.base.find(key)

    def below(self, ancestor_id: Any) -> List[Any]:
        """The nodes properly below ``ancestor_id``: the base's run,
        spliced only when an edit falls in its key range."""
        low, high = ancestor_id.sort_key, ancestor_id.subtree_end_key
        cut_keys, merge_keys = self.cut_keys, self.merge_keys
        cut_start = bisect.bisect_right(cut_keys, low)
        cut_stop = bisect.bisect_left(cut_keys, high, cut_start)
        merge_start = bisect.bisect_right(merge_keys, low)
        merge_stop = bisect.bisect_left(merge_keys, high, merge_start)
        if cut_start == cut_stop and merge_start == merge_stop:
            return self.base.below(ancestor_id)
        keys, nodes = self.base.keyed_below(ancestor_id)
        return _splice(
            keys,
            nodes,
            cut_keys[cut_start:cut_stop],
            merge_keys[merge_start:merge_stop],
            self.merge_nodes[merge_start:merge_stop],
        )

    @property
    def nodes(self) -> List[Any]:
        """The spliced relation as one fresh flat node list."""
        base = self.base
        return _splice(base.keys, base.nodes, self.cut_keys, self.merge_keys, self.merge_nodes)

    @property
    def keys(self) -> List[Any]:
        """The spliced relation's keys as one fresh flat list."""
        return [node.id.sort_key for node in self.nodes]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.nodes)

    def __repr__(self) -> str:
        return "Overlay(%r, %d cut, %d merged)" % (
            self.base, len(self.cut_keys), len(self.merge_keys)
        )


#: A row source term evaluation probes (``find`` / ``below``) and full
#: evaluation iterates.
Rows = Union[KeyedRows, LabelRows, Overlay]


class LabelIndex:
    """Per-label canonical relation ``R_a`` with incremental upkeep."""

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: Dict[str, LabelRows] = {}

    def labels(self) -> Iterator[str]:
        return iter(self._rows)

    def nodes(self, label: str) -> LabelRows:
        """The live document-ordered rows of ``label`` (read-only)."""
        return self._rows.get(label, _NO_ROWS)

    def keyed(self, label: str) -> LabelRows:
        """The live rows of ``label`` as a probe source: the object
        :meth:`nodes` hands out."""
        return self._rows.get(label, _NO_ROWS)

    def copy_label(self, label: str) -> List[Any]:
        return self.nodes(label).nodes

    def add_runs(self, runs: Mapping[str, KeyedRows]) -> None:
        """Index a subtree entering the document, given as its label
        runs: for each label, the subtree's nodes of that label in
        document order with their keys (a new label's blocks are cut
        straight from its run).  The subtree's IDs are fresh, so no
        live key falls in their range: one block per label takes the
        run, O(log n + BLOCK + run).

        _ValueEntry keeps flat parallel lists and inserts node by node:
        a value bucket's share of a subtree is not one run of it.
        """
        rows = self._rows
        for label, run in runs.items():
            row = rows.get(label)
            if row is None:
                rows[label] = LabelRows(run.keys, run.nodes)
            else:
                row._insert(run.keys, run.nodes)

    def remove_runs(self, runs: Mapping[str, Sequence[Any]]) -> None:
        """Unindex a whole subtree leaving the document, given as its
        label runs (each label's nodes of the subtree, document order),
        in O(log n + BLOCK + run) per label, a run spanning blocks
        included.  Raises :class:`LookupError` when a run's two ends
        are not the indexed nodes one run apart, which means the index
        is corrupt.  A label left with no node is dropped."""
        rows = self._rows
        for label, run in runs.items():
            row = rows.get(label, _NO_ROWS)
            if not row._remove(run):
                raise LookupError(
                    "label index corrupt: the %d %r nodes under %s are not "
                    "one indexed run" % (len(run), label, run[0].id)
                )
            if not row.size:
                del rows[label]

    def descendants(self, label: str, ancestor_id: Any) -> List[Any]:
        """The ``label`` nodes properly below ``ancestor_id``."""
        return self.nodes(label).below(ancestor_id)


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
