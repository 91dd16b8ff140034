"""Materialized view contents with derivation counts.

A view tuple is the projection of one or more pattern embeddings onto
the stored attributes; its *derivation count* (Section 2.2, after
[Gupta et al. 1993]) is the number of embeddings producing it.
Counts are what make deletions incremental: a tuple leaves the view
only when its count reaches zero (Example 4.8).

A tuple is stored whole but ordered and matched by its ID cells, whose
functions its ``val``/``cont`` cells are (:func:`derived_columns`).
Those cells are brought current on *read*: batches record where the
PIMT/PDMT refresh must look (``defer_refresh``), and every read calls
the ``refresh`` hook the maintaining engine installs; write paths and
checkpoints read the store as it stands.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.pattern.evaluate import evaluate_view, view_columns
from repro.pattern.tree_pattern import Pattern
from repro.views.store import DELETED, OrderedTupleStore
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document

ViewTuple = tuple


def row_sort_key(row: ViewTuple) -> tuple:
    """C-comparable key ordering view tuples exactly like plain tuple
    comparison: each DeweyID cell becomes its precomputed sort_key, a
    byte string compared by memcmp."""
    return tuple(
        cell.sort_key if isinstance(cell, DeweyID) else cell for cell in row
    )


#: ``(column, ID column, annotation)`` of one ``val``/``cont`` column.
DerivedColumn = Tuple[int, int, str]


def derived_columns(pattern: Pattern) -> Tuple[DerivedColumn, ...]:
    """Where each ``val``/``cont`` cell of a view tuple comes from: the
    index of its node's ``ID`` column, which precedes it (ID is a
    node's first annotation and maintainable patterns store it with
    every val/cont, see ``validate_for_maintenance``)."""
    plan = []
    id_column: Dict[str, int] = {}
    for column, (node, annotation) in enumerate(pattern.return_columns()):
        if annotation == "ID":
            id_column[node] = column
        else:
            plan.append((column, id_column[node], annotation))
    return tuple(plan)


def id_sort_key(derived: Tuple[DerivedColumn, ...], width: int) -> Callable[[ViewTuple], tuple]:
    """:func:`row_sort_key` of the ID cells alone: the same order, as a
    derived cell follows its ID column, and a view's store key."""
    blank = {column for column, _id_column, _annotation in derived}
    if not blank:
        return row_sort_key
    keep = [column for column in range(width) if column not in blank]
    if len(keep) == 1:
        (only,) = keep
        return lambda row: (row[only].sort_key,)
    ids = itemgetter(*keep)
    return lambda row: tuple([cell.sort_key for cell in ids(row)])


def _no_refresh() -> int:
    return 0


class MaterializedView:
    """The stored extent of a tree-pattern view."""

    def __init__(self, pattern: Pattern, name: str = "view"):
        pattern.validate_for_maintenance()
        self.pattern = pattern
        self.name = name
        self.columns: List[str] = view_columns(pattern)
        #: the derived (val/cont) columns: functions of ID cells over
        #: the document, so a durable checkpoint persists only the IDs.
        self.derived = derived_columns(pattern)
        # C-comparable ordering keys keep the hot store bisects off
        # DeweyID's Python-level rich comparisons.
        self._row_key = id_sort_key(self.derived, len(self.columns))
        self._store = OrderedTupleStore(order_key=self._row_key)
        #: brings the extent current before a read, returning the tuples
        #: it rewrote; installed by the maintaining engine.
        self.refresh: Callable[[], int] = _no_refresh
        #: anchors pending since the last read (None: every row).
        self._stale: Optional[Dict[DeweyID, None]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def materialize(
        cls, pattern: Pattern, document: Document, name: str = "view"
    ) -> "MaterializedView":
        """Evaluate the pattern on the document and store the result."""
        view = cls(pattern, name=name)
        content = evaluate_view(pattern, document)
        # Distinct rows sorted by key: bulk-load in one pass instead of
        # O(n²) per-row sorted inserts.
        view._store.load_sorted(
            sorted(content, key=lambda item: view._row_key(item[0]))
        )
        return view

    def reload_content(self, pairs: Iterable[Tuple[ViewTuple, int]]) -> None:
        """Replace the whole extent content *in the existing store*.

        The engine's poison-batch recomputation, a session's extent
        pull and resync and a replica's view adoption use this instead
        of swapping the ``_store`` object, so the store's identity stays
        intact.  The pairs are current: nothing stays pending."""
        self._store.load_sorted(sorted(pairs, key=lambda item: self._row_key(item[0])))
        self.take_stale()

    # -- the pending refresh ---------------------------------------------------

    def defer_refresh(self, anchors: Optional[Iterable[DeweyID]]) -> None:
        """Record a refresh for the next read: rows led from inside the
        ``anchors``' subtrees (every row for None) may hold stale derived
        cells.  Anchors that outnumber the stored tuples give way to the
        whole extent, so the pending state stays within the extent's size
        and the read costs one pass over it, no more than the runs would."""
        if self._stale is not None and anchors is not None:
            self._stale.update(dict.fromkeys(anchors))
            if len(self._stale) <= len(self._store):
                return
        self._stale = None

    def take_stale(self) -> Optional[Dict[DeweyID, None]]:
        """The pending anchors (None: every row), cleared."""
        stale, self._stale = self._stale, {}
        return stale

    def rewrite_rows(self, rows: Iterable[ViewTuple]) -> None:
        """Install refreshed forms of stored tuples (same IDs, new
        derived cells) in place: counts and order are untouched."""
        self._store.replace_keys(rows)

    # -- reads ----------------------------------------------------------------

    def count(self, row: ViewTuple) -> int:
        self.refresh()
        entry = self._store.stored(row)
        return entry[1] if entry is not None and entry[0] == row else 0

    def __contains__(self, row: ViewTuple) -> bool:
        return self.count(row) > 0

    def __len__(self) -> int:
        """Number of distinct tuples."""
        self.refresh()
        return len(self._store)

    def stored_size(self) -> int:
        """Number of distinct tuples, read neither through nor fresh."""
        return len(self._store)

    def total_derivations(self) -> int:
        self.refresh()
        return sum(count for _, count in self._store.items())

    def content(self) -> List[Tuple[ViewTuple, int]]:
        """Distinct tuples with counts, in key (document) order.

        A snapshot: safe to iterate while mutating the view.
        """
        self.refresh()
        return self._store.snapshot()

    def rows(self) -> List[ViewTuple]:
        self.refresh()
        return self._store.keys()

    def rows_led_by(self, anchors: Optional[Iterable[DeweyID]]) -> List[ViewTuple]:
        """Stored tuples (as they stand) led by an ID in the subtree of
        any of ``anchors`` (every tuple for None), each once, in key
        order: tuples sort by their leading ID and a Dewey subtree is one
        key range."""
        if anchors is None:
            return self._store.keys()
        return self._store.keys_in_runs(
            ((anchor.sort_key,), (anchor.subtree_end_key,)) for anchor in anchors
        )

    # -- writes (used by the maintenance algorithms) -----------------------------

    def add(self, row: ViewTuple, count: int = 1) -> None:
        """Add ``count`` derivations of ``row`` (insert if absent)."""
        if count <= 0:
            raise ValueError("add needs a positive count, got %d" % count)
        self._store.put(row, self._store.get(row, 0) + count)

    def decrement(self, row: ViewTuple, count: int = 1) -> bool:
        """Remove ``count`` derivations; drop the tuple at zero.

        Returns True when the tuple left the view.  Decrementing a
        missing tuple is an error: maintenance must never remove what
        was never derived.
        """
        current = self._store.get(row)
        if current is None:
            raise KeyError("tuple %r is not in view %s" % (row, self.name))
        remaining = current - count
        if remaining < 0:
            raise ValueError(
                "tuple %r has %d derivations, cannot remove %d" % (row, current, count)
            )
        if remaining == 0:
            self._store.delete(row)
            return True
        self._store.put(row, remaining)
        return False

    def remove(self, row: ViewTuple) -> None:
        """Drop a tuple outright regardless of its count."""
        if not self._store.delete(row):
            raise KeyError("tuple %r is not in view %s" % (row, self.name))

    def apply_batch_delta(
        self,
        additions: Dict[ViewTuple, int],
        removals: Dict[ViewTuple, int],
    ) -> Tuple[int, int, int]:
        """Apply a batch's merged Δ+ / Δ− in one store pass.

        ``additions`` maps tuples to fresh derivations, ``removals`` to
        doomed ones.  Shifts net by the tuples' IDs, so a derivation
        removed and re-derived within one batch never transits through
        an absent state, whatever its derived cells; a stored tuple keeps
        its cells, a new one enters in its Δ+ form.  Returns
        ``(derivations added, tuples removed, derivations removed)``.
        Like :meth:`decrement`, removing underivable tuples is an error.
        """
        row_key = self._row_key
        net: Dict[tuple, list] = {}
        for row, count in removals.items():
            net.setdefault(row_key(row), [row, 0])[1] -= count
        for row, count in additions.items():
            entry = net.setdefault(row_key(row), [row, 0])
            entry[0] = row
            entry[1] += count
        changed = self._store.merge_shifts(dict(net.values()))
        return (
            sum(additions.values()),
            sum(count is DELETED for _row, _previous, count in changed),
            sum(removals.values()),
        )

    # -- verification ----------------------------------------------------------

    def equals_fresh_evaluation(self, document: Document) -> bool:
        """Does the stored extent match re-evaluation from scratch?"""
        fresh = sorted(evaluate_view(self.pattern, document), key=lambda item: item[0])
        return fresh == self.content()

    def diff_against_fresh(self, document: Document) -> Dict[str, List]:
        """Difference against recomputation, for debugging/tests."""
        fresh = dict(evaluate_view(self.pattern, document))
        stored = dict(self.content())
        missing = [(row, count) for row, count in fresh.items() if stored.get(row) != count]
        spurious = [(row, count) for row, count in stored.items() if row not in fresh]
        return {"wrong_or_missing": missing, "spurious": spurious}

    def __repr__(self) -> str:
        return "MaterializedView(%s, %d tuples)" % (self.name, len(self))
