"""Materialized view contents with derivation counts.

A view tuple is the projection of one or more pattern embeddings onto
the stored attributes; its *derivation count* (Section 2.2, after
[Gupta et al. 1993]) is the number of embeddings producing it.
Counts are what make deletions incremental: a tuple leaves the view
only when its count reaches zero (Example 4.8).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

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


class MaterializedView:
    """The stored extent of a tree-pattern view."""

    def __init__(self, pattern: Pattern, name: str = "view", store_factory=None):
        pattern.validate_for_maintenance()
        self.pattern = pattern
        self.name = name
        self.columns: List[str] = view_columns(pattern)
        #: the derived (val/cont) columns: functions of ID cells over
        #: the document, so a durable store persists only the IDs.
        self.derived = derived_columns(pattern)
        # C-comparable ordering keys keep the hot store bisects off
        # DeweyID's Python-level rich comparisons.  ``store_factory``
        # swaps in another implementation of the same contract (the
        # durable sqlite-backed store orders by key blobs instead).
        if store_factory is None:
            self._store = OrderedTupleStore(order_key=row_sort_key)
        else:
            self._store = store_factory(order_key=row_sort_key, derived=self.derived)

    # -- construction ------------------------------------------------------

    @classmethod
    def materialize(
        cls,
        pattern: Pattern,
        document: Document,
        name: str = "view",
        store_factory=None,
    ) -> "MaterializedView":
        """Evaluate the pattern on the document and store the result."""
        view = cls(pattern, name=name, store_factory=store_factory)
        content = evaluate_view(pattern, document)
        # Distinct rows sorted by key: bulk-load in one pass instead of
        # O(n²) per-row sorted inserts.
        view._store.load_sorted(
            sorted(content, key=lambda item: row_sort_key(item[0]))
        )
        return view

    @classmethod
    def from_pairs(
        cls,
        pattern: Pattern,
        pairs: Iterable[Tuple[ViewTuple, int]],
        name: str = "view",
        store_factory=None,
    ) -> "MaterializedView":
        """Load an extent from precomputed ``(row, count)`` pairs.

        The sharded-recompute path evaluates the view inside a worker
        and ships the pairs back as a fragment; this rebuilds the owner
        extent without re-evaluating the pattern."""
        view = cls(pattern, name=name, store_factory=store_factory)
        view._store.load_sorted(sorted(pairs, key=lambda item: row_sort_key(item[0])))
        return view

    def reload_content(self, pairs: Iterable[Tuple[ViewTuple, int]]) -> None:
        """Replace the whole extent content *in the existing store*.

        The engine's poison-batch recomputation and a session's extent
        resync use this instead of swapping the ``_store`` object, so
        the store's identity (and, for durable stores, its binding to
        the backing table) stays intact."""
        self._store.load_sorted(sorted(pairs, key=lambda item: row_sort_key(item[0])))

    # -- reads ----------------------------------------------------------------

    def count(self, row: ViewTuple) -> int:
        return self._store.get(row, 0)

    def __contains__(self, row: ViewTuple) -> bool:
        return row in self._store

    def __len__(self) -> int:
        """Number of distinct tuples."""
        return len(self._store)

    def total_derivations(self) -> int:
        return sum(count for _, count in self._store.items())

    def content(self) -> List[Tuple[ViewTuple, int]]:
        """Distinct tuples with counts, in key (document) order.

        A snapshot: safe to iterate while mutating the view.
        """
        return self._store.snapshot()

    def rows_led_by(self, anchors: Iterable[DeweyID]) -> List[ViewTuple]:
        """Stored tuples led by an ID in the subtree of any of
        ``anchors``, each once, in key order: tuples sort by their
        leading ID and a Dewey subtree is one key range."""
        return self._store.keys_in_runs(
            ((anchor.sort_key,), (anchor.subtree_end_key,)) for anchor in anchors
        )

    def rows(self) -> List[ViewTuple]:
        return self._store.keys()

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
        rewrites: Sequence[Tuple[ViewTuple, ViewTuple]] = (),
    ) -> Tuple[int, int, int]:
        """Apply a batch's merged Δ+ / Δ− and PIMT/PDMT rewrites in one
        store pass.

        ``additions`` maps tuples to fresh derivations, ``removals`` to
        doomed ones; tuples in both are adjusted by the net, so a
        derivation removed and re-derived within one batch never
        transits through an absent state.  Each ``(old, new)`` rewrite
        moves every derivation of ``old`` to ``new`` (Δ rows carry final
        attribute values, so the inputs compose).  Returns
        ``(derivations added, tuples removed, derivations removed)``,
        net of the rewrite churn.  Like :meth:`decrement`, removing
        underivable tuples is an error.
        """
        delta: Dict[ViewTuple, int] = dict(additions)
        for row, count in removals.items():
            delta[row] = delta.get(row, 0) - count
        for old_row, new_row in rewrites:
            count = self._store.get(old_row)
            if count is None:
                raise KeyError("tuple %r is not in view %s" % (old_row, self.name))
            delta[old_row] = delta.get(old_row, 0) - count
            delta[new_row] = delta.get(new_row, 0) + count
        changed = self._store.merge_shifts(delta)
        tuples_removed = sum(count is DELETED for _row, _previous, count in changed)
        for _old_row, new_row in rewrites:
            # Each old form dropped; the tuple left only if its new form
            # is absent too, which a positive net shift rules out.
            if delta[new_row] > 0 or new_row in self._store:
                tuples_removed -= 1
        return (
            sum(additions.values()),
            tuples_removed,
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
