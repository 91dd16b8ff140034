"""Named-column tuple relations.

A :class:`Relation` is an ordered list of equal-width tuples plus a
schema (tuple of column names).  The maintenance machinery uses two row
flavours:

* *binding relations*, whose cells are document nodes (one column per
  tree-pattern node, named after it);
* *value relations*, whose cells are plain values (IDs, strings),
  produced by projection with stored-attribute extraction.

Relations are deliberately dumb containers; all smarts live in the
operators (:mod:`repro.algebra.operators`,
:mod:`repro.algebra.structural`).
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable, Iterator, List, Sequence, Set, Tuple

from repro.xmldom.model import Node


class Relation:
    """An ordered bag of tuples with named columns."""

    __slots__ = ("schema", "rows", "_indexes")

    def __init__(self, schema: Sequence[str], rows: Iterable[tuple] = ()):
        self.schema: Tuple[str, ...] = tuple(schema)
        self.rows: List[tuple] = [tuple(row) for row in rows]
        self._indexes: dict = {}
        width = len(self.schema)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    "row width %d does not match schema %r" % (len(row), self.schema)
                )

    @classmethod
    def _trusted(cls, schema: Tuple[str, ...], rows: List[tuple]) -> "Relation":
        """Internal: adopt ``rows`` as is.  For operator outputs, whose
        rows are tuples of the right width by construction -- copying
        and re-checking every intermediate join result is pure
        overhead.  The public constructor keeps validating."""
        self = object.__new__(cls)
        self.schema = schema
        self.rows = rows
        self._indexes = {}
        return self

    # -- schema helpers ------------------------------------------------

    def column_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise KeyError("no column %r in schema %r" % (name, self.schema)) from None

    def column(self, name: str) -> List[object]:
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return "Relation(schema=%r, rows=%d)" % (self.schema, len(self.rows))

    # -- convenience -----------------------------------------------------

    @classmethod
    def single_column(cls, name: str, values: Iterable[object]) -> "Relation":
        return cls._trusted((name,), [(value,) for value in values])

    def extend(self, other: "Relation") -> None:
        """Append the rows of a union-compatible relation."""
        if other.schema != self.schema:
            raise ValueError(
                "union-incompatible schemas: %r vs %r" % (self.schema, other.schema)
            )
        self.rows.extend(other.rows)
        self._index_rows(other.rows)

    # -- bag upkeep (materialized relations) --------------------------------

    def apply_delta(self, doomed: Set[tuple], fresh: Sequence[tuple]) -> int:
        """Drop the ``doomed`` rows (collected from :meth:`index_by`
        probes) and append ``fresh`` ones, keeping cached indexes in
        step instead of discarding them.  Returns the rows dropped.

        Survivors keep their relative order, fresh rows go to the end,
        and :attr:`rows` is a *new* list after every call (an O(rows)
        copy), so callers skip the call when there is nothing to drop
        or append.
        """
        # C-level compaction; a binding row hashes by cell identity.
        rows = (
            list(filterfalse(doomed.__contains__, self.rows))
            if doomed
            else list(self.rows)
        )
        dropped = len(self.rows) - len(rows)
        rows.extend(fresh)
        self.rows = rows
        for column, index in self._indexes.items():
            position = self.column_index(column)
            for key in {_cell_key(row[position]) for row in doomed}:
                bucket = list(filterfalse(doomed.__contains__, index[key]))
                if bucket:
                    index[key] = bucket
                else:
                    del index[key]
        self._index_rows(fresh)
        return dropped

    def _index_rows(self, rows: Sequence[tuple]) -> None:
        for column, index in self._indexes.items():
            position = self.column_index(column)
            for row in rows:
                index.setdefault(_cell_key(row[position]), []).append(row)

    def index_by(self, column: str) -> dict:
        """A cached hash index ``node ID -> rows`` on one column.

        Materialized relations (snowcaps) are probed repeatedly by the
        structural join and by the deletion upkeep; the index plays the
        role of the B-tree a disk-resident store would keep.  Built on
        first use, then kept in step by :meth:`extend` and
        :meth:`apply_delta` (the only mutators).  Reordering rows does
        not invalidate it (the mapping targets row tuples, not
        positions).
        """
        index = self._indexes.get(column)
        if index is None:
            index = self._indexes[column] = {}
            position = self.column_index(column)
            for row in self.rows:
                index.setdefault(_cell_key(row[position]), []).append(row)
        return index

    def reordered(self, schema: Sequence[str]) -> "Relation":
        """The same bag with columns rearranged to ``schema``."""
        schema = tuple(schema)
        if schema == self.schema:
            return self  # column order already matches; skip the row copy
        indices = [self.column_index(name) for name in schema]
        return Relation._trusted(
            schema, [tuple(row[i] for i in indices) for row in self.rows]
        )


def _cell_key(cell: object) -> object:
    """Index key of a cell: a node's ID, or the cell itself (an ID)."""
    return cell.id if isinstance(cell, Node) else cell
