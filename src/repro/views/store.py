"""An ordered tuple store (the BerkeleyDB stand-in).

The paper's prototype keeps view data in BerkeleyDB: an ordered
key/value store scanned in key order and updated in place.  This module
provides the same contract in pure Python: sorted keys, point get/put/
delete, range scans, one merge of signed count shifts per batch
(:meth:`OrderedTupleStore.merge_shifts`) and in-place key replacement.

View tuples are the keys (they sort by their leading ID columns, i.e.,
document order), derivation counts are the values.

An optional ``order_key`` callable maps stored keys to the comparison
keys the B-tree actually orders and *matches* by: writes through a
matching key change the entry's value, never its stored key (only
:meth:`OrderedTupleStore.replace_keys` does).  A view maps each tuple
to its :class:`~repro.xmldom.dewey.DeweyID` cells' ``sort_key`` bytes
(compared by memcmp, not by Python-level rich comparisons), so a tuple
is found by its IDs whatever its derived cells hold.  The store keeps
a parallel list of mapped keys and runs every bisect against it.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: the ``new`` count of a key :meth:`OrderedTupleStore.merge_shifts` dropped.
DELETED = object()


class OrderedTupleStore:
    """Sorted key/value mapping with range scans.

    Keys must be mutually comparable (view tuples over a fixed schema
    are).  Complexity: point lookups O(log n), inserts/deletes
    O(n) worst case (list shift) -- adequate at the scales of the
    experiments and faithful to a B-tree's interface.
    """

    def __init__(self, order_key: Optional[Callable[[Any], Any]] = None) -> None:
        self._keys: List[Any] = []
        self._values: List[Any] = []
        self._order_key = order_key
        #: parallel comparison keys; aliases _keys when no mapper is set.
        self._order: List[Any] = [] if order_key is not None else self._keys

    def _mapped(self, key: Any) -> Any:
        return key if self._order_key is None else self._order_key(key)

    # -- point operations ------------------------------------------------

    def _find(self, mapped: Any) -> int:
        """The index of the entry whose order key is ``mapped``, or -1."""
        order = self._order
        index = bisect.bisect_left(order, mapped)
        if index < len(order) and order[index] == mapped:
            return index
        return -1

    def get(self, key: Any, default: Any = None) -> Any:
        index = self._find(self._mapped(key))
        return default if index < 0 else self._values[index]

    def stored(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """``(stored key, value)`` of the entry ``key`` matches, or None."""
        index = self._find(self._mapped(key))
        return None if index < 0 else (self._keys[index], self._values[index])

    def put(self, key: Any, value: Any) -> None:
        mapped = self._mapped(key)
        index = bisect.bisect_left(self._order, mapped)
        if index < len(self._order) and self._order[index] == mapped:
            self._values[index] = value
        else:
            self._keys.insert(index, key)
            self._values.insert(index, value)
            if self._order_key is not None:
                self._order.insert(index, mapped)

    def delete(self, key: Any) -> bool:
        index = self._find(self._mapped(key))
        if index < 0:
            return False
        self._keys.pop(index)
        self._values.pop(index)
        if self._order_key is not None:
            self._order.pop(index)
        return True

    def replace_keys(self, keys: Iterable[Any]) -> None:
        """Swap each of ``keys`` in for the stored key it matches (a
        bisect each; counts and order untouched, unmatched skipped)."""
        stored = self._keys
        for key in keys:
            index = self._find(self._mapped(key))
            if index >= 0:
                stored[index] = key

    def __contains__(self, key: Any) -> bool:
        return self._find(self._mapped(key)) >= 0

    def __len__(self) -> int:
        return len(self._keys)

    # -- scans ---------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Lazy in-order scan over the live store (no copy).

        Callers that mutate the store while consuming the iterator must
        use :meth:`snapshot` instead.
        """
        return zip(self._keys, self._values)

    def snapshot(self) -> List[Tuple[Any, Any]]:
        """Materialized copy of :meth:`items`, immune to later updates."""
        return list(zip(self._keys, self._values))

    def keys(self) -> List[Any]:
        return list(self._keys)

    def keys_in_runs(self, bounds: Iterable[Tuple[Any, Any]]) -> List[Any]:
        """Range scan: keys whose mapped order key lies in any
        ``[low, high)`` of ``bounds`` (mapped keys too), in order.  Two
        bisects per range; the index runs are merged, so overlapping
        ranges read a key once."""
        order = self._order
        runs = sorted(
            (bisect.bisect_left(order, low), bisect.bisect_left(order, high))
            for low, high in bounds
        )
        keys: List[Any] = []
        covered = 0
        for start, stop in runs:
            start = max(start, covered)
            if start < stop:
                keys.extend(self._keys[start:stop])
                covered = stop
        return keys

    def clear(self) -> None:
        self._keys.clear()
        self._values.clear()
        if self._order_key is not None:
            self._order.clear()

    # -- bulk -------------------------------------------------------------------

    def merge_shifts(self, shifts: Dict[Any, int]) -> List[Tuple[Any, int, Any]]:
        """Fold signed derivation-count shifts into the store: the one
        write primitive of the batch pipeline's store pass.

        ``shifts`` maps keys, distinct by order key, to a signed change
        of their count (an absent key counts 0; zero shifts are
        skipped); a matched entry keeps its stored key.  Each key is
        mapped to its order key once, the shifts are sorted once by it,
        and one O(n + k) merge rebuilds the parallel lists, reading each
        current count at its merge position.  Returns one ``(key,
        previous, new)`` triple per changed key, in key order, with
        ``new`` :data:`DELETED` when the count reaches zero (``previous``
        is 0 for a key that was absent).  Shifting an absent key below
        zero raises ``KeyError`` and a present one ``ValueError``; both
        raise before anything is assigned, so the store is unchanged.
        """
        order_key = self._order_key
        if order_key is None:
            decorated = [(key, key, shift) for key, shift in shifts.items() if shift]
        else:
            decorated = [
                (order_key(key), key, shift) for key, shift in shifts.items() if shift
            ]
        if not decorated:
            return []
        decorated.sort(key=itemgetter(0))
        keys = self._keys
        values = self._values
        order = self._order
        separate_order = order_key is not None
        new_keys: List[Any] = []
        new_values: List[Any] = []
        new_order: List[Any] = new_keys if not separate_order else []
        changed: List[Tuple[Any, int, Any]] = []
        size = len(keys)
        index = 0
        bisect_left = bisect.bisect_left
        for mapped, key, shift in decorated:
            position = bisect_left(order, mapped, index)
            if position > index:
                new_keys += keys[index:position]
                new_values += values[index:position]
                if separate_order:
                    new_order += order[index:position]
            # Keys match by order key (compared in C, not through the
            # key's cells).
            if position < size and order[position] == mapped:
                key = keys[position]
                previous = values[position]
                index = position + 1
            elif shift < 0:
                raise KeyError("key %r is not in the store" % (key,))
            else:
                previous = 0
                index = position
            count = previous + shift
            if count > 0:
                new_keys.append(key)
                new_values.append(count)
                if separate_order:
                    new_order.append(mapped)
                changed.append((key, previous, count))
            elif count == 0:
                changed.append((key, previous, DELETED))
            else:
                raise ValueError(
                    "key %r has %d derivations, cannot remove %d"
                    % (key, previous, -shift)
                )
        new_keys += keys[index:]
        new_values += values[index:]
        self._keys = new_keys
        self._values = new_values
        if separate_order:
            new_order += order[index:]
            self._order = new_order
        else:
            self._order = new_keys
        return changed

    def load_sorted(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Bulk-load pre-sorted items (replaces current content)."""
        self.clear()
        previous = None
        for key, value in items:
            mapped = self._mapped(key)
            if previous is not None and not previous < mapped:
                raise ValueError("load_sorted input is not strictly increasing")
            self._keys.append(key)
            self._values.append(value)
            if self._order_key is not None:
                self._order.append(mapped)
            previous = mapped
