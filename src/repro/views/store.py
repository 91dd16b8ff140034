"""An ordered tuple store (the BerkeleyDB stand-in).

The paper's prototype keeps view data in BerkeleyDB: an ordered
key/value store scanned in key order and updated in place.  This module
provides the same contract in pure Python: sorted keys, point get/put/
delete, range scans and optional file persistence.

View tuples are the keys (they sort by their leading ID columns, i.e.,
document order), derivation counts are the values.

An optional ``order_key`` callable maps stored keys to the comparison
keys the B-tree actually orders by.  It must induce exactly the same
total order as comparing the keys directly -- the point is speed, not
semantics: view tuples contain :class:`~repro.xmldom.dewey.DeweyID`
cells whose rich comparisons are Python calls, while their precomputed
``sort_key`` tuples compare entirely in C, so the store keeps a
parallel list of mapped keys and runs every bisect against it.
"""

from __future__ import annotations

import bisect
import pickle
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

#: sentinel value marking a deletion in :meth:`OrderedTupleStore.bulk_apply`.
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

    def get(self, key: Any, default: Any = None) -> Any:
        index = bisect.bisect_left(self._order, self._mapped(key))
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return default

    def put(self, key: Any, value: Any) -> None:
        mapped = self._mapped(key)
        index = bisect.bisect_left(self._order, mapped)
        if index < len(self._keys) and self._keys[index] == key:
            self._values[index] = value
        else:
            self._keys.insert(index, key)
            self._values.insert(index, value)
            if self._order_key is not None:
                self._order.insert(index, mapped)

    def delete(self, key: Any) -> bool:
        index = bisect.bisect_left(self._order, self._mapped(key))
        if index < len(self._keys) and self._keys[index] == key:
            self._keys.pop(index)
            self._values.pop(index)
            if self._order_key is not None:
                self._order.pop(index)
            return True
        return False

    def __contains__(self, key: Any) -> bool:
        index = bisect.bisect_left(self._order, self._mapped(key))
        return index < len(self._keys) and self._keys[index] == key

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

    # -- bulk / persistence -----------------------------------------------------

    def bulk_apply(self, changes: Iterable[Tuple[Any, Any]]) -> None:
        """One-pass merge of key-sorted changes into the store.

        ``changes`` is an iterable of ``(key, value)`` pairs with
        strictly increasing keys; a value of :data:`DELETED` drops the
        key (absent keys are ignored).  The merge rebuilds the parallel
        lists in a single O(n + k) pass -- the batch pipeline's
        replacement for k individual O(n) shifting inserts.
        """
        separate_order = self._order_key is not None
        new_keys: List[Any] = []
        new_values: List[Any] = []
        new_order: List[Any] = new_keys if not separate_order else []
        index = 0
        keys = self._keys
        values = self._values
        order = self._order
        previous = None
        for key, value in changes:
            mapped = self._mapped(key)
            if previous is not None and not previous < mapped:
                raise ValueError("bulk_apply changes are not strictly increasing")
            previous = mapped
            position = bisect.bisect_left(order, mapped, index)
            new_keys.extend(keys[index:position])
            new_values.extend(values[index:position])
            if separate_order:
                new_order.extend(order[index:position])
            index = position
            if index < len(keys) and keys[index] == key:
                index += 1  # replaced or deleted below
            if value is not DELETED:
                new_keys.append(key)
                new_values.append(value)
                if separate_order:
                    new_order.append(mapped)
        new_keys.extend(keys[index:])
        new_values.extend(values[index:])
        self._keys = new_keys
        self._values = new_values
        if separate_order:
            new_order.extend(order[index:])
            self._order = new_order
        else:
            self._order = new_keys

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

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump(list(zip(self._keys, self._values)), handle)

    @classmethod
    def load(cls, path: str) -> "OrderedTupleStore":
        store = cls()
        with open(path, "rb") as handle:
            items = pickle.load(handle)
        store.load_sorted(items)
        return store
