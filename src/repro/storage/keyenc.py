"""Order-preserving (memcomparable) encoding of view-tuple keys.

A sqlite B-tree orders BLOB columns by ``memcmp``; the in-memory store
orders view tuples by :func:`repro.views.view.row_sort_key`.  For the
two stores to be interchangeable behind one contract, the mapping from
tuple to blob must satisfy

    encode_key(a) < encode_key(b)  iff  sort-order(a) < sort-order(b)

for every pair of comparable keys.  Each cell is a type tag followed by
a self-delimiting, order-preserving code.  The integer and terminated
string codes are :mod:`repro.xmldom.dewey`'s primitives, and a
:class:`~repro.xmldom.dewey.DeweyID` cell is its ``sort_key`` -- the
byte string the in-memory store already compares by memcmp -- closed
by ``0x00`` (every step starts with a tag in ``0x01..0x03``, so the
terminator sorts an ID before its descendants).
"""

from __future__ import annotations

from typing import Any

from repro.xmldom.dewey import DeweyID, encode_int, encode_terminated

#: cell type tags, ordered; distinct types order by tag (the in-memory
#: store would raise on such comparisons, so any total order is valid).
_TAG_NONE = b"\x05"
_TAG_INT = b"\x10"
_TAG_STR = b"\x20"
_TAG_BYTES = b"\x30"
_TAG_DEWEY = b"\x40"
_TAG_TUPLE = b"\x50"


def _encode_cell(cell: Any, out: bytearray) -> None:
    if cell is None:
        out.extend(_TAG_NONE)
    elif isinstance(cell, DeweyID):
        out.extend(_TAG_DEWEY)
        out.extend(cell.sort_key)
        out.append(0x00)
    elif isinstance(cell, bool) or isinstance(cell, int):
        out.extend(_TAG_INT)
        encode_int(int(cell), out)
    elif isinstance(cell, str):
        out.extend(_TAG_STR)
        encode_terminated(cell.encode("utf-8"), out)
    elif isinstance(cell, bytes):
        out.extend(_TAG_BYTES)
        encode_terminated(cell, out)
    elif isinstance(cell, tuple):
        out.extend(_TAG_TUPLE)
        for inner in cell:
            _encode_cell(inner, out)
        out.append(0x00)
    else:
        raise TypeError(
            "cannot order-encode %r (%s); supported cell types: None, "
            "int, str, bytes, DeweyID, tuple" % (cell, type(cell).__name__)
        )


def encode_key(key: Any) -> bytes:
    """The memcomparable blob for a store key (a view tuple or scalar).

    View tuples encode cell by cell with no outer terminator -- store
    keys are never prefixes of one another across *comparable* keys
    because cell encodings are self-delimiting, and a shorter tuple
    ends in fewer bytes, sorting first exactly like tuple comparison.
    """
    out = bytearray()
    if isinstance(key, tuple):
        for cell in key:
            _encode_cell(cell, out)
    else:
        _encode_cell(key, out)
    return bytes(out)
