"""Order-preserving (memcomparable) encoding of view-tuple keys.

A sqlite B-tree orders BLOB columns by ``memcmp``; the in-memory store
orders view tuples by :func:`repro.views.view.row_sort_key`.  For the
two stores to be interchangeable behind one contract, the mapping from
tuple to blob must satisfy

    encode_key(a) < encode_key(b)  iff  sort-order(a) < sort-order(b)

for every pair of comparable keys.  The delicate cell type is
:class:`~repro.xmldom.dewey.DeweyID`, whose document order compares
dynamic ordinals *with implicit zero-padding on the right* and admits
negative components (``ordinal_before``): a naive per-component dump
orders ``(1,)`` before ``(1, -1)``, the padded order says the opposite.

Each ordinal is therefore encoded as a sequence of
``(run-of-zeros, nonzero component)`` events:

* a negative component after ``r`` zeros emits ``0x01 enc(r) enc(c)``;
* the end of the ordinal emits ``0x02``;
* a positive component after ``r`` zeros emits ``0x03 enc(-r) enc(c)``.

At the first divergence between two ordinals the tag bytes alone order
negative-next < exhausted (all zeros from here) < positive-next, and
within a tag the run length is ordered so that the *earlier* position
wins -- exactly the padded comparison.  ``enc`` is an order-preserving
integer code (biased length prefix + big-endian magnitude, complemented
for negatives) and never emits a ``0x00`` lead byte, so the ``0x00``
terminators of strings and step lists stay unambiguous.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.xmldom.dewey import DeweyID

#: cell type tags, ordered; distinct types order by tag (the in-memory
#: store would raise on such comparisons, so any total order is valid).
_TAG_NONE = b"\x05"
_TAG_INT = b"\x10"
_TAG_STR = b"\x20"
_TAG_BYTES = b"\x30"
_TAG_DEWEY = b"\x40"
_TAG_TUPLE = b"\x50"

#: event tags inside an ordinal encoding (comparison-ordered).
_ORD_NEG = 0x01
_ORD_END = 0x02
_ORD_POS = 0x03


def _encode_int(value: int, out: bytearray) -> None:
    """Order-preserving signed integer: biased length byte + magnitude.

    Zero is ``0x80``; a positive ``v`` is ``0x80+len`` then big-endian
    bytes of ``v``; a negative ``v`` is ``0x80-len`` then the big-endian
    bytes of ``v + 256**len`` (the complement, so closer-to-zero sorts
    higher).  The lead byte spans ``0x02..0xFE``: never ``0x00``.
    """
    if value == 0:
        out.append(0x80)
        return
    magnitude = value if value > 0 else -value
    length = (magnitude.bit_length() + 7) // 8
    if length > 0x7E:
        raise ValueError("integer too wide to encode: %d bytes" % length)
    if value > 0:
        out.append(0x80 + length)
        out.extend(value.to_bytes(length, "big"))
    else:
        out.append(0x80 - length)
        out.extend((value + (1 << (8 * length))).to_bytes(length, "big"))


def _encode_terminated(data: bytes, out: bytearray) -> None:
    """Escape ``0x00`` as ``0x00 0xFF`` and close with ``0x00 0x00``,
    keeping byte order intact across the variable length."""
    out.extend(data.replace(b"\x00", b"\x00\xff"))
    out.extend(b"\x00\x00")


def _encode_ordinal(ordinal, out: bytearray) -> None:
    zeros = 0
    for component in ordinal:
        if component == 0:
            zeros += 1
            continue
        if component < 0:
            out.append(_ORD_NEG)
            _encode_int(zeros, out)
        else:
            out.append(_ORD_POS)
            _encode_int(-zeros, out)
        _encode_int(component, out)
        zeros = 0
    # Trailing zeros vanish: under padded comparison they are the same
    # ordinal, and normalized ordinals never carry them anyway.
    out.append(_ORD_END)


def _encode_step(label: str, ordinal, out: bytearray) -> None:
    _encode_ordinal(ordinal, out)
    _encode_terminated(label.encode("utf-8"), out)


def _dewey_steps(dewey: DeweyID, memo: Dict[DeweyID, bytes]) -> bytes:
    """The step bytes of ``dewey`` (no terminator), memoized per ID: an
    ID's bytes are its parent's plus its own last step, so a Dewey
    prefix shared by many keys is encoded once."""
    blob = memo.get(dewey)
    if blob is not None:
        return blob
    uncached = []
    walk: Optional[DeweyID] = dewey
    while blob is None:
        uncached.append(walk)
        walk = walk.parent()
        blob = b"" if walk is None else memo.get(walk)
    out = bytearray(blob)
    for walk in reversed(uncached):
        _encode_step(*walk.steps[-1], out)
        memo[walk] = bytes(out)
    return memo[dewey]


def _encode_dewey(dewey: DeweyID, out: bytearray, memo) -> None:
    if memo is None:
        for label, ordinal in dewey.steps:
            _encode_step(label, ordinal, out)
    else:
        out.extend(_dewey_steps(dewey, memo))
    out.append(0x00)


def _encode_cell(cell: Any, out: bytearray, memo=None) -> None:
    if cell is None:
        out.extend(_TAG_NONE)
    elif isinstance(cell, DeweyID):
        out.extend(_TAG_DEWEY)
        _encode_dewey(cell, out, memo)
    elif isinstance(cell, bool) or isinstance(cell, int):
        out.extend(_TAG_INT)
        _encode_int(int(cell), out)
    elif isinstance(cell, str):
        out.extend(_TAG_STR)
        _encode_terminated(cell.encode("utf-8"), out)
    elif isinstance(cell, bytes):
        out.extend(_TAG_BYTES)
        _encode_terminated(cell, out)
    elif isinstance(cell, tuple):
        out.extend(_TAG_TUPLE)
        for inner in cell:
            _encode_cell(inner, out, memo)
        out.append(0x00)
    else:
        raise TypeError(
            "cannot order-encode %r (%s); supported cell types: None, "
            "int, str, bytes, DeweyID, tuple" % (cell, type(cell).__name__)
        )


def encode_key(key: Any, memo: Optional[Dict[DeweyID, bytes]] = None) -> bytes:
    """The memcomparable blob for a store key (a view tuple or scalar).

    View tuples encode cell by cell with no outer terminator -- store
    keys are never prefixes of one another across *comparable* keys
    because cell encodings are self-delimiting, and a shorter tuple
    ends in fewer bytes, sorting first exactly like tuple comparison.

    ``memo`` (a dict the caller owns, e.g. for one flush) caches each
    DeweyID's step bytes, so keys sharing ancestors encode every prefix
    once; the blobs are byte-equal to those built without it.
    """
    out = bytearray()
    if isinstance(key, tuple):
        for cell in key:
            _encode_cell(cell, out, memo)
    else:
        _encode_cell(key, out, memo)
    return bytes(out)
