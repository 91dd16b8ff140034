"""Storage format 3's key encoder, frozen as a test oracle.

This is the order-preserving key encoding the sqlite extent tables were
written with before ``DeweyID.sort_key`` became the encoded step bytes
themselves: it walks a DeweyID's ``(label, ordinal)`` steps and encodes
each one from scratch.  ``tests/test_keyenc_oracle.py`` holds
:func:`repro.storage.keyenc.encode_key` to it byte for byte, so the
on-disk ``k`` column stays format 3 whatever the in-memory key
machinery does.  Nothing under ``src/`` imports this module.

Each ordinal is a sequence of ``(run-of-zeros, nonzero component)``
events: a negative component after ``r`` zeros emits ``0x01 enc(r)
enc(c)``, the end of the ordinal ``0x02``, a positive component after
``r`` zeros ``0x03 enc(-r) enc(c)``.  ``enc`` is a biased length byte
plus big-endian magnitude (complemented for negatives).  Strings and
bytes escape ``0x00`` as ``0x00 0xFF`` and close with ``0x00 0x00``.
"""

from __future__ import annotations

from typing import Any

from repro.xmldom.dewey import DeweyID

TAG_NONE = b"\x05"
TAG_INT = b"\x10"
TAG_STR = b"\x20"
TAG_BYTES = b"\x30"
TAG_DEWEY = b"\x40"
TAG_TUPLE = b"\x50"

ORD_NEG = 0x01
ORD_END = 0x02
ORD_POS = 0x03


def encode_int(value: int, out: bytearray) -> None:
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


def encode_terminated(data: bytes, out: bytearray) -> None:
    out.extend(data.replace(b"\x00", b"\x00\xff"))
    out.extend(b"\x00\x00")


def encode_ordinal(ordinal, out: bytearray) -> None:
    zeros = 0
    for component in ordinal:
        if component == 0:
            zeros += 1
            continue
        if component < 0:
            out.append(ORD_NEG)
            encode_int(zeros, out)
        else:
            out.append(ORD_POS)
            encode_int(-zeros, out)
        encode_int(component, out)
        zeros = 0
    out.append(ORD_END)


def encode_dewey(dewey: DeweyID, out: bytearray) -> None:
    for label, ordinal in dewey.steps:
        encode_ordinal(ordinal, out)
        encode_terminated(label.encode("utf-8"), out)
    out.append(0x00)


def encode_cell(cell: Any, out: bytearray) -> None:
    if cell is None:
        out.extend(TAG_NONE)
    elif isinstance(cell, DeweyID):
        out.extend(TAG_DEWEY)
        encode_dewey(cell, out)
    elif isinstance(cell, bool) or isinstance(cell, int):
        out.extend(TAG_INT)
        encode_int(int(cell), out)
    elif isinstance(cell, str):
        out.extend(TAG_STR)
        encode_terminated(cell.encode("utf-8"), out)
    elif isinstance(cell, bytes):
        out.extend(TAG_BYTES)
        encode_terminated(cell, out)
    elif isinstance(cell, tuple):
        out.extend(TAG_TUPLE)
        for inner in cell:
            encode_cell(inner, out)
        out.append(0x00)
    else:
        raise TypeError("cannot order-encode %r" % (cell,))


def encode_key(key: Any) -> bytes:
    """The format-3 blob of a store key (a view tuple or scalar)."""
    out = bytearray()
    if isinstance(key, tuple):
        for cell in key:
            encode_cell(cell, out)
    else:
        encode_cell(key, out)
    return bytes(out)
