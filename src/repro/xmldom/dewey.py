"""Compact Dynamic Dewey identifiers.

The paper relies on the Compact Dynamic Dewey scheme of [Xu et al. 2009]
("DDE: from Dewey to a fully dynamic XML labeling scheme", SIGMOD 2009)
for four properties (Section 2.1):

1. *structural* -- comparing two IDs decides parent / ancestor
   relationships;
2. the ID of a node encodes the IDs **and labels** of all its ancestors;
3. no relabeling is ever needed when the document is updated;
4. the encoding is compact.

A :class:`DeweyID` here is a sequence of *steps*; each step carries the
label of one ancestor (the last step carries the node's own label) and a
*dynamic ordinal* fixing the node's position among its siblings.

Dynamic ordinals
----------------

Plain Dewey ordinals (1, 2, 3, ...) force relabeling when a node is
inserted between two siblings.  We use variable-length ordinals: an
ordinal is a non-empty tuple of integers, compared lexicographically
with implicit zero-padding on the right.  Between any two distinct
ordinals a fresh one can be generated (:func:`ordinal_between`), and
ordinals before the first / after the last sibling are always available
(:func:`ordinal_before` / :func:`ordinal_after`).  No existing ordinal
is ever touched, which yields the "no relabeling" property.

The normalized form never has trailing zeros, so tuple equality is
ordinal equality.

Compact encoding
----------------

:meth:`DeweyID.encode` produces a compact binary form using
variable-length integers and a caller-supplied label dictionary,
mirroring the paper's footnote that "internally, ID representation is
much more compact".
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence, Tuple

Ordinal = Tuple[int, ...]


def _normalize(ordinal: Sequence[int]) -> Ordinal:
    """Strip trailing zeros, keeping at least one component."""
    parts = list(ordinal)
    while len(parts) > 1 and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def ordinal_initial(position: int) -> Ordinal:
    """Ordinal for the ``position``-th child (1-based) at bulk-load time."""
    if position < 1:
        raise ValueError("initial positions are 1-based, got %r" % (position,))
    return (position,)


def ordinal_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """Three-way comparison of two ordinals under zero-padding."""
    length = max(len(a), len(b))
    for i in range(length):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        if ai != bi:
            return -1 if ai < bi else 1
    return 0


def ordinal_before(first: Sequence[int]) -> Ordinal:
    """A fresh ordinal strictly smaller than ``first``."""
    return (first[0] - 1,)


def ordinal_after(last: Sequence[int]) -> Ordinal:
    """A fresh ordinal strictly greater than ``last``."""
    return (last[0] + 1,)


def ordinal_between(low: Sequence[int], high: Sequence[int]) -> Ordinal:
    """A fresh ordinal strictly between ``low`` and ``high``.

    Raises :class:`ValueError` unless ``low < high``.
    """
    if ordinal_compare(low, high) >= 0:
        raise ValueError("ordinal_between requires low < high, got %r >= %r" % (low, high))
    length = max(len(low), len(high))
    for i in range(length):
        li = low[i] if i < len(low) else 0
        hi = high[i] if i < len(high) else 0
        if hi - li >= 2:
            return _normalize(tuple(low[:i]) + (0,) * max(0, i - len(low)) + (li + 1,))
        if hi - li == 1:
            # Any extension of low's prefix through index i stays below
            # high; appending a positive component keeps it above low.
            padded = tuple(low[j] if j < len(low) else 0 for j in range(i + 1))
            suffix = tuple(low[i + 1:])
            return _normalize(padded + suffix + (1,))
    raise ValueError("unreachable: low < high but no differing component")


def _encode_varint(value: int, out: bytearray) -> None:
    """Zig-zag + LEB128 variable-length encoding of a signed integer."""
    zig = (value << 1) ^ (value >> 63) if value < 0 else value << 1
    while True:
        byte = zig & 0x7F
        zig >>= 7
        if zig:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    shift = 0
    zig = 0
    while True:
        byte = data[offset]
        offset += 1
        zig |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    value = (zig >> 1) ^ -(zig & 1)
    return value, offset


class _PaddedKey:
    """Document-order sort key with explicit zero-padding semantics.

    Used instead of the plain pair tuple for IDs whose ordinals carry a
    negative component past index 0: the ordinal generators never
    produce such ordinals, but direct construction and :meth:`DeweyID.
    decode` accept them, and for them Python's tuple prefix rule
    disagrees with the padded comparison.  Comparisons against plain
    tuple keys work through reflected operators (tuple returns
    NotImplemented for non-tuple operands).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs

    def _cmp(self, other) -> int:
        other_pairs = other.pairs if isinstance(other, _PaddedKey) else other
        for (oa, la), (ob, lb) in zip(self.pairs, other_pairs):
            cmp = ordinal_compare(oa, ob)
            if cmp:
                return cmp
            if la != lb:
                return -1 if la < lb else 1
        if len(self.pairs) == len(other_pairs):
            return 0
        return -1 if len(self.pairs) < len(other_pairs) else 1

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:
        return self._cmp(other) == 0


def _in_band(ordinal) -> bool:
    """No negative component past the first: all the ordinal generators
    ever produce."""
    return len(ordinal) == 1 or min(ordinal[1:]) >= 0


def _order_key(steps):
    """Document-order key of a step tuple: plain ``(ordinal, label)``
    pairs compare like the padded ordinal comparison of ``_compare``
    because normalized ordinals carry no trailing zeros and in-band
    ordinals are negative in their *first* component only (so a proper
    prefix always zero-pads to something <= its extensions).
    Out-of-band ordinals get a padded-semantics key object."""
    pairs = tuple([(ordinal, label) for label, ordinal in steps])
    for ordinal, _label in pairs:
        if not _in_band(ordinal):
            return _PaddedKey(pairs)
    return pairs


def _extend_key(key, ordinal, label):
    """``_order_key`` of a step tuple, from the key of its proper
    prefix and its last step -- without rebuilding the prefix's pairs."""
    padded = type(key) is not tuple
    pairs = (key.pairs if padded else key) + ((ordinal, label),)
    if padded or not _in_band(ordinal):
        return _PaddedKey(pairs)
    return pairs


#: (ordinal, label) sorting after every child step: closes a subtree's
#: key range.
_SUBTREE_END = ((float("inf"),), "")


class DeweyID:
    """A structural node identifier: a tuple of ``(label, ordinal)`` steps.

    IDs are immutable, hashable and totally ordered by document order
    (ancestors precede their descendants; siblings are ordered by their
    dynamic ordinals).
    """

    __slots__ = ("steps", "_hash", "_key", "_parent")

    def __init__(self, steps: Sequence[Tuple[str, Sequence[int]]]):
        if not steps:
            raise ValueError("a DeweyID needs at least one step")
        self.steps: Tuple[Tuple[str, Ordinal], ...] = tuple(
            (label, _normalize(ordinal)) for label, ordinal in steps
        )
        # Precomputed document-order key: comparing via it keeps the
        # hot sorts/bisects in C.
        self._key = _order_key(self.steps)
        self._hash = hash(self.steps)
        # The parent's ID *object*: set by child() (shared with the
        # parent node, no allocation), linked lazily for IDs built from
        # bare steps.  Never pickled (see __reduce__).
        self._parent: "DeweyID | None" = None

    # -- construction -------------------------------------------------

    @classmethod
    def root(cls, label: str) -> "DeweyID":
        """The ID of a document root labeled ``label``."""
        return cls(((label, (1,)),))

    @classmethod
    def _from_steps(
        cls, steps: Tuple[Tuple[str, Ordinal], ...], key=None
    ) -> "DeweyID":
        """Internal: build from *already-normalized* steps (and their
        order key, when the caller derived it already).

        ``child``, unpickling and lazy parent linking derive IDs whose
        steps come from a live ID, so the per-step normalization of
        ``__init__`` would be pure overhead.
        """
        self = object.__new__(cls)
        self.steps = steps
        self._key = _order_key(steps) if key is None else key
        self._hash = hash(steps)
        self._parent = None
        return self

    def child(self, label: str, ordinal: Sequence[int]) -> "DeweyID":
        """The ID of a child of this node with the given label/ordinal.

        The new ID points at ``self`` as its parent, so ``parent()`` is
        a shared pointer and ``ancestor_ids()`` a chain walk: a document
        holds one ID object per node, never a second copy of a prefix.
        The order key extends the parent's instead of being rebuilt
        from all steps.
        """
        ordinal = _normalize(ordinal)
        new = DeweyID._from_steps(
            self.steps + ((label, ordinal),), _extend_key(self._key, ordinal, label)
        )
        new._parent = self
        return new

    # -- basic accessors ----------------------------------------------

    @property
    def label(self) -> str:
        """Label of the node this ID identifies (the last step's label)."""
        return self.steps[-1][0]

    @property
    def ordinal(self) -> Ordinal:
        return self.steps[-1][1]

    @property
    def depth(self) -> int:
        return len(self.steps)

    def parent(self) -> "DeweyID | None":
        """ID of the parent node, or None for the root."""
        parent = self._parent
        if parent is None and len(self.steps) > 1:
            parent = self._parent = DeweyID._from_steps(self.steps[:-1])
        return parent

    def ancestor_ids(self) -> Iterator["DeweyID"]:
        """IDs of all proper ancestors, outermost first.

        This is property (2) of the scheme: ancestor IDs are extracted
        from the node's own ID without touching the document.  IDs
        assigned by a document share their ancestors' ID objects, so
        this walks the parent chain and allocates no ID.
        """
        chain = []
        walk = self
        while len(walk.steps) > 1:
            parent = walk._parent
            if parent is None:
                parent = walk.parent()  # links an ID built from bare steps
            chain.append(parent)
            walk = parent
        return reversed(chain)

    def ancestor_labels(self) -> Tuple[str, ...]:
        """Labels of all proper ancestors, outermost first."""
        return tuple(label for label, _ in self.steps[:-1])

    def label_path(self) -> Tuple[str, ...]:
        """Labels from the root down to this node (inclusive)."""
        return tuple(label for label, _ in self.steps)

    # -- structural comparisons (the paper's ≺ and ≺≺) -----------------

    def is_parent_of(self, other: "DeweyID") -> bool:
        """``self ≺ other``: is self the parent of other?"""
        return len(other.steps) == len(self.steps) + 1 and other.steps[: len(self.steps)] == self.steps

    def is_ancestor_of(self, other: "DeweyID") -> bool:
        """``self ≺≺ other``: is self a proper ancestor of other?"""
        return len(other.steps) > len(self.steps) and other.steps[: len(self.steps)] == self.steps

    def is_ancestor_or_self(self, other: "DeweyID") -> bool:
        return len(other.steps) >= len(self.steps) and other.steps[: len(self.steps)] == self.steps

    def has_ancestor_labeled(self, label: str) -> bool:
        """Does any proper ancestor carry ``label``?  (Props. 3.8 / 4.7.)"""
        return label in self.ancestor_labels()

    @property
    def sort_key(self):
        """The precomputed document-order key (plain nested tuples for
        generator-produced ordinals).  ``sorted(nodes, key=lambda n:
        n.id.sort_key)`` compares entirely in C, unlike sorting
        :class:`DeweyID` objects whose rich comparisons are Python
        calls; equal keys imply equal IDs."""
        return self._key

    @property
    def subtree_end_key(self):
        """A key greater than every descendant's ``sort_key`` and
        smaller than that of any node following the subtree: in a
        document-ordered key list the proper descendants are exactly
        the run ``bisect_right(sort_key) : bisect_left(subtree_end_key)``."""
        return _extend_key(self._key, *_SUBTREE_END)

    # -- ordering ------------------------------------------------------

    def _compare(self, other: "DeweyID") -> int:
        """Reference comparison (the definition _key is derived from)."""
        for (la, oa), (lb, ob) in zip(self.steps, other.steps):
            cmp = ordinal_compare(oa, ob)
            if cmp:
                return cmp
            if la != lb:
                # Distinct labels with equal ordinals cannot share a
                # parent slot in one document; order them by label to
                # keep the comparison total across documents.
                return -1 if la < lb else 1
        if len(self.steps) == len(other.steps):
            return 0
        return -1 if len(self.steps) < len(other.steps) else 1

    def __lt__(self, other: "DeweyID") -> bool:
        return self._key < other._key

    def __le__(self, other: "DeweyID") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "DeweyID") -> bool:
        return self._key > other._key

    def __ge__(self, other: "DeweyID") -> bool:
        return self._key >= other._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeweyID) and self.steps == other.steps

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Ship only the steps across process boundaries (the sharded
        # maintenance pipeline pickles IDs inside Δ fragments); key and
        # hash are rebuilt and the parent chain re-linked on demand on
        # the other side.
        # A live ID's steps are already normalized, so reconstruction
        # takes the fast path -- fragment unpickling is on the critical
        # merge path of every parallel round.
        return (_dewey_from_normalized_steps, (self.steps,))

    # -- compact encoding ---------------------------------------------

    def encode(self, label_codes: dict) -> bytes:
        """Compact binary encoding using a label dictionary.

        ``label_codes`` maps labels to small integers; unknown labels
        are added on the fly (the dictionary doubles as an encoder
        state, as in dictionary-compressed stores).
        """
        out = bytearray()
        _encode_varint(len(self.steps), out)
        for label, ordinal in self.steps:
            code = label_codes.setdefault(label, len(label_codes))
            _encode_varint(code, out)
            _encode_varint(len(ordinal), out)
            for part in ordinal:
                _encode_varint(part, out)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, label_names: Sequence[str]) -> "DeweyID":
        """Inverse of :meth:`encode`; ``label_names[code] == label``."""
        nsteps, offset = _decode_varint(data, 0)
        steps = []
        for _ in range(nsteps):
            code, offset = _decode_varint(data, offset)
            length, offset = _decode_varint(data, offset)
            parts = []
            for _ in range(length):
                part, offset = _decode_varint(data, offset)
                parts.append(part)
            steps.append((label_names[code], tuple(parts)))
        return cls(steps)

    # -- display -------------------------------------------------------

    def __repr__(self) -> str:
        return "DeweyID(%s)" % (str(self),)

    def __str__(self) -> str:
        rendered = []
        for label, ordinal in self.steps:
            suffix = "_".join(str(part) for part in ordinal)
            rendered.append("%s%s" % (label, suffix))
        return ".".join(rendered)


def _dewey_from_normalized_steps(steps) -> "DeweyID":
    """Module-level unpickle hook for :meth:`DeweyID.__reduce__`."""
    return DeweyID._from_steps(steps)


# -- sorted-list probes (Dewey order puts a subtree in one contiguous
# run right after its root, so one bisect answers containment) ---------


def has_strict_descendant(sorted_keys: Sequence, sort_key, subtree_end_key) -> bool:
    """Does the sorted ``sort_key`` list hold a key of a proper
    descendant of the ID with ``sort_key`` / ``subtree_end_key``?"""
    position = bisect.bisect_right(sorted_keys, sort_key)
    return position < len(sorted_keys) and sorted_keys[position] < subtree_end_key
