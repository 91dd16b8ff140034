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

An ID's one compact form is its ``sort_key``: a byte string, compared
by ``memcmp``, whose byte order *is* document order (the paper's
footnote: "internally, ID representation is much more compact").  It
concatenates one self-delimiting code per step, the ordinal then the
label, so an ancestor's key is a byte prefix of its descendants'.

Each ordinal is a sequence of ``(run-of-zeros, nonzero component)``
events:

* a negative component after ``r`` zeros emits ``0x01 enc(r) enc(c)``;
* the end of the ordinal emits ``0x02``;
* a positive component after ``r`` zeros emits ``0x03 enc(-r) enc(c)``.

At the first divergence between two ordinals the tag bytes alone order
negative-next < exhausted (all zeros from here) < positive-next, and
within a tag the run length is ordered so that the *earlier* position
wins -- exactly the zero-padded comparison, negative components past
index 0 included.  ``enc`` (:func:`encode_int`) is an order-preserving
integer code that never emits a ``0x00`` lead byte.  The label follows
as UTF-8 with ``0x00`` escaped to ``0x00 0xFF`` and a ``0x00 0x00``
terminator (:func:`encode_terminated`), so a shorter label sorts first.

Every step starts with a tag in ``0x01..0x03``, so ``sort_key +
b"\x04"`` sorts after every descendant and before every following
node: a subtree is one key range.  ``repro.storage.keyenc`` writes
these same bytes for a DeweyID cell of a sqlite key.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

Ordinal = Tuple[int, ...]
Step = Tuple[str, Ordinal]


def _normalize(ordinal: Sequence[int]) -> Ordinal:
    """Strip trailing zeros, keeping at least one component."""
    if not ordinal:
        raise ValueError("an ordinal needs at least one component")
    if ordinal[-1] or len(ordinal) == 1:
        return ordinal if type(ordinal) is tuple else tuple(ordinal)
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


# -- the order-preserving step encoding ----------------------------------

#: event tags inside an ordinal encoding (comparison-ordered).
_ORD_NEG = 0x01
_ORD_END = 0x02
_ORD_POS = 0x03
#: sorts after every step's lead tag: closes a subtree's key range.
_AFTER_EVERY_STEP = b"\x04"


def encode_int(value: int, out: bytearray) -> None:
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


def encode_terminated(data: bytes, out: bytearray) -> None:
    """Escape ``0x00`` as ``0x00 0xFF`` and close with ``0x00 0x00``,
    keeping byte order intact across the variable length."""
    out.extend(data.replace(b"\x00", b"\x00\xff"))
    out.extend(b"\x00\x00")


def encode_ordinal(ordinal: Sequence[int], out: bytearray) -> None:
    """The ordinal's ``(run-of-zeros, component)`` events, then ``_ORD_END``."""
    zeros = 0
    for component in ordinal:
        if component == 0:
            zeros += 1
            continue
        if component < 0:
            out.append(_ORD_NEG)
            encode_int(zeros, out)
        else:
            out.append(_ORD_POS)
            encode_int(-zeros, out)
        encode_int(component, out)
        zeros = 0
    # Trailing zeros vanish: under padded comparison they are the same
    # ordinal, and normalized ordinals never carry them anyway.
    out.append(_ORD_END)


#: ``(label, normalized ordinal)`` -> its step bytes.  A document has
#: few distinct steps (labels x sibling positions), so building a key
#: is a lookup plus one concatenation; the memo is emptied whenever it
#: reaches ``_STEP_MEMO_LIMIT`` entries, which bounds it and leaves
#: every key it yields unchanged.  An entry is a pure function of its
#: step, so threads racing on it at worst encode a step twice.
_STEP_BYTES: Dict[Step, bytes] = {}
_STEP_MEMO_LIMIT = 1 << 14


def _step_bytes(step: Step) -> bytes:
    blob = _STEP_BYTES.get(step)
    if blob is None:
        if len(_STEP_BYTES) >= _STEP_MEMO_LIMIT:
            _STEP_BYTES.clear()
        out = bytearray()
        encode_ordinal(step[1], out)
        encode_terminated(step[0].encode("utf-8"), out)
        blob = _STEP_BYTES[step] = bytes(out)
    return blob


def _key_of(steps: Tuple[Step, ...]) -> bytes:
    """The document-order key of normalized steps."""
    return b"".join([_STEP_BYTES.get(step) or _step_bytes(step) for step in steps])


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
        self.steps: Tuple[Step, ...] = tuple(
            (label, _normalize(ordinal)) for label, ordinal in steps
        )
        # Precomputed document-order key: comparing via it keeps the
        # hot sorts/bisects in C, as one memcmp.
        self._key = _key_of(self.steps)
        self._hash = hash(self._key)
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
        cls, steps: Tuple[Step, ...], key: "bytes | None" = None
    ) -> "DeweyID":
        """Internal: build from *already-normalized* steps (and their
        order key, when the caller derived it already).

        ``child``, unpickling and lazy parent linking derive IDs whose
        steps come from a live ID, so the per-step normalization of
        ``__init__`` would be pure overhead.
        """
        self = object.__new__(cls)
        self.steps = steps
        self._key = key = _key_of(steps) if key is None else key
        self._hash = hash(key)
        self._parent = None
        return self

    def child(self, label: str, ordinal: Sequence[int]) -> "DeweyID":
        """The ID of a child of this node with the given label/ordinal.

        The new ID points at ``self`` as its parent, so ``parent()`` is
        a shared pointer and ``ancestor_ids()`` a chain walk: a document
        holds one ID object per node, never a second copy of a prefix.
        The order key is the parent's plus the memoized bytes of the
        new step, not rebuilt from all steps.
        """
        step = (label, _normalize(ordinal))
        new = DeweyID._from_steps(
            self.steps + (step,),
            self._key + (_STEP_BYTES.get(step) or _step_bytes(step)),
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
            # The parent's key is this key minus the last step's bytes.
            cut = len(self._key) - len(_step_bytes(self.steps[-1]))
            parent = self._parent = DeweyID._from_steps(
                self.steps[:-1], self._key[:cut]
            )
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

    # Step codes are self-delimiting, so "the steps of self prefix the
    # steps of other" is "self's key is a byte prefix of other's".

    def is_parent_of(self, other: "DeweyID") -> bool:
        """``self ≺ other``: is self the parent of other?"""
        return len(other.steps) == len(self.steps) + 1 and other._key.startswith(self._key)

    def is_ancestor_of(self, other: "DeweyID") -> bool:
        """``self ≺≺ other``: is self a proper ancestor of other?"""
        return len(other._key) > len(self._key) and other._key.startswith(self._key)

    def is_ancestor_or_self(self, other: "DeweyID") -> bool:
        return other._key.startswith(self._key)

    def has_ancestor_labeled(self, label: str) -> bool:
        """Does any proper ancestor carry ``label``?  (Props. 3.8 / 4.7.)"""
        return label in self.ancestor_labels()

    @property
    def sort_key(self) -> bytes:
        """The precomputed document-order key: the encoded steps (see
        *Compact encoding* above), compared by memcmp.  ``sorted(nodes,
        key=lambda n: n.id.sort_key)`` compares entirely in C, unlike
        sorting :class:`DeweyID` objects whose rich comparisons are
        Python calls; equal keys are equal IDs."""
        return self._key

    @property
    def subtree_end_key(self) -> bytes:
        """A key greater than every descendant's ``sort_key`` and
        smaller than that of any node following the subtree: in a
        document-ordered key list the proper descendants are exactly
        the run ``bisect_right(sort_key) : bisect_left(subtree_end_key)``."""
        return self._key + _AFTER_EVERY_STEP

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
        return isinstance(other, DeweyID) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Ship only the steps across process boundaries (the sharded
        # maintenance pipeline pickles IDs inside Δ fragments); key and
        # hash are rebuilt (from memoized step bytes) and the parent
        # chain re-linked on demand on the other side.
        # A live ID's steps are already normalized, so reconstruction
        # takes the fast path -- fragment unpickling is on the critical
        # merge path of every parallel round.
        return (_dewey_from_normalized_steps, (self.steps,))

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
