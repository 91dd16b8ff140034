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

An ID object stores only what its parent cannot supply: its order key
(see *Compact encoding*), a pointer to its parent's ID object, its own
last step and its depth.  The step is one tuple shared by every ID that
ends in the same ``(label, ordinal)``, interned through the memo that
also holds the step's bytes.  The full ``steps`` are derived when asked
for: an ID built by :meth:`DeweyID.child` collects the steps up its
parent chain; an ID built from bare steps (or unpickled) decodes them
from its key (:func:`_steps_of`, the inverse of :func:`_key_of`).  On
XMark scale 4 an ID costs about 184 B of heap, key included
(``tests/harness/id_memory.py``).

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


#: ``(label, normalized ordinal)`` -> ``(step, step bytes)``.  The
#: stored ``step`` is the one tuple every ID with that last step shares
#: (``child()`` interns through it), and its bytes make building a key
#: a lookup plus one concatenation.  A document has few distinct steps
#: (labels x sibling positions).  The memo is emptied whenever it
#: reaches ``_STEP_MEMO_LIMIT`` entries, which bounds it and leaves
#: every key it yields unchanged: IDs built before keep their own step
#: tuples, equal to the new ones.  An entry is a pure function of its
#: step, so threads racing on it at worst intern a step twice.
_STEP_BYTES: Dict[Step, Tuple[Step, bytes]] = {}
_STEP_MEMO_LIMIT = 1 << 14


def _intern_step(step: Step) -> Tuple[Step, bytes]:
    """The memo's ``(shared step, step bytes)`` for a normalized
    ``step``, encoded and stored on a miss.  Hot paths try
    ``_STEP_BYTES.get`` first and call this only on a miss."""
    entry = _STEP_BYTES.get(step)
    if entry is not None:
        return entry
    if len(_STEP_BYTES) >= _STEP_MEMO_LIMIT:
        _STEP_BYTES.clear()
    label, ordinal = step
    out = bytearray()
    encode_ordinal(ordinal, out)
    encode_terminated(label.encode("utf-8"), out)
    # A private copy of the ordinal: two steps never share one, so how
    # callers built their ordinals cannot change a pickled ID's bytes.
    # The shared step is also the memo's key, so the caller's tuples
    # are not kept.
    step = (label, tuple(list(ordinal)))
    entry = _STEP_BYTES[step] = (step, bytes(out))
    return entry


def _key_of(steps: Tuple[Step, ...]) -> bytes:
    """The document-order key of normalized steps."""
    return b"".join([(_STEP_BYTES.get(step) or _intern_step(step))[1] for step in steps])


def _decode_int(key: bytes, pos: int) -> Tuple[int, int]:
    """Inverse of :func:`encode_int`: the value at ``pos`` and the
    position after it."""
    lead = key[pos]
    pos += 1
    if lead == 0x80:
        return 0, pos
    if lead > 0x80:
        end = pos + lead - 0x80
        return int.from_bytes(key[pos:end], "big"), end
    end = pos + 0x80 - lead
    return int.from_bytes(key[pos:end], "big") - (1 << (8 * (end - pos))), end


def _steps_of(key: bytes) -> Tuple[Step, ...]:
    """Inverse of :func:`_key_of`: the normalized steps a key encodes."""
    steps = []
    pos, size = 0, len(key)
    while pos < size:
        ordinal = []
        tag = key[pos]
        while tag != _ORD_END:
            zeros, pos = _decode_int(key, pos + 1)
            component, pos = _decode_int(key, pos)
            ordinal.extend((0,) * (zeros if tag == _ORD_NEG else -zeros))
            ordinal.append(component)
            tag = key[pos]
        # An escaped 0x00 is always followed by 0xFF, so the first
        # 0x00 0x00 is the terminator.
        end = key.index(b"\x00\x00", pos + 1)
        label = key[pos + 1 : end].replace(b"\x00\xff", b"\x00").decode("utf-8")
        steps.append((label, tuple(ordinal) if ordinal else (0,)))
        pos = end + 2
    return tuple(steps)


class DeweyID:
    """A structural node identifier: a sequence of ``(label, ordinal)``
    steps.

    IDs are immutable, hashable and totally ordered by document order
    (ancestors precede their descendants; siblings are ordered by their
    dynamic ordinals).

    An ID stores only what its parent cannot supply: its order key
    (``sort_key``), its parent's ID object (``_parent``), its own last step
    (``_step``, shared with every ID ending in the same ``(label,
    ordinal)``) and its depth.  ``steps`` is derived on demand: a
    *linked* ID (built by :meth:`child`) collects ``_step`` up the
    parent chain; a *flat* ID (built from bare steps, or unpickled) has
    no parent yet and decodes its steps from the key.
    """

    __slots__ = ("sort_key", "_parent", "_step", "_depth")

    #: The document-order key (see *Compact encoding*), a plain slot:
    #: read in C, compared by memcmp and hashed in C, so sorts, bisects
    #: and dicts keyed by it never call Python-level ID methods.  Equal
    #: keys are equal IDs.
    sort_key: bytes

    def __init__(self, steps: Sequence[Tuple[str, Sequence[int]]]):
        if not steps:
            raise ValueError("a DeweyID needs at least one step")
        normalized = tuple((label, _normalize(ordinal)) for label, ordinal in steps)
        # The document-order key: comparing via it keeps the hot
        # sorts/bisects in C, as one memcmp.
        self.sort_key = _key_of(normalized)
        # The parent's ID *object*: set by child() (shared with the
        # parent node, no allocation), linked lazily for IDs built from
        # bare steps.  Never pickled (see __reduce__).
        self._parent: "DeweyID | None" = None
        self._step: Step = _intern_step(normalized[-1])[0]
        self._depth = len(normalized)

    # -- construction -------------------------------------------------

    @classmethod
    def root(cls, label: str) -> "DeweyID":
        """The ID of a document root labeled ``label``."""
        return cls(((label, (1,)),))

    @classmethod
    def _from_steps(cls, steps: Tuple[Step, ...]) -> "DeweyID":
        """Internal: a flat ID from *already-normalized* steps.

        Unpickling and lazy parent linking derive IDs whose steps come
        from a live ID, so the per-step normalization of ``__init__``
        would be pure overhead.
        """
        self = object.__new__(cls)
        self.sort_key = _key_of(steps)
        self._parent = None
        self._step = _intern_step(steps[-1])[0]
        self._depth = len(steps)
        return self

    def child(self, label: str, ordinal: Sequence[int]) -> "DeweyID":
        """The ID of a child of this node with the given label/ordinal.

        The new ID points at ``self`` as its parent, so ``parent()`` is
        a shared pointer and ``ancestor_ids()`` a chain walk: a document
        holds one ID object per node, never a second copy of a prefix.
        The order key is the parent's plus the memoized bytes of the
        new step, and the step itself is the memo's shared tuple.
        """
        step = (label, _normalize(ordinal))
        step, blob = _STEP_BYTES.get(step) or _intern_step(step)
        new = object.__new__(DeweyID)
        new.sort_key = self.sort_key + blob
        new._parent = self
        new._step = step
        new._depth = self._depth + 1
        return new

    # -- basic accessors ----------------------------------------------

    @property
    def steps(self) -> Tuple[Step, ...]:
        """The ``(label, ordinal)`` steps from the root down to this node.

        Collected up the parent chain (one walk, shared step tuples); an
        unlinked ID at the top of the chain decodes its steps from its
        key.
        """
        tail = []
        walk = self
        while walk._parent is not None:
            tail.append(walk._step)
            walk = walk._parent
        tail.reverse()
        head = (walk._step,) if walk._depth == 1 else _steps_of(walk.sort_key)
        return head + tuple(tail)

    @property
    def label(self) -> str:
        """Label of the node this ID identifies (the last step's label)."""
        return self._step[0]

    @property
    def ordinal(self) -> Ordinal:
        return self._step[1]

    @property
    def depth(self) -> int:
        return self._depth

    def parent(self) -> "DeweyID | None":
        """ID of the parent node, or None for the root."""
        parent = self._parent
        if parent is None and self._depth > 1:
            # The parent's key is this key minus the last step's bytes;
            # its own ancestors are linked in the same pass.
            cut = len(self.sort_key) - len(_intern_step(self._step)[1])
            parent = self._parent = _linked_chain(self.sort_key[:cut])
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
        while walk._depth > 1:
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
        key = self.sort_key
        return other._depth == self._depth + 1 and other.sort_key.startswith(key)

    def is_ancestor_of(self, other: "DeweyID") -> bool:
        """``self ≺≺ other``: is self a proper ancestor of other?"""
        key = self.sort_key
        return len(other.sort_key) > len(key) and other.sort_key.startswith(key)

    def is_ancestor_or_self(self, other: "DeweyID") -> bool:
        return other.sort_key.startswith(self.sort_key)

    def has_ancestor_labeled(self, label: str) -> bool:
        """Does any proper ancestor carry ``label``?  (Props. 3.8 / 4.7.)"""
        walk = self
        while walk._depth > 1:
            walk = walk._parent or walk.parent()
            if walk._step[0] == label:
                return True
        return False

    @property
    def subtree_end_key(self) -> bytes:
        """A key greater than every descendant's ``sort_key`` and
        smaller than that of any node following the subtree: in a
        document-ordered key list the proper descendants are exactly
        the run ``bisect_right(sort_key) : bisect_left(subtree_end_key)``."""
        return self.sort_key + _AFTER_EVERY_STEP

    # -- ordering ------------------------------------------------------

    def _compare(self, other: "DeweyID") -> int:
        """Reference comparison (the definition sort_key is derived from)."""
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
        return self.sort_key < other.sort_key

    def __le__(self, other: "DeweyID") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "DeweyID") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "DeweyID") -> bool:
        return self.sort_key >= other.sort_key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeweyID) and self.sort_key == other.sort_key

    def __hash__(self) -> int:
        # CPython caches a bytes object's hash inside it.
        return hash(self.sort_key)

    def __reduce__(self):
        # Ship only the steps across process boundaries (the sharded
        # maintenance pipeline pickles IDs inside Δ fragments); the key
        # is rebuilt (from memoized step bytes) and the parent chain
        # re-linked on demand on the other side.
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


def _linked_chain(key: bytes) -> DeweyID:
    """The ID of ``key`` with its ancestors linked through ``_parent``
    (one decode, then ``child()`` per step)."""
    steps = _steps_of(key)
    walk = DeweyID._from_steps(steps[:1])
    for label, ordinal in steps[1:]:
        walk = walk.child(label, ordinal)
    return walk
