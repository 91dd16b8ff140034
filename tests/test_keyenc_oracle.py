"""Storage format 3, byte for byte.

``repro.storage.keyenc.encode_key`` writes the sqlite ``k`` column of
every extent table.  It builds a DeweyID cell from the ID's precomputed
``sort_key``; ``tests/harness/reference_keyenc.py`` is the encoder that
walked the steps instead.  Every row of every cell type must encode to
the same bytes under both, or databases written before and after stop
agreeing on their keys.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.storage.keyenc import encode_key
from repro.xmldom.dewey import DeweyID
from tests.harness import reference_keyenc

#: labels with the bytes the terminated encoding must escape or carry:
#: NUL, non-ASCII (multi-byte UTF-8), and a prefix pair.
_labels = st.sampled_from(["a", "ab", "a\x00", "\x00", "é", "日本", "x\x00y"])
#: negative components past index 0 are out of band (no generator
#: produces them) but constructible, and the hardest case for order.
_ordinals = st.lists(st.integers(-300, 300), min_size=1, max_size=4).map(tuple)
_steps = st.lists(st.tuples(_labels, _ordinals), min_size=1, max_size=5)


@st.composite
def _deweys(draw):
    """One ID, built any of the ways the engine builds them: flat from
    steps, grown by ``child()``, linked lazily by ``parent()``, or
    unpickled (as session replicas receive them)."""
    steps = draw(_steps)
    how = draw(st.sampled_from(["flat", "child", "parent", "pickle"]))
    if how == "child":
        walk = DeweyID([steps[0]])
        for label, ordinal in steps[1:]:
            walk = walk.child(label, ordinal)
        return walk
    flat = DeweyID(steps)
    if how == "parent":
        return flat.parent() or flat
    if how == "pickle":
        return pickle.loads(pickle.dumps(flat))
    return flat


_scalars = st.one_of(
    st.none(),
    st.integers(-(1 << 70), 1 << 70),
    st.booleans(),
    st.text(max_size=6),
    st.binary(max_size=6),
    _deweys(),
)
_cells = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)


@given(st.one_of(_cells, st.lists(_cells, max_size=5).map(tuple)))
@settings(max_examples=300, deadline=None)
def test_encode_key_matches_format_3(key):
    assert encode_key(key) == reference_keyenc.encode_key(key)


@st.composite
def _families(draw):
    """IDs sharing prefixes, grown by ``child()`` from random parents."""
    ids = [DeweyID.root(draw(_labels))]
    for _ in range(draw(st.integers(1, 12))):
        parent = draw(st.sampled_from(ids))
        ids.append(parent.child(draw(_labels), draw(_ordinals)))
    return ids


@given(_families(), st.data())
@settings(max_examples=80, deadline=None)
def test_id_families_encode_like_format_3(ids, data):
    cells = st.one_of(st.none(), st.sampled_from(ids))
    rows = data.draw(
        st.lists(st.tuples(cells, cells, st.tuples(cells)), min_size=1, max_size=10)
    )
    for row in rows:
        assert encode_key(row) == reference_keyenc.encode_key(row)
    for dewey in ids:
        blob = reference_keyenc.encode_key(dewey)
        assert encode_key(dewey) == blob
        # The cell is the tag, the ID's own key, and a 0x00 terminator.
        assert blob == reference_keyenc.TAG_DEWEY + dewey.sort_key + b"\x00"
