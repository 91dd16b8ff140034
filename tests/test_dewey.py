"""Compact Dynamic Dewey IDs: the four properties of Section 2.1."""

import os
import pickle
import random
import signal
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from tests.conftest import chain_pattern
from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import DeleteUpdate, InsertUpdate
from repro.workloads.xmark import generate_document
from repro.xmldom import dewey
from repro.xmldom.dewey import (
    DeweyID,
    _encode_int,
    _key_of,
    _normalize,
    _steps_of,
    label_code,
    ordinal_after,
    ordinal_before,
    ordinal_between,
    ordinal_compare,
    ordinal_initial,
)
from repro.xmldom.index import KeyedRows
from repro.xmldom.parser import parse_document
from tests.harness.id_memory import (
    BYTES_PER_ID_LIMIT,
    MEAN_KEY_BYTES_LIMIT,
    bytes_per_id,
    fresh_label_table,
    mean_key_bytes,
)


def _code_bytes(label):
    out = bytearray()
    _encode_int(label_code(label), out)
    return bytes(out)


def make_id(*steps):
    return DeweyID(tuple((label, ordinal) for label, ordinal in steps))


class TestOrdinals:
    def test_initial_positions_are_ordered(self):
        assert ordinal_compare(ordinal_initial(1), ordinal_initial(2)) == -1

    def test_initial_rejects_zero(self):
        with pytest.raises(ValueError):
            ordinal_initial(0)

    def test_before_and_after(self):
        assert ordinal_compare(ordinal_before((5,)), (5,)) == -1
        assert ordinal_compare(ordinal_after((5,)), (5,)) == 1

    def test_between_adjacent_integers(self):
        middle = ordinal_between((1,), (2,))
        assert ordinal_compare((1,), middle) == -1
        assert ordinal_compare(middle, (2,)) == -1

    def test_between_gap(self):
        assert ordinal_between((1,), (5,)) == (2,)

    def test_between_requires_order(self):
        with pytest.raises(ValueError):
            ordinal_between((2,), (2,))
        with pytest.raises(ValueError):
            ordinal_between((3,), (2,))

    def test_padding_equivalence(self):
        assert ordinal_compare((1,), (1, 0)) == 0
        assert ordinal_compare((1, 0, 1), (1,)) == 1

    def test_repeated_between_never_relabels(self):
        # Squeeze 100 ordinals into the (1, 2) gap: no existing ordinal
        # changes, the "no relabeling" property of the scheme.
        low, high = (1,), (2,)
        produced = []
        left = low
        for _ in range(100):
            left = ordinal_between(left, high)
            produced.append(left)
        for a, b in zip(produced, produced[1:]):
            assert ordinal_compare(a, b) == -1

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    def test_between_property(self, a, b):
        a, b = tuple(a), tuple(b)
        cmp = ordinal_compare(a, b)
        if cmp == 0:
            return
        low, high = (a, b) if cmp < 0 else (b, a)
        middle = ordinal_between(low, high)
        assert ordinal_compare(low, middle) == -1
        assert ordinal_compare(middle, high) == -1


class TestStructure:
    def test_label_and_depth(self):
        node = make_id(("a", (1,)), ("b", (2,)))
        assert node.label == "b"
        assert node.depth == 2

    def test_parent_and_ancestors(self):
        a = make_id(("a", (1,)))
        ab = a.child("b", (1,))
        abc = ab.child("c", (3,))
        assert abc.parent() == ab
        assert a.parent() is None
        assert list(abc.ancestor_ids()) == [a, ab]
        assert abc.ancestor_labels() == ("a", "b")
        assert abc.label_path() == ("a", "b", "c")

    def test_parent_and_ancestor_predicates(self):
        a = make_id(("a", (1,)))
        ab = a.child("b", (1,))
        abc = ab.child("c", (1,))
        assert a.is_parent_of(ab)
        assert not a.is_parent_of(abc)
        assert a.is_ancestor_of(ab) and a.is_ancestor_of(abc)
        assert not a.is_ancestor_of(a)
        assert a.is_ancestor_or_self(a)
        assert abc.has_ancestor_labeled("a")
        assert not abc.has_ancestor_labeled("c")

    def test_document_order_ancestor_first(self):
        a = make_id(("a", (1,)))
        ab = a.child("b", (1,))
        ab2 = a.child("b", (2,))
        assert a < ab < ab2
        assert sorted([ab2, a, ab]) == [a, ab, ab2]

    def test_sibling_order_by_dynamic_ordinal(self):
        a = make_id(("a", (1,)))
        first = a.child("x", (1,))
        squeezed = a.child("x", ordinal_between((1,), (2,)))
        second = a.child("x", (2,))
        assert first < squeezed < second

    def test_equality_and_hash(self):
        x = make_id(("a", (1,)), ("b", (1, 0)))
        y = make_id(("a", (1,)), ("b", (1,)))
        assert x == y  # normalization strips trailing zeros
        assert hash(x) == hash(y)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            DeweyID(())


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=8,
)


def _linked(steps):
    """The ID of ``steps`` built step by step through ``child()``."""
    walk = DeweyID([steps[0]])
    for label, ordinal in steps[1:]:
        walk = walk.child(label, ordinal)
    return walk


class TestParentChain:
    """child() links each ID to its parent's ID *object*: parent() is a
    shared pointer, ancestor_ids() a chain walk, and nothing about
    identity, order or the pickled form depends on how an ID was built."""

    def test_child_shares_the_parent_object(self):
        x = make_id(("a", (1,)), ("b", (2,)))
        child = x.child("c", (1,))
        assert child.parent() is x
        chain = list(child.child("d", (1,)).ancestor_ids())
        assert chain[-2] is x and chain[-1] is child

    def test_unlinked_ids_link_lazily_and_equal(self):
        flat = DeweyID._from_steps((("a", (1,)), ("b", (2,)), ("c", (3,))))
        first = flat.parent()
        assert first == make_id(("a", (1,)), ("b", (2,)))
        assert flat.parent() is first  # linked on first use, then shared
        assert [str(i) for i in flat.ancestor_ids()] == ["a1", "a1.b2"]
        assert make_id(("a", (1,))).parent() is None

    @given(_STEPS, _STEPS)
    def test_linked_and_flat_ids_are_indistinguishable(self, left, right):
        for steps in (left, right):
            linked, flat = _linked(steps), DeweyID(steps)
            assert linked == flat and hash(linked) == hash(flat)
            assert linked.steps == flat.steps
            assert type(linked.sort_key) is type(flat.sort_key)
            assert linked.sort_key == flat.sort_key
            assert [str(i) for i in linked.ancestor_ids()] == [
                str(i) for i in flat.ancestor_ids()
            ]
        a, b = _linked(left), DeweyID(right)
        reference = DeweyID(left)._compare(b)
        assert (a < b) == (reference < 0)
        assert (a > b) == (reference > 0)
        assert (a == b) == (reference == 0)

    def test_pickle_ships_steps_only(self):
        # A depth-8 ID pickled to 196 bytes before IDs were linked; the
        # parent chain must never ride along (session replicas ship
        # IDs in every extent delta).
        deep = _linked(
            [("site", (1,))]
            + [
                (label, (position,))
                for position, label in enumerate(
                    ["regions", "africa", "item", "description", "parlist",
                     "listitem", "text"],
                    start=1,
                )
            ]
        )
        list(deep.ancestor_ids())
        payload = pickle.dumps(deep)
        assert len(payload) == 196
        assert payload == pickle.dumps(DeweyID(deep.steps))
        clone = pickle.loads(payload)
        assert clone == deep and clone._parent is None
        assert clone.sort_key == deep.sort_key

    def test_subtree_end_key_closes_the_descendant_run(self):
        a = make_id(("a", (1,)))
        ab = a.child("b", (1,))
        abz = ab.child("z", (9, 9))
        ac = a.child("c", (2,))
        keys = sorted(i.sort_key for i in (a, ab, abz, ac))
        assert ab.sort_key < abz.sort_key < ab.subtree_end_key < ac.sort_key
        assert keys.index(ac.sort_key) == 3
        exotic = DeweyID([("a", (1,)), ("b", (1, -1))])
        below = exotic.child("c", (1,))
        assert exotic.sort_key < below.sort_key
        assert below.sort_key < exotic.subtree_end_key

    @given(st.lists(_STEPS, min_size=1, max_size=6), st.data())
    def test_subtree_is_one_key_range(self, paths, data):
        # Every prefix of every drawn path is in the set, so ancestors
        # (negative components past index 0 included) are present and
        # the 0x06 end key must stop exactly at the subtree's end.
        ids = sorted(
            {DeweyID(path[:depth]) for path in paths for depth in range(1, len(path) + 1)},
            key=lambda x: x.sort_key,
        )
        rows = KeyedRows.of(SimpleNamespace(id=x) for x in ids)
        anchor = data.draw(st.sampled_from(ids))
        depth = len(anchor.steps)
        subtree = [
            x for x in ids if len(x.steps) > depth and x.steps[:depth] == anchor.steps
        ]
        assert [x for x in ids if anchor.is_ancestor_of(x)] == subtree
        assert [row.id for row in rows.below(anchor)] == subtree


class TestCompactIDs:
    """An ID holds its key, its parent pointer, one shared step and its
    depth; everything else is derived."""

    def test_bytes_per_id_stay_under_the_limit(self):
        per_id, count = bytes_per_id()
        assert count > 1000
        assert per_id <= BYTES_PER_ID_LIMIT, per_id

    def test_mean_key_bytes_stay_under_the_limit(self):
        mean = mean_key_bytes()
        assert mean <= MEAN_KEY_BYTES_LIMIT, mean

    def test_equal_steps_share_one_tuple(self):
        root = make_id(("site", (1,)))
        left = root.child("people", (1,)).child("person", [3, 0])
        right = root.child("regions", (2,)).child("person", (3,))
        assert left._step is right._step
        assert left.ordinal is right.ordinal == (3,)
        # A flat ID (built from bare steps) interns its last step too.
        flat = DeweyID(left.steps)
        assert flat._parent is None and flat._step is left._step

    @given(
        st.lists(
            st.tuples(
                st.text(max_size=4),
                st.lists(
                    st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example([("a", [0]), ("b", [0, 0, -2]), ("x\x00y", [1, -1])])
    @settings(max_examples=50)
    def test_steps_decode_from_the_key(self, raw):
        # Negative components past index 0, interior zeros, (0,), wide
        # integers and labels holding 0x00 all round-trip.
        steps = tuple((label, _normalize(tuple(ordinal))) for label, ordinal in raw)
        assert _steps_of(_key_of(steps)) == steps
        assert DeweyID(steps).steps == steps


class TestEncoding:
    def test_compactness(self):
        # Per step: a positive component after no zero run (0x05, value
        # 0x80+N), the ordinal's end (0x03), then the label's code.
        node = make_id(("a", (1,)), ("b", (2,)), ("c", (3,)))
        codes = [_code_bytes(label) for label in "abc"]
        assert node.sort_key == b"".join(
            bytes((0x05, 0x80 + n, 0x03)) + code for n, code in zip((1, 2, 3), codes)
        )
        # Components and runs from -63 to 63 take one byte each; a run
        # gets its own tag, so only an ordinal with zeros pays for one.
        assert len(make_id(("a", (63,))).sort_key) == 3 + len(codes[0])
        assert len(make_id(("a", (64,))).sort_key) == 4 + len(codes[0])
        assert make_id(("a", (-63, 0, 0, 5))).sort_key == (
            b"\x01\x41\x04\x7e\x85\x03" + codes[0]
        )
        assert make_id(("a", (0, -1))).sort_key == b"\x02\x81\x7f\x03" + codes[0]

    def test_str_rendering(self):
        node = make_id(("a", (1,)), ("c", (1,)), ("b", (1,)))
        assert str(node) == "a1.c1.b1"


class TestLabelCodes:
    """A key spells a label as a code dealt on first use by one
    process-wide table; the code order decides no document order."""

    def test_threads_deal_one_code_per_label(self):
        labels = ["label%d" % i for i in range(240)]
        workers = 6

        def deal(slot, barrier, dealt):
            # Overlapping windows, each in its own shuffled order.
            mine = labels[slot * 24 : slot * 24 + 120]
            random.Random(slot).shuffle(mine)
            barrier.wait()
            dealt[slot] = {label: label_code(label) for label in mine}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often enough to race
        try:
            for _round in range(10):
                barrier, dealt = threading.Barrier(workers), [None] * workers
                with fresh_label_table():
                    threads = [
                        threading.Thread(target=deal, args=(slot, barrier, dealt))
                        for slot in range(workers)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    merged = {}
                    for codes in dealt:
                        for label, code in codes.items():
                            assert merged.setdefault(label, code) == code, label
                    assert sorted(merged.values()) == list(
                        range(dewey._FIRST_CODE, dewey._FIRST_CODE + len(labels))
                    )
                    assert all(
                        dewey._LABELS[code - dewey._FIRST_CODE] == label
                        for label, code in merged.items()
                    )
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_deals_codes_while_the_parent_holds_the_lock(self):
        # A thread of the parent mid-deal at fork time holds the lock;
        # the child must still deal codes of its own.
        with dewey._LABEL_LOCK:
            pid = os.fork()
            if pid == 0:
                os._exit(0 if label_code("dealt-in-a-forked-child") is not None else 1)
        deadline = time.monotonic() + 20
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child blocked on the label lock")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def test_reverse_dealt_codes_keep_keys_in_preorder(self):
        labels = sorted({n.label for n in generate_document(scale=1).root.self_and_descendants()})
        with fresh_label_table():
            for label in reversed(labels):
                label_code(label)
            assert [label_code(label) for label in labels] == sorted(
                (label_code(label) for label in labels), reverse=True
            )
            document = generate_document(scale=4)
            preorder = list(document.root.self_and_descendants())
            keys = [node.id.sort_key for node in preorder]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert all(document.node_by_id(node.id) is node for node in preorder)
            assert all(DeweyID(node.id.steps) == node.id for node in preorder[::50])

    def test_compare_breaks_cross_label_ties_by_code(self):
        with fresh_label_table():
            for label in ("r", "z", "m", "a"):
                label_code(label)
            root = DeweyID.root("r")
            ids = [root]
            for label in "amz":
                tie = root.child(label, (3,))
                ids += [tie, tie.child("a", (1,)), tie.child("z", (1,)), tie.child("m", (0, 2))]
            ids += [root.child("a", (2, 5)), root.child("z", (4,))]
            for a in ids:
                for b in ids:
                    reference = a._compare(b)
                    assert (a.sort_key < b.sort_key) == (reference < 0), (a, b)
                    assert (a.sort_key == b.sort_key) == (reference == 0), (a, b)
            # The tie goes by code ("z" was dealt before "m" and "a"),
            # not by the label's spelling.
            assert root.child("z", (3,)) < root.child("m", (3,)) < root.child("a", (3,))
            assert root.child("z", (3,))._compare(root.child("a", (3,))) < 0

    def test_reissued_ordinal_under_another_label(self):
        # Deleting a3 and then inserting b under the same parent deals
        # b the ordinal (3) again: two IDs that differ only in their
        # label code, one dead and one live.
        document = parse_document("<r><p><x>1</x><y>2</y><a>3</a></p><a>4</a></r>")
        engine = MaintenanceEngine(document)
        views = {
            name: engine.register_view(chain_pattern(*labels, annotate="ID val"), name)
            for name, labels in (("PA", ("p", "a")), ("PB", ("p", "b")), ("RA", ("r", "a")))
        }
        gone = document.root.children[0].children[2]
        gone_id = gone.id
        engine.apply_batch([DeleteUpdate("/r/p/a"), InsertUpdate("/r/p", "<b>5</b>")])
        fresh = document.root.children[0].children[2]
        assert fresh.label == "b" and fresh.id.ordinal == gone_id.ordinal == (3,)
        assert fresh.id.parent() == gone_id.parent() and fresh.id != gone_id
        assert document.node_by_id(gone_id) is None
        assert document.node_by_id(fresh.id) is fresh
        for name, registered in views.items():
            assert registered.view.equals_fresh_evaluation(document), name
        [(row, _count)] = views["PB"].view.content()
        assert fresh.id in row and gone_id not in row


class TestSortKeyEquivalence:
    """The precomputed byte key must order exactly like the reference
    _compare, for the ordinals the generators produce and for the
    out-of-band ones (negative past index 0) direct construction
    accepts."""

    @given(st.data())
    def test_key_matches_reference_compare(self, data):
        def random_ordinal(draw, depth):
            # Ordinals as the generators produce them: start from an
            # initial/before/after seed, then squeeze with between.
            seed = draw(st.integers(-4, 6))
            ordinal = (seed,)
            for _ in range(draw(st.integers(0, depth))):
                ordinal = ordinal_between(ordinal, ordinal_after(ordinal))
            return ordinal

        def random_id(draw):
            steps = []
            for _ in range(draw(st.integers(1, 4))):
                label = draw(st.sampled_from(["a", "b", "c"]))
                steps.append((label, random_ordinal(draw, 2)))
            return DeweyID(steps)

        a = random_id(data.draw)
        b = random_id(data.draw)
        reference = a._compare(b)
        assert (a < b) == (reference < 0)
        assert (a == b) == (reference == 0)
        assert (a > b) == (reference > 0)

    def test_generators_never_negative_past_first_component(self):
        frontier = [(-2,), (0,), (1,), ordinal_initial(3)]
        for _ in range(4):
            produced = []
            for ordinal in frontier:
                produced.append(ordinal_after(ordinal))
                produced.append(ordinal_before(ordinal))
                produced.append(ordinal_between(ordinal, ordinal_after(ordinal)))
                produced.append(
                    ordinal_between(ordinal_before(ordinal), ordinal)
                )
            for ordinal in produced:
                assert all(part >= 0 for part in ordinal[1:]), ordinal
            frontier = produced[:8]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.lists(st.integers(-3, 3), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.lists(st.integers(-3, 3), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_exotic_ordinals_fall_back_to_padded_semantics(self, left, right):
        # Direct construction accepts ordinals with negative components
        # past index 0 (the generators never produce them); the byte
        # key must still order them like _compare.
        a = DeweyID([(label, tuple(ordinal)) for label, ordinal in left])
        b = DeweyID([(label, tuple(ordinal)) for label, ordinal in right])
        reference = a._compare(b)
        assert (a < b) == (reference < 0), (a, b)
        assert (a > b) == (reference > 0), (a, b)
        assert (a <= b) == (reference <= 0), (a, b)
        assert (a >= b) == (reference >= 0), (a, b)

    def test_prefix_of_negative_tail_orders_after_it(self):
        a = make_id(("a", (1,)))
        b = make_id(("a", (1, -1)))
        # Zero-padding: (1,) reads as (1, 0, ...) which exceeds (1, -1).
        assert a._compare(b) > 0
        assert a > b and b < a and sorted([a, b]) == [b, a]
