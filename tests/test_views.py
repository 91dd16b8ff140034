"""Materialized views and the ordered tuple store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pattern.tree_pattern import PatternNode, Pattern
from repro.views.store import DELETED, OrderedTupleStore
from repro.views.view import MaterializedView
from tests.conftest import chain_pattern


@pytest.fixture(params=["memory", "sqlite"])
def make_store(request, tmp_path):
    """A fresh store per call: a bare one, or a view's store that a
    sqlite backend checkpoints (each checkpoint must equal it)."""
    if request.param == "memory":
        yield OrderedTupleStore
        return
    from repro.storage.sqlite import SqliteExtentBackend

    backend = SqliteExtentBackend(str(tmp_path / "conformance.db"))
    views = []

    def factory():
        views.append(MaterializedView(chain_pattern("a")))
        backend.track("v%d" % len(views), views[-1])
        return views[-1]._store

    yield factory
    backend.sync()
    for index, view in enumerate(views, start=1):
        assert backend.stored_extent("v%d" % index) == view._store.snapshot()
    backend.close()


class TestOrderedTupleStore:
    def test_put_get_delete(self, make_store):
        store = make_store()
        store.put(("b",), 1)
        store.put(("a",), 2)
        assert store.get(("a",)) == 2
        assert ("b",) in store
        assert store.delete(("b",))
        assert not store.delete(("b",))
        assert store.get(("b",), "missing") == "missing"

    def test_keys_sorted(self, make_store):
        store = make_store()
        for key in [("c",), ("a",), ("b",)]:
            store.put(key, 0)
        assert store.keys() == [("a",), ("b",), ("c",)]

    def test_put_overwrites(self, make_store):
        store = make_store()
        store.put(("a",), 1)
        store.put(("a",), 9)
        assert store.get(("a",)) == 9
        assert len(store) == 1

    def test_range_scan(self, make_store):
        store = make_store()
        for index in range(5):
            store.put((index,), index)
        assert store.keys_in_runs([((1,), (4,))]) == [(1,), (2,), (3,)]
        # Overlapping, nested and empty ranges: each key once, in order.
        assert store.keys_in_runs(
            [((3,), (9,)), ((0,), (2,)), ((1,), (4,)), ((3,), (4,)), ((2,), (2,))]
        ) == [(0,), (1,), (2,), (3,), (4,)]

    def test_load_sorted_rejects_unsorted(self, make_store):
        store = make_store()
        with pytest.raises(ValueError):
            store.load_sorted([(("b",), 1), (("a",), 1)])

    def test_snapshot_is_an_immutable_sequence(self, make_store):
        # The documented contract: a sequence decoupled from later
        # updates (not necessarily a list).
        store = make_store()
        store.put((1,), "a")
        frozen = store.snapshot()
        store.put((0,), "z")
        store.delete((1,))
        assert list(frozen) == [((1,), "a")]
        assert list(store.items()) == [((0,), "z")]

    def test_merge_shifts_merges(self, make_store):
        store = make_store()
        store.load_sorted([((0,), 1), ((2,), 1), ((3,), 2)])
        changed = store.merge_shifts({(3,): -2, (1,): 5, (2,): 6, (0,): 0})
        assert changed == [((1,), 0, 5), ((2,), 1, 7), ((3,), 2, DELETED)]
        assert list(store.items()) == [((0,), 1), ((1,), 5), ((2,), 7)]
        assert store.merge_shifts({(0,): 0}) == []

    @pytest.mark.parametrize(
        "shifts, error",
        [
            ({(0,): 1, (1,): -1}, KeyError),  # absent row shifted below zero
            ({(0,): 1, (2,): -2}, ValueError),  # more than its count removed
        ],
    )
    def test_merge_shifts_rejects_and_changes_nothing(self, make_store, shifts, error):
        store = make_store()
        store.load_sorted([((0,), 1), ((2,), 1)])
        with pytest.raises(error):
            store.merge_shifts(shifts)
        assert list(store.items()) == [((0,), 1), ((2,), 1)]


#: one step's shift of a key: a signed count change, or "drop" (exactly
#: its current count removed, so the key leaves the store).
_shift_steps = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=7),
        st.one_of(st.integers(min_value=-2, max_value=3), st.just("drop")),
        max_size=6,
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize(
    "order_key", [None, lambda key: (2 * key[0],)], ids=["plain", "order_key"]
)
@given(steps=_shift_steps)
@settings(max_examples=60, deadline=None)
def test_merge_shifts_matches_a_dict(order_key, steps):
    """``merge_shifts`` beside a plain-dict reference: every returned
    triple, every count, every error, and an unchanged store after each
    error."""
    store = OrderedTupleStore(order_key=order_key)
    reference = {}
    for step in steps:
        shifts = {
            (key,): -reference.get((key,), 0) if shift == "drop" else shift
            for key, shift in step.items()
        }
        expected = []
        failing = []
        for row in sorted(shifts):
            shift = shifts[row]
            if not shift:
                continue
            previous = reference.get(row, 0)
            count = previous + shift
            if count < 0:
                failing.append(row)
            expected.append((row, previous, DELETED if count == 0 else count))
        if failing:
            # The first failing row in key order decides the error.
            before = store.snapshot()
            with pytest.raises(ValueError if failing[0] in reference else KeyError):
                store.merge_shifts(shifts)
            assert store.snapshot() == before
            continue
        assert store.merge_shifts(shifts) == expected
        for row, _previous, count in expected:
            if count is DELETED:
                del reference[row]
            else:
                reference[row] = count
        assert list(store.items()) == sorted(reference.items())


class TestMaterializedView:
    def test_materialize(self, fig2_document):
        view = MaterializedView.materialize(chain_pattern("a", "b"), fig2_document)
        assert len(view) == 2
        assert view.total_derivations() == 2

    def test_requires_ids_with_content(self, fig2_document):
        pattern = chain_pattern("a", "b", annotate="")
        pattern.node("b#1").store_cont = True
        with pytest.raises(ValueError):
            MaterializedView(pattern)

    def test_add_and_decrement(self, fig2_document):
        view = MaterializedView.materialize(chain_pattern("a", "b"), fig2_document)
        row = view.rows()[0]
        view.add(row, 2)
        assert view.count(row) == 3
        assert not view.decrement(row, 2)
        assert view.decrement(row, 1)  # now gone
        assert row not in view

    def test_decrement_missing_rejected(self, fig2_document):
        view = MaterializedView.materialize(chain_pattern("a", "b"), fig2_document)
        row = view.rows()[0]
        view.remove(row)
        with pytest.raises(KeyError):
            view.decrement(row)

    def test_overdecrement_rejected(self, fig2_document):
        view = MaterializedView.materialize(chain_pattern("a", "b"), fig2_document)
        row = view.rows()[0]
        with pytest.raises(ValueError):
            view.decrement(row, 5)

    def test_add_nonpositive_rejected(self, fig2_document):
        view = MaterializedView.materialize(chain_pattern("a", "b"), fig2_document)
        with pytest.raises(ValueError):
            view.add(view.rows()[0], 0)

    def test_replace_merges_counts(self, fig2_document):
        view = MaterializedView.materialize(
            chain_pattern("a", "b", annotate="ID cont"), fig2_document
        )
        first, second = view.rows()
        # A tuple removed and re-derived in one batch with a changed
        # cont nets by its IDs: one store entry, its count unchanged and
        # its stored cells kept until rewrite_rows (the read-time
        # refresh) installs the new form; the counters are gross.
        changed = first[:-1] + ("<b>new</b>",)
        assert view.apply_batch_delta({changed: 1}, {first: 1}) == (1, 0, 1)
        assert view.rows() == [first, second]
        view.rewrite_rows([changed])
        assert view.rows() == [changed, second]
        assert view.count(changed) == 1
        assert first not in view

    def test_equals_fresh_evaluation(self, fig2_document):
        view = MaterializedView.materialize(chain_pattern("a", "b"), fig2_document)
        assert view.equals_fresh_evaluation(fig2_document)
        view.remove(view.rows()[0])
        assert not view.equals_fresh_evaluation(fig2_document)
        diff = view.diff_against_fresh(fig2_document)
        assert diff["wrong_or_missing"]
