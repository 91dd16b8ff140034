"""The grand invariant, property-based:

for random documents, random conjunctive views and random update
statements, incremental maintenance must coincide with re-evaluating
the view on the updated document -- tuples *and* derivation counts --
and the materialized snowcaps must equal their fresh evaluations.

The hot-path indexing layer adds two more invariants: memoized
``val``/``cont`` always equal fresh recomputation after arbitrary
insert/delete sequences, and maintenance results are byte-identical
with the indexes on and off.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.maintenance.engine import MaintenanceEngine
from repro.pattern.evaluate import evaluate_bindings
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.updates.language import DeleteUpdate, InsertUpdate
from repro.updates.pul import apply_pul, compute_pul
from repro.xmldom.model import fresh_val, set_hot_path_caches
from repro.xmldom.parser import parse_document
from repro.xmldom.serializer import serialize_fragment

_LABELS = "abcd"


def _random_tree_text(rng, depth=0):
    label = rng.choice(_LABELS)
    inner = ""
    if depth < 3:
        inner = "".join(
            _random_tree_text(rng, depth + 1) for _ in range(rng.randint(0, 3))
        )
    if not inner and rng.random() < 0.3:
        inner = rng.choice(("x", "y"))
    return "<%s>%s</%s>" % (label, inner, label)


def _random_document(rng):
    body = "".join(_random_tree_text(rng) for _ in range(rng.randint(1, 3)))
    return parse_document("<r>%s</r>" % body)


def _random_view(rng):
    root = PatternNode(rng.choice(_LABELS + "r"), axis="desc", store_id=True)
    nodes = [root]
    for _ in range(rng.randint(1, 3)):
        parent = rng.choice(nodes)
        child = PatternNode(
            rng.choice(_LABELS),
            axis=rng.choice(("child", "desc")),
            store_id=True,
        )
        parent.add_child(child)
        nodes.append(child)
    target = rng.choice(nodes)
    if rng.random() < 0.5:
        target.store_val = True
    if rng.random() < 0.3:
        target.store_cont = True
    return Pattern(root)


def _random_update(rng):
    label = rng.choice(_LABELS)
    axis = rng.choice(("//", "//", "/r/"))
    path = "%s%s" % (axis, label)
    if rng.random() < 0.5:
        return DeleteUpdate(path)
    fragment = _random_tree_text(rng, depth=2 - min(2, rng.randint(0, 2)))
    return InsertUpdate(path, fragment)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_maintenance_equals_recomputation(seed):
    rng = random.Random(seed)
    doc = _random_document(rng)
    engine = MaintenanceEngine(doc)
    registered = engine.register_view(_random_view(rng), "v",
                                      strategy=rng.choice(("snowcaps", "leaves")))
    for _ in range(rng.randint(1, 3)):
        update = _random_update(rng)
        targets = update.target.evaluate(doc)
        if update.kind == "insert" and any(
            not hasattr(t, "children") for t in targets
        ):
            continue  # skip inserts into attribute/text targets
        engine.apply_update(update)
        assert registered.view.equals_fresh_evaluation(doc), (
            seed,
            update,
            registered.view.diff_against_fresh(doc),
        )
    for subset in registered.lattice.materialized_sets():
        stored = registered.lattice.relation_for(subset)
        fresh = evaluate_bindings(registered.pattern.subpattern(subset), doc)
        assert sorted(tuple(c.id for c in r) for r in stored.rows) == sorted(
            tuple(c.id for c in r) for r in fresh.rows
        ), (seed, sorted(subset))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_optimized_sequences_equal_plain(seed):
    """Reduction preserves snapshot (pre-resolved PUL) semantics.

    Section 5 operates on pending update lists, i.e., targets are
    resolved before any operation runs; both sides of the comparison
    therefore compile every statement to atomic operations on the
    original document and apply them as one batch, and the optimized
    side additionally reduces them (O1/O3/I5).

    View contents are compared with IDs canonicalized to preorder
    positions: dynamic Dewey *ordinals* are assignment-history
    dependent (an insert next to a later-cancelled sibling picks a
    different gap), so the reduced sequence is only required to
    produce the same document and the same view modulo ordinal
    encoding -- not bit-identical IDs.
    """
    from repro.updates.language import UpdateBatch
    from repro.updates.reduce import pul_to_operations, reduce_operations
    from repro.xmldom.dewey import DeweyID

    rng = random.Random(seed)
    text = serialize_fragment(_random_document(rng).root)
    updates = [_random_update(rng) for _ in range(rng.randint(2, 4))]
    view = _random_view(rng)

    def run(optimize):
        doc = parse_document(text)
        engine = MaintenanceEngine(doc)
        registered = engine.register_view(view, "v")
        operations = [
            op for update in updates for op in pul_to_operations(compute_pul(doc, update))
        ]
        if optimize:
            operations = reduce_operations(operations)
        engine.apply_batch(UpdateBatch(operations))
        assert registered.view.equals_fresh_evaluation(doc), (seed, optimize)
        position = {
            node.id: index
            for index, node in enumerate(doc.root.self_and_descendants())
        }
        content = [
            (
                tuple(
                    position[cell] if isinstance(cell, DeweyID) else cell
                    for cell in row
                ),
                count,
            )
            for row, count in registered.view.content()
        ]
        return content, serialize_fragment(doc.root)

    plain_content, plain_doc = run(False)
    opt_content, opt_doc = run(True)
    assert plain_doc == opt_doc
    assert plain_content == opt_content


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_caches_equal_fresh_recomputation(seed):
    """Memoized val/cont match cache-free recomputation after arbitrary
    insert/delete sequences, with caches warmed between updates so any
    missed invalidation would surface as a stale read."""
    rng = random.Random(seed)
    doc = _random_document(rng)
    for _ in range(rng.randint(2, 5)):
        # Warm a random sample of caches (and the value index).
        for node in doc.root.self_and_descendants():
            if rng.random() < 0.5:
                node.val
            if rng.random() < 0.2 and node.kind == "element":
                node.cont
        for label in ("a", "b"):
            doc.nodes_with_value(label, rng.choice(("x", "y", "")))
        update = _random_update(rng)
        targets = update.target.evaluate(doc)
        if update.kind == "insert" and any(
            not hasattr(t, "children") for t in targets
        ):
            continue
        apply_pul(doc, compute_pul(doc, update))
        for node in doc.root.self_and_descendants():
            assert node.val == fresh_val(node), (seed, update, node)
            if node.kind == "element":
                assert node.cont == serialize_fragment(node), (seed, update, node)
        for label in ("a", "b", "c", "d"):
            for constant in ("x", "y", "xy", ""):
                expected = [
                    n
                    for n in doc.nodes_with_label(label)
                    if fresh_val(n) == constant
                ]
                assert doc.nodes_with_value(label, constant) == expected, (
                    seed,
                    update,
                    label,
                    constant,
                )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_maintenance_identical_with_and_without_indexes(seed):
    """The indexed hot path is an optimization, not a semantics change:
    maintained extents and the updated document are byte-identical with
    the caches/value-index on and off."""

    def run(enabled):
        previous = set_hot_path_caches(enabled)
        try:
            rng = random.Random(seed)
            doc = _random_document(rng)
            engine = MaintenanceEngine(doc)
            registered = engine.register_view(_random_view(rng), "v")
            for _ in range(rng.randint(1, 3)):
                update = _random_update(rng)
                targets = update.target.evaluate(doc)
                if update.kind == "insert" and any(
                    not hasattr(t, "children") for t in targets
                ):
                    continue
                engine.apply_update(update)
            assert registered.view.equals_fresh_evaluation(doc), (seed, enabled)
            return registered.view.content(), serialize_fragment(doc.root)
        finally:
            set_hot_path_caches(previous)

    assert run(True) == run(False)