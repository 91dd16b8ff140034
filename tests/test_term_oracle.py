"""Δ-first ≡ top-down: every term the engine evaluates, against the
evaluator it replaced.

``maintenance.terms.evaluate_term`` starts at a term's snowcap seed or
smallest Δ table and reaches canonical relations by Dewey probes; the
top-down evaluator it replaced (``tests/harness/reference_terms.py``)
joined whole relations from the pattern root.  Here every Δ+, Δ− and
σ-flip term of real batches -- churned XMark documents under the seven
XMark views and σ variants of Q3, random trees under random views and
a branching pattern with a ``*`` node and a child-axis root -- is
evaluated by both, with the engine's lattice and without one, and the
rows must agree as multisets of binding-ID tuples (row order is not
contract: lattices are bags, extents sorted stores).
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maintenance import delete as delete_module
from repro.maintenance import insert as insert_module
from repro.maintenance import repair as repair_module
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.terms import evaluate_term
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.updates.language import DeleteUpdate, InsertUpdate, ResolvedInsertUpdate
from repro.updates.pul import BatchApplication
from repro.workloads.churn import churn_batches
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom.parser import parse_document, parse_fragment
from tests.harness.reference_terms import scan_evaluate_term

SIGMA_VALUES = ("4.50", "100.00", "150.00")


def _bag(relation) -> Counter:
    return Counter(tuple(cell.id for cell in row) for row in relation.rows)


@contextmanager
def _terms_checked(seen: Counter):
    """Hold every ``evaluate_term`` call the maintenance modules make
    to the top-down oracle; ``seen`` counts (kind, seeded?, non-empty?)."""

    def checked(kind):
        def evaluate(pattern, term, r_sources, deltas, lattice=None):
            names = tuple(pattern.node_names())
            results = []
            for given_lattice in (lattice, None) if lattice is not None else (None,):
                rows = evaluate_term(pattern, term, r_sources, deltas, given_lattice)
                expected = scan_evaluate_term(
                    pattern, term, r_sources, deltas, given_lattice
                )
                assert rows.schema == names == expected.schema
                assert _bag(rows) == _bag(expected), (kind, term, given_lattice)
                results.append(rows)
            seeded = (
                lattice is not None
                and lattice.relation_for(term.r_set(pattern)) is not None
            )
            result = results[0]  # evaluated as the engine asked
            seen[(kind, "seeded" if seeded else "unseeded", bool(result.rows))] += 1
            return result

        return evaluate

    patched = (
        (insert_module, checked("Δ+")),
        (delete_module, checked("Δ-")),
        (repair_module, checked("flip")),
    )
    for module, wrapper in patched:
        module.evaluate_term = wrapper
    try:
        yield
    finally:
        for module, _wrapper in patched:
            module.evaluate_term = evaluate_term


# -- churned XMark × XMark views + σ views × mixed and σ-churn batches -----------


def _xmark_terms_seen(seed: int) -> Counter:
    document = generate_document(scale=1)
    warmup = statement_stream(document, 16, seed=seed, insert_ratio=0.6)
    BatchApplication(document, warmup).apply()  # dynamic ordinals, retired IDs
    engine = MaintenanceEngine(document)
    # Snowcaps, so that terms come both seeded and unseeded.
    registered = {
        name: engine.register_view(view_pattern(name), name, strategy="snowcaps")
        for name in sorted(VIEW_TEXTS)
    }
    for amount in SIGMA_VALUES:
        pattern = view_pattern("Q3")
        for node in pattern.nodes():
            if node.value_pred is not None:
                node.value_pred = amount
        name = "Q3_%s" % amount
        registered[name] = engine.register_view(pattern, name, strategy="snowcaps")
    seen: Counter = Counter()
    with _terms_checked(seen):
        for round_index in range(3):
            engine.apply_batch(
                statement_stream(
                    document, 16, seed=seed * 7 + round_index, insert_ratio=0.5
                )
            )
        for batch in churn_batches(
            document, 4, batch_size=5, seed=seed, sigma_values=SIGMA_VALUES
        ):
            engine.apply_batch(batch)
    for name, view in registered.items():
        assert view.view.equals_fresh_evaluation(document), name
    return seen


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_delta_first_terms_match_top_down_on_xmark(seed):
    _xmark_terms_seen(seed)


def test_term_oracle_sees_every_kind_of_term():
    # The property above is not vacuous: insertion, deletion and flip
    # terms, seeded by a snowcap and not, with rows to compare.
    seen = _xmark_terms_seen(seed=3)
    for kind in ("Δ+", "Δ-"):
        for seeding in ("seeded", "unseeded"):
            assert seen[(kind, seeding, True)], (kind, seeding, seen)
    assert seen[("flip", "unseeded", True)], seen


# -- random trees × a branching pattern and random views × mixed batches ----------

_LABELS = "abc"


def _tree_text(rng, depth=0):
    # A nested ``r`` now and then: the child-axis root must not bind it.
    label = rng.choice(_LABELS + "r" if depth else _LABELS)
    inner = ""
    if depth < 3:
        inner = "".join(_tree_text(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if not inner and rng.random() < 0.4:
        inner = rng.choice(("x", "y"))
    return "<%s>%s</%s>" % (label, inner, label)


def _branching_pattern() -> Pattern:
    """``/r[//a = 'x']//*/b``: a child-axis root anchored at the
    document root, a wildcard step, a child-axis leaf and a σ branch."""
    root = PatternNode("r", axis="child", store_id=True)
    star = root.add_child(PatternNode("*", axis="desc", store_id=True))
    star.add_child(PatternNode("b", axis="child", store_id=True, store_val=True))
    root.add_child(PatternNode("a", axis="desc", value_pred="x", store_id=True))
    return Pattern(root)


def _random_pattern(rng) -> Pattern:
    root = PatternNode(rng.choice(_LABELS + "r*"), axis="desc", store_id=True)
    nodes = [root]
    for _ in range(rng.randint(1, 3)):
        child = PatternNode(
            rng.choice(_LABELS + "*"),
            axis=rng.choice(("child", "desc")),
            value_pred="x" if rng.random() < 0.25 else None,
            store_id=True,
        )
        rng.choice(nodes).add_child(child)
        nodes.append(child)
    rng.choice(nodes).store_val = True
    return Pattern(root)


def _random_statement(rng, document):
    label = rng.choice(_LABELS)
    if rng.random() < 0.4:
        return DeleteUpdate("//%s" % label)
    fragment = _tree_text(rng, depth=rng.randint(1, 3))
    if document.size_in_nodes() < 40:
        return InsertUpdate("//%s" % label, fragment)  # may nest in-batch
    # A path insert multiplies a grown document; pick two targets.
    nodes = document.nodes_with_label(label)
    targets = rng.sample(nodes, min(2, len(nodes)))
    return ResolvedInsertUpdate([n.id for n in targets], parse_fragment(fragment))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_delta_first_terms_match_top_down_on_random_trees(seed):
    rng = random.Random(seed)
    document = parse_document(
        "<r>%s</r>" % "".join(_tree_text(rng) for _ in range(rng.randint(1, 3)))
    )
    engine = MaintenanceEngine(document)
    views = [
        engine.register_view(_branching_pattern(), "branching", strategy="snowcaps"),
        engine.register_view(_random_pattern(rng), "random", strategy="snowcaps"),
        engine.register_view(_random_pattern(rng), "leaves", strategy="leaves"),
    ]
    with _terms_checked(Counter()):
        for _ in range(3):
            engine.apply_batch(
                [_random_statement(rng, document) for _ in range(rng.randint(1, 4))]
            )
    for registered in views:
        assert registered.view.equals_fresh_evaluation(document), registered.view.name
