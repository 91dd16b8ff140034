"""View plans: compiled once at registration, equal to a per-call derivation.

A ``ViewPlan`` holds what maintenance derives from a view's pattern --
term lists, join orders, Δ extraction, projection, refresh anchoring.
Here the plans of the seven XMark views, eight σ variants of Q3 and a
``*`` pattern are held to the per-call derivations in
``tests/harness/reference_plans.py`` over real mixed and σ-churn
batches; a dropped and re-registered view gets a fresh plan; and the
batch's label buckets, which σ-less Δ tables share as they are, come
out of a batch unchanged.
"""

from __future__ import annotations

from repro.maintenance import delete as delete_module
from repro.maintenance import insert as insert_module
from repro.maintenance.delta import BatchCandidates, delta_from_candidates
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.plan import ViewPlan
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.workloads.churn import churn_batches
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from tests.harness import reference_plans

#: every ``increase`` value the XMark generator draws: eight Q3 variants.
SIGMA_VALUES = ("1.50", "3.00", "4.50", "6.00", "7.50", "9.00", "12.00", "15.00")


def _star_pattern() -> Pattern:
    """``//bidder{ID}/*{ID,val}``: a wildcard step under a named node."""
    root = PatternNode("bidder", axis="desc", store_id=True)
    root.add_child(PatternNode("*", axis="child", store_id=True, store_val=True))
    return Pattern(root)


def _q3_variant(amount: str) -> Pattern:
    pattern = view_pattern("Q3")
    for node in pattern.nodes():
        if node.value_pred is not None:
            node.value_pred = amount
    return pattern


def _engine(document, strategy: str = "snowcaps") -> MaintenanceEngine:
    engine = MaintenanceEngine(document)
    for name in sorted(VIEW_TEXTS):
        engine.register_view(view_pattern(name), name, strategy=strategy)
    for amount in SIGMA_VALUES:
        engine.register_view(_q3_variant(amount), "Q3_%s" % amount, strategy=strategy)
    engine.register_view(_star_pattern(), "star", strategy=strategy)
    return engine


def _batches(document, seed: int):
    """Mixed Appendix-A batches, then σ-churn batches over the Q3 values."""
    for round_index in range(3):
        yield statement_stream(document, 16, seed=seed * 7 + round_index, insert_ratio=0.5)
    yield from churn_batches(document, 4, batch_size=5, seed=seed, sigma_values=SIGMA_VALUES)


def _assert_terms(plan: ViewPlan) -> None:
    pattern = plan.pattern
    assert list(plan.insert_terms) == reference_plans.insert_terms(pattern), pattern
    for prune in (False, True):
        assert list(plan.delete_terms(prune)) == reference_plans.delete_terms(
            pattern, prune
        ), (pattern, prune)


def test_plans_hold_the_per_call_terms_and_join_orders():
    document = generate_document(scale=1)
    engine = _engine(document)
    assert len(engine.views) == 7 + 8 + 1
    orders = []
    join_order = ViewPlan.join_order

    def recorded(self, delta_set, seed):
        order = join_order(self, delta_set, seed)
        orders.append((self, delta_set, seed, order))
        return order

    ViewPlan.join_order = recorded
    try:
        for batch in _batches(document, seed=5):
            engine.apply_batch(batch)
    finally:
        ViewPlan.join_order = join_order
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name
        _assert_terms(registered.plan)
        for subset in registered.lattice.materialized_sets():
            _assert_terms(registered.plan.sub_plan(subset))
    seeds = set()
    for plan, delta_set, seed, order in orders:
        assert order == reference_plans.join_order(plan.pattern, delta_set, seed)
        assert plan.join_order(delta_set, seed) is order  # memoized
        seeds.add(len(seed) > 1)
    # Both kinds of start occur: a Δ table and a stored snowcap.
    assert seeds == {False, True}, seeds
    covered = {name for name, registered in engine.views.items() if any(
        plan is registered.plan for plan, *_ in orders
    )}
    assert covered >= set(VIEW_TEXTS) | {"star"}, covered
    assert len(covered) >= 12, covered  # and most σ variants


def test_a_re_registered_view_gets_a_fresh_plan():
    document = generate_document(scale=1)
    engine = _engine(document, strategy="leaves")
    old = engine.views["Q3_4.50"]
    engine.unregister_view("Q3_4.50")
    changed = _q3_variant("7.50")
    new = engine.register_view(changed, "Q3_4.50")
    assert new.plan is not old.plan
    assert new.plan.pattern is changed
    assert {node.value_pred for node in new.plan.sigma_nodes} == {"7.50"}
    for batch in _batches(document, seed=2):
        engine.apply_batch(batch)
    assert new.view.content() == engine.views["Q3_7.50"].view.content()
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name


def test_shared_label_buckets_come_out_of_a_batch_unchanged():
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document)
    for name in sorted(VIEW_TEXTS):
        engine.register_view(view_pattern(name), name)
    made = []
    shared = []
    init = BatchCandidates.__init__

    def recorded_init(self, nodes):
        init(self, nodes)
        made.append((self, {label: list(bucket) for label, bucket in self.by_label.items()}))

    def recorded_extract(plan, candidates, sign):
        tables = delta_from_candidates(plan, candidates, sign)
        shared.extend(
            name
            for name, label, _sigma in plan.extraction
            if label in candidates.by_label
            and tables.nodes(name) is candidates.by_label[label]
        )
        return tables

    sides = (delete_module, insert_module)
    BatchCandidates.__init__ = recorded_init
    for module in sides:
        module.delta_from_candidates = recorded_extract
    try:
        engine.apply_batch(statement_stream(document, 32, seed=11, insert_ratio=0.5))
    finally:
        BatchCandidates.__init__ = init
        for module in sides:
            module.delta_from_candidates = delta_from_candidates
    assert shared  # σ-less Δ tables really are the batch's own buckets
    assert len(made) == 2 and all(snapshot for _candidates, snapshot in made)
    for candidates, snapshot in made:
        assert candidates.by_label == snapshot
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name

