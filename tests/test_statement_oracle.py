"""``apply_update`` (a batch of one) ≡ the per-statement pipeline.

The paper's per-statement algorithms (PINT/MT, PDDT/MT) live on only as
an oracle in ``tests/harness/reference_statement_path.py``.  For random
XMark insert/delete streams over the seven XMark views plus two extra
σ views, one document is maintained through that pipeline and a twin
through ``MaintenanceEngine.apply_update``.  After every statement the
extents must be byte-identical and every lattice relation equal as a
multiset of binding-ID tuples; at the end of each stream both sides
must equal fresh evaluation.

σ flips are the one intended difference in *how* the two get there
(the oracle recomputes the view, ``apply_update`` repairs it in place),
so the churn streams, which are built to flip σ values, are included.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maintenance.engine import MaintenanceEngine
from repro.workloads.churn import churn_batches
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from tests.harness.reference_statement_path import apply_statement

SIGMA_VALUES = ("100.00", "150.00")


def _patterns():
    patterns = {name: view_pattern(name) for name in sorted(VIEW_TEXTS)}
    for amount in SIGMA_VALUES:
        pattern = view_pattern("Q3")
        for node in pattern.nodes():
            if node.value_pred is not None:
                node.value_pred = amount
        patterns["Q3_%s" % amount] = pattern
    return patterns


def _engine():
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document)
    for name, pattern in _patterns().items():
        engine.register_view(pattern, name)
    return engine


def _lattice_bags(registered):
    return {
        subset: Counter(
            tuple(cell.id for cell in row)
            for row in registered.lattice.relation_for(subset).rows
        )
        for subset in registered.lattice.materialized_sets()
    }


def _stream(kind: str, seed: int):
    document = generate_document(scale=1)
    if kind == "stream":
        return statement_stream(document, 12, seed=seed, insert_ratio=0.5)
    batches = churn_batches(
        document, 3, batch_size=4, seed=seed, sigma_values=("4.50",) + SIGMA_VALUES
    )
    return [statement for batch in batches for statement in batch]


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(("stream", "churn")),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_apply_update_matches_the_per_statement_pipeline(kind, seed):
    reference = _engine()
    engine = _engine()
    for position, statement in enumerate(_stream(kind, seed)):
        apply_statement(reference, statement)
        engine.apply_update(statement)
        for name, expected in reference.views.items():
            actual = engine.views[name]
            context = (kind, seed, position, statement.name, name)
            assert actual.view.content() == expected.view.content(), context
            assert _lattice_bags(actual) == _lattice_bags(expected), context
    for name in reference.views:
        assert reference.views[name].view.equals_fresh_evaluation(reference.document)
        assert engine.views[name].view.equals_fresh_evaluation(engine.document), name
