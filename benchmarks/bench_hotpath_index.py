"""Hot-path index regression benchmark (not a paper figure).

Measures end-to-end update propagation -- document apply + maintenance
of σ-predicate views -- on a 10k+ node XMark document, against a
*seed-path* configuration that reinstates the original quadratic
behaviour: per-node key-list rebuilds in the canonical-relation index
(``_SeedLabelIndex``) and uncached ``val``/``cont``/σ evaluation
(``_uncached_values``), both owned by this benchmark.  The indexed path must be
at least ``MIN_SPEEDUP``× faster, and every maintained view must still
equal fresh re-evaluation after the full update sequence.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager, nullcontext

from repro.maintenance.engine import MaintenanceEngine
from repro.workloads.queries import view_pattern
from repro.workloads.updates import delete_variant, insert_update
from repro.workloads.xmark import generate_document
from repro.xmldom.index import KeyedRows
from repro.xmldom.model import Document, ElementNode, fresh_val
from repro.xmldom.serializer import serialize_fragment

SCALE = 6  # ~10.8k nodes, comfortably past the 10k floor
VIEWS = ("Q1", "Q3", "Q4")  # Q3/Q4 carry σ value predicates
MIN_SPEEDUP = 5.0

#: update-heavy sequence: bulk inserts into bidders/people, then a
#: sweeping delete, then more inserts (names are Appendix A entries).
UPDATE_SEQUENCE = (
    ("insert", "X2_L"),
    ("insert", "B3_LB"),
    ("insert", "X1_L"),
    ("delete", "X2_L"),
    ("insert", "X3_A"),
    ("insert", "A6_A"),
)


class _SeedLabelIndex:
    """The seed's canonical-relation index, kept verbatim for baseline
    measurement: ``add``/``remove`` rebuild the full per-label key list
    on every call (the quadratic hot path this PR removes)."""

    def __init__(self, rows):
        self._by_label = rows

    def labels(self):
        return iter(self._by_label)

    def nodes(self, label):
        return self._by_label.get(label, [])

    def add(self, node):
        row = self._by_label.setdefault(node.label, [])
        keys = [n.id for n in row]
        position = bisect.bisect(keys, node.id)
        row.insert(position, node)

    def remove(self, node):
        row = self._by_label.get(node.label)
        if not row:
            return
        keys = [n.id for n in row]
        position = bisect.bisect_left(keys, node.id)
        if position < len(row) and row[position] is node:
            row.pop(position)

    def copy_label(self, label):
        return list(self._by_label.get(label, []))

    # The subtree mutators the document calls (a subtree's nodes
    # grouped into per-label runs), answered the seed's way: one add /
    # remove per node.

    def add_runs(self, runs):
        for run in runs.values():
            for node in run.nodes:
                self.add(node)

    def remove_runs(self, runs):
        for run in runs.values():
            for node in run:
                self.remove(node)

    # The probe entry points LabelIndex has grown since, answered the
    # seed's way: a pass over the whole row (and a key list rebuilt
    # per call).

    def keyed(self, label):
        return KeyedRows.of(self._by_label.get(label, ()))

    def descendants(self, label, ancestor_id):
        return [
            n for n in self._by_label.get(label, ()) if ancestor_id.is_ancestor_of(n.id)
        ]


@contextmanager
def _uncached_values():
    """The seed's uncached reads, patched in for the seed run:
    ``ElementNode.val`` / ``cont`` re-derive the whole subtree on every
    read (``fresh_val`` / ``serialize_fragment``), and a σ-constant
    lookup filters the label's whole row instead of reading the value
    index."""

    def keyed_value(document, label, constant):
        if label == "*":
            candidates = sorted(document.all_elements(), key=lambda n: n.id.sort_key)
        else:
            candidates = document._index.nodes(label)
        return KeyedRows.of(n for n in candidates if n.val == constant)

    saved = (ElementNode.val, ElementNode.cont, Document.keyed_value)
    ElementNode.val = property(fresh_val)
    ElementNode.cont = property(serialize_fragment)
    Document.keyed_value = keyed_value
    try:
        yield
    finally:
        ElementNode.val, ElementNode.cont, Document.keyed_value = saved


def _statements():
    return [
        insert_update(name) if kind == "insert" else delete_variant(name)
        for kind, name in UPDATE_SEQUENCE
    ]


def _build_engine(seed_path: bool) -> MaintenanceEngine:
    document = generate_document(scale=SCALE)
    assert document.size_in_nodes() >= 10_000
    if seed_path:
        from repro.xmldom.index import ValueIndex

        rows = {label: list(document.nodes_with_label(label)) for label in document.labels()}
        document._index = _SeedLabelIndex(rows)
        # Rebind the value index to the swapped-in index so lookups
        # could never read the orphaned original (the seed run reads no
        # value index, but don't leave the trap armed).
        document._values = ValueIndex(document._index)
    engine = MaintenanceEngine(document)
    for name in VIEWS:
        engine.register_view(view_pattern(name), name)
    return engine


def _propagate_all(engine: MaintenanceEngine) -> float:
    started = time.perf_counter()
    for statement in _statements():
        engine.apply_update(statement)
    return time.perf_counter() - started


def _run(seed_path: bool) -> float:
    with _uncached_values() if seed_path else nullcontext():
        engine = _build_engine(seed_path)
        elapsed = _propagate_all(engine)
        for name in VIEWS:
            assert engine.views[name].view.equals_fresh_evaluation(engine.document), (
                "maintained view %s diverged (seed_path=%s)" % (name, seed_path)
            )
        return elapsed


def test_hotpath_index_speedup(save_table):
    indexed = min(_run(seed_path=False) for _ in range(2))
    seed = _run(seed_path=True)
    speedup = seed / indexed
    save_table(
        "hotpath_index.txt",
        "Hot-path index: update propagation, scale %d (%d statements)\n"
        "seed-path %.3fs  indexed %.3fs  speedup %.1fx (floor %.1fx)"
        % (SCALE, len(UPDATE_SEQUENCE), seed, indexed, speedup, MIN_SPEEDUP),
    )
    assert speedup >= MIN_SPEEDUP, (
        "hot-path indexing regressed: %.1fx < %.1fx (seed %.3fs, indexed %.3fs)"
        % (speedup, MIN_SPEEDUP, seed, indexed)
    )


def test_hotpath_representative_propagation(benchmark):
    engine = _build_engine(seed_path=False)
    statement = insert_update("X2_L")
    benchmark.pedantic(lambda: engine.apply_update(statement), rounds=3)
    for name in VIEWS:
        assert engine.views[name].view.equals_fresh_evaluation(engine.document)
