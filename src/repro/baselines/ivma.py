"""IVMA: node-at-a-time view maintenance [Sawires et al. 2005].

The closest competitor in the paper (Section 6.6) maintains XPath views
one node at a time: every inserted (or deleted) node triggers a
separate propagation call.  A statement inserting a five-node tree thus
costs five IVMA calls, versus one bulk PINT call -- the source of the
order-of-magnitude gap in Figure 28.

As in the paper, the re-implementation lives inside our own framework
(the original used a relational back-end): per-node propagation reuses
the same structural-join primitives, so the comparison isolates the
node-at-a-time vs. set-at-a-time difference rather than engine
constants.

Correctness contract: processing nodes in document order (insertions)
or reverse document order (deletions), each call counts exactly the
embeddings whose *newest* node is the one in hand, so each new/doomed
embedding is counted once overall.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Set

from repro.maintenance.delta import DeltaTables
from repro.maintenance.plan import ViewPlan
from repro.maintenance.terms import evaluate_term, flip_repair_term
from repro.pattern.evaluate import Sources, filter_by_predicate, project_bindings
from repro.pattern.tree_pattern import Pattern
from repro.views.view import MaterializedView
from repro.xmldom.dewey import DeweyID
from repro.xmldom.index import KeyedRows
from repro.xmldom.model import Document, Node


class IVMAMaintainer:
    """Node-at-a-time maintenance of one materialized view."""

    def __init__(self, view: MaterializedView, document: Document):
        self.view = view
        self.document = document
        self.plan = ViewPlan(view.pattern)
        self.calls = 0

    # -- single-node propagation -----------------------------------------

    def _sources_visible(self, pattern: Pattern, hidden_ids: Set[DeweyID]) -> Sources:
        sources: Sources = {}
        for node in pattern.nodes():
            if node.label == "*":
                candidates: List[Node] = sorted(
                    self.document.all_elements(), key=lambda n: n.id.sort_key
                )
            else:
                candidates = self.document.nodes_with_label(node.label)
            rows = filter_by_predicate(candidates, node)
            if hidden_ids:
                rows = [n for n in rows if n.id not in hidden_ids]
            sources[node.name] = KeyedRows.of(rows)
        return sources

    def _bindings_through(
        self, pattern: Pattern, node: Node, sources: Sources
    ) -> Dict[tuple, tuple]:
        """Embeddings using ``node`` at ≥ 1 pattern position (deduped)."""
        bindings: Dict[tuple, tuple] = {}
        for pnode in pattern.nodes():
            if not filter_by_predicate([node], pnode):
                continue
            deltas = DeltaTables(pattern, {pnode.name: [node]}, "+")
            term = flip_repair_term(pnode.name)
            relation = evaluate_term(self.plan, term, sources, deltas, lattice=None)
            for row in relation.rows:
                key = tuple(cell.id for cell in row)
                bindings.setdefault(key, row)
        return bindings

    # -- statement-level drivers --------------------------------------------

    def propagate_insert_nodes(self, inserted_roots: Sequence[Node]) -> float:
        """One IVMA call per inserted node, in document order.

        ``inserted_roots`` are already applied to the document (with
        IDs); not-yet-processed nodes are hidden from the sources so
        each call sees exactly the prefix state.
        """
        pattern = self.view.pattern
        new_nodes: List[Node] = []
        for root in inserted_roots:
            new_nodes.extend(root.self_and_descendants())
        new_nodes.sort(key=lambda n: n.id.sort_key)
        pending: Set[DeweyID] = {n.id for n in new_nodes}
        started = time.perf_counter()
        for node in new_nodes:
            pending.discard(node.id)
            self.calls += 1
            sources = self._sources_visible(pattern, hidden_ids=pending)
            bindings = self._bindings_through(pattern, node, sources)
            if not bindings:
                continue
            from repro.algebra.relation import Relation

            relation = Relation([n.name for n in pattern.nodes()], bindings.values())
            projected = project_bindings(self.plan.projection, relation)
            for row in projected.rows:
                self.view.add(row, 1)
        return time.perf_counter() - started

    def propagate_delete_nodes(self, doomed: Sequence[Node]) -> float:
        """One IVMA call per doomed node, in reverse document order.

        Runs *before* the document delete (sources still see the old
        state); already-processed nodes are hidden so each embedding is
        removed exactly once.
        """
        pattern = self.view.pattern
        nodes = sorted(doomed, key=lambda n: n.id.sort_key, reverse=True)
        hidden: Set[DeweyID] = set()
        started = time.perf_counter()
        for node in nodes:
            self.calls += 1
            sources = self._sources_visible(pattern, hidden_ids=hidden)
            bindings = self._bindings_through(pattern, node, sources)
            hidden.add(node.id)
            if not bindings:
                continue
            from repro.algebra.relation import Relation

            relation = Relation([n.name for n in pattern.nodes()], bindings.values())
            projected = project_bindings(self.plan.projection, relation)
            for row in projected.rows:
                self.view.decrement(row, 1)
        return time.perf_counter() - started
