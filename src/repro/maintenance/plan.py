"""View plans: what maintenance derives from a view's pattern, derived once.

Everything below is a function of the pattern alone, fixed when the view
is defined: the surviving Δ-sets are its descendant-closed node sets,
whose complements are the snowcaps (Props. 3.3 / 3.12); which
canonical relation a term probes next depends only on its Δ-set and on
where the pipeline starts; which nodes a Δ table σ-filters, what a row
projects, which labels a batch can touch and how the val/cont refresh
anchors its reads are all read off the pattern's nodes.  A
:class:`ViewPlan` holds that state.  ``register_view`` / ``adopt_view``
build one per view and keep it on the registration (forked session
replicas and migrations reuse the registration, hence the plan); the
baselines, the experiment harness and fresh evaluation build one from
their pattern.  No batch re-derives any of it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.maintenance.terms import (
    NodeSet,
    Term,
    expand_insert_terms,
    signed_delete_terms,
)
from repro.pattern.evaluate import ProjectionPlan
from repro.pattern.tree_pattern import Pattern, PatternNode

#: One step of a term's join pipeline: ``(name, from Δ, bound child
#: name or None, parent name, label, axis)`` -- the pattern node joined
#: in, whether it reads its Δ table (else its canonical relation), the
#: already-bound child it is reached upward from (None: it hangs below
#: its bound parent), and the structural axis of the edge crossed.
JoinStep = Tuple[str, bool, Optional[str], Optional[str], str, str]


def _next_neighbor(
    pending: Sequence[PatternNode], bound, delta_set: NodeSet
) -> Tuple[PatternNode, Optional[PatternNode]]:
    """The next pattern node to join in, with its bound child when it
    is reached upward (None: it hangs below its bound parent).

    Δ neighbours go first (small tables, hash-joined), then canonical
    relations reached upward (at most one match per ancestor), then
    those reached downward (the only step that can fan out); preorder
    breaks ties, so the order is a function of the pattern, the term
    and the seed alone.
    """
    best = None
    for node in pending:
        if node.parent is not None and node.parent.name in bound:
            below: Optional[PatternNode] = None
        else:
            below = next((c for c in node.children if c.name in bound), None)
            if below is None:
                continue  # not adjacent to the bound part yet
        if node.name in delta_set:
            rank = 0
        elif below is not None:
            rank = 1
        else:
            rank = 2
        if best is None or rank < best[0]:
            best = (rank, node, below)
    assert best is not None  # a pattern is connected
    return best[1], best[2]


class ViewPlan:
    """The pattern-derived state of one view's maintenance.

    * ``insert_terms`` / :meth:`delete_terms` -- the developed term
      lists (Props. 3.3 / 4.2, signed per Prop. 4.3(i));
    * ``labels`` / ``wildcard`` -- the pattern's label set, which
      decides whether a batch's candidates can reach a Δ table
      (:func:`~repro.maintenance.delta.touched_labels`);
    * ``extraction`` -- per pattern node ``(name, label, σ node or
      None)``: a node with no σ and no ``*`` shares the batch's label
      bucket as it is, any other is filtered;
    * ``projection`` -- π (:class:`~repro.pattern.evaluate.ProjectionPlan`);
    * ``content_nodes``, ``refresh`` and ``refresh_columns`` -- per
      content node, where the val/cont refresh anchors its reads
      (``(label, anchored at the node itself, meet label)``, see
      :func:`~repro.maintenance.insert.refresh_anchors`) and its
      ``(ID, val, cont)`` return-column indices (see
      :func:`~repro.maintenance.insert.collect_attribute_refreshes`);
    * ``sigma_nodes``, ``val_labels`` -- the σ watchlist nodes and the
      labels whose val the view filters on, for the engine's flip and
      dirty-snapshot capture;
    * memos filled on first use, each bounded by the pattern: the join
      order per (Δ-set, seed schema) (:meth:`join_order`), the Prop.
      3.8 / 4.7 boundary edges per Δ-set, the signed deletion terms
      and a plan per snowcap sub-pattern (:meth:`sub_plan`).

    ``Pattern`` accessors keep returning fresh lists; a plan holds
    tuples.  A plan assumes its pattern is not edited afterwards.
    """

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        nodes = tuple(pattern.nodes())
        self.nodes = nodes
        self.names: Tuple[str, ...] = tuple(node.name for node in nodes)
        self._all_names = frozenset(self.names)
        #: a child-axis root must bind the document root.
        self.root_at_document_root = nodes[0].axis == "child"
        self.insert_terms: Tuple[Term, ...] = tuple(expand_insert_terms(pattern))
        self._delete_terms: Dict[bool, Tuple[Term, ...]] = {}
        self.labels: FrozenSet[str] = frozenset(node.label for node in nodes)
        self.wildcard = "*" in self.labels
        self.extraction: Tuple[Tuple[str, str, Optional[PatternNode]], ...] = tuple(
            (
                node.name,
                node.label,
                None if node.value_pred is None and node.label != "*" else node,
            )
            for node in nodes
        )
        self.projection = ProjectionPlan(pattern)
        self.sigma_nodes: Tuple[PatternNode, ...] = tuple(
            node for node in nodes if node.value_pred is not None
        )
        self.val_labels = frozenset(node.label for node in self.sigma_nodes)
        self.content_nodes: Tuple[PatternNode, ...] = tuple(pattern.content_nodes())
        self.refresh, self.refresh_columns = self._refresh_probes()
        self._join_orders: Dict[Tuple[NodeSet, Tuple[str, ...]], Tuple[JoinStep, ...]] = {}
        self._boundaries: Dict[NodeSet, Tuple[Tuple[str, str], ...]] = {}
        self._sub_plans: Dict[NodeSet, "ViewPlan"] = {}

    def __repr__(self) -> str:
        return "ViewPlan(%s)" % self.pattern.to_string()

    # -- terms ----------------------------------------------------------------

    def delete_terms(self, prune_even_terms: bool) -> Tuple[Term, ...]:
        """The developed deletion terms, without the even (add-back)
        ones when ``prune_even_terms`` (Prop. 4.3(ii)); signed from the
        insert terms' Δ-sets on first use (a snowcap sub-plan or a
        baseline never asks)."""
        terms = self._delete_terms.get(prune_even_terms)
        if terms is None:
            terms = self._delete_terms[prune_even_terms] = tuple(
                signed_delete_terms(
                    [term.delta_set for term in self.insert_terms], prune_even_terms
                )
            )
        return terms

    def r_set(self, delta_set: NodeSet) -> NodeSet:
        """A term's R-part: the pattern nodes outside its Δ-set."""
        return self._all_names - delta_set

    def boundary(self, delta_set: NodeSet) -> Tuple[Tuple[str, str], ...]:
        """Props. 3.8 / 4.7's ``(R-side parent label, Δ-side child
        name)`` per boundary edge of a term (a ``*`` parent never
        prunes, so it is left out)."""
        edges = self._boundaries.get(delta_set)
        if edges is None:
            edges = self._boundaries[delta_set] = tuple(
                (parent.label, child.name)
                for parent, child in self.pattern.edges()
                if parent.name not in delta_set
                and child.name in delta_set
                and parent.label != "*"
            )
        return edges

    # -- term evaluation ------------------------------------------------------

    def join_order(self, delta_set: NodeSet, seed: Tuple[str, ...]) -> Tuple[JoinStep, ...]:
        """The order a term with ``delta_set`` joins in the pattern
        nodes outside ``seed`` (the schema it starts from: one Δ table
        or a stored snowcap), memoized per ``(delta_set, seed)``."""
        key = (delta_set, seed)
        order = self._join_orders.get(key)
        if order is None:
            order = self._join_orders[key] = self._derive_join_order(delta_set, seed)
        return order

    def _derive_join_order(
        self, delta_set: NodeSet, seed: Tuple[str, ...]
    ) -> Tuple[JoinStep, ...]:
        bound = set(seed)
        pending = [node for node in self.nodes if node.name not in bound]
        steps: List[JoinStep] = []
        while pending:
            node, below = _next_neighbor(pending, bound, delta_set)
            pending.remove(node)
            lower = node if below is None else below
            steps.append(
                (
                    node.name,
                    node.name in delta_set,
                    None if below is None else below.name,
                    None if node.parent is None else node.parent.name,
                    node.label,
                    "parent" if lower.axis == "child" else "ancestor",
                )
            )
            bound.add(node.name)
        return tuple(steps)

    def sub_plan(self, subset: NodeSet) -> "ViewPlan":
        """The plan of the snowcap sub-pattern on ``subset``."""
        plan = self._sub_plans.get(subset)
        if plan is None:
            plan = self._sub_plans[subset] = ViewPlan(self.pattern.subpattern(subset))
        return plan

    # -- the val/cont refresh -------------------------------------------------

    def _refresh_probes(self) -> Tuple[Tuple[tuple, ...], Tuple[tuple, ...]]:
        """Per content node ``(label, anchored at itself, meet label)``
        and its ``(ID, val or None, cont or None)`` column indices:
        ``meet`` is the lowest common pattern ancestor of the node and
        the node leading column 0."""
        if not self.content_nodes:
            return (), ()
        columns = self.pattern.return_columns()
        lead_chain = []
        walk: Optional[PatternNode] = self.pattern.node(columns[0][0])
        while walk is not None:
            lead_chain.append(walk)
            walk = walk.parent
        column_index = {pair: i for i, pair in enumerate(columns)}
        anchors = []
        probes = []
        for node in self.content_nodes:
            meet = node
            while meet not in lead_chain:
                meet = meet.parent  # type: ignore[assignment]
            anchors.append((node.label, meet is node, meet.label))
            probes.append(
                (
                    column_index.get((node.name, "ID")),
                    column_index[(node.name, "val")] if node.store_val else None,
                    column_index[(node.name, "cont")] if node.store_cont else None,
                )
            )
        return tuple(anchors), tuple(probes)
