"""The sub-pattern lattice and its snowcaps (Section 3.5).

The lattice of a view ``v`` is an AND-OR DAG over the sub-tree patterns
of ``v``: a pattern-labeled node per connected sub-pattern, an or-node
above each sub-pattern reachable in several ways, and a join node per
way of assembling a sub-pattern from two smaller ones (Figure 6).

A **snowcap** (Definition 3.11) is a sub-pattern containing, with every
node, its parent -- i.e., a prefix-closed subtree hanging from the view
root ("snow covers mountains from the top downward").  Prop. 3.12 shows
snowcaps are exactly the R-parts of insertion terms that survive
update-semantics pruning, hence the only sub-patterns worth
materializing.

Two materialization strategies are implemented, matching Section 6.7:

* ``"snowcaps"`` -- materialize one snowcap per size (a nested chain,
  "picking the first at each level" like the paper), plus the leaves
  which the document's canonical relations already provide;
* ``"leaves"`` -- materialize nothing; R-parts are recomputed on the
  fly from canonical relations at maintenance time.

``"leaves"`` is the default (:data:`DEFAULT_STRATEGY`).  The paper
materializes snowcaps because its insertion terms join R-parts top-down;
here a term starts at its Δ table and reaches R by Dewey probes into the
canonical relations (:mod:`repro.maintenance.terms`), so an R-part costs
O(|Δ|·depth·log|R|) whether or not a snowcap holds it, while keeping the
snowcaps current costs a lattice pass per batch and a whole evaluation
per snowcap at registration.  Measured on the e2e ``delete_mix``
workload (2-CPU host, Python 3.11, 10 s runs, snowcaps → leaves):
median of 10 alternating pairs 3179 → 3580 stmts/s (+12.6%, leaves
faster in 10 of 10), ``setup_s`` 0.28 → 0.17 s; traced, three pairs on
one seed, ``views.lattice_pass_s`` 0.25–0.28 → 0.001 s and
``maintenance.propagation_s`` 1.06–1.21 → 0.67–0.93 s for the same
3200 statements.  ``"snowcaps"`` stays the paper-reproduction mode (Figs
29–32 and the experiment harness pass it explicitly) and keeps its
whole in-memory upkeep path: the lattice pass and σ-flip repair.

A lattice is derived state, a function of the document: it is never
persisted and never crosses a process boundary.  Durable reopen, a
session replica adopting a migrated view and a session owner taking a
view back each rebuild it with :meth:`SnowcapLattice.materialize` from
their own document.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algebra.relation import Relation
from repro.pattern.evaluate import Sources, evaluate_bindings
from repro.pattern.tree_pattern import Pattern
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Document, Node

NodeSet = FrozenSet[str]

#: The strategy a lattice gets when none is named (see the module
#: docstring for why it is ``"leaves"``).
DEFAULT_STRATEGY = "leaves"


def _probe(index: dict, ids: Iterable[DeweyID], doomed: Set[tuple]) -> None:
    """Collect the rows an ``ID -> rows`` index holds for ``ids``."""
    for node_id in ids:
        rows = index.get(node_id)
        if rows:
            doomed.update(rows)


def _parent_map(pattern: Pattern) -> Dict[str, Optional[str]]:
    return {node.name: pattern.parent_of(node.name) for node in pattern.nodes()}


def enumerate_snowcaps(pattern: Pattern, include_full: bool = False) -> List[NodeSet]:
    """All snowcaps of the pattern, smallest first.

    Excludes the full pattern by default (it is the view itself, not an
    auxiliary structure).
    """
    parents = _parent_map(pattern)
    names = pattern.node_names()
    out: List[NodeSet] = []
    for size in range(1, len(names) + (1 if include_full else 0)):
        for subset in combinations(names, size):
            chosen = frozenset(subset)
            if all(parents[name] is None or parents[name] in chosen for name in chosen):
                out.append(chosen)
    return out


def enumerate_subpatterns(pattern: Pattern) -> List[NodeSet]:
    """All lattice pattern-nodes: subsets inducing a single sub-tree.

    A subset induces a tree iff exactly one of its members has no
    proper pattern-ancestor inside the subset (e.g. in Figure 6,
    ``{b, c}`` is a lattice node but ``{c, d}`` is not).
    """
    nodes = pattern.nodes()
    ancestors: Dict[str, Set[str]] = {}
    for node in nodes:
        chain: Set[str] = set()
        walk = node.parent
        while walk is not None:
            chain.add(walk.name)
            walk = walk.parent
        ancestors[node.name] = chain
    names = [node.name for node in nodes]
    out: List[NodeSet] = []
    for size in range(1, len(names) + 1):
        for subset in combinations(names, size):
            chosen = frozenset(subset)
            minimal = [name for name in subset if not (ancestors[name] & chosen)]
            if len(minimal) != 1:
                continue
            out.append(chosen)
    return out


def join_decompositions(pattern: Pattern, subset: NodeSet) -> List[Tuple[NodeSet, NodeSet]]:
    """Ways of computing a lattice node as a join of two smaller ones.

    Returns pairs ``(upper, lower)`` partitioning ``subset`` such that
    both parts are lattice nodes and the lower part's root attaches
    (by the v-ancestor relation) below some node of the upper part --
    the join edges drawn in Figures 6 and 7.
    """
    valid = set(enumerate_subpatterns(pattern))
    ancestors: Dict[str, Set[str]] = {}
    for node in pattern.nodes():
        chain: Set[str] = set()
        walk = node.parent
        while walk is not None:
            chain.add(walk.name)
            walk = walk.parent
        ancestors[node.name] = chain
    out: List[Tuple[NodeSet, NodeSet]] = []
    members = sorted(subset)
    for size in range(1, len(members)):
        for lower_tuple in combinations(members, size):
            lower = frozenset(lower_tuple)
            upper = subset - lower
            if lower not in valid or upper not in valid:
                continue
            lower_roots = [name for name in lower_tuple if not (ancestors[name] & lower)]
            root = lower_roots[0]
            if ancestors[root] & upper:
                out.append((upper, lower))
    return out


def snowcap_chain(
    pattern: Pattern, update_profile: Optional[Sequence[str]] = None
) -> List[NodeSet]:
    """A nested chain of snowcaps, one per size ``1..k-1``.

    Without a profile the chain is the preorder-prefix chain (the
    paper's "pick the first snowcap at each level").  With an *update
    profile* -- labels the workload is expected to insert/delete, the
    cost-based selection knob discussed at the end of Section 3.5 --
    the chain is built by peeling current leaves whose label is in the
    profile first: the resulting chain then contains the complements of
    the likely Δ-sets, i.e., exactly the R-parts of the union terms the
    expected updates will evaluate.
    """
    names = pattern.node_names()  # preorder: parents precede children
    if not update_profile:
        return [frozenset(names[:size]) for size in range(1, len(names))]
    profile = set(update_profile)
    children: Dict[str, List[str]] = {name: [] for name in names}
    for parent, child in pattern.edges():
        children[parent.name].append(child.name)
    remaining = set(names)

    def current_leaves() -> List[str]:
        return [
            name
            for name in names
            if name in remaining
            and not any(child in remaining for child in children[name])
        ]

    removal_order: List[str] = []
    while len(remaining) > 1:
        leaves = current_leaves()
        labeled = [
            name
            for name in leaves
            if pattern.node(name).label in profile or "*" in profile
        ]
        # Peel profile-labeled leaves first (their subtrees are the
        # likely Δ-sets), later-preorder leaves first within a class.
        pick = (labeled or leaves)[-1]
        removal_order.append(pick)
        remaining.discard(pick)
    chain: List[NodeSet] = []
    kept = set(names)
    for name in removal_order:
        kept.discard(name)
        chain.append(frozenset(kept))
    chain.sort(key=len)
    return chain


class SnowcapLattice:
    """Materialized auxiliary structures for one view."""

    def __init__(
        self,
        pattern: Pattern,
        strategy: str = DEFAULT_STRATEGY,
        update_profile: Optional[Sequence[str]] = None,
    ):
        if strategy not in ("snowcaps", "leaves"):
            raise ValueError("strategy must be 'snowcaps' or 'leaves', got %r" % strategy)
        if update_profile and strategy != "snowcaps":
            # Only a snowcap chain is chosen by profile; under leaves it
            # would be ignored silently.
            raise ValueError(
                "update_profile selects snowcaps; strategy %r materializes none" % strategy
            )
        self.pattern = pattern
        self.strategy = strategy
        self.update_profile = list(update_profile) if update_profile else None
        self.selected: List[NodeSet] = (
            snowcap_chain(pattern, self.update_profile) if strategy == "snowcaps" else []
        )
        self._materialized: Dict[NodeSet, Relation] = {}
        # Per snowcap, the (name, label) of its leaves: the names with
        # no pattern child inside it -- the only columns the deletion
        # upkeep has to probe (see apply_batch).
        self._leaf_columns: Dict[NodeSet, List[Tuple[str, str]]] = {}
        edges = pattern.edges()
        for subset in self.selected:
            inner = {parent.name for parent, child in edges if child.name in subset}
            self._leaf_columns[subset] = [
                (node.name, node.label)
                for node in pattern.nodes()
                if node.name in subset and node.name not in inner
            ]

    # -- materialization ------------------------------------------------------

    def materialize(self, document: Document) -> None:
        """Evaluate and store every selected snowcap's binding relation."""
        self._materialized.clear()
        for subset in self.selected:
            sub = self.pattern.subpattern(subset)
            self._materialized[subset] = evaluate_bindings(sub, document)

    def relation_for(self, subset: NodeSet) -> Optional[Relation]:
        """The stored binding relation of a snowcap, if materialized."""
        return self._materialized.get(subset)

    def drop(self) -> None:
        """Forget every materialized relation; :meth:`materialize`
        rebuilds them."""
        self._materialized.clear()

    def materialized_sets(self) -> List[NodeSet]:
        return list(self._materialized)

    def stored_tuples(self) -> int:
        return sum(len(relation) for relation in self._materialized.values())

    # -- incremental upkeep -----------------------------------------------------

    def apply_batch(
        self,
        deleted_by_label: Dict[str, Sequence[DeweyID]],
        additions: Dict[NodeSet, Relation],
    ) -> int:
        """Merged upkeep: drop doomed rows and append fresh ones.

        Doomed rows are *found by probe*, not by filtering every stored
        row: deletes take whole subtrees, so a row binding a deleted
        node anywhere also binds one at a leaf column of its snowcap,
        and the deleted IDs of a leaf's label (``deleted_by_label``, the
        batch's removed IDs bucketed once for every view; a ``*`` leaf
        reads every bucket) are looked up in the relation's
        ``ID -> rows`` index on that column.  A relation no deleted
        label reaches is skipped without reading its rows; one that
        loses or gains rows is rewritten once, however many statements
        contributed to ``deleted_by_label``/``additions``.  Returns the
        number of rows removed.

        Stored relations are *bags*: materialization produces them in
        document order, but incremental upkeep appends fresh rows at
        the end instead of re-sorting ``O(n)`` rows per batch -- every
        consumer is order-free (hash-indexed structural joins, ID-keyed
        deletion probes, multiset comparisons), so only the multiset
        of rows is part of the contract.
        """
        removed = 0
        for subset, relation in self._materialized.items():
            doomed: Set[tuple] = set()
            if deleted_by_label:
                for name, label in self._leaf_columns[subset]:
                    if label == "*":
                        for ids in deleted_by_label.values():
                            _probe(relation.index_by(name), ids, doomed)
                        continue
                    ids = deleted_by_label.get(label)
                    if ids:
                        _probe(relation.index_by(name), ids, doomed)
            removed += self._apply_delta(subset, relation, doomed, additions)
        return removed

    def apply_flip_repair(
        self,
        drops_by_name: Dict[str, Set[DeweyID]],
        additions: Dict[NodeSet, Relation],
    ) -> int:
        """Column-aware σ-flip upkeep: drop per-column, then append.

        ``drops_by_name`` maps a σ pattern-node name to the IDs whose
        value predicate flipped false: a stored row dies only when the
        flipped node is bound *at that name's column* (unlike
        :meth:`apply_batch`, whose deletion probe is label-driven --
        a node removed from the document can bind nowhere, but a
        flipped node may still bind other, non-σ columns), so each
        name's IDs are probed into the index on exactly that column.
        ``additions`` carries the flipped-true rows per snowcap, as in
        :meth:`apply_batch`.  Returns the number of rows dropped.
        """
        removed = 0
        for subset, relation in self._materialized.items():
            doomed: Set[tuple] = set()
            for name in relation.schema:
                ids = drops_by_name.get(name)
                if ids:
                    _probe(relation.index_by(name), ids, doomed)
            removed += self._apply_delta(subset, relation, doomed, additions)
        return removed

    def _apply_delta(
        self,
        subset: NodeSet,
        relation: Relation,
        doomed: Set[tuple],
        additions: Dict[NodeSet, Relation],
    ) -> int:
        extra = additions.get(subset)
        fresh = extra.reordered(relation.schema).rows if extra else ()
        if not doomed and not fresh:
            return 0  # untouched: no row-list copy
        return relation.apply_delta(doomed, fresh)
