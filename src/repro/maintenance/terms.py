"""Union/difference terms, pruning criteria and the term evaluator.

Propagating an update ``u`` to a view of ``k`` nodes means evaluating a
union (insertions, Section 3.1) or signed difference (deletions,
Section 4.1) of up to ``2^k − 1`` join terms.  A term assigns each view
node either its canonical relation ``R`` or the update's Δ table; we
represent a term by its *Δ-set* (the view nodes reading from Δ).

Pruning:

* **Props. 3.3 / 4.2 (update semantics).**  A term containing
  ``Δ_{n1} ⋈ R_{n2}`` for a pattern edge ``n1 → n2`` is empty: inserts
  add children (never parents), deletes take whole subtrees.  Hence
  surviving Δ-sets are exactly the *descendant-closed* node sets, whose
  complements are the snowcaps (Prop. 3.12).
* **Prop. 3.6 (inserted data).**  A term whose Δ-set touches an empty
  (σ-filtered) Δ table is empty.
* **Prop. 3.8 / 4.7 (IDs).**  For a boundary edge ``R_{n1} ⋈ Δ_{n2}``:
  if no insertion target (resp. no Δ− node) lies under -- per its Dewey
  ID's ancestor labels -- an ``n1``-labeled node, the term is empty.
* **Prop. 4.3 (sign parity).**  Deletion terms read the *old* canonical
  relations, so the same doomed embedding surfaces in several terms;
  collecting doomed embeddings as a set makes the even (add-back) terms
  redundant, which is why dropping them -- Prop. 4.3(ii) -- is exact.

Term evaluation (the body of ET-INS / ET-DEL) is Δ-driven: the
``R``-part comes from a materialized snowcap when one matches (Snowcaps
strategy); otherwise (Leaves strategy) the join pipeline starts at the
term's smallest Δ table and reaches the canonical relations by Dewey
probes -- an ID names its ancestors, a subtree is one contiguous key
run -- so no canonical relation is read beyond the rows the term emits.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.algebra.relation import Relation
from repro.algebra.structural import (
    probe_ancestors,
    probe_descendants,
    structural_join,
)
from repro.maintenance.delta import DeltaTables
from repro.pattern.evaluate import Sources, project_bindings
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.views.lattice import SnowcapLattice
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import Node

NodeSet = FrozenSet[str]


class Term:
    """One union/difference term, identified by its Δ-set.

    ``sign`` is +1 for tuples to add (insertions) and, for deletions,
    the inclusion-exclusion coefficient: +1 removes derivations, −1
    restores them (the paper's ∪-prefixed positive terms).
    """

    __slots__ = ("delta_set", "sign")

    def __init__(self, delta_set: NodeSet, sign: int = 1):
        self.delta_set = delta_set
        self.sign = sign

    def r_set(self, pattern: Pattern) -> NodeSet:
        return frozenset(pattern.node_names()) - self.delta_set

    def __repr__(self) -> str:
        return "Term(Δ=%s, sign=%+d)" % (sorted(self.delta_set), self.sign)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Term)
            and self.delta_set == other.delta_set
            and self.sign == other.sign
        )

    def __hash__(self) -> int:
        return hash((self.delta_set, self.sign))


def _descendant_closed_sets(pattern: Pattern) -> List[NodeSet]:
    """All non-empty Δ-sets closed under taking pattern children.

    Equivalently: complements of snowcaps (including the empty
    snowcap, i.e., the all-Δ term).  Computed by choosing, top-down,
    which subtrees fall entirely into the Δ-set.
    """
    names = pattern.node_names()
    children: Dict[str, List[str]] = {name: [] for name in names}
    for parent, child in pattern.edges():
        children[parent.name].append(child.name)

    def subtree(name: str) -> List[str]:
        out = [name]
        for child in children[name]:
            out.extend(subtree(child))
        return out

    results: List[NodeSet] = []

    def grow(frontier: List[str], acc: Set[str]) -> None:
        # frontier: nodes whose membership is still to decide; any node
        # chosen for Δ drags its entire subtree along.
        if not frontier:
            if acc:
                results.append(frozenset(acc))
            return
        head, *rest = frontier
        # head goes fully to Δ:
        grow(rest, acc | set(subtree(head)))
        # head stays R: its children become frontier decisions.
        grow(rest + children[head], acc)

    grow([names[0]], set())
    return sorted(results, key=lambda s: (len(s), sorted(s)))


def expand_insert_terms(pattern: Pattern) -> List[Term]:
    """The insertion terms surviving Prop. 3.3.

    One term per non-empty descendant-closed Δ-set; the term's R-part
    is a snowcap of the view's lattice (Prop. 3.12).
    """
    return [Term(delta_set, +1) for delta_set in _descendant_closed_sets(pattern)]


def expand_delete_terms(pattern: Pattern, prune_even_terms: bool = False) -> List[Term]:
    """The deletion terms surviving Prop. 4.2, signed per Prop. 4.3(i).

    ``prune_even_terms`` applies Prop. 4.3(ii) at development time: the
    even (add-back) terms are never generated.  ET-DEL skips them during
    evaluation regardless (they are redundant under binding-set
    semantics), so the flag only affects the developed-term count
    reported by the Get-Update-Expression phase.
    """
    terms = []
    for delta_set in _descendant_closed_sets(pattern):
        sign = +1 if len(delta_set) % 2 == 1 else -1
        if prune_even_terms and sign < 0:
            continue
        terms.append(Term(delta_set, sign))
    return terms


def flip_repair_term(name: str) -> Term:
    """The repair term of one flipped σ node: Δ at ``name`` alone.

    Unlike insertion/deletion terms, a flip Δ-set is *not* descendant-
    closed -- a σ flip changes one node's membership without touching
    its pattern subtree -- so these terms are built directly instead of
    via :func:`expand_insert_terms`.  Evaluating the term against
    survivor relations (pre-batch membership for evictions, current
    membership for admissions) yields exactly the embeddings gained or
    lost through the flipped candidates, in O(|flipped|) join work.
    """
    return Term(frozenset((name,)), +1)


def prune_by_empty_delta(terms: Sequence[Term], deltas: DeltaTables) -> List[Term]:
    """Prop. 3.6: drop terms whose Δ-set touches an empty Δ table."""
    return [
        term
        for term in terms
        if all(not deltas.is_empty(name) for name in term.delta_set)
    ]


def _boundary_parents(pattern: Pattern, delta_set: NodeSet) -> List[PatternNode]:
    """R-side nodes with at least one Δ-side pattern child."""
    out = []
    for parent, child in pattern.edges():
        if parent.name not in delta_set and child.name in delta_set:
            out.append(parent)
    return out


def prune_insert_by_ids(
    terms: Sequence[Term],
    pattern: Pattern,
    insertion_target_ids: Sequence[DeweyID],
) -> List[Term]:
    """Prop. 3.8: ID-driven pruning for insertions.

    For a boundary sub-expression ``R_{n1} ⋈ Δ+_{n2}`` to produce
    anything, some *existing* ``n1``-labeled node must be an ancestor of
    an inserted node; inserted nodes live under insertion targets, so
    some target must be labeled ``n1`` or have an ``n1``-labeled
    ancestor -- checked purely on the targets' Dewey IDs.
    """
    surviving: List[Term] = []
    for term in terms:
        dead = False
        for parent in _boundary_parents(pattern, term.delta_set):
            label = parent.label
            if label == "*":
                continue  # a wildcard matches any ancestor; cannot prune
            if not any(
                target.label == label or target.has_ancestor_labeled(label)
                for target in insertion_target_ids
            ):
                dead = True
                break
        if not dead:
            surviving.append(term)
    return surviving


def prune_delete_by_ids(
    terms: Sequence[Term],
    pattern: Pattern,
    deltas: DeltaTables,
) -> List[Term]:
    """Prop. 4.7: ID-driven pruning for deletions.

    ``R_{n1} ⋈ Δ−_{n2}`` is empty when no Δ− node of ``n2`` has an
    ``n1``-labeled ancestor (per its ID's encoded label path).
    """
    surviving: List[Term] = []
    for term in terms:
        dead = False
        for parent, child in pattern.edges():
            if parent.name in term.delta_set or child.name not in term.delta_set:
                continue
            label = parent.label
            if label == "*":
                continue
            if not any(
                node.id.has_ancestor_labeled(label) for node in deltas.nodes(child.name)
            ):
                dead = True
                break
        if not dead:
            surviving.append(term)
    return surviving


def _next_neighbor(
    pending: Sequence[PatternNode], bound: Sequence[str], delta_set: NodeSet
) -> Tuple[PatternNode, Optional[PatternNode]]:
    """The next pattern node to join in, with its bound child when it
    is reached upward (None: it hangs below its bound parent).

    Δ neighbours go first (small tables, hash-joined), then canonical
    relations reached upward (at most one match per ancestor), then
    those reached downward (the only step that can fan out); preorder
    breaks ties, so the order is a function of the pattern and the
    term alone.
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


def evaluate_term(
    pattern: Pattern,
    term: Term,
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Relation:
    """Evaluate one term into a binding relation over all view nodes.

    Per-node inputs: Δ tables for the term's Δ-set, canonical relations
    (``r_sources``, σ already applied) elsewhere.  The pipeline is
    Δ-driven: it starts at the materialized snowcap matching the R-part
    when there is one (the Snowcaps strategy) and at the term's
    smallest Δ table otherwise, then grows over one adjacent pattern
    node at a time.  A Δ neighbour is hash-joined; a canonical relation
    is never read whole, only probed from the IDs already bound --
    upward along their ancestor chains, downward into their subtree
    runs -- so the term costs O(|Δ| · depth · log|R| + |output|) over
    descendant edges; a child edge probed downward reads the bound
    node's whole same-label subtree run to keep its one-level-down
    nodes, so there ``|output|`` reads "runs sliced".

    ``term.delta_set`` must be non-empty (every Δ+, Δ− and flip term's
    is): without a snowcap seed the pipeline has nowhere else to start.
    Row order is not part of the contract (lattices are bags, extents
    sorted stores).
    """
    nodes = pattern.nodes()
    names = tuple(node.name for node in nodes)
    delta_set = term.delta_set
    relation: Optional[Relation] = None
    r_set = term.r_set(pattern)
    if lattice is not None and r_set:
        # Joins never mutate their inputs, so the stored relation can
        # seed the pipeline directly.
        relation = lattice.relation_for(r_set)
    seeded = relation is not None
    if relation is None:
        start = min(
            (node for node in nodes if node.name in delta_set),
            key=lambda node: len(deltas.nodes(node.name)),
        )
        relation = Relation.single_column(start.name, deltas.nodes(start.name))
    pending = [node for node in nodes if node.name not in relation.schema]
    while pending and relation.rows:
        node, below = _next_neighbor(pending, relation.schema, delta_set)
        pending.remove(node)
        lower = node if below is None else below
        axis = "parent" if lower.axis == "child" else "ancestor"
        if node.name in delta_set:
            table = Relation.single_column(node.name, deltas.nodes(node.name))
            if below is None:
                relation = structural_join(
                    relation, table, node.parent.name, node.name, axis
                )
            else:
                relation = structural_join(table, relation, node.name, below.name, axis)
        elif below is None:
            relation = probe_descendants(
                relation, node.parent.name, r_sources[node.name], node.name, axis
            )
        else:
            relation = probe_ancestors(
                relation, below.name, r_sources[node.name], node.name, node.label, axis
            )
    root = nodes[0]
    if root.axis == "child" and not seeded and relation.rows:
        # A child-axis root must sit at the document root (a stored
        # snowcap already holds only such rows); inserted nodes never
        # can (inserts add children).
        index = relation.column_index(root.name)
        relation = Relation._trusted(
            relation.schema,
            [row for row in relation.rows if row[index].id.depth == 1],
        )
    if not relation.rows:
        return Relation._trusted(names, [])
    return relation.reordered(names)


def absorb_embeddings(
    pattern: Pattern, bindings: Relation, embeddings: Dict[tuple, tuple]
) -> None:
    """Add the not yet seen embeddings of ``bindings`` to ``embeddings``
    (``{binding ID key: projected row}``).

    The same embedding surfaces in several terms; it is keyed by its
    binding IDs, and only first occurrences are projected.
    """
    fresh_rows = []
    fresh_keys = []
    for row in bindings.rows:
        key = tuple(cell.id for cell in row)
        if key in embeddings:
            continue
        embeddings[key] = ()  # reserve; projected below
        fresh_keys.append(key)
        fresh_rows.append(row)
    if not fresh_rows:
        return
    projected = project_bindings(
        pattern, Relation._trusted(bindings.schema, fresh_rows)
    )
    for key, row in zip(fresh_keys, projected.rows):
        embeddings[key] = row
