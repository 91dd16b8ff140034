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

Development and join order are functions of the pattern alone: a
view's :class:`~repro.maintenance.plan.ViewPlan` develops its terms
once, at registration, and memoizes each term's join order; the
functions here take that plan.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.algebra.relation import Relation
from repro.algebra.structural import (
    probe_ancestors,
    probe_descendants,
    structural_join,
)
from repro.maintenance.delta import DeltaTables
from repro.pattern.evaluate import Sources, project_bindings
from repro.pattern.tree_pattern import Pattern
from repro.views.lattice import SnowcapLattice
from repro.xmldom.dewey import DeweyID

if TYPE_CHECKING:
    from repro.maintenance.plan import ViewPlan

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
    return signed_delete_terms(_descendant_closed_sets(pattern), prune_even_terms)


def signed_delete_terms(
    delta_sets: Iterable[NodeSet], prune_even_terms: bool = False
) -> List[Term]:
    """The deletion terms of already developed Δ-sets: an odd-sized
    Δ-set subtracts, an even-sized one adds back (Prop. 4.3(i)); with
    ``prune_even_terms`` the latter are left out (Prop. 4.3(ii))."""
    terms = []
    for delta_set in delta_sets:
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


def self_and_ancestor_labels(node_ids: Iterable[DeweyID]) -> Set[str]:
    """The labels on the self-and-ancestor chains of ``node_ids``, read
    off their Dewey IDs; a chain stops at the first ID already seen."""
    labels: Set[str] = set()
    seen: Set[bytes] = set()
    for node_id in node_ids:
        walk: Optional[DeweyID] = node_id
        while walk is not None and walk.sort_key not in seen:
            seen.add(walk.sort_key)
            labels.add(walk.label)
            walk = walk.parent()
    return labels


def prune_insert_by_ids(
    terms: Sequence[Term],
    plan: "ViewPlan",
    target_labels: AbstractSet[str],
) -> List[Term]:
    """Prop. 3.8: ID-driven pruning for insertions.

    For a boundary sub-expression ``R_{n1} ⋈ Δ+_{n2}`` to produce
    anything, some *existing* ``n1``-labeled node must be an ancestor of
    an inserted node; inserted nodes live under insertion targets, so
    some target must be labeled ``n1`` or have an ``n1``-labeled
    ancestor -- checked on ``target_labels``, the labels of the
    targets' self-and-ancestor chains (:func:`self_and_ancestor_labels`
    of the targets' Dewey IDs, one set per batch).
    """
    return [
        term
        for term in terms
        if all(label in target_labels for label, _child in plan.boundary(term.delta_set))
    ]


def prune_delete_by_ids(
    terms: Sequence[Term],
    plan: "ViewPlan",
    deltas: DeltaTables,
) -> List[Term]:
    """Prop. 4.7: ID-driven pruning for deletions.

    ``R_{n1} ⋈ Δ−_{n2}`` is empty when no Δ− node of ``n2`` has an
    ``n1``-labeled ancestor (per its ID's encoded label path): checked
    on the table's ancestor-label set, memoized on ``deltas``.
    """
    return [
        term
        for term in terms
        if all(
            label in deltas.ancestor_labels(child)
            for label, child in plan.boundary(term.delta_set)
        )
    ]


def evaluate_term(
    plan: "ViewPlan",
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
    node at a time, in the order the plan memoizes for the Δ-set and
    that start (:meth:`~repro.maintenance.plan.ViewPlan.join_order`).
    A Δ neighbour is hash-joined; a canonical relation is never read
    whole, only probed from the IDs already bound -- upward along their
    ancestor chains, downward into their subtree runs -- so the term
    costs O(|Δ| · depth · log|R| + |output|) over descendant edges; a
    child edge probed downward reads the bound node's whole same-label
    subtree run to keep its one-level-down nodes, so there ``|output|``
    reads "runs sliced".

    ``term.delta_set`` must be non-empty (every Δ+, Δ− and flip term's
    is): without a snowcap seed the pipeline has nowhere else to start.
    Row order is not part of the contract (lattices are bags, extents
    sorted stores).
    """
    delta_set = term.delta_set
    relation: Optional[Relation] = None
    if lattice is not None:
        r_set = plan.r_set(delta_set)
        if r_set:
            # Joins never mutate their inputs, so the stored relation
            # can seed the pipeline directly.
            relation = lattice.relation_for(r_set)
    seeded = relation is not None
    if relation is None:
        start = min(
            (name for name in plan.names if name in delta_set),
            key=lambda name: len(deltas.nodes(name)),
        )
        relation = Relation.single_column(start, deltas.nodes(start))
    for name, from_delta, below, parent, label, axis in plan.join_order(
        delta_set, relation.schema
    ):
        if not relation.rows:
            break
        if from_delta:
            table = Relation.single_column(name, deltas.nodes(name))
            if below is None:
                relation = structural_join(relation, table, parent, name, axis)
            else:
                relation = structural_join(table, relation, name, below, axis)
        elif below is None:
            relation = probe_descendants(relation, parent, r_sources[name], name, axis)
        else:
            relation = probe_ancestors(
                relation, below, r_sources[name], name, label, axis
            )
    names = plan.names
    if plan.root_at_document_root and not seeded and relation.rows:
        # A child-axis root must sit at the document root (a stored
        # snowcap already holds only such rows); inserted nodes never
        # can (inserts add children).
        index = relation.column_index(names[0])
        relation = Relation._trusted(
            relation.schema,
            [row for row in relation.rows if row[index].id.depth == 1],
        )
    if not relation.rows:
        return Relation._trusted(names, [])
    return relation.reordered(names)


def absorb_embeddings(
    plan: "ViewPlan", bindings: Relation, embeddings: Dict[tuple, tuple]
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
        plan.projection, Relation._trusted(bindings.schema, fresh_rows)
    )
    for key, row in zip(fresh_keys, projected.rows):
        embeddings[key] = row
