"""The top-down term evaluator the Δ-first one replaced, kept as oracle.

Until the Δ-first rewrite ``maintenance.terms.evaluate_term`` joined
top-down from the pattern root with ``structural_join``, which reads
every row of its right input: a term whose R-part was not a
materialized snowcap joined whole canonical relations before its Δ
table ever pruned them.  The Δ-first evaluator must compute *exactly*
the rows this one does (as a multiset -- row order was never contract);
``tests/test_term_oracle.py`` holds it to that on random documents,
views and batches.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.relation import Relation
from repro.algebra.structural import structural_join
from repro.maintenance.delta import DeltaTables
from repro.maintenance.terms import Term
from repro.pattern.evaluate import Sources
from repro.pattern.tree_pattern import Pattern
from repro.views.lattice import SnowcapLattice


def scan_evaluate_term(
    pattern: Pattern,
    term: Term,
    r_sources: Sources,
    deltas: DeltaTables,
    lattice: Optional[SnowcapLattice] = None,
) -> Relation:
    """Evaluate one term into a binding relation over all view nodes.

    Per-node inputs: Δ tables for the term's Δ-set, canonical relations
    (``r_sources``, σ already applied) elsewhere.  When the R-part
    coincides with a materialized snowcap, its stored relation is the
    join seed (the Snowcaps strategy); otherwise the R-part is built
    from the leaves on the fly (the Leaves strategy).
    """
    nodes = pattern.nodes()
    relation: Optional[Relation] = None
    r_set = term.r_set(pattern)
    if lattice is not None and r_set:
        # Joins never mutate their inputs, so the stored relation can
        # seed the pipeline directly.
        relation = lattice.relation_for(r_set)
    for node in nodes:
        if relation is not None and node.name in relation.schema:
            continue
        if node.name in term.delta_set:
            source = deltas.nodes(node.name)
        else:
            source = r_sources[node.name]
        if node.parent is None:
            # Pattern root.  A child-axis root must sit at the document
            # root; inserted nodes never can (inserts add children).
            if node.axis == "child":
                source = [n for n in source if n.id.depth == 1]
            relation = Relation.single_column(node.name, source)
        else:
            right = Relation.single_column(node.name, source)
            axis = "parent" if node.axis == "child" else "ancestor"
            assert relation is not None and node.parent.name in relation.schema
            relation = structural_join(relation, right, node.parent.name, node.name, axis)
        if not relation.rows:
            return Relation([n.name for n in nodes])
    assert relation is not None
    return relation.reordered([n.name for n in nodes])
