"""The logical algebra *A* of Section 2.2 and its physical operators.

The paper defines view semantics through an algebra over *virtual
canonical relations* ``R_a`` with operators:

* n-ary cartesian product ``×``
* selection ``σ_pred`` where predicates compare columns with constants
  (``=``) or with each other structurally (``≺`` parent, ``≺≺``
  ancestor)
* projection ``π``
* duplicate elimination ``δ`` (which yields *derivation counts*)
* sort ``s``
* joins, defined as selections over products, with dedicated physical
  *structural join* implementations [Al-Khalifa et al. 2002]

:mod:`repro.algebra.relation` provides the tuple container,
:mod:`repro.algebra.operators` the logical operators and
:mod:`repro.algebra.structural` the ID-based physical operators
(stack-based structural join, PathFilter, PathNavigate).
"""

from repro.algebra.relation import Relation
from repro.algebra.operators import (
    And,
    ColumnComparison,
    Predicate,
    ValueEquals,
    cartesian_product,
    duplicate_eliminate,
    project,
    select,
    sort_rows,
)
from repro.algebra.structural import (
    path_filter,
    path_navigate,
    probe_ancestors,
    probe_descendants,
    structural_join,
    structural_semijoin,
)

__all__ = [
    "And",
    "ColumnComparison",
    "Predicate",
    "Relation",
    "ValueEquals",
    "cartesian_product",
    "duplicate_eliminate",
    "path_filter",
    "path_navigate",
    "probe_ancestors",
    "probe_descendants",
    "project",
    "select",
    "sort_rows",
    "structural_join",
    "structural_semijoin",
]
