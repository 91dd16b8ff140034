"""Incremental view maintenance: the paper's core contribution.

* :mod:`repro.maintenance.delta` -- Δ+ / Δ− table computation
  (Algorithm 2, CD+, and its deletion counterpart CD−).
* :mod:`repro.maintenance.terms` -- the 2^k − 1 union/difference terms
  and every pruning criterion: update semantics (Props. 3.3 / 4.2),
  inserted-data (Prop. 3.6), inserted/deleted IDs (Props. 3.8 / 4.7),
  sign parity (Prop. 4.3); plus the shared term evaluator used by
  ET-INS and ET-DEL over materialized snowcaps.
* :mod:`repro.maintenance.plan` -- the per-view state derived once
  from the pattern at registration: term lists, join orders, Δ
  extraction, projection and the refresh's anchoring.
* :mod:`repro.maintenance.insert` -- PINT (Algorithm 1), ET-INS
  (Algorithm 3) and PIMT (Algorithm 4), combined as PINT/MT.
* :mod:`repro.maintenance.delete` -- PDDT (Algorithm 5), ET-DEL, PDMT
  and the combined PDDT/MT (Algorithm 6).
* :mod:`repro.maintenance.engine` -- the end-to-end driver with the
  experiments' five-phase timing breakdown (Find Target Nodes, Compute
  Delta Tables, Get Update Expression, Execute Update, Update Lattice).
"""

from repro.maintenance.delta import DeltaTables
from repro.maintenance.plan import ViewPlan
from repro.maintenance.terms import (
    Term,
    evaluate_term,
    expand_delete_terms,
    expand_insert_terms,
    prune_delete_by_ids,
    prune_by_empty_delta,
    prune_insert_by_ids,
)
from repro.maintenance.engine import (
    MaintenanceEngine,
    PhaseTimes,
    RegisteredView,
)

__all__ = [
    "DeltaTables",
    "MaintenanceEngine",
    "PhaseTimes",
    "RegisteredView",
    "Term",
    "ViewPlan",
    "evaluate_term",
    "expand_delete_terms",
    "expand_insert_terms",
    "prune_by_empty_delta",
    "prune_delete_by_ids",
    "prune_insert_by_ids",
]
