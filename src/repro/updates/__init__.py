"""The update language of Section 2.3 and pending update lists.

Supported statement forms:

* ``delete q`` with ``q`` in XPath``{/,//,*,[]}``;
* ``insert xml into q``;
* ``for $x in q insert xml into $x`` (with the appendix's
  ``let $c := doc("uri")`` preamble accepted);
* programmatic construction of both.

Statement evaluation produces a *pending update list* (PUL, after the
XQuery Update Facility): target/tree pairs for insertions, doomed nodes
for deletions.  Applying a PUL to the document assigns Dewey IDs to
inserted subtrees -- the IDs the Δ+ tables need -- and collects the
removed node sets that feed the Δ− tables.

Section 5's PUL rules over atomic operations live in
:mod:`repro.updates.reduce` (O1/O3/I5 reduction, A1/A2/D6 aggregation)
and :mod:`repro.updates.conflicts` (IO/LO/NLO).
"""

from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    UpdateStatement,
    parse_update,
)
from repro.updates.pul import (
    AtomicDelete,
    AtomicInsert,
    PendingUpdateList,
    apply_pul,
    compute_pul,
)

__all__ = [
    "AtomicDelete",
    "AtomicInsert",
    "DeleteUpdate",
    "InsertUpdate",
    "PendingUpdateList",
    "UpdateStatement",
    "apply_pul",
    "compute_pul",
    "parse_update",
]
