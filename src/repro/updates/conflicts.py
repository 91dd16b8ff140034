"""Conflict rules for parallel PULs: IO, LO, NLO (Figure 15).

When two pending update lists of atomic operations (single-target
resolved statements, see :mod:`repro.updates.reduce`) are to be
integrated for parallel execution, some operation pairs are
order-sensitive or overriding:

* **IO (Insertion Order)** -- two ``ins↘`` on the same target: the
  resulting sibling order depends on execution order (symmetric);
* **LO (Local Override)** -- ``del`` in one PUL and ``ins↘`` on the
  same target in the other: the insertion's effect is voided;
* **NLO (Non-Local Override)** -- ``del`` whose target is an ancestor
  of the other PUL's ``ins↘`` target.

Detection returns the conflicts plus the conflict-free remainder; how
conflicts are resolved is the PUL producers' policy (the paper leaves
this open), so a pluggable ``resolution`` callback decides survivor
operations, defaulting to "fail on any conflict".
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.updates.language import DeleteUpdate, InsertUpdate, UpdateStatement


class Conflict:
    """One detected conflict between operations of two parallel PULs."""

    KINDS = ("IO", "LO", "NLO")

    def __init__(self, kind: str, first: UpdateStatement, second: UpdateStatement):
        if kind not in self.KINDS:
            raise ValueError("unknown conflict kind %r" % kind)
        self.kind = kind
        self.first = first
        self.second = second

    @property
    def symmetric(self) -> bool:
        """IO conflicts are order-symmetric; overrides are directed."""
        return self.kind == "IO"

    def __repr__(self) -> str:
        arrow = "<->" if self.symmetric else "->"
        return "Conflict(%s: %r %s %r)" % (self.kind, self.first, arrow, self.second)


def detect_conflicts(
    pul1: Sequence[UpdateStatement], pul2: Sequence[UpdateStatement]
) -> List[Conflict]:
    """All IO/LO/NLO conflicts between two parallel PULs."""
    conflicts: List[Conflict] = []
    for op1 in pul1:
        for op2 in pul2:
            if isinstance(op1, InsertUpdate) and isinstance(op2, InsertUpdate):
                if op1.target_ids == op2.target_ids:
                    conflicts.append(Conflict("IO", op1, op2))
                continue
            if isinstance(op1, DeleteUpdate) and isinstance(op2, DeleteUpdate):
                continue  # two deletions never conflict
            insert, delete = (op1, op2) if isinstance(op1, InsertUpdate) else (op2, op1)
            (target,) = insert.target_ids
            (deleted,) = delete.target_ids
            if target == deleted:
                conflicts.append(Conflict("LO", insert, delete))
            elif deleted.is_ancestor_of(target):
                conflicts.append(Conflict("NLO", insert, delete))
    return conflicts


Resolution = Callable[[Conflict], Optional[UpdateStatement]]


def fail_on_conflict(conflict: Conflict) -> Optional[UpdateStatement]:
    """Default policy: any conflict aborts integration."""
    raise ValueError("unresolved PUL conflict: %r" % conflict)


def deletes_win(conflict: Conflict) -> Optional[UpdateStatement]:
    """A simple policy: overriding deletions win, IO keeps first-PUL order."""
    if conflict.kind in ("LO", "NLO"):
        return conflict.second  # the delete
    return None  # IO: keep both, first PUL's op first


def integrate_puls(
    pul1: Sequence[UpdateStatement],
    pul2: Sequence[UpdateStatement],
    resolution: Resolution = fail_on_conflict,
) -> Tuple[List[UpdateStatement], List[Conflict]]:
    """Integrate two parallel PULs under a conflict-resolution policy.

    Returns the integrated operation list and the conflicts that were
    resolved.  With the default policy, any conflict raises.
    """
    conflicts = detect_conflicts(pul1, pul2)
    dropped: set = set()
    for conflict in conflicts:
        winner = resolution(conflict)
        if winner is None:
            continue
        loser = conflict.first if winner is conflict.second else conflict.second
        dropped.add(id(loser))
    integrated = [op for op in list(pul1) + list(pul2) if id(op) not in dropped]
    return integrated, conflicts
