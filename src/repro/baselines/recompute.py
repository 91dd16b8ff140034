"""Full view recomputation (the Section 6.5 baseline).

Incremental maintenance competes against simply re-evaluating the view
pattern over the updated document and rebuilding the extent and the
snowcap materializations from scratch.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.pattern.tree_pattern import Pattern
from repro.updates.language import UpdateStatement
from repro.updates.pul import apply_pul, compute_pul
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.xmldom.model import Document


def full_recompute(
    pattern: Pattern,
    document: Document,
    lattice: Optional[SnowcapLattice] = None,
    name: str = "view",
) -> Tuple[MaterializedView, float]:
    """Rebuild a view (and optionally its lattice); returns (view, secs)."""
    started = time.perf_counter()
    view = MaterializedView.materialize(pattern, document, name=name)
    if lattice is not None:
        lattice.materialize(document)
    return view, time.perf_counter() - started


def recompute_after_update(
    pattern: Pattern,
    document: Document,
    statement: UpdateStatement,
    rebuild_lattice: bool = False,
) -> Tuple[MaterializedView, float]:
    """Apply the update, then recompute; returns (view, recompute secs).

    The document update itself is excluded from the reported time, as
    in the paper (both approaches pay it identically).
    ``rebuild_lattice`` also rebuilds the paper's snowcap lattice.
    """
    pul = compute_pul(document, statement)
    apply_pul(document, pul)
    lattice = SnowcapLattice(pattern, strategy="snowcaps") if rebuild_lattice else None
    return full_recompute(pattern, document, lattice)
