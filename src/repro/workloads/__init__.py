"""Experimental workloads: XMark-like documents, views and updates.

* :mod:`repro.workloads.xmark` -- a deterministic generator of
  auction-site documents with the XMark vocabulary (the paper's source
  documents; the original ``xmlgen`` is replaced by a faithful
  synthetic equivalent, see DESIGN.md).
* :mod:`repro.workloads.queries` -- the XMark views Q1, Q2, Q3, Q4,
  Q6, Q13, Q17 of Appendix A.6, transcribed into the Figure 3 dialect.
* :mod:`repro.workloads.updates` -- the XPathMark-derived update test
  set of Appendix A (classes L, LB, A, O, AO) plus the per-view update
  groups used by Figures 18-21 and 26-28.
* :mod:`repro.workloads.churn` -- adversarial mixed-churn batch
  streams (σ-value rewrites, insert-then-delete round-trips, dirty
  pairs) exercising σ-flip repair and dirty-subtree restoration.
* :mod:`repro.workloads.drift` -- label-skew drift streams whose hot
  update family rotates across phases (~95/4/1 hot/warm/cold shares),
  the workload shape that defeats a frozen LPT view assignment and
  exercises adaptive rebalancing.
"""

from repro.workloads.xmark import generate_document, generate_xml, size_of
from repro.workloads.queries import VIEW_TEXTS, view_definition, view_pattern
from repro.workloads.churn import churn_batches, flip_candidates
from repro.workloads.drift import drift_batches, drift_phase_families, phase_of
from repro.workloads.updates import (
    UPDATE_CLASSES,
    UPDATE_TEXTS,
    VIEW_UPDATE_GROUPS,
    delete_variant,
    insert_update,
)

__all__ = [
    "UPDATE_CLASSES",
    "UPDATE_TEXTS",
    "VIEW_TEXTS",
    "VIEW_UPDATE_GROUPS",
    "churn_batches",
    "delete_variant",
    "drift_batches",
    "drift_phase_families",
    "flip_candidates",
    "generate_document",
    "generate_xml",
    "insert_update",
    "phase_of",
    "size_of",
    "view_definition",
    "view_pattern",
]
