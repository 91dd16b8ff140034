"""Installing what crosses a worker pipe: view snapshots, span
fragments.

* view-migration payloads -- sorted ``(row, count)`` extent pairs from
  a :class:`~repro.sharding.units.ViewSnapshotUnit` or an
  :class:`~repro.sharding.units.ExtentRecomputeUnit` -- install through
  :func:`install_view_snapshot`, which rebuilds the extent from the
  pairs and the snowcap lattice from the adopting replica's own
  document (lattices never cross the pipe);
* session workers' span trees come home as
  :class:`~repro.obs.SpanFragment` rows and are stitched back by
  :func:`merge_span_fragments`.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


def install_view_snapshot(registered, pairs: List[Tuple[tuple, int]], document) -> None:
    """Install a migrated view's state onto the adopting replica.

    ``pairs`` are the view's sorted ``(row, count)`` extent pairs --
    the shape produced both by
    :class:`~repro.sharding.units.ViewSnapshotUnit` on the source
    replica and by :class:`~repro.sharding.units.ExtentRecomputeUnit`
    run locally by the target.  The lattice is materialized from
    ``document``, which is byte-identical on every replica, so either
    route yields the same state.
    """
    from repro.views.view import MaterializedView

    fresh = MaterializedView.from_pairs(registered.pattern, pairs, name=registered.name)
    registered.view._store = fresh._store
    registered.lattice.materialize(document)


def merge_span_fragments(fragment_lists: Iterable, origin: float = 0.0) -> list:
    """Stitch worker span fragments back into span trees.

    ``fragment_lists`` yields per-source sequences of
    :class:`~repro.obs.SpanFragment` (one per session worker, in worker
    index order); ``None`` entries (telemetry off for that source) are
    skipped.  Within each source the rebuild sorts by fragment ``path``,
    so the stitched trees are independent of shipment order.  Spans
    start at ``origin`` plus their root-relative offset, so grafting
    under a span that started at ``origin`` places them on the
    caller's timeline.
    """
    from repro.obs import fragments_to_spans

    spans = []
    for fragments in fragment_lists:
        if fragments:
            spans.extend(fragments_to_spans(fragments, origin))
    return spans
