"""Installing what crosses a worker pipe: snowcap rows, view
snapshots, span fragments.

Fragments that crossed a process boundary carry Dewey IDs, never
nodes; the receiving side rebuilds them against its own document:

* snowcap fragments carry binding rows as ID tuples, re-resolved into
  node rows by :func:`resolve_snowcap_fragment`;
* view-migration payloads -- ``{"pairs": ..., "lattice": ...}`` from a
  :class:`~repro.sharding.units.ViewSnapshotUnit` or the recompute-unit
  pair -- install through :func:`install_view_snapshot`, which rebuilds
  the extent from the pairs and re-resolves the snowcap rows against
  the adopting replica's document (the session's owner installs only
  the rows, through :func:`install_lattice_rows`);
* session workers' span trees come home as
  :class:`~repro.obs.SpanFragment` rows and are stitched back by
  :func:`merge_span_fragments`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.algebra.relation import Relation
from repro.xmldom.model import Document


def resolve_snowcap_fragment(
    fragment: Optional[Dict[frozenset, object]],
    document: Document,
) -> Dict[frozenset, Relation]:
    """Rebuild snowcap relations from a unit fragment.

    Live node-row relations pass through; fragments that crossed a
    process boundary carry ``(schema, ID rows)`` pairs whose IDs are
    re-resolved against the live document.  Every ID must resolve:
    snowcap rows bind only live nodes, so a miss means the fragment and
    the document disagree -- fail loudly rather than corrupt the
    lattice.
    """
    relations: Dict[frozenset, Relation] = {}
    if not fragment:
        return relations
    resolve = document.node_by_id
    for subset, value in fragment.items():
        if isinstance(value, Relation):
            relations[subset] = value
            continue
        schema, id_rows = value
        rows = []
        for id_row in id_rows:
            row = tuple(resolve(node_id) for node_id in id_row)
            if any(node is None for node in row):
                raise LookupError(
                    "snowcap fragment row %r references a node missing "
                    "from the document" % (id_row,)
                )
            rows.append(row)
        relations[subset] = Relation(schema, rows)
    return relations


def install_view_snapshot(registered, payload: Dict[str, object], document) -> None:
    """Install a migrated view's state onto the adopting replica.

    ``payload`` carries sorted ``(row, count)`` extent pairs under
    ``"pairs"`` and a snowcap fragment (``{subset: (schema, ID rows)}``
    or live relations) under ``"lattice"`` -- the shape produced both
    by :class:`~repro.sharding.units.ViewSnapshotUnit` on the source
    replica and by the :class:`ExtentRecomputeUnit`/
    :class:`LatticeRecomputeUnit` pair run locally by the target.
    Replica documents are byte-identical, so the shipped Dewey IDs
    resolve on the adopter exactly as they did on the source; a miss
    means the replicas diverged and :func:`resolve_snowcap_fragment`
    fails loudly.
    """
    from repro.views.view import MaterializedView

    fresh = MaterializedView.from_pairs(
        registered.pattern, payload["pairs"], name=registered.name
    )
    registered.view._store = fresh._store
    install_lattice_rows(registered.lattice, payload["lattice"], document)


def install_lattice_rows(lattice, fragment, document) -> None:
    """Replace ``lattice``'s snowcap relations with a shipped fragment.

    The lattice half of :func:`install_view_snapshot`, and all a
    session's owner adopts: its extents are authoritative and current
    already, so only the snowcap rows it dropped need to come back.
    """
    relations = resolve_snowcap_fragment(fragment, document)
    lattice.drop()
    for subset, relation in relations.items():
        lattice.load_materialized(subset, relation)


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
