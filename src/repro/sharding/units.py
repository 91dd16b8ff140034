"""Work units of the session's view-migration protocol.

A unit is a pure slice of work on one view: it reads the replica state
it captured (document, registered view, lattice) and returns a
**fragment** -- a picklable value (plain tuples, ints, strings,
:class:`~repro.xmldom.dewey.DeweyID`) that can cross the worker pipe
and is installed by :func:`repro.sharding.merge.install_view_snapshot`.
Mutation never happens here, which is what lets either route of a
migration yield the same bytes on the adopting replica.

* :class:`ViewSnapshotUnit` -- reads one registered view's *stored*
  extent pairs and materialized snowcap rows (no re-evaluation); the
  source replica ships them when the view is small.
* :class:`ExtentRecomputeUnit` / :class:`LatticeRecomputeUnit` --
  evaluate one view's extent rows resp. snowcap relations against the
  adopting replica's own document, in the same shape, when the view is
  too big to ship.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.pattern.evaluate import evaluate_bindings, evaluate_view
from repro.views.view import row_sort_key


class ShardWorkUnit:
    """Base: an independently executable, pure slice of work on a view."""

    def __init__(self, view_name: str):
        self.view_name = view_name

    def execute(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.view_name)


class ExtentRecomputeUnit(ShardWorkUnit):
    """Full extent materialization of one view: sorted ``(row, count)``
    pairs, installable via :meth:`MaterializedView.from_pairs`."""

    def __init__(self, view_name: str, *, pattern, document):
        super().__init__(view_name)
        self.pattern = pattern
        self.document = document

    def execute(self) -> List[Tuple[tuple, int]]:
        content = evaluate_view(self.pattern, self.document)
        return sorted(content, key=lambda item: row_sort_key(item[0]))


class LatticeRecomputeUnit(ShardWorkUnit):
    """Snowcap rematerialization of one view.

    Evaluates every selected snowcap's binding relation and returns the
    rows as ID tuples (the installer swaps live nodes back in); paired
    with :class:`ExtentRecomputeUnit` to cover a full materialization.
    """

    def __init__(self, view_name: str, *, pattern, document, selected: Sequence[frozenset]):
        super().__init__(view_name)
        self.pattern = pattern
        self.document = document
        self.selected = list(selected)

    def execute(self) -> Dict[frozenset, tuple]:
        fragment: Dict[frozenset, tuple] = {}
        for subset in self.selected:
            sub = self.pattern.subpattern(subset)
            relation = evaluate_bindings(sub, self.document)
            fragment[subset] = (
                relation.schema,
                [tuple(cell.id for cell in row) for row in relation.rows],
            )
        return fragment


class ViewSnapshotUnit(ShardWorkUnit):
    """Snapshot one registered view's stored state for migration.

    Unlike the recompute units, nothing is re-evaluated: the extent
    pairs come straight out of the store and the snowcap rows out of
    the materialized relations, both already current on the source
    replica.  The payload shape matches the recompute units' fragments
    exactly -- sorted ``(row, count)`` pairs plus ``{subset: (schema,
    ID rows)}`` -- so :func:`repro.sharding.merge.install_view_snapshot`
    installs either indistinguishably.
    """

    def __init__(self, view_name: str, *, registered):
        super().__init__(view_name)
        self.registered = registered

    def size(self) -> int:
        """Extent tuples plus materialized lattice rows -- the shipped
        row count the migration ship-vs-recompute criterion compares
        (identical on every replica, so the decision is too)."""
        return len(self.registered.view) + self.registered.lattice.stored_tuples()

    def execute(self) -> Dict[str, object]:
        lattice = self.registered.lattice
        fragment = {}
        for subset in lattice.materialized_sets():
            relation = lattice.relation_for(subset)
            fragment[subset] = (
                relation.schema,
                [tuple(cell.id for cell in row) for row in relation.rows],
            )
        return {"pairs": self.registered.view.content(), "lattice": fragment}
