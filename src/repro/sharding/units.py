"""Work units of the session's view-migration protocol.

A unit is a pure slice of work on one view: it reads the replica state
it captured (document, registered view) and returns a **fragment** --
sorted ``(row, count)`` extent pairs, a picklable value that can cross
the worker pipe and is installed with
:meth:`~repro.views.view.MaterializedView.reload_content`.  Mutation never
happens here, which is what lets either route of a migration yield the
same bytes on the adopting replica.  Snowcap lattices never cross the
pipe: the adopting side rebuilds one from its own document.

* :class:`ViewSnapshotUnit` -- reads one registered view's *stored*
  extent pairs (no re-evaluation); the source replica ships them when
  the view is small.
* :class:`ExtentRecomputeUnit` -- evaluates one view's extent rows
  against the adopting replica's own document, in the same shape, when
  the view is too big to ship.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.pattern.evaluate import evaluate_view
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
    pairs, installable via :meth:`MaterializedView.reload_content`."""

    def __init__(self, view_name: str, *, pattern, document):
        super().__init__(view_name)
        self.pattern = pattern
        self.document = document

    def execute(self) -> List[Tuple[tuple, int]]:
        content = evaluate_view(self.pattern, self.document)
        return sorted(content, key=lambda item: row_sort_key(item[0]))


class ViewSnapshotUnit(ShardWorkUnit):
    """Snapshot one registered view's stored extent for migration.

    Unlike :class:`ExtentRecomputeUnit`, nothing is re-evaluated: the
    pairs come straight out of the store, already current on the source
    replica, in the recompute unit's sorted ``(row, count)`` shape, so
    the adopting replica installs either indistinguishably.
    """

    def __init__(self, view_name: str, *, registered):
        super().__init__(view_name)
        self.registered = registered

    def size(self) -> int:
        """Extent tuples -- the shipped row count the migration
        ship-vs-recompute criterion compares (identical on every
        replica, so the decision is too)."""
        return self.registered.view.stored_size()

    def execute(self) -> List[Tuple[tuple, int]]:
        return self.registered.view.content()
