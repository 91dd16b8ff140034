"""Picklable span fragments for the fork boundary.

Tracers hold locks and thread-locals, so span trees recorded inside a
forked worker cannot be pickled back whole.  Workers flatten each root
tree into flat :class:`SpanFragment` rows -- scalars plus a ``path``
tuple encoding tree position -- and the owner rebuilds the trees with
:func:`fragments_to_spans`.  Reconstruction sorts by ``path``, so the
result is independent of the order fragments travelled in, exactly like
extent fragments merging in Dewey order.

``path`` addressing: ``(r,)`` is the r-th root recorded by that worker,
``(r, 0)`` its first child, ``(r, 0, 2)`` that child's third child.
``start_offset`` is the span's start relative to its root's start (the
workers' ``perf_counter`` origins are not comparable across processes;
offsets within one tree are).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.trace import Span

__all__ = ["SpanFragment", "spans_to_fragments", "fragments_to_spans"]


class SpanFragment:
    """One span flattened to picklable scalars; see module docstring."""

    __slots__ = ("path", "name", "attrs", "start_offset", "seconds")

    path: Tuple[int, ...]
    name: str
    attrs: Dict[str, Any]
    start_offset: float
    seconds: float

    def __init__(
        self,
        path: Tuple[int, ...],
        name: str,
        attrs: Dict[str, Any],
        start_offset: float,
        seconds: float,
    ) -> None:
        self.path = tuple(path)
        self.name = name
        self.attrs = dict(attrs)
        self.start_offset = float(start_offset)
        self.seconds = float(seconds)

    def __getstate__(self):
        return (self.path, self.name, self.attrs, self.start_offset, self.seconds)

    def __setstate__(self, state) -> None:
        self.path, self.name, self.attrs, self.start_offset, self.seconds = state

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanFragment):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanFragment(%r, %r)" % (self.path, self.name)


def spans_to_fragments(roots: Sequence[Span]) -> List[SpanFragment]:
    """Flatten root span trees into fragment rows (preorder)."""
    fragments: List[SpanFragment] = []
    for root_index, root in enumerate(roots):
        origin = root.start
        stack: List[Tuple[Span, Tuple[int, ...]]] = [(root, (root_index,))]
        while stack:
            span, path = stack.pop()
            fragments.append(
                SpanFragment(path, span.name, span.attrs, span.start - origin, span.seconds)
            )
            for child_index, child in enumerate(span.children):
                stack.append((child, path + (child_index,)))
    return fragments


def fragments_to_spans(
    fragments: Iterable[SpanFragment], origin: float = 0.0
) -> List[Span]:
    """Rebuild root span trees from fragments, in ``path`` order, each
    span starting at ``origin`` plus its root-relative offset.

    Deterministic under any permutation of ``fragments``; raises
    ``ValueError`` when a fragment's parent path is missing (a torn
    shipment must fail loudly, not stitch a hole).
    """
    ordered = sorted(fragments, key=lambda fragment: fragment.path)
    roots: List[Span] = []
    by_path: Dict[Tuple[int, ...], Span] = {}
    for fragment in ordered:
        span = Span(
            fragment.name,
            dict(fragment.attrs),
            start=origin + fragment.start_offset,
            seconds=fragment.seconds,
        )
        by_path[fragment.path] = span
        if len(fragment.path) == 1:
            roots.append(span)
        else:
            parent = by_path.get(fragment.path[:-1])
            if parent is None:
                raise ValueError("span fragment %r has no parent" % (fragment.path,))
            parent.children.append(span)
    return roots
