"""Load generation for the end-to-end benchmark.

The generator is the benchmark's side of the fence: it reads the live
document only to resolve targets, and the program under test receives
nothing but the generated statements.  Two traps shaped it (both found
by probing, see README.md):

* a stream resolved once against the *initial* document goes stale as
  deletes cascade -- after a few thousand statements almost nothing
  resolves and the "work" evaporates.  Streams are therefore generated
  in **segments against the live document**, between timed intervals;
* insert-only streams grow the document, so per-batch time drifts
  upward.  Sizes are **fixed statement counts** (never "as many as fit
  in N seconds"), so both sides of a comparison do identical work.

Only the public ``repro.workloads`` generators are used
(``statement_stream`` / ``churn_batches`` / ``drift_batches``).
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Sequence

from repro.workloads.churn import churn_batches
from repro.workloads.drift import drift_batches
from repro.workloads.updates import statement_stream


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between order
    statistics -- the "inclusive" definition, exact at q=0 and q=1."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1], got %r" % (q,))
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- stream kinds -----------------------------------------------------------
#
# Each kind maps (document, batches, batch_size, seed, **options) to a
# list of statement lists, one per batch, resolved against ``document``
# as it is *now*.


def mixed_batches(document, batches, batch_size, seed, insert_ratio=1.0):
    """Appendix-A single-target inserts/deletes cut into equal batches."""
    stream = statement_stream(
        document, batches * batch_size, seed=seed, insert_ratio=insert_ratio
    )
    return [stream[i : i + batch_size] for i in range(0, len(stream), batch_size)]


def churn_sigma_batches(document, batches, batch_size, seed, sigma_values=None):
    """σ flips, round-trips, dirty pairs and skewed background churn."""
    return churn_batches(
        document, batches, batch_size=batch_size, seed=seed, sigma_values=sigma_values
    )


def drift_rotation_batches(document, batches, batch_size, seed, insert_ratio=0.75):
    """One full hot-family rotation (people, auctions, regions)."""
    return drift_batches(
        document, batches, batch_size=batch_size, seed=seed, insert_ratio=insert_ratio
    )


class SegmentedStream:
    """Seeded batches generated segment by segment on the live document.

    ``next_segment`` must only be called while the program is quiescent
    (no batch in flight): it walks the document.  Generation time is
    accumulated in ``gen_seconds`` and never overlaps a timed interval.
    """

    def __init__(
        self,
        document,
        kind: Callable[..., List[list]],
        seed: int,
        batch_size: int,
        segment_batches: int,
        **options,
    ):
        self.document = document
        self.kind = kind
        self.seed = seed
        self.batch_size = batch_size
        self.segment_batches = segment_batches
        self.options = options
        self.segments = 0
        self.gen_seconds = 0.0

    def next_segment(self, batches: int = 0) -> List[list]:
        """Up to ``segment_batches`` (or ``batches`` if smaller and
        non-zero) statement lists; each segment draws from its own seed
        so a run is reproducible from ``seed`` alone."""
        count = min(batches, self.segment_batches) if batches else self.segment_batches
        started = time.perf_counter()
        # 7919 keeps the per-segment seeds of neighbouring --seed
        # values disjoint (seed n, segment 1 != seed n+1, segment 0).
        segment = self.kind(
            self.document,
            count,
            self.batch_size,
            self.seed * 7919 + self.segments,
            **self.options,
        )
        self.gen_seconds += time.perf_counter() - started
        self.segments += 1
        return [batch for batch in segment if batch]

    def segments_for(self, batches: int):
        """Yield segments until ``batches`` batches have been produced."""
        produced = 0
        while produced < batches:
            segment = self.next_segment(batches - produced)
            if not segment:
                raise RuntimeError("the generator produced an empty segment")
            produced += len(segment)
            yield segment


def stale_share(pul_ops: int, statements_applied: int) -> float:
    """Share of applied statements that resolved no target any more.

    Every generated statement resolves at least one target when it is
    generated, so an applied statement that yields no pending-update
    operation was stale.  Path deletes can match several nodes, hence
    the clamp at zero.
    """
    if statements_applied <= 0:
        return 0.0
    return max(0.0, 1.0 - pul_ops / statements_applied)


def open_loop(
    submit: Callable[[object], object],
    statements: Sequence[object],
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
):
    """Submit ``statements`` at ``rate`` per second, on schedule.

    Statement *i* is due at ``start + i / rate``.  The generator sleeps
    to each due time and never skips or thins the schedule: when it is
    late it submits at once, and the lateness is reported rather than
    hidden.  Returns ``(due_times, sent_times)`` on ``clock``; latency
    must be measured from the *due* time, so a stall charges every
    statement that had to wait behind it.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    start = clock()
    due_times: List[float] = []
    sent_times: List[float] = []
    for index, statement in enumerate(statements):
        due = start + index / rate
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        due_times.append(due)
        sent_times.append(clock())
        submit(statement)
    return due_times, sent_times
