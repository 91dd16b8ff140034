"""A reference clock for a host whose speed changes under the benchmark.

The benchmark host is a few cores of a shared machine, and what the
neighbours leave of it changes by 10-60 % for a fraction of a second, a
few seconds or minutes at a time: sometimes the whole core slows,
sometimes only code that walks a large object graph (which is what this
program does all day).  The same seed measured 871, 1183 and 1330
stmts/s in three consecutive runs of ``insert_bulk``; over forty
back-to-back repetitions of one fixed statement stream the
repetition medians spread 15-25 % (q3 - q1) and 53-74 % (max - min).
Medians inside a run cannot remove a slow period that outlasts the run,
and longer runs do not fit the driver's time limit.

So every timed interval is paired with a **reference unit** of work that
belongs to the benchmark, not to the program: a depth-first walk over a
few fixed subtrees of a synthetic document-like tree (``__slots__``
nodes with child lists and attribute dicts, 66 k nodes), collecting
tuples, filling a dict and sorting -- about 1.7 ms of the same kind of
pointer chasing, allocation and comparison the engine spends its time
on.  It is sampled immediately before and after the interval, outside
it, and the interval is reported in *reference seconds*::

    reported = measured wall * REFERENCE_S / mean(unit before, unit after)

Among the candidates probed (a compute-bound loop, random reads of a
64 MB and of an 8 MB buffer, random hops over a 300 k-node graph, this
walk) the walk's slow-down tracked the program's own best, with an
exponent of 1 and nothing to tune: the spreads above became 1.7-2.3 %
and 6-10 %.  Only adjacent samples work; a factor per segment or per
run leaves two to three times as much, because most slow stretches are
shorter than a second.

A change to the program moves the numerator only; the unit never
touches ``src/``.  ``REFERENCE_S`` is the unit's time on the quiet
reference host, which keeps reported times close to wall times there;
on another host every timing is scaled by one constant, as it would be
by a faster or slower CPU.  Each run prints the median factor it
applied (``host factor``), so the raw wall-clock numbers can be
recovered.

Per-layer metrics (traced runs) stay raw seconds: they are compared
with each other inside one run, not across runs.
"""

from __future__ import annotations

import os
import random
import time
from typing import List, Optional

#: seconds one unit takes on the quiet reference host (2-CPU sandbox)
#: when sampled between the batches of a running workload, where it
#: starts on whatever the workload left in the caches (1.4-1.8 ms
#: depending on the workload; back to back it takes 1.2 ms).  Only a
#: scale: it makes a reference second about a second there.
REFERENCE_S = 1.7e-3
#: shape of the synthetic tree: levels 0..DEPTH, fan-out per level.
_DEPTH = 7
_FANOUT = (5, 5, 5, 5, 5, 5, 3)
#: the unit walks this many subtrees rooted at this level.
_WALK_LEVEL = 3
_WALKS = 6


class _Node:
    __slots__ = ("kids", "attrs", "val", "parent")

    def __init__(self, parent: Optional["_Node"], level: int) -> None:
        self.parent = parent
        self.val = "v%d" % level
        self.attrs = {"id": level}
        self.kids: List["_Node"] = []


def _grow(parent: Optional[_Node], level: int, roots: List[_Node]) -> _Node:
    node = _Node(parent, level)
    if level == _WALK_LEVEL:
        roots.append(node)
    if level < _DEPTH:
        node.kids = [_grow(node, level + 1, roots) for _ in range(_FANOUT[level])]
    return node


def _resident_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class HostClock:
    """The reference unit and the memory it occupies."""

    def __init__(self) -> None:
        before = _resident_mb()
        roots: List[_Node] = []
        self._tree = _grow(None, 0, roots)
        # The same subtrees on every run of every commit.
        self._walks = random.Random(20110321).sample(roots, _WALKS)
        #: resident memory the clock itself added to this process; the
        #: run subtracts it from ``ru_maxrss``.
        self.footprint_mb = max(0.0, _resident_mb() - before)

    def sample(self) -> float:
        """Seconds one reference unit takes right now."""
        started = time.perf_counter()
        seen = []
        ids = {}
        for root in self._walks:
            stack = [root]
            while stack:
                node = stack.pop()
                seen.append((node.val, len(node.kids)))
                ids[id(node)] = node.attrs.get("id")
                stack.extend(node.kids)
        seen.sort()
        return time.perf_counter() - started

    def factor(self, *unit_seconds: float) -> float:
        """Multiplier that turns a wall interval measured between these
        samples of the unit into reference seconds."""
        return REFERENCE_S * len(unit_seconds) / sum(unit_seconds)
