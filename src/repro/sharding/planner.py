"""View-to-worker planning shared by the session and the rebalancer.

A :class:`~repro.sharding.session.ShardSession` partitions the
registered views across its resident workers with :func:`lpt_assignment`
and measures how level that partition is with :func:`imbalance_ratio`;
the rebalance policy (:mod:`repro.sharding.rebalance`) re-plans with the
same two helpers, so there is exactly one LPT implementation and one
notion of "balanced".
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def lpt_assignment(weights: Dict[str, float], workers: int) -> List[List[str]]:
    """Deterministic LPT partition of weighted names across workers.

    Names are placed heaviest-first (ties broken by name) into the
    currently lightest bucket (ties broken by bucket index), the classic
    longest-processing-time approximation whose makespan stays within
    4/3 of the optimum.  Both the session's fork-time view assignment
    and the rebalance policy's migration planning call this one
    implementation, so a frozen plan and a re-planned one can never
    disagree about what "balanced" means.
    """
    if workers < 1:
        raise ValueError("need at least one worker, got %d" % workers)
    buckets: List[List[str]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for name in sorted(weights, key=lambda key: (-weights[key], key)):
        slot = loads.index(min(loads))
        buckets[slot].append(name)
        loads[slot] += weights[name]
    return buckets


def imbalance_ratio(loads: Sequence[float]) -> float:
    """Max over mean bucket load; 1.0 for an empty or all-zero plan.

    The makespan quality metric shared by the session's
    ``repro_session_lpt_imbalance_ratio`` gauge and the rebalance
    policy's trigger/target thresholds: 1.0 is a perfectly level plan,
    N means one worker carries everything.
    """
    loads = list(loads)
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean > 0.0 else 1.0
