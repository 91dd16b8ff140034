"""Label-skew drift streams: the batches that defeat a frozen LPT plan.

:func:`~repro.workloads.churn.churn_batches` stresses the repair paths;
this module stresses the *scheduler*.  It models the stage-dependent
event-rate shape of maintenance-lifecycle studies (a ~95/4/1
hot/warm/cold split whose hot set rotates as the workload moves through
phases): within one phase almost every update draws from one family of
Appendix-A update names, the *previous* phase's family keeps a decaying
cool-down tail, and everything else is background noise.  Update-name
families map onto disjoint view groups (people-, auction- and
region-centric targets, the ``VIEW_UPDATE_GROUPS`` of Figures 18-21),
so when the hot family rotates, the set of *views* doing real
maintenance work rotates with it -- exactly the drift that strands a
fork-time LPT assignment with every hot view on one resident worker
and makes :mod:`repro.sharding.rebalance` earn its keep.

Statement mechanics follow the ``churn`` generator's marker style: one
``random.Random(seed)`` drives everything, statements carry per-event
marker names (``X2_L#12.3``) so streams are greppable batch by batch,
and targets are resolved against the document *as generated* -- stale
targets skip at apply time identically on the serial and the sharded
side, so two engines replaying the same batches stay byte-identical.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.updates.language import (
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateStatement,
)
from repro.workloads.updates import VIEW_UPDATE_GROUPS, insert_update

#: hot/warm/cold event-rate split (the lifecycle-model shape).
DEFAULT_HOT_SHARE = 0.95
DEFAULT_WARM_SHARE = 0.04


def drift_phase_families() -> List[List[str]]:
    """The default rotation: three disjoint update-name families.

    Built from the per-view update groups of the Fig-18 experiments so
    each family's targets concentrate on a different view subset:
    people-centric (Q1/Q17), auction-centric (Q2/Q3/Q4) and
    region/item-centric (Q6/Q13) updates.
    """
    people = list(VIEW_UPDATE_GROUPS["Q1"])
    auctions = list(VIEW_UPDATE_GROUPS["Q2"])
    regions = sorted(
        set(VIEW_UPDATE_GROUPS["Q6"]) | set(VIEW_UPDATE_GROUPS["Q13"])
    )
    return [people, auctions, regions]


def phase_of(batch_index: int, batches: int, phase_count: int) -> int:
    """Which drift phase a batch index falls in (equal-length phases,
    any remainder absorbed by the last phase)."""
    if batches < 1 or phase_count < 1:
        raise ValueError("need positive batches and phase_count")
    per_phase = max(1, batches // phase_count)
    return min(batch_index // per_phase, phase_count - 1)


def drift_batches(
    document,
    batches: int,
    batch_size: int = 8,
    seed: int = 0,
    *,
    families: Optional[Sequence[Sequence[str]]] = None,
    insert_ratio: float = 0.75,
    hot_share: float = DEFAULT_HOT_SHARE,
    warm_share: float = DEFAULT_WARM_SHARE,
) -> List[List[UpdateStatement]]:
    """Generate ``batches`` statement lists whose hot family rotates.

    The stream is split into ``len(families)`` equal-length phases (the
    default rotation has three).  Within phase *p*, each statement
    draws its update name from family *p* with probability
    ``hot_share``, from the *previous* family (the cool-down tail) with
    ``warm_share``, else from the remaining cold names -- so the family
    going hot next stays genuinely cold until its phase begins, exactly
    the surprise that strands a fork-time assignment.  Statements are
    single-target resolved inserts/deletes exactly as in
    ``statement_stream`` (``insert_ratio`` splits them), with
    churn-style per-event marker names.
    """
    rng = random.Random(seed)
    pools = [list(family) for family in (families or drift_phase_families())]
    if not pools or not all(pools):
        raise ValueError("families must be non-empty name lists")
    targets_by_name: Dict[str, List] = {}
    forests_by_name: Dict[str, object] = {}

    def draw_name(phase: int) -> Optional[str]:
        hot = pools[phase]
        warm = pools[(phase - 1) % len(pools)]
        cold = [
            name
            for index, family in enumerate(pools)
            if index not in (phase, (phase - 1) % len(pools))
            for name in family
        ]
        roll = rng.random()
        if roll < hot_share or not (warm or cold):
            pool = hot
        elif roll < hot_share + warm_share and warm:
            pool = warm
        else:
            pool = cold or warm or hot
        return pool[rng.randrange(len(pool))] if pool else None

    result: List[List[UpdateStatement]] = []
    for index in range(batches):
        phase = phase_of(index, batches, len(pools))
        batch: List[UpdateStatement] = []
        misses = 0
        while len(batch) < batch_size and misses < 64:
            name = draw_name(phase)
            if name is None:
                break
            base = forests_by_name.get(name)
            if base is None:
                base = insert_update(name)
                forests_by_name[name] = base
            targets = targets_by_name.get(name)
            if targets is None:
                targets = [node.id for node in base.target.evaluate(document)]
                targets_by_name[name] = targets
            if not targets:
                misses += 1
                continue
            target_id = targets[rng.randrange(len(targets))]
            label = "%s#%d.%d" % (name, index, len(batch))
            if rng.random() < insert_ratio:
                batch.append(
                    ResolvedInsertUpdate([target_id], base.flat, name=label)
                )
            else:
                batch.append(ResolvedDeleteUpdate([target_id], name=label + "_del"))
        result.append(batch)
    return result
