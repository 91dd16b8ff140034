"""Mixed-churn update streams: the batches that used to force fallbacks.

:func:`~repro.workloads.updates.statement_stream` produces structurally
clean insert/delete mixes -- the shapes the Δ± term pipeline was built
for.  This module generates the *adversarial* complement, the stream
shapes that historically tripped the engine's whole-view recompute
fallbacks and now exercise the σ-flip repair and dirty-subtree
restoration paths:

* **σ-value rewrites** -- a text-bearing marker element inserted under
  a live σ-watched node (e.g. an ``increase`` whose ``val`` a view
  filters on) changes the node's ``val`` without inserting a view
  candidate, flipping the predicate *false*;
* **insert-then-delete round-trips** -- the marker is deleted a few
  batches later by a path targeting exactly that marker label, which
  restores the original ``val`` and flips the predicate back *true*
  (the admit side of the repair);
* **dirty pairs** -- an insert under a stored-``val`` node followed,
  in the *same* batch, by a path delete of a matched ancestor: the
  removed subtree's ``val`` drifted before its removal, which the
  engine restores from its first-seen snapshots;
* **skewed background churn** -- Appendix-A single-target inserts and
  deletes with a power-law skew over update names, so shard planning
  sees realistic label imbalance.

Markers get per-event labels (``flip7``, ``dirt3``), so the round-trip
deletes are precise and never collide across batches.  All randomness
comes from one ``random.Random(seed)``; resolved targets are taken
from the document *as generated*, so two engines replaying the same
batches stay byte-identical (stale targets skip at apply time on both
sides, exactly as in ``statement_stream``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.updates.language import (
    DeleteUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateStatement,
)
from repro.xmldom.parser import parse_fragment
from repro.workloads.updates import UPDATE_TEXTS, insert_update

#: default σ constants to flip: the Appendix-A increase amounts (Q3
#: filters 4.50; the σ-repair bench registers views over the others).
DEFAULT_SIGMA_VALUES = ("4.50", "100.00", "150.00", "200.00", "250.00", "300.00")


def flip_candidates(
    document, sigma_label: str = "increase", sigma_values: Optional[Sequence[str]] = None
) -> List:
    """Live ``sigma_label`` elements whose val a σ constant watches."""
    wanted = set(sigma_values) if sigma_values else None
    return [
        node
        for node in document.nodes_with_label(sigma_label)
        if node.kind == "element" and (wanted is None or node.val in wanted)
    ]


def churn_batches(
    document,
    batches: int,
    batch_size: int = 6,
    seed: int = 0,
    *,
    flips_per_batch: int = 2,
    flip_gap: int = 2,
    dirty_every: int = 3,
    skew: float = 3.0,
    sigma_label: str = "increase",
    sigma_values: Optional[Sequence[str]] = DEFAULT_SIGMA_VALUES,
    names: Optional[Sequence[str]] = None,
) -> List[List[UpdateStatement]]:
    """Generate ``batches`` statement lists with σ-flip churn.

    Each batch carries up to ``flips_per_batch`` σ-value rewrites
    (marker inserts under live ``sigma_label`` nodes), the marker
    deletes scheduled ``flip_gap`` batches earlier (flipping those σ
    values back), a dirty insert+ancestor-delete pair every
    ``dirty_every``-th batch, and skewed Appendix-A background churn
    filling up to ``batch_size`` statements.  ``skew`` is the exponent
    of the update-name choice (higher = a few names dominate).
    Round-trip deletes scheduled past the horizon flush into the last
    batch, so every stream ends with its σ values restored.
    """
    rng = random.Random(seed)
    chosen_names = list(names or sorted(UPDATE_TEXTS))
    targets_by_name: Dict[str, List] = {}
    flip_pool = flip_candidates(document, sigma_label, sigma_values)
    #: flip targets carrying a marker not yet deleted; only "clean"
    #: nodes get a fresh marker, so each marker insert really rewrites
    #: the node's original σ value.
    busy_ids: set = set()
    #: batch index -> [(round-trip delete, target id it frees)].
    pending: Dict[int, List[Tuple[UpdateStatement, object]]] = {}
    name_supply = [
        node
        for node in document.nodes_with_label("name")
        if node.kind == "element"
    ]
    marker = 0
    result: List[List[UpdateStatement]] = []
    for index in range(batches):
        batch: List[UpdateStatement] = []
        for statement, freed_id in pending.pop(index, ()):
            batch.append(statement)
            busy_ids.discard(freed_id)
        free = [node for node in flip_pool if node.id not in busy_ids]
        for _ in range(min(flips_per_batch, len(free))):
            target = free.pop(rng.randrange(len(free)))
            marker += 1
            tag = "flip%d" % marker
            batch.append(
                ResolvedInsertUpdate(
                    [target.id],
                    parse_fragment("<%s>x</%s>" % (tag, tag)),
                    name="%s#%d" % (tag, index),
                )
            )
            busy_ids.add(target.id)
            pending.setdefault(index + flip_gap, []).append(
                (
                    DeleteUpdate(
                        "//%s/%s" % (sigma_label, tag),
                        name="%s_del#%d" % (tag, index),
                    ),
                    target.id,
                )
            )
        if dirty_every and index % dirty_every == dirty_every - 1 and name_supply:
            target = name_supply.pop(rng.randrange(len(name_supply)))
            marker += 1
            tag = "dirt%d" % marker
            batch.append(
                ResolvedInsertUpdate(
                    [target.id],
                    parse_fragment("<%s>zz</%s>" % (tag, tag)),
                    name="%s#%d" % (tag, index),
                )
            )
            # Same batch: a path delete of the marked ancestor -- the
            # removed name's val drifted before its removal (a resolved
            # delete would void the insert during coalescing instead).
            batch.append(
                DeleteUpdate(
                    "//person[name/%s]" % tag, name="%s_del#%d" % (tag, index)
                )
            )
            # Names sharing the deleted person are gone too.
            person_id = _person_ancestor(target)
            if person_id is not None:
                name_supply = [
                    node
                    for node in name_supply
                    if not person_id.is_ancestor_of(node.id)
                ]
        while len(batch) < batch_size and chosen_names:
            pick = min(
                int(len(chosen_names) * (rng.random() ** skew)),
                len(chosen_names) - 1,
            )
            name = chosen_names[pick]
            base = insert_update(name)
            targets = targets_by_name.get(name)
            if targets is None:
                targets = [node.id for node in base.target.evaluate(document)]
                targets_by_name[name] = targets
            if not targets:
                chosen_names.remove(name)
                continue
            target_id = rng.choice(targets)
            label = "%s#%d.%d" % (name, index, len(batch))
            if rng.random() < 0.75:
                batch.append(
                    ResolvedInsertUpdate([target_id], base.forest, name=label)
                )
            else:
                batch.append(
                    ResolvedDeleteUpdate([target_id], name=label + "_del")
                )
        result.append(batch)
    leftovers = [
        statement
        for key in sorted(pending)
        for statement, _freed in pending[key]
    ]
    if leftovers and result:
        result[-1].extend(leftovers)
    return result


def _person_ancestor(node):
    """The Dewey ID of the nearest ``person`` ancestor, if any."""
    for ancestor_id in node.id.ancestor_ids():
        if ancestor_id.label == "person":
            return ancestor_id
    return None
