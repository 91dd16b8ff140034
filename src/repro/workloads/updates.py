"""The update test set of Appendix A (XPathMark-derived).

Five target-path classes, each named by its suffix (Appendix A):

* ``L``  -- linear path expressions;
* ``LB`` -- linear with a boolean (existence) filter;
* ``A``  -- AND predicates;
* ``O``  -- OR predicates;
* ``AO`` -- combined AND + OR predicates.

Every entry is an *insertion* statement transcribed from the appendix
(target path + XML snippet).  The experiments also run each name as a
*deletion* "deleting the nodes returned by the respective XPathMark
query" -- :func:`delete_variant` derives it from the same target path.

The inserted name/increase snippets are 5-node trees (a root plus four
children), matching the Figure 28 setting where one bulk insertion
equals five IVMA node-at-a-time calls.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.updates.language import (
    DeleteUpdate,
    InsertUpdate,
    ResolvedDeleteUpdate,
    ResolvedInsertUpdate,
    UpdateStatement,
)

_NAME_SNIPPET = (
    "<name>{who}"
    "<name>and</name><name>some</name><name>test</name><name>nodes</name>"
    "</name>"
)
_INCREASE_SNIPPET = (
    "<increase>inserted {amount}"
    "<increase>and</increase><increase>some</increase>"
    "<increase>test</increase><increase>nodes</increase>"
    "</increase>"
)


def _item_snippet(label: str, location: str = "Unknown") -> str:
    return (
        "<item><location>%s</location><quantity>1</quantity>"
        "<name>%s Item</name>"
        "<payment>Creditcard, Personal Check, Cash</payment></item>" % (location, label)
    )


def _name_update(target: str, who: str) -> Tuple[str, str]:
    return target, _NAME_SNIPPET.format(who=who)


def _increase_update(target: str, amount: str) -> Tuple[str, str]:
    return target, _INCREASE_SNIPPET.format(amount=amount)


#: name -> (target path, inserted XML snippet), transcribed from Appendix A.
UPDATE_TEXTS: Dict[str, Tuple[str, str]] = {
    # --- A.1 linear path expressions ---------------------------------
    "X1_L": _name_update("/site/people/person", "Martin"),
    "X2_L": _increase_update("/site/open_auctions/open_auction/bidder", "300.00"),
    "B3_L": _increase_update("//open_auction/bidder", "100.00"),
    "E6_L": ("/site/regions/*/item", _item_snippet("E6_L")),
    "X17_L": ("/site/regions//item", _item_snippet("X17_L")),
    "B5_L": ("/site/regions/*/item/name", _item_snippet("B5_L")),
    # --- A.2 linear with boolean filter --------------------------------
    "B7_LB": _name_update("//person[profile/@income]", "Jim"),
    "B3_LB": _increase_update(
        "/site/open_auctions/open_auction[reserve]/bidder", "4.50"
    ),
    "B5_LB": ("/site/regions/*/item[name]", _item_snippet("B5_LB")),
    # --- A.3 AND predicates ----------------------------------------------
    "A6_A": _name_update("/site/people/person[phone and homepage]", "Mimma"),
    "X3_A": _increase_update(
        "/site/open_auctions/open_auction[privacy and bidder]/bidder", "150.00"
    ),
    "B1_A": (
        "/site/regions[namerica or samerica]//item",
        _item_snippet("B1_A", "Canada"),
    ),
    "E6_A": (
        "/site/regions/*/item[description][name]",
        _item_snippet("E6_A"),
    ),
    "X20_A": (
        "/site/regions//item[description][name]",
        _item_snippet("X20_A"),
    ),
    "X16_A": (
        "/site/regions/namerica/item[description and name]",
        _item_snippet("X16_A"),
    ),
    # --- A.4 OR predicates -------------------------------------------------
    "A7_O": _name_update("/site/people/person[phone or homepage]", "Ioana"),
    "X4_O": _increase_update(
        "/site/open_auctions/open_auction[bidder or privacy]/bidder", "200.00"
    ),
    "X7_O": (
        "/site/regions//item[description or name]",
        _item_snippet("X7_O"),
    ),
    "B1_O": (
        "/site/regions[namerica or samerica]/item",
        _item_snippet("B1_O", "Canada"),
    ),
    # --- A.5 AND + OR predicates ---------------------------------------------
    "A8_AO": _name_update(
        "/site/people/person[address and (phone or homepage) and (creditcard or profile)]",
        "Angela",
    ),
    "X5_AO": _increase_update(
        "/site/open_auctions/open_auction[current and (bidder or reserve)]/bidder",
        "250.00",
    ),
    "X8_AO": (
        "/site/regions//item[description and (name or mailbox)]",
        _item_snippet("X8_AO", "New Zealand"),
    ),
}

#: class suffix -> update names (the (c1)..(c5) classes of Section 6.2).
UPDATE_CLASSES: Dict[str, List[str]] = {
    "L": ["X1_L", "X2_L", "B3_L", "E6_L", "X17_L", "B5_L"],
    "LB": ["B7_LB", "B3_LB", "B5_LB"],
    "A": ["A6_A", "X3_A", "B1_A", "E6_A", "X20_A", "X16_A"],
    "O": ["A7_O", "X4_O", "X7_O", "B1_O"],
    "AO": ["A8_AO", "X5_AO", "X8_AO"],
}

#: view -> the five updates run against it in Figures 18-21 and 26-27.
VIEW_UPDATE_GROUPS: Dict[str, List[str]] = {
    "Q1": ["X1_L", "A6_A", "A7_O", "A8_AO", "B7_LB"],
    "Q2": ["X2_L", "X3_A", "X4_O", "X5_AO", "B3_LB"],
    "Q3": ["X2_L", "X3_A", "X4_O", "X5_AO", "B3_LB"],
    "Q4": ["X2_L", "X3_A", "X4_O", "X5_AO", "B3_LB"],
    "Q6": ["B1_A", "B5_LB", "E6_L", "X7_O", "X8_AO"],
    "Q13": ["B1_O", "B5_LB", "X16_A", "X17_L", "X8_AO"],
    "Q17": ["X1_L", "A6_A", "A7_O", "A8_AO", "B7_LB"],
}


def insert_update(name: str) -> InsertUpdate:
    """The insertion statement for a test-set entry."""
    target, snippet = UPDATE_TEXTS[name]
    return InsertUpdate(target, snippet, name=name)


def delete_variant(name: str) -> DeleteUpdate:
    """The deletion twin: delete the nodes the target path returns."""
    target, _snippet = UPDATE_TEXTS[name]
    return DeleteUpdate(target, name=name + "_del")


def statement_stream(
    document,
    count: int,
    seed: int = 0,
    insert_ratio: float = 1.0,
    names: Optional[Sequence[str]] = None,
) -> List[UpdateStatement]:
    """A reproducible single-target statement stream for batch runs.

    Each statement picks one Appendix-A update name, resolves its
    target path once against ``document`` (the parsed statement and
    its resolution are cached per name, so same-name inserts share one
    flat forest) and wraps a *single* randomly chosen target as a
    Resolved statement -- the write-stream shape the batch pipeline
    and the async queue are built for.  ``insert_ratio`` is the
    fraction of insertions (the rest are single-target deletions);
    statements whose pre-resolved target has since been deleted are
    skipped by ``compute_pul`` at apply time, on both the sequential
    and the batched side, so streams stay equivalence-comparable.
    """
    rng = random.Random(seed)
    chosen_names = list(names or sorted(UPDATE_TEXTS))
    targets_by_name: Dict[str, List] = {}
    bases: Dict[str, InsertUpdate] = {}
    stream: List[UpdateStatement] = []
    while len(stream) < count:
        name = rng.choice(chosen_names)
        base = bases.get(name)
        if base is None:
            base = bases[name] = insert_update(name)
        targets = targets_by_name.get(name)
        if targets is None:
            targets = [node.id for node in base.target.evaluate(document)]
            targets_by_name[name] = targets
        if not targets:
            if len(targets_by_name) == len(chosen_names) and not any(
                targets_by_name.values()
            ):
                raise ValueError(
                    "no chosen update name resolves a target in this document"
                )
            continue
        target_id = rng.choice(targets)
        index = len(stream) + 1
        if rng.random() < insert_ratio:
            stream.append(
                ResolvedInsertUpdate(
                    [target_id], base.flat, name="%s#%d" % (name, index)
                )
            )
        else:
            stream.append(
                ResolvedDeleteUpdate([target_id], name="%s_del#%d" % (name, index))
            )
    return stream
