"""Hot-path rules: keep document-order sorting and bisecting in C.

``DeweyID`` orders by a precomputed ``sort_key``, a byte string compared
by memcmp; its rich comparisons are Python methods that merely compare
those keys.  A sort keyed by the ID *object* therefore pays a Python
call per comparison (1.6 s of a 23 s ``insert_bulk`` profile before the
keys were used everywhere), while ``key=lambda n: n.id.sort_key``
yields the same order with every comparison done by the bytes type in
C.  The same holds for a ``bisect`` probing with an ID object into a
list of IDs (~600 k ``DeweyID.__lt__`` calls per ``delete_mix`` run in
``dirty_removed_nodes`` before it bisected key lists).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register
from repro.analysis.rules._util import dotted_name, sort_key_exprs


@register
class SortByDeweyObjectRule(Rule):
    """``key=lambda n: n.id`` -- sorts through ``DeweyID.__lt__``."""

    id = "sort-by-dewey-object"
    family = "hot-path"
    description = (
        "sort key is a node's .id object; key by .id.sort_key so "
        "comparisons stay in C"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for key_expr in sort_key_exprs(module.tree):
            if (
                isinstance(key_expr, ast.Lambda)
                and isinstance(key_expr.body, ast.Attribute)
                and key_expr.body.attr == "id"
            ):
                yield self.finding(
                    module, key_expr, "sorting by a DeweyID object compares "
                    "through Python-level __lt__; use key=lambda ...: "
                    "....id.sort_key (same order, C comparisons)"
                )


_BISECT_FUNCTIONS = frozenset(
    ("bisect", "bisect_left", "bisect_right", "insort", "insort_left", "insort_right")
)


@register
class BisectByDeweyObjectRule(Rule):
    """``bisect.bisect_left(ids, node.id)`` -- probes through ``DeweyID.__lt__``."""

    id = "bisect-by-dewey-object"
    family = "hot-path"
    description = (
        "bisect probe is a node's .id object; probe a sort_key list with "
        ".id.sort_key so comparisons stay in C"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in _BISECT_FUNCTIONS:
                continue
            probe = node.args[1]
            if isinstance(probe, ast.Attribute) and probe.attr == "id":
                yield self.finding(
                    module, node, "bisecting with a DeweyID object compares "
                    "through Python-level __lt__; keep a parallel sort_key "
                    "list and probe it with ....id.sort_key (same position, "
                    "C comparisons)"
                )
