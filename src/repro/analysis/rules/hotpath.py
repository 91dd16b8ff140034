"""Hot-path rules: keep document-order sorting in C.

``DeweyID`` orders by a precomputed nested-tuple ``sort_key``; its rich
comparisons are Python methods that merely compare those keys.  A sort
keyed by the ID *object* therefore pays a Python call per comparison
(1.6 s of a 23 s ``insert_bulk`` profile before the keys were used
everywhere), while ``key=lambda n: n.id.sort_key`` yields the same
order with every comparison done by the tuple type in C.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register
from repro.analysis.rules._util import sort_key_exprs


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
