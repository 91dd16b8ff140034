"""Unit-purity rule: shard work units compute, the parent applies.

``ShardWorkUnit.execute`` runs on a session replica worker during a
view migration; the contract is that it *reads* the document/view
state it captured and *returns* a fragment -- installation
happens afterwards, on whichever replica adopts the view.  A
``self``-rooted write inside ``execute`` would change the source
replica's state behind the migration protocol's back, so the two
routes of a migration (ship vs. recompute) would stop yielding the
same bytes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register
from repro.analysis.rules._util import chain_root, walk_shallow
from repro.analysis.rules.forksafety import _MUTATING_METHODS, work_unit_classes

#: method names with the execute contract (``run`` kept for future units).
_EXECUTE_METHODS = {"execute", "run", "__call__"}


@register
class UnitImpureWriteRule(Rule):
    """``self``-rooted writes inside a work unit's execute method."""

    id = "unit-impure-write"
    family = "purity"
    description = (
        "shard work unit execute() assigning through self; units must "
        "return fragments, the parent applies them after the merge"
    )
    packages = frozenset({"sharding", "maintenance"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        units = work_unit_classes(module.tree)
        for class_node in module.tree.body:
            if not isinstance(class_node, ast.ClassDef) or class_node.name not in units:
                continue
            for item in class_node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in _EXECUTE_METHODS
                ):
                    yield from self._check_execute(module, class_node, item)

    def _check_execute(self, module, class_node, body) -> Iterator[Finding]:
        for node in walk_shallow(body):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if self._is_self_rooted(target):
                        yield self.finding(
                            module,
                            target,
                            "%s.%s() writes through self (engine/document/"
                            "lattice state); return the change as a fragment "
                            "instead" % (class_node.name, body.name),
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if self._is_self_rooted(target):
                        yield self.finding(
                            module,
                            target,
                            "%s.%s() deletes through self; units must not "
                            "mutate captured state" % (class_node.name, body.name),
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and self._is_self_rooted(func.value)
                ):
                    yield self.finding(
                        module,
                        node,
                        "%s.%s() mutates captured state via .%s(); build the "
                        "result locally and return it as a fragment"
                        % (class_node.name, body.name, func.attr),
                    )
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.finding(
                    module,
                    node,
                    "%s.%s() reaches for %s state; execute() must be pure"
                    % (
                        class_node.name,
                        body.name,
                        "global" if isinstance(node, ast.Global) else "nonlocal",
                    ),
                )

    @staticmethod
    def _is_self_rooted(target: ast.AST) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(
                UnitImpureWriteRule._is_self_rooted(element)
                for element in target.elts
            )
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return False
        root = chain_root(target)
        return root is not None and root.id == "self"
