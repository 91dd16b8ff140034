"""Fragment-picklability rule.

Whatever a shard work unit returns is pickled through a session
worker's pipe, so fragment/stats classes in ``sharding/`` and ``obs/`` (span
fragments ride the same pipe) may only carry lean,
pickle-friendly fields: scalars, strings, containers of them, and
``DeweyID`` (whose ``__reduce__`` ships just the step tuple).  A raw
node, view or lattice reference would drag a subtree (or the whole
engine) through the pipe -- and worse, the unpickled copy would be
*detached* from the parent's document, so id-based application would
silently miss.  Ship DeweyIDs and let the parent resolve them.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import Finding, ModuleInfo, Rule, register
from repro.analysis.rules._util import dotted_name

#: type names (leaf of the dotted path) allowed in fragment fields.
_ALLOWED_TYPES = {
    "int",
    "float",
    "str",
    "bool",
    "bytes",
    "None",
    "tuple",
    "Tuple",
    "list",
    "List",
    "dict",
    "Dict",
    "Mapping",
    "Sequence",
    "Iterable",
    "Optional",
    "Union",
    "Any",
    "DeweyID",
}
_FRAGMENT_SUFFIXES = ("Fragment", "Stats")


def _is_fragment_class(node: ast.ClassDef) -> bool:
    return node.name.endswith(_FRAGMENT_SUFFIXES)


def _annotation_violations(annotation: ast.AST) -> Iterator[str]:
    """Type names in an annotation that fall outside the allowlist."""
    for node in ast.walk(annotation):
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            if node.value is None:
                continue
            if isinstance(node.value, str):
                # String annotation: parse and recurse.
                try:
                    inner = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    continue
                yield from _annotation_violations(inner)
            continue
        if name is not None and name not in _ALLOWED_TYPES:
            yield name


def _literal_ok(value: ast.AST) -> bool:
    if isinstance(value, ast.Constant):
        return isinstance(value.value, (int, float, str, bool, bytes, type(None)))
    if isinstance(value, (ast.Dict, ast.List, ast.Tuple)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None and name.split(".")[-1] in (
            "dict",
            "list",
            "tuple",
            "int",
            "float",
            "str",
            "bool",
            "bytes",
            "DeweyID",
        ):
            return True
    if isinstance(value, ast.Name):
        # Parameter pass-through: trust the (checked) annotation if any;
        # an unannotated parameter is opaque, so treat it as ok here --
        # the annotation check is the enforcement point.
        return True
    return False


@register
class FragmentFieldRule(Rule):
    """Fragment/stats classes may only carry allowlisted field types."""

    id = "fragment-unpicklable-field"
    family = "picklability"
    description = (
        "fragment class field outside the pickle allowlist (scalars, "
        "containers, DeweyID); ship ids, not node/view references"
    )
    packages = frozenset({"sharding", "obs"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef) or not _is_fragment_class(
                class_node
            ):
                continue
            for item in class_node.body:
                if isinstance(item, ast.AnnAssign):
                    yield from self._check_annotation(
                        module, class_node, item.target, item.annotation
                    )
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_method(module, class_node, item)

    def _check_method(self, module, class_node, method) -> Iterator[Finding]:
        for node in ast.walk(method):
            target = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            if isinstance(node, ast.AnnAssign):
                yield from self._check_annotation(
                    module, class_node, target, node.annotation
                )
            elif method.name == "__init__" and not _literal_ok(node.value):
                yield self.finding(
                    module,
                    node,
                    "field '%s.%s' is assigned an unverifiable value; fragment "
                    "fields must be allowlisted picklable types (annotate the "
                    "field, ship DeweyIDs instead of nodes)"
                    % (class_node.name, target.attr),
                )

    def _check_annotation(
        self, module, class_node, target, annotation
    ) -> Iterator[Finding]:
        field = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else "?"
        )
        for bad in _annotation_violations(annotation):
            yield self.finding(
                module,
                annotation,
                "field '%s.%s' carries type '%s', outside the fragment "
                "allowlist; pickled fragments must ship scalars/containers/"
                "DeweyID only (resolve ids in the parent)"
                % (class_node.name, field, bad),
            )
