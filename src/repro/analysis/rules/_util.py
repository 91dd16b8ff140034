"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def chain_root(node: ast.AST) -> Optional[ast.Name]:
    """The leftmost Name of an Attribute/Subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def func_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every (async) function definition, outermost first."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_shallow(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's body without descending into nested functions.

    Lambdas and comprehensions are traversed (they share the enclosing
    scope's data for our purposes); ``def``/``class`` bodies are not.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def sort_key_exprs(tree: ast.Module) -> Iterator[ast.AST]:
    """The ``key=`` expressions of sorted()/min()/max()/.sort() calls."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_sort = (
            isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_sort:
            continue
        for keyword in node.keywords:
            if keyword.arg == "key":
                yield keyword.value
