"""Fork-safety rules for the session worker model.

Session workers are forked (COW) and talk to the parent over pipes or
pickled fragments.  Two contracts keep that sound:

* worker entry points -- functions handed to ``Process(target=...)``
  -- must treat module globals as read-only.  The parent publishes
  state *before* forking (``_FORK_STATE``); a worker-side write would
  silently diverge from the parent and from sibling workers.
* objects that cross the fork/pickle boundary must not capture
  fork-hostile resources: held locks deadlock in the child, shared
  file descriptors interleave writes, generators don't pickle at all.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.core import Finding, ModuleInfo, Rule, register
from repro.analysis.rules._util import chain_root, dotted_name, walk_shallow

_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
}


def module_level_names(tree: ast.Module) -> Set[str]:
    """Names assigned (not just imported) at module scope."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(
                    element.id
                    for element in target.elts
                    if isinstance(element, ast.Name)
                )
    return names


def worker_entry_functions(tree: ast.Module) -> Set[str]:
    """Function names handed to ``Process(target=...)`` in this module."""
    entries: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
                    entries.add(keyword.value.id)
    return entries


def _worker_bodies(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every function body that runs inside a forked worker."""
    entries = worker_entry_functions(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in entries:
            yield node


@register
class WorkerGlobalWriteRule(Rule):
    """Worker-side writes to module globals diverge after fork."""

    id = "fork-worker-global-write"
    family = "fork-safety"
    description = (
        "module-level state mutated inside a fork-worker entry point; "
        "workers must treat globals as read-only COW snapshots"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        globals_here = module_level_names(module.tree)
        for body in _worker_bodies(module.tree):
            for node in walk_shallow(body):
                if isinstance(node, ast.Global):
                    yield self.finding(
                        module,
                        node,
                        "worker '%s' declares globals %s; publish state from "
                        "the parent before forking instead"
                        % (body.name, ", ".join(node.names)),
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        yield from self._flag_global_target(
                            module, body, target, globals_here
                        )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        yield from self._flag_global_target(
                            module, body, target, globals_here
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATING_METHODS
                    ):
                        root = chain_root(func.value)
                        if (
                            root is not None
                            and root.id in globals_here
                            and not self._is_local(body, root.id)
                        ):
                            yield self.finding(
                                module,
                                node,
                                "worker '%s' mutates module-level '%s' via "
                                ".%s(); workers may only read fork-published "
                                "state" % (body.name, root.id, func.attr),
                            )

    def _flag_global_target(
        self, module, body, target, globals_here
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._flag_global_target(
                    module, body, element, globals_here
                )
            return
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            # Plain assignment creates a local unless declared global --
            # the Global statement branch already covers that case.
            return
        if isinstance(target, ast.Subscript):
            root = chain_root(target)
            name = root.id if root is not None else None
        if name is not None and name in globals_here and not self._is_local(body, name):
            yield self.finding(
                module,
                body if not hasattr(target, "lineno") else target,
                "worker '%s' writes through module-level '%s'; workers may "
                "only read fork-published state" % (body.name, name),
            )

    @staticmethod
    def _is_local(body: ast.FunctionDef, name: str) -> bool:
        """Name shadowed by a parameter or plain local binding."""
        arguments = body.args
        for arg in (
            list(getattr(arguments, "posonlyargs", []))
            + arguments.args
            + arguments.kwonlyargs
            + [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
        ):
            if arg.arg == name:
                return True
        # Globals first: a declared-global name is never local no matter
        # how many assignments walk_shallow happens to visit before the
        # Global statement (walk order is not source order).
        for node in walk_shallow(body):
            if isinstance(node, ast.Global) and name in node.names:
                return False
        for node in walk_shallow(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return True
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return True
        return False


_LOCK_CONSTRUCTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
}


@register
class UnsafeCaptureRule(Rule):
    """Fork-hostile resources captured on instances in sharding classes."""

    id = "fork-unsafe-capture"
    family = "fork-safety"
    description = (
        "lock/file/generator stored on an instance that may cross the "
        "fork or pickle boundary"
    )
    packages = frozenset({"sharding", "storage"})

    #: defining any of these declares the class's boundary behaviour
    #: explicitly (typically ``__getstate__`` raising TypeError so the
    #: resource can never cross silently) -- the rule's concern is the
    #: *silent* capture, so such classes are exempt.
    _BOUNDARY_DUNDERS = frozenset(
        {"__getstate__", "__reduce__", "__reduce_ex__"}
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            declares_boundary = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in self._BOUNDARY_DUNDERS
                for item in class_node.body
            )
            if declares_boundary:
                continue
            for node in ast.walk(class_node):
                if not isinstance(node, ast.Assign):
                    continue
                stores_on_self = any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in node.targets
                )
                if not stores_on_self:
                    continue
                problem = self._fork_hostile(node.value)
                if problem is not None:
                    yield self.finding(
                        module,
                        node,
                        "%s stored on an instance in class '%s'; objects here "
                        "cross the fork/pickle boundary -- keep such "
                        "resources module-level in the parent, recreate them "
                        "per process, or declare the boundary explicitly "
                        "with a __getstate__ that refuses to pickle"
                        % (problem, class_node.name),
                    )

    @staticmethod
    def _fork_hostile(value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.GeneratorExp):
            return "a generator (unpicklable, state lost on fork)"
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        leaf = name.split(".")[-1]
        if leaf in _LOCK_CONSTRUCTORS and (
            "." not in name or name.split(".")[0] in ("threading", "multiprocessing")
        ):
            return "a %s" % name
        if name == "open":
            return "an open file handle"
        if name == "sqlite3.connect" or name == "sqlite3.Connection":
            return "a sqlite connection"
        return None
