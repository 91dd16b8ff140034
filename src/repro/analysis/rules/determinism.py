"""Determinism rules: the extents must not depend on PYTHONHASHSEED,
wall clocks or entropy.

Sharded propagation is only byte-identical to serial propagation if
every ordered output is derived from deterministically ordered inputs.
The classic leak is iterating a ``set`` (string hashing is seed-salted,
so iteration order changes run to run) into a list, a joined string or
a loop that appends -- harmless for membership tests, fatal when it
feeds fragment assembly.  These rules flag the leak patterns at the
source level; ``tests/test_hashseed_determinism.py`` closes the same
gap dynamically.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis.core import ORDERED_OUTPUT_PACKAGES, Finding, ModuleInfo, Rule, register
from repro.analysis.rules._util import (
    dotted_name,
    func_scopes,
    sort_key_exprs,
    walk_shallow,
)

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
#: builtins whose result is order-free, so feeding them a set is fine.
_NEUTRAL_CONSUMERS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
    "bool",
}
_SET_PRESERVING_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    if name is None:
        return False
    return name.split(".")[-1] in _SET_ANNOTATIONS


class _ScopeSets:
    """Names that are set-typed throughout one scope.

    A name qualifies only when *every* binding in the scope produces a
    set (literal, comprehension, ``set()``/``frozenset()`` call, set
    operator, set-returning method, or another qualifying name) or its
    annotation says so; any other binding disqualifies it, keeping the
    rule conservative on reuse.  Resolved to a fixed point so chains
    (``b = a``) qualify too.
    """

    def __init__(self, scope: ast.AST):
        self.scope = scope
        self.names: Set[str] = set()
        previous = None
        for _round in range(10):
            self.names = self._compute(self.names)
            if self.names == previous:
                break
            previous = set(self.names)

    def _compute(self, known: Set[str]) -> Set[str]:
        bindings: Dict[str, bool] = {}
        bound_as_set: Set[str] = set()

        def bind(name: str, is_set: bool) -> None:
            bindings[name] = bindings.get(name, True) and is_set
            if is_set:
                bound_as_set.add(name)

        def bind_target(target: ast.AST, is_set: bool) -> None:
            if isinstance(target, ast.Name):
                bind(target.id, is_set)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind_target(element, False)
            elif isinstance(target, ast.Starred):
                bind_target(target.value, False)

        if isinstance(self.scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = self.scope.args
            for arg in (
                list(getattr(arguments, "posonlyargs", []))
                + arguments.args
                + arguments.kwonlyargs
                + [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
            ):
                bind(arg.arg, _annotation_is_set(arg.annotation))

        for node in walk_shallow(self.scope):
            if isinstance(node, ast.Assign):
                is_set = self._is_set_expr(node.value, known)
                for target in node.targets:
                    bind_target(target, is_set)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                is_set = _annotation_is_set(node.annotation) or (
                    node.value is not None and self._is_set_expr(node.value, known)
                )
                bind(node.target.id, is_set)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                if not isinstance(node.op, _SET_PRESERVING_OPS):
                    bind(node.target.id, False)
            elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                bind(node.target.id, self._is_set_expr(node.value, known))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bind_target(node.target, False)
            elif isinstance(node, ast.comprehension):
                bind_target(node.target, False)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                bind_target(node.optional_vars, False)

        return {name for name, ok in bindings.items() if ok and name in bound_as_set}

    def _is_set_expr(self, node: ast.AST, known: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in known
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set_expr(func.value, known)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_PRESERVING_OPS):
            return self._is_set_expr(node.left, known) or self._is_set_expr(
                node.right, known
            )
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body, known) and self._is_set_expr(
                node.orelse, known
            )
        return False

    def is_set_expr(self, node: ast.AST) -> bool:
        return self._is_set_expr(node, self.names)


@register
class SetIterationRule(Rule):
    """Iterating a set into an ordered sink (loop, list, join, ...)."""

    id = "det-set-iter"
    family = "determinism"
    description = (
        "iteration over a set/frozenset feeding an ordered output; set "
        "iteration order varies with PYTHONHASHSEED"
    )
    packages = ORDERED_OUTPUT_PACKAGES

    _MESSAGE = (
        "iterating a set here has PYTHONHASHSEED-dependent order; sort it "
        "(sorted(...)) or keep an insertion-ordered dict instead"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        parents = module.parent_map()
        for scope in func_scopes(module.tree):
            sets = _ScopeSets(scope)
            if not sets.names and not self._has_set_literal(scope):
                continue
            for node in walk_shallow(scope):
                yield from self._check_node(module, node, sets, parents)

    @staticmethod
    def _has_set_literal(scope: ast.AST) -> bool:
        for node in walk_shallow(scope):
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _SET_CONSTRUCTORS:
                    return True
        return False

    def _check_node(self, module, node, sets, parents) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if sets.is_set_expr(node.iter):
                yield self.finding(module, node.iter, self._MESSAGE)
            return
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if not sets.is_set_expr(generator.iter):
                    continue
                if isinstance(node, ast.GeneratorExp) and self._consumed_neutrally(
                    node, parents
                ):
                    continue
                yield self.finding(module, generator.iter, self._MESSAGE)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple", "enumerate", "iter")
                and node.args
                and sets.is_set_expr(node.args[0])
            ):
                yield self.finding(
                    module,
                    node.args[0],
                    "%s() over a set has PYTHONHASHSEED-dependent order; "
                    "sort the set first" % func.id,
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("join", "extend")
                and node.args
                and sets.is_set_expr(node.args[0])
            ):
                yield self.finding(
                    module,
                    node.args[0],
                    ".%s(<set>) has PYTHONHASHSEED-dependent order; sort the "
                    "set first" % func.attr,
                )

    @staticmethod
    def _consumed_neutrally(node: ast.GeneratorExp, parents) -> bool:
        parent = parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _NEUTRAL_CONSUMERS
        )


_BANNED_ENTROPY_CALLS = {
    "os.urandom": "os.urandom is entropy; propagation must be replayable",
    "uuid.uuid1": "uuid1 mixes clock and MAC state into results",
    "uuid.uuid4": "uuid4 is entropy; derive ids from document state instead",
}


@register
class RandomRule(Rule):
    """Unseeded randomness anywhere in the engine tree."""

    id = "det-random"
    family = "determinism"
    description = (
        "unseeded randomness; only explicitly seeded random.Random "
        "instances are reproducible"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    module,
                    node,
                    "import the random module and construct a seeded "
                    "random.Random(seed) instead of using module-level state",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed is entropy-backed; "
                        "pass an explicit seed",
                    )
                continue
            if name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    "module-level random.%s() shares unseeded global state; "
                    "use a seeded random.Random instance" % name.split(".", 1)[1],
                )
            elif name in _BANNED_ENTROPY_CALLS or name.startswith("secrets."):
                yield self.finding(
                    module,
                    node,
                    _BANNED_ENTROPY_CALLS.get(
                        name, "secrets-module entropy is not replayable"
                    ),
                )


_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """Wall-clock reads; durations must come from ``time.perf_counter``."""

    id = "det-wallclock"
    family = "determinism"
    description = (
        "wall-clock read; results that embed timestamps differ run to run"
    )

    def applies(self, module: ModuleInfo) -> bool:
        # repro.obs has its own, stricter clock discipline (the
        # obs-clock rule below): export.py alone may stamp capture
        # times, everything else is perf_counter-only.
        return module.top_package != "obs"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALLCLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    "%s() reads the wall clock; use time.perf_counter() for "
                    "durations or pass timestamps in explicitly" % name,
                )


@register
class ObsClockRule(Rule):
    """Clock discipline inside ``repro.obs``: spans carry monotonic
    (``perf_counter``/``monotonic``) readings only; the one place
    allowed to stamp wall-clock capture times is ``obs/export.py``."""

    id = "obs-clock"
    family = "determinism"
    description = (
        "wall-clock read inside repro.obs outside export.py; spans must "
        "carry perf_counter/monotonic readings only"
    )
    packages = frozenset({"obs"})

    _EXPORT_MODULE = ("obs", "export")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package == self._EXPORT_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALLCLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    "%s() stamps wall-clock time into trace data; only "
                    "repro/obs/export.py may do that (at export time) -- "
                    "use time.perf_counter()/time.monotonic() here" % name,
                )


def _calls_to(expr: ast.AST, builtin: str) -> Iterator[ast.Call]:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == builtin
        ):
            yield node


_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@register
class IdOrderRule(Rule):
    """Ordering by ``id()`` -- CPython addresses change run to run."""

    id = "det-id-order"
    family = "determinism"
    description = "ordering by id(); object addresses are not reproducible"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for key_expr in sort_key_exprs(module.tree):
            if isinstance(key_expr, ast.Name) and key_expr.id == "id":
                yield self.finding(
                    module, key_expr, "sorting by the id() builtin orders by "
                    "object address; sort by a stable key (e.g. DeweyID)"
                )
                continue
            for call in _calls_to(key_expr, "id"):
                yield self.finding(
                    module, call, "id() inside a sort key orders by object "
                    "address; sort by a stable key (e.g. DeweyID)"
                )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, _ORDERING_OPS) for op in node.ops):
                continue
            for side in [node.left] + list(node.comparators):
                for call in _calls_to(side, "id"):
                    yield self.finding(
                        module, call, "comparing id() values imposes an "
                        "address-based order; compare stable keys instead"
                    )
                    break


@register
class HashOrderRule(Rule):
    """Ordering or bucketing by ``hash()`` -- str hashing is seed-salted."""

    id = "det-hash-order"
    family = "determinism"
    description = (
        "hash()-derived ordering or bucketing; str/bytes hashing varies "
        "with PYTHONHASHSEED"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        flagged = set()
        for key_expr in sort_key_exprs(module.tree):
            for call in _calls_to(key_expr, "hash"):
                flagged.add(id(call))
                yield self.finding(
                    module, call, "hash() inside a sort key varies with "
                    "PYTHONHASHSEED for strings; sort by the value itself"
                )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                for call in _calls_to(node.left, "hash"):
                    if id(call) not in flagged:
                        flagged.add(id(call))
                        yield self.finding(
                            module, call, "hash(x) % n bucketing varies with "
                            "PYTHONHASHSEED; use a stable hash such as "
                            "zlib.crc32"
                        )
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, _ORDERING_OPS) for op in node.ops
            ):
                for side in [node.left] + list(node.comparators):
                    for call in _calls_to(side, "hash"):
                        if id(call) not in flagged:
                            flagged.add(id(call))
                            yield self.finding(
                                module, call, "ordering hash() values varies "
                                "with PYTHONHASHSEED; compare stable keys"
                            )
