"""XPath``{/,//,*,[]}`` parser and evaluator.

This is the path language *XP* of Section 2 used (a) inside view
definitions and (b) as the target language of updates, where the
XPathMark-derived test set (Appendix A) additionally exercises ``and`` /
``or`` / parenthesised filter combinations -- all supported here.

Grammar (no reverse axes, no functions except ``text()``):

    path      := ('/' | '//') step (('/' | '//') step)*
                 | step (('/' | '//') step)*            (relative)
    step      := nametest predicate*
    nametest  := NAME | '*' | '@' NAME | 'text()'
    predicate := '[' orexpr ']'
    orexpr    := andexpr ('or' andexpr)*
    andexpr   := atom ('and' atom)*
    atom      := '(' orexpr ')' | relpath ('=' literal)?
                 | literal '=' relpath

A predicate path without comparison is an existence test.  Comparisons
follow the paper's ``string(x) = c`` semantics: *some* node reached by
the path has string value equal to the literal.

The conjunctive, or-free fragment converts to a tree pattern via
:func:`path_to_pattern` (used when updates/views are fed to the
algebraic machinery); arbitrary filters are evaluated directly against
a document via :func:`evaluate_path` (the paper delegates this job to
Saxon -- finding target nodes -- which we replace here).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Union

from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.xmldom.model import (
    TEXT_LABEL,
    AttributeNode,
    Document,
    ElementNode,
    Node,
    TextNode,
)


class XPathSyntaxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Step:
    """One location step: an axis, a name test and predicates."""

    __slots__ = ("axis", "test", "predicates")

    def __init__(self, axis: str, test: str, predicates: Sequence["FilterExpr"] = ()):
        self.axis = axis  # 'child' | 'desc'
        self.test = test  # label, '*', '@name' or 'text()'
        self.predicates = list(predicates)

    def __repr__(self) -> str:
        sep = "/" if self.axis == "child" else "//"
        preds = "".join("[%r]" % p for p in self.predicates)
        return "%s%s%s" % (sep, self.test, preds)


class FilterExpr:
    """Base class of predicate expressions."""

    def evaluate(self, node: Node, document: Document) -> bool:
        raise NotImplementedError

    def is_conjunctive(self) -> bool:
        raise NotImplementedError


class ExistsFilter(FilterExpr):
    """``[p]``: the relative path has at least one match."""

    def __init__(self, path: "PathExpr"):
        self.path = path

    def evaluate(self, node: Node, document: Document) -> bool:
        return bool(self.path.match_from(node, document))

    def is_conjunctive(self) -> bool:
        return all(
            pred.is_conjunctive() for step in self.path.steps for pred in step.predicates
        )

    def __repr__(self) -> str:
        return "Exists(%r)" % (self.path,)


class ValueFilter(FilterExpr):
    """``[p = 'c']``: some node reached by ``p`` has string value c.

    An empty relative path (``[. = 'c']`` is not in the grammar, but
    ``string($x) = c`` from the view language maps here) compares the
    context node itself.
    """

    def __init__(self, path: Optional["PathExpr"], constant: str):
        self.path = path
        self.constant = constant

    def evaluate(self, node: Node, document: Document) -> bool:
        if self.path is None:
            return node.val == self.constant
        return any(
            match.val == self.constant
            for match in self.path.match_from(node, document)
        )

    def is_conjunctive(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "Value(%r = %r)" % (self.path, self.constant)


class AndFilter(FilterExpr):
    def __init__(self, parts: Sequence[FilterExpr]):
        self.parts = list(parts)

    def evaluate(self, node: Node, document: Document) -> bool:
        return all(part.evaluate(node, document) for part in self.parts)

    def is_conjunctive(self) -> bool:
        return all(part.is_conjunctive() for part in self.parts)

    def __repr__(self) -> str:
        return "And(%r)" % (self.parts,)


class OrFilter(FilterExpr):
    def __init__(self, parts: Sequence[FilterExpr]):
        self.parts = list(parts)

    def evaluate(self, node: Node, document: Document) -> bool:
        return any(part.evaluate(node, document) for part in self.parts)

    def is_conjunctive(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "Or(%r)" % (self.parts,)


class PathExpr:
    """A parsed path: absolute (anchored at the document root) or relative.

    Evaluation works on a whole frontier at a time and picks each side
    of a join from sizes it already holds -- the length of a label's
    document-ordered canonical relation R_l, or of the frontier:

    * a child step ``/l`` semi-joins R_l with the frontier (the rows
      whose parent is a context, by identity) when R_l is the smaller
      side, and scans the contexts' child lists otherwise;
    * a ``//l`` step reads R_l -- all of it for the first step of an
      absolute path, the bisected run under each context node
      otherwise (Dewey order keeps a subtree contiguous);
    * a predicate built from child-step paths (``[p]``, ``[p = 'c']``,
      ``and``, ``or``) qualifies the whole frontier in one pass: the
      frontier is advanced through ``p`` and each reached node mapped
      to its k-th parent, or, when |R_last|·k is below the frontier's
      size, each R_last row walks up k parents to a context;
    * an absolute path whose last relation, times its step count, is
      smaller than its first is matched bottom-up: each R_last row's
      ancestor chain against the steps.

    Only ``//*`` walks a subtree, and only a predicate with a ``//``
    step or a nested predicate runs once per context node.
    """

    def __init__(self, steps: Sequence[Step], absolute: bool):
        if not steps:
            raise XPathSyntaxError("empty path")
        self.steps = list(steps)
        self.absolute = absolute

    # -- evaluation ---------------------------------------------------------

    def match_from(self, context: Node, document: Document) -> List[Node]:
        """All nodes reached from ``context`` (relative semantics), in
        document order."""
        frontier: List[Node] = [context]
        for step in self.steps:
            frontier = _advance(step, frontier, document)
        return frontier

    def evaluate(self, document: Document) -> List[Node]:
        """Absolute evaluation: target nodes in document order."""
        steps = self.steps
        first = steps[0]
        root = document.root
        rows: Optional[List[Node]]
        if first.axis == "child":
            rows = [root] if _test_matches(first.test, root) else []
        else:
            label = _relation_label(first.test)
            rows = None if label is None else document.nodes_with_label(label)
        last_label = _relation_label(steps[-1].test)
        if len(steps) > 1 and last_label is not None:
            last_rows = document.nodes_with_label(last_label)
            # A first ``//*`` step has no relation to size; it walks
            # the whole document, which no relation outgrows.
            if rows is None or len(last_rows) * len(steps) < len(rows):
                return _bottom_up(steps, last_rows, document)
        if rows is None:
            rows = [
                node
                for node in root.self_and_descendants()
                if _test_matches(first.test, node)
            ]
        frontier = _filtered(first, rows, document, whole=first.axis == "desc")
        for step in steps[1:]:
            frontier = _advance(step, frontier, document)
        # The first step's rows may be the live relation.
        return list(frontier) if frontier is rows else frontier

    # -- properties ------------------------------------------------------------

    def is_conjunctive(self) -> bool:
        return all(pred.is_conjunctive() for step in self.steps for pred in step.predicates)

    def __repr__(self) -> str:
        return "".join(repr(step) for step in self.steps)


def _test_matches(test: str, node: Optional[Node]) -> bool:
    """Whether ``node`` passes a name test (never when it is None, the
    root's parent)."""
    if test == "*":
        return isinstance(node, ElementNode)
    if test == "text()":
        return isinstance(node, TextNode)
    if test.startswith("@"):
        return isinstance(node, AttributeNode) and node.label == test
    return isinstance(node, ElementNode) and node.label == test


def _relation_label(test: str) -> Optional[str]:
    """The canonical relation holding exactly the nodes a name test
    accepts (labels partition node kinds: ``@name`` attributes,
    ``#text`` text nodes, bare element names); None for ``*``."""
    if test == "*":
        return None
    return TEXT_LABEL if test == "text()" else test


def _document_order(node: Node):
    return node.id.sort_key


def _advance(step: Step, frontier: List[Node], document: Document) -> List[Node]:
    """One location step from a document-ordered, duplicate-free
    frontier to the next one."""
    if step.axis == "child":
        reached = _child_step(step.test, frontier, document, ordered=True)
    else:
        # A context nested under an earlier one contributes nothing new
        # (an ID-only test); the remaining subtrees are disjoint and in
        # document order, so their runs simply concatenate.
        contexts: List[Node] = []
        for context in frontier:
            if not (contexts and contexts[-1].id.is_ancestor_of(context.id)):
                contexts.append(context)
        label = _relation_label(step.test)
        if label is None:
            reached = [
                node
                for context in contexts
                for node in context.descendants()
                if _test_matches(step.test, node)
            ]
        else:
            reached = [
                node
                for context in contexts
                for node in document.descendants_with_label(context, label)
            ]
    return _filtered(step, reached, document)


def _child_step(
    test: str, frontier: Collection[Node], document: Document, ordered: bool
) -> List[Node]:
    """The nodes passing ``test`` whose parent is in ``frontier``;
    document-ordered when ``ordered`` (or when R_l was read)."""
    label = _relation_label(test)
    if label is not None:
        rows = document.nodes_with_label(label)
        if len(rows) < len(frontier):
            # Semi-join: R_l's rows whose parent is a context.  R_l is
            # in document order, so the result already is.
            contexts = set(frontier)
            return [node for node in rows if node.parent in contexts]
    # Distinct parents have disjoint child lists; only their
    # interleaving (nested contexts) can break document order.
    reached = [
        child
        for context in frontier
        if isinstance(context, ElementNode)
        for child in context.children
        if _test_matches(test, child)
    ]
    if ordered and len(frontier) > 1:
        reached.sort(key=_document_order)
    return reached


def _filtered(
    step: Step, nodes: List[Node], document: Document, whole: bool = False
) -> List[Node]:
    """``nodes`` that pass every predicate of ``step``, in order.

    ``whole`` says ``nodes`` is every document node passing
    ``step.test`` (the first step of ``//l``): membership is then the
    name test, and a rare predicate never reads the relation.
    """
    if not step.predicates:
        return nodes
    qualified = _conjunction(
        step.predicates, nodes, document, step.test if whole else None
    )
    if whole:
        return sorted(qualified, key=_document_order)
    return [node for node in nodes if node in qualified]


# A frontier's qualifying members, kept as an insertion-ordered set.
_Qualified = Dict[Node, None]


def _conjunction(
    parts: Sequence[FilterExpr],
    frontier: Collection[Node],
    document: Document,
    whole_test: Optional[str],
) -> _Qualified:
    """The members of ``frontier`` passing every part; like ``and`` per
    node, each part sees only the contexts the earlier ones kept.
    ``whole_test`` is the name test ``frontier`` holds every node of,
    if it does."""
    for part in parts:
        frontier = _qualifying(part, frontier, document, whole_test)
        whole_test = None
    return frontier  # type: ignore[return-value]


def _qualifying(
    expr: FilterExpr,
    frontier: Collection[Node],
    document: Document,
    whole_test: Optional[str],
) -> _Qualified:
    """The members of ``frontier`` that satisfy ``expr``."""
    if isinstance(expr, AndFilter):
        return _conjunction(expr.parts, frontier, document, whole_test)
    if isinstance(expr, OrFilter):
        qualified: _Qualified = {}
        for part in expr.parts:
            # Like ``or`` per node, a part is tried only on the contexts
            # the earlier ones left -- unless that means reading a whole
            # relation to find them.
            if qualified and whole_test is None:
                frontier = [node for node in frontier if node not in qualified]
            qualified.update(_qualifying(part, frontier, document, whole_test))
        return qualified
    if isinstance(expr, ValueFilter) and expr.path is None:
        return dict.fromkeys(node for node in frontier if node.val == expr.constant)
    if isinstance(expr, (ExistsFilter, ValueFilter)) and all(
        step.axis == "child" and not step.predicates for step in expr.path.steps
    ):
        constant = expr.constant if isinstance(expr, ValueFilter) else None
        return _chain_owners(expr.path.steps, constant, frontier, document, whole_test)
    # A ``//`` step or a nested predicate: one context node at a time.
    return dict.fromkeys(node for node in frontier if expr.evaluate(node, document))


def _chain_owners(
    steps: Sequence[Step],
    constant: Optional[str],
    frontier: Collection[Node],
    document: Document,
    whole_test: Optional[str],
) -> _Qualified:
    """The contexts in ``frontier`` from which the child-step chain
    ``steps`` reaches a node (whose ``val`` is ``constant``, if given)."""
    depth = len(steps)
    last_label = _relation_label(steps[-1].test)
    if last_label is not None:
        rows = document.nodes_with_label(last_label)
        if len(rows) * depth < len(frontier):
            if whole_test is None:
                in_frontier: Callable[[Any], bool] = set(frontier).__contains__
            else:
                in_frontier = partial(_test_matches, whole_test)
            owners: _Qualified = {}
            for node in rows:
                # Up one parent per step, testing each name on the way;
                # past the root the owner is None, which passes no test.
                owner: Any = node
                for step in reversed(steps):
                    if not _test_matches(step.test, owner):
                        break
                    owner = owner.parent
                else:
                    if in_frontier(owner) and (constant is None or node.val == constant):
                        owners[owner] = None
            return owners
    reached: Collection[Node] = frontier
    for step in steps:
        reached = _child_step(step.test, reached, document, ordered=False)
    owners = {}
    for node in reached:
        if constant is None or node.val == constant:
            owner = node
            for _ in range(depth):
                owner = owner.parent
            owners[owner] = None
    return owners


def _bottom_up(steps: Sequence[Step], rows: List[Node], document: Document) -> List[Node]:
    """The rows of the last step's relation an absolute path reaches,
    found by matching each row's ancestor chain against the steps; a
    subsequence of ``rows``, so in document order.  Each (step, node)
    pair -- predicates included -- is decided once."""
    root = document.root
    decided: Dict[tuple, bool] = {}

    def reaches(index: int, node: Node) -> bool:
        key = (index, node)
        hit = decided.get(key)
        if hit is None:
            step = steps[index]
            if not _test_matches(step.test, node):
                hit = False
            elif index == 0:
                hit = step.axis == "desc" or node is root
            elif step.axis == "child":
                hit = node.parent is not None and reaches(index - 1, node.parent)
            else:
                hit = any(reaches(index - 1, above) for above in node.ancestors())
            hit = hit and all(pred.evaluate(node, document) for pred in step.predicates)
            decided[key] = hit
        return hit

    last = len(steps) - 1
    return [node for node in rows if reaches(last, node)]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_PUNCT = ("//", "/", "[", "]", "(", ")", "=", "@")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char in " \t\r\n":
            index += 1
            continue
        if text.startswith("//", index):
            tokens.append("//")
            index += 2
            continue
        if char in "/[]()=@":
            tokens.append(char)
            index += 1
            continue
        if char in "'\"":
            end = text.find(char, index + 1)
            if end == -1:
                raise XPathSyntaxError("unterminated literal in %r" % text)
            tokens.append("'" + text[index + 1:end])
            index = end + 1
            continue
        if char == "*":
            tokens.append("*")
            index += 1
            continue
        start = index
        while index < length and (text[index].isalnum() or text[index] in "._-"):
            index += 1
        if index == start:
            raise XPathSyntaxError("unexpected character %r in %r" % (char, text))
        name = text[start:index]
        if text.startswith("()", index) and name == "text":
            tokens.append("text()")
            index += 2
        else:
            tokens.append(name)
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[str], source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise XPathSyntaxError("unexpected end of %r" % self.source)
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise XPathSyntaxError("expected %r, got %r in %r" % (token, got, self.source))


def _parse_nametest(stream: _TokenStream) -> str:
    token = stream.next()
    if token == "@":
        return "@" + stream.next()
    if token in ("*", "text()"):
        return token
    if token in _PUNCT or token.startswith("'"):
        raise XPathSyntaxError("expected a name test, got %r in %r" % (token, stream.source))
    if token[0].isdigit():
        # No XML name starts with a digit: ``person[1]`` is a position,
        # which read as a name test would silently match nothing.
        raise XPathSyntaxError(
            "positional predicates are unsupported, got %r in %r" % (token, stream.source)
        )
    return token


def _parse_steps(stream: _TokenStream, first_axis: str) -> List[Step]:
    steps: List[Step] = []
    axis = first_axis
    while True:
        test = _parse_nametest(stream)
        predicates: List[FilterExpr] = []
        while stream.peek() == "[":
            stream.next()
            predicates.append(_parse_or(stream))
            stream.expect("]")
        steps.append(Step(axis, test, predicates))
        token = stream.peek()
        if token == "/":
            stream.next()
            axis = "child"
        elif token == "//":
            stream.next()
            axis = "desc"
        else:
            return steps


def _parse_relative_path(stream: _TokenStream) -> "PathExpr":
    token = stream.peek()
    if token == "/":
        stream.next()
        return PathExpr(_parse_steps(stream, "child"), absolute=False)
    if token == "//":
        stream.next()
        return PathExpr(_parse_steps(stream, "desc"), absolute=False)
    return PathExpr(_parse_steps(stream, "child"), absolute=False)


def _parse_atom(stream: _TokenStream) -> FilterExpr:
    token = stream.peek()
    if token == "(":
        stream.next()
        inner = _parse_or(stream)
        stream.expect(")")
        return inner
    if token is not None and token.startswith("'"):
        literal = stream.next()[1:]
        stream.expect("=")
        path = _parse_relative_path(stream)
        return ValueFilter(path, literal)
    path = _parse_relative_path(stream)
    if stream.peek() == "=":
        stream.next()
        literal_token = stream.next()
        if not literal_token.startswith("'"):
            raise XPathSyntaxError(
                "comparison against non-literal %r in %r" % (literal_token, stream.source)
            )
        return ValueFilter(path, literal_token[1:])
    return ExistsFilter(path)


def _parse_and(stream: _TokenStream) -> FilterExpr:
    parts = [_parse_atom(stream)]
    while stream.peek() == "and":
        stream.next()
        parts.append(_parse_atom(stream))
    return parts[0] if len(parts) == 1 else AndFilter(parts)


def _parse_or(stream: _TokenStream) -> FilterExpr:
    parts = [_parse_and(stream)]
    while stream.peek() == "or":
        stream.next()
        parts.append(_parse_and(stream))
    return parts[0] if len(parts) == 1 else OrFilter(parts)


def parse_xpath(text: str) -> PathExpr:
    """Parse an absolute or relative XPath``{/,//,*,[]}`` expression."""
    stream = _TokenStream(_tokenize(text), text)
    token = stream.peek()
    if token == "/":
        stream.next()
        path = PathExpr(_parse_steps(stream, "child"), absolute=True)
    elif token == "//":
        stream.next()
        path = PathExpr(_parse_steps(stream, "desc"), absolute=True)
    else:
        path = PathExpr(_parse_steps(stream, "child"), absolute=False)
    if stream.peek() is not None:
        raise XPathSyntaxError("trailing tokens in %r" % text)
    return path


def evaluate_path(path: Union[str, PathExpr], document: Document) -> List[Node]:
    """Find the target nodes of a path in document order."""
    if isinstance(path, str):
        path = parse_xpath(path)
    return path.evaluate(document)


# ---------------------------------------------------------------------------
# Conversion to tree patterns (conjunctive fragment)
# ---------------------------------------------------------------------------


def _filter_to_branches(expr: FilterExpr, parent: PatternNode) -> None:
    if isinstance(expr, AndFilter):
        for part in expr.parts:
            _filter_to_branches(part, parent)
        return
    if isinstance(expr, ExistsFilter):
        _graft_path(expr.path, parent, value_pred=None)
        return
    if isinstance(expr, ValueFilter):
        if expr.path is None:
            parent.value_pred = expr.constant
        else:
            _graft_path(expr.path, parent, value_pred=expr.constant)
        return
    raise XPathSyntaxError(
        "disjunctive predicate %r cannot become a conjunctive tree pattern" % (expr,)
    )


def _graft_path(
    path: PathExpr, parent: PatternNode, value_pred: Optional[str]
) -> PatternNode:
    node = parent
    for position, step in enumerate(path.steps):
        test = step.test
        if test == "text()":
            # string comparison against the parent's value
            if value_pred is not None and position == len(path.steps) - 1:
                node.value_pred = value_pred
                return node
            raise XPathSyntaxError("text() steps only make sense in comparisons")
        child = PatternNode(test, axis=step.axis)
        node.add_child(child)
        node = child
        for predicate in step.predicates:
            _filter_to_branches(predicate, node)
    if value_pred is not None:
        node.value_pred = value_pred
    return node


def path_to_pattern(path: Union[str, PathExpr], annotate_last: Sequence[str] = ("ID",)) -> Pattern:
    """Convert a conjunctive path to a tree pattern.

    The final step's node receives the ``annotate_last`` stored
    attributes (default: ``ID``); predicate sub-paths become unannotated
    branches.  Raises on disjunctive filters.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    if not path.is_conjunctive():
        raise XPathSyntaxError("path %r is not conjunctive" % (path,))
    first = path.steps[0]
    root = PatternNode(first.test, axis=first.axis)
    for predicate in first.predicates:
        _filter_to_branches(predicate, root)
    node = root
    for step in path.steps[1:]:
        child = PatternNode(step.test, axis=step.axis)
        node.add_child(child)
        node = child
        for predicate in step.predicates:
            _filter_to_branches(predicate, node)
    node.store_id = "ID" in annotate_last
    node.store_val = "val" in annotate_last
    node.store_cont = "cont" in annotate_last
    return Pattern(root)
