"""DTDs as extended context-free grammars with regular right-hand sides.

Content models are regular expressions over element labels::

    name(l)         a single required child labeled l
    seq(m1, m2...)  concatenation
    choice(m1,...)  disjunction
    star(m) / plus(m) / opt(m)
    empty_model()   EMPTY
    text_model()    #PCDATA (character data only)
    any_model()     ANY

Matching a child-label sequence against a model runs a Thompson-style
epsilon-NFA built once per element declaration.  Besides validation,
the analyses feeding Section 3.3 live here:

* :meth:`ContentModel.required_labels` -- labels occurring in *every*
  word of the model's language (a ``b → c`` rule makes ``c`` required);
* :meth:`DTD.required_descendants` -- the transitive closure of the
  above, which induces the Δ-table implications of Examples 3.9/3.10.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


class ContentModel:
    """Base class of content-model regular expressions."""

    def required_labels(self) -> FrozenSet[str]:
        """Labels present in every word of the language."""
        raise NotImplementedError

    def possible_labels(self) -> FrozenSet[str]:
        """Labels present in at least one word."""
        raise NotImplementedError

    def nullable(self) -> bool:
        """Does the language contain the empty word?"""
        raise NotImplementedError

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        raise NotImplementedError


class _Name(ContentModel):
    def __init__(self, label: str):
        self.label = label

    def required_labels(self) -> FrozenSet[str]:
        return frozenset((self.label,))

    def possible_labels(self) -> FrozenSet[str]:
        return frozenset((self.label,))

    def nullable(self) -> bool:
        return False

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        nfa.add_label_edge(start, self.label, end)

    def __repr__(self) -> str:
        return self.label


class _Seq(ContentModel):
    def __init__(self, parts: Sequence[ContentModel]):
        self.parts = list(parts)

    def required_labels(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.required_labels()
        return frozenset(out)

    def possible_labels(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.possible_labels()
        return frozenset(out)

    def nullable(self) -> bool:
        return all(part.nullable() for part in self.parts)

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        current = start
        for part in self.parts[:-1]:
            nxt = nfa.new_state()
            part._build(nfa, current, nxt)
            current = nxt
        self.parts[-1]._build(nfa, current, end)

    def __repr__(self) -> str:
        return "(%s)" % ", ".join(repr(part) for part in self.parts)


class _Choice(ContentModel):
    def __init__(self, parts: Sequence[ContentModel]):
        self.parts = list(parts)

    def required_labels(self) -> FrozenSet[str]:
        sets = [part.required_labels() for part in self.parts]
        out = set(sets[0])
        for other in sets[1:]:
            out &= other
        return frozenset(out)

    def possible_labels(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.possible_labels()
        return frozenset(out)

    def nullable(self) -> bool:
        return any(part.nullable() for part in self.parts)

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        for part in self.parts:
            part._build(nfa, start, end)

    def __repr__(self) -> str:
        return "(%s)" % " | ".join(repr(part) for part in self.parts)


class _Repeat(ContentModel):
    def __init__(self, inner: ContentModel, at_least_one: bool):
        self.inner = inner
        self.at_least_one = at_least_one

    def required_labels(self) -> FrozenSet[str]:
        return self.inner.required_labels() if self.at_least_one else frozenset()

    def possible_labels(self) -> FrozenSet[str]:
        return self.inner.possible_labels()

    def nullable(self) -> bool:
        return not self.at_least_one or self.inner.nullable()

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        loop = nfa.new_state()
        self.inner._build(nfa, loop, loop)
        if self.at_least_one:
            first = nfa.new_state()
            self.inner._build(nfa, start, first)
            nfa.add_eps_edge(first, loop)
            nfa.add_eps_edge(first, end)
            nfa.add_eps_edge(loop, end)
        else:
            nfa.add_eps_edge(start, loop)
            nfa.add_eps_edge(loop, end)

    def __repr__(self) -> str:
        return "%r%s" % (self.inner, "+" if self.at_least_one else "*")


class _Opt(ContentModel):
    def __init__(self, inner: ContentModel):
        self.inner = inner

    def required_labels(self) -> FrozenSet[str]:
        return frozenset()

    def possible_labels(self) -> FrozenSet[str]:
        return self.inner.possible_labels()

    def nullable(self) -> bool:
        return True

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        self.inner._build(nfa, start, end)
        nfa.add_eps_edge(start, end)

    def __repr__(self) -> str:
        return "%r?" % (self.inner,)


class _Empty(ContentModel):
    def required_labels(self) -> FrozenSet[str]:
        return frozenset()

    def possible_labels(self) -> FrozenSet[str]:
        return frozenset()

    def nullable(self) -> bool:
        return True

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        nfa.add_eps_edge(start, end)

    def __repr__(self) -> str:
        return "EMPTY"


class _Any(ContentModel):
    def required_labels(self) -> FrozenSet[str]:
        return frozenset()

    def possible_labels(self) -> FrozenSet[str]:
        return frozenset(("*",))

    def nullable(self) -> bool:
        return True

    def _build(self, nfa: "_NFA", start: int, end: int) -> None:
        nfa.add_label_edge(start, "*", start)
        nfa.add_eps_edge(start, end)

    def __repr__(self) -> str:
        return "ANY"


def name(label: str) -> ContentModel:
    return _Name(label)


def seq(*parts: ContentModel) -> ContentModel:
    return _Seq(parts) if len(parts) != 1 else parts[0]


def choice(*parts: ContentModel) -> ContentModel:
    return _Choice(parts) if len(parts) != 1 else parts[0]


def star(inner: ContentModel) -> ContentModel:
    return _Repeat(inner, at_least_one=False)


def plus(inner: ContentModel) -> ContentModel:
    return _Repeat(inner, at_least_one=True)


def opt(inner: ContentModel) -> ContentModel:
    return _Opt(inner)


def empty_model() -> ContentModel:
    return _Empty()


def text_model() -> ContentModel:
    """#PCDATA: character content only, no element children."""
    return _Empty()


def any_model() -> ContentModel:
    return _Any()


class _NFA:
    """Thompson epsilon-NFA over the label alphabet ('*' = wildcard)."""

    def __init__(self) -> None:
        self.eps: List[List[int]] = []
        self.labeled: List[List[Tuple[str, int]]] = []
        self.start = self.new_state()
        self.accept = self.new_state()

    def new_state(self) -> int:
        self.eps.append([])
        self.labeled.append([])
        return len(self.eps) - 1

    def add_eps_edge(self, src: int, dst: int) -> None:
        self.eps[src].append(dst)

    def add_label_edge(self, src: int, label: str, dst: int) -> None:
        self.labeled[src].append((label, dst))

    def _closure(self, states: Set[int]) -> Set[int]:
        stack = list(states)
        closed = set(states)
        while stack:
            state = stack.pop()
            for nxt in self.eps[state]:
                if nxt not in closed:
                    closed.add(nxt)
                    stack.append(nxt)
        return closed

    def matches(self, labels: Sequence[str]) -> bool:
        current = self._closure({self.start})
        for label in labels:
            nxt: Set[int] = set()
            for state in current:
                for edge_label, dst in self.labeled[state]:
                    if edge_label == "*" or edge_label == label:
                        nxt.add(dst)
            if not nxt:
                return False
            current = self._closure(nxt)
        return self.accept in current


class DTDSyntaxError(ValueError):
    pass


class DTD:
    """A set of element declarations ``label → content model``.

    Undeclared elements are treated as ``ANY`` (open interpretation),
    so partial DTDs constrain only what they mention.
    """

    def __init__(self, rules: Dict[str, ContentModel], root: Optional[str] = None):
        self.rules = dict(rules)
        self.root = root
        self._nfas: Dict[str, _NFA] = {}

    def _nfa_for(self, label: str) -> Optional[_NFA]:
        if label not in self.rules:
            return None
        nfa = self._nfas.get(label)
        if nfa is None:
            nfa = _NFA()
            self.rules[label]._build(nfa, nfa.start, nfa.accept)
            self._nfas[label] = nfa
        return nfa

    def allows_children(self, label: str, child_labels: Sequence[str]) -> bool:
        """Does the child element-label sequence satisfy the model?"""
        nfa = self._nfa_for(label)
        if nfa is None:
            return True
        return nfa.matches(list(child_labels))

    # -- analyses feeding Section 3.3 --------------------------------------

    def required_children(self, label: str) -> FrozenSet[str]:
        model = self.rules.get(label)
        return model.required_labels() if model is not None else frozenset()

    def required_descendants(self, label: str) -> FrozenSet[str]:
        """Labels that must occur (at any depth) under every ``label``.

        Fixpoint over the required-children relation; a label requiring
        itself transitively denotes an unsatisfiable (infinite) element,
        which we simply report as requiring itself.
        """
        required: Set[str] = set()
        frontier = list(self.required_children(label))
        while frontier:
            current = frontier.pop()
            if current in required:
                continue
            required.add(current)
            frontier.extend(self.required_children(current) - required)
        return frozenset(required)

    def __repr__(self) -> str:
        return "DTD(%d rules)" % len(self.rules)


_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.-]+)\s+(.*?)>", re.DOTALL)


def _parse_model(text: str) -> ContentModel:
    text = text.strip()
    parser = _ModelParser(text)
    model = parser.parse_expression()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise DTDSyntaxError("trailing content in model %r" % text)
    return model


class _ModelParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_expression(self) -> ContentModel:
        self.skip_ws()
        if self.text.startswith("EMPTY", self.pos):
            self.pos += 5
            return empty_model()
        if self.text.startswith("ANY", self.pos):
            self.pos += 3
            return any_model()
        return self._parse_postfix()

    def _parse_postfix(self) -> ContentModel:
        base = self._parse_base()
        self.skip_ws()
        if self.pos < len(self.text):
            suffix = self.text[self.pos]
            if suffix == "*":
                self.pos += 1
                return star(base)
            if suffix == "+":
                self.pos += 1
                return plus(base)
            if suffix == "?":
                self.pos += 1
                return opt(base)
        return base

    def _parse_base(self) -> ContentModel:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            parts = [self._parse_postfix()]
            self.skip_ws()
            connective = None
            while self.pos < len(self.text) and self.text[self.pos] in ",|":
                symbol = self.text[self.pos]
                if connective is None:
                    connective = symbol
                elif connective != symbol:
                    raise DTDSyntaxError("mixed , and | in one group: %r" % self.text)
                self.pos += 1
                parts.append(self._parse_postfix())
                self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise DTDSyntaxError("unbalanced parentheses in %r" % self.text)
            self.pos += 1
            if connective == "|":
                return choice(*parts)
            return seq(*parts)
        if self.text.startswith("#PCDATA", self.pos):
            self.pos += len("#PCDATA")
            return text_model()
        match = re.match(r"[\w.-]+", self.text[self.pos:])
        if match is None:
            raise DTDSyntaxError("expected a name at %r" % self.text[self.pos:])
        self.pos += match.end()
        return name(match.group())


def parse_dtd(text: str, root: Optional[str] = None) -> DTD:
    """Parse ``<!ELEMENT name (model)>`` declarations."""
    rules: Dict[str, ContentModel] = {}
    for match in _ELEMENT_RE.finditer(text):
        label, model_text = match.group(1), match.group(2)
        rules[label] = _parse_model(model_text)
    if not rules:
        raise DTDSyntaxError("no element declarations found")
    return DTD(rules, root=root)
