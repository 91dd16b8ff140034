"""XPath{/,//,*,[]} parsing, evaluation and pattern conversion."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.pattern.xpath_parser import (
    PathExpr,
    XPathSyntaxError,
    evaluate_path,
    parse_xpath,
    path_to_pattern,
)
from repro.updates.language import DeleteUpdate
from repro.xmldom.parser import parse_document
from tests.harness.reference_xpath import reference_evaluate, reference_match_from


def ids(nodes):
    return [str(n.id) for n in nodes]


class TestParsing:
    def test_steps_and_axes(self):
        path = parse_xpath("/a//b/c")
        assert [s.axis for s in path.steps] == ["child", "desc", "child"]
        assert path.absolute

    def test_relative(self):
        path = parse_xpath("b/c")
        assert not path.absolute

    def test_wildcard_attribute_text(self):
        path = parse_xpath("//*/@id/text()")
        assert [s.test for s in path.steps] == ["*", "@id", "text()"]

    def test_trailing_tokens_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("/a b")

    def test_empty_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("")

    def test_predicate_variants_parse(self):
        parse_xpath("//person[phone and homepage]")
        parse_xpath("//person[phone or homepage]")
        parse_xpath("//person[address and (phone or homepage) and (creditcard or profile)]")
        parse_xpath("//person[@id = 'person0']")
        parse_xpath("//person[profile/@income]")

    def test_positional_predicate_rejected(self):
        # Read as a name test, ``[1]`` parsed to ``person[Exists(/1)]``
        # and a delete through it removed nothing.
        for text in ("/site/people/person[1]", "//person[2]/name", "/a/1"):
            with pytest.raises(XPathSyntaxError, match="positional predicates"):
                parse_xpath(text)
        with pytest.raises(XPathSyntaxError, match="positional predicates"):
            DeleteUpdate("/site/people/person[1]")
        parse_xpath("//person1[a2]")

    def test_conjunctive_detection(self):
        assert parse_xpath("//a[b and c]").is_conjunctive()
        assert not parse_xpath("//a[b or c]").is_conjunctive()


class TestEvaluation:
    def test_absolute_child_anchors_at_root(self, people_document):
        assert ids(evaluate_path("/site/people", people_document)) == ["site1.people1"]
        assert evaluate_path("/people", people_document) == []

    def test_descendant_axis(self, people_document):
        assert len(evaluate_path("//name", people_document)) == 3

    def test_wildcard_step(self, people_document):
        out = evaluate_path("/site/*/person", people_document)
        assert len(out) == 3

    def test_attribute_step(self, people_document):
        out = evaluate_path("/site/people/person/@id", people_document)
        assert [n.val for n in out] == ["person0", "person1", "person2"]

    def test_existence_predicate(self, people_document):
        out = evaluate_path("//person[homepage]", people_document)
        assert [n.attribute("id").val for n in out] == ["person0", "person2"]

    def test_and_or_predicates(self, people_document):
        both = evaluate_path("//person[phone and homepage]", people_document)
        assert len(both) == 1
        either = evaluate_path("//person[phone or homepage]", people_document)
        assert len(either) == 2

    def test_value_comparison(self, people_document):
        out = evaluate_path("//person[name = 'Ann']", people_document)
        assert len(out) == 2

    def test_attribute_comparison(self, people_document):
        out = evaluate_path("//person[@id = 'person1']", people_document)
        assert len(out) == 1

    def test_nested_predicate_path(self, people_document):
        out = evaluate_path("//person[profile/@income]", people_document)
        assert len(out) == 1

    def test_results_in_document_order_and_deduped(self, people_document):
        out = evaluate_path("//person", people_document)
        assert ids(out) == sorted(ids(out))

    def test_text_step(self, people_document):
        out = evaluate_path("//name/text()", people_document)
        assert sorted(n.val for n in out) == ["Ann", "Ann", "Bob"]


class TestPatternConversion:
    def test_linear_path(self):
        pattern = path_to_pattern("/site/people/person")
        assert [n.label for n in pattern.nodes()] == ["site", "people", "person"]
        assert pattern.node("person#1").store_id

    def test_predicates_become_branches(self):
        pattern = path_to_pattern("//person[profile/@income]/name")
        labels = [n.label for n in pattern.nodes()]
        assert labels == ["person", "profile", "@income", "name"]
        assert pattern.node("name#1").store_id

    def test_value_predicate_lands_on_leaf(self):
        pattern = path_to_pattern("//person[@id = 'p0']")
        assert pattern.node("@id#1").value_pred == "p0"

    def test_annotation_choice(self):
        pattern = path_to_pattern("//a/b", annotate_last=("ID", "val", "cont"))
        b = pattern.node("b#1")
        assert b.store_id and b.store_val and b.store_cont

    def test_disjunction_rejected(self):
        with pytest.raises(XPathSyntaxError):
            path_to_pattern("//a[b or c]")


# -- the set-level evaluator against the by-the-definition reference ----------------


_LABELS = ("a", "b", "c")
_VALUES = ("x", "y")


def _document_xml(nodes):
    """XML for a tree grown node by node: each entry hangs below an
    earlier element (``pick`` modulo their count), so labels nest."""
    elements = [("r", None, [])]
    for pick, label, ident, text in nodes:
        element = (label, ident, [] if text is None else [text])
        elements[pick % len(elements)][2].append(element)
        elements.append(element)

    def render(element):
        if isinstance(element, str):
            return element
        label, ident, children = element
        attribute = ' id="%s"' % ident if ident is not None else ""
        return "<%s%s>%s</%s>" % (label, attribute, "".join(map(render, children)), label)

    return render(elements[0])


_maybe_value = st.one_of(st.none(), st.sampled_from(_VALUES))
_documents = st.lists(
    st.tuples(st.integers(0, 63), st.sampled_from(_LABELS), _maybe_value, _maybe_value),
    max_size=20,
).map(_document_xml)

_tests = st.sampled_from(_LABELS + ("*", "@id", "text()"))
_axes = st.sampled_from(("/", "//"))


def _chain(steps, lead=""):
    """Path text of (separator, test, predicate) steps, ``lead`` in
    place of the first separator."""
    return "".join(
        (lead if index == 0 else axis) + test + predicate
        for index, (axis, test, predicate) in enumerate(steps)
    )


def _relative(predicates, max_steps):
    """A predicate's relative path (led bare, by ``/`` or by ``//``)
    whose steps may carry one of ``predicates``."""
    return st.tuples(
        st.lists(st.tuples(_axes, _tests, predicates), min_size=1, max_size=max_steps),
        st.sampled_from(("", "/", "//")),
    ).map(lambda p: _chain(*p))


def _filters(paths):
    atoms = st.one_of(
        paths,
        st.tuples(paths, st.sampled_from(_VALUES)).map(lambda p: "%s = '%s'" % p),
        st.tuples(st.sampled_from(_VALUES), paths).map(lambda p: "'%s' = %s" % p),
    )
    operators = st.sampled_from(("and", "or"))
    return st.one_of(
        atoms,
        st.tuples(atoms, operators, atoms).map(" ".join),
        st.tuples(atoms, operators, atoms, operators, atoms).map(
            lambda p: "%s %s (%s %s %s)" % p
        ),
    ).map("[%s]".__mod__)


# Predicate paths of child steps go set-level; a nested predicate or a
# ``//`` step falls back to one context at a time.
_flat_predicates = _filters(_relative(st.just(""), max_steps=2))
_predicates = _filters(_relative(st.one_of(st.just(""), _flat_predicates), max_steps=2))
_paths = st.lists(
    st.tuples(_axes, _tests, st.one_of(st.just(""), _predicates)), min_size=1, max_size=3
).map(_chain)

# Each pinned document sits on one side of a size rule for the paths
# pinned with it; ``d`` names no node anywhere.
_MANY_A_FEW_B = (
    "<r><a><b>x</b></a><a/><a><c/></a><a/><a/><a/><b/><c><a><b/></a></c></r>"
)
_ONE_A_MANY_B = "<r><a><b>x</b><b>y</b><b/><c><b/></c></a><b/></r>"
_MANY_A_ONE_C = "<r><a><b><c>x</c></b></a><a><b/></a><a><c/></a><a/><a/><a/><a/></r>"
_MANY_C = "<r><a><b><c>x</c><c>y</c></b></a><a><b><c/><c/></b></a><c/><c/><c/></r>"
_NESTED = "<a><a><a><b>x</b></a><b/></a><c><a><b>y</b></a></c><b/></a>"


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(xml=_documents, text=_paths, pick=st.integers(min_value=0))
@example(xml=_MANY_A_FEW_B, text="a/b", pick=0)  # semi-join, bottom-up
@example(xml=_ONE_A_MANY_B, text="a/b", pick=0)  # child scan, top-down
@example(xml=_MANY_A_FEW_B, text="a[b = 'x']", pick=0)
@example(xml=_MANY_A_FEW_B, text="a[c or b]/b", pick=0)
@example(xml=_MANY_A_ONE_C, text="a[b/c]", pick=0)  # predicate bottom-up
@example(xml=_MANY_C, text="a[b/c]", pick=0)  # predicate top-down
@example(xml=_MANY_A_ONE_C, text="a[b/c = 'x' and b]", pick=0)
@example(xml=_MANY_C, text="a[(b/c = 'y' or c) and b/c]", pick=0)
@example(xml=_MANY_A_ONE_C, text="*[b/c]/b/c", pick=3)
@example(xml=_MANY_A_FEW_B, text="a[c]/b", pick=0)  # an ancestor's predicate, bottom-up
@example(xml=_MANY_A_FEW_B, text="*[b]/b", pick=0)
@example(xml=_MANY_C, text="a//b/c", pick=0)
@example(xml=_MANY_A_ONE_C, text="a[b]//c", pick=0)  # bottom-up over ancestors
@example(xml=_NESTED, text="a//a/b", pick=0)  # nested contexts
@example(xml=_NESTED, text="a[a/b]", pick=2)
@example(xml=_NESTED, text="a[a/b]/b", pick=1)
@example(xml=_NESTED, text="a/b", pick=0)  # the first step names the root
@example(xml=_NESTED, text="a/d", pick=0)  # d does not exist
@example(xml=_NESTED, text="a[d]", pick=0)
@example(xml=_NESTED, text="d//a", pick=0)
def test_evaluation_matches_the_definition(xml, text, pick):
    document = parse_document(xml)
    nodes = list(document.root.self_and_descendants())
    context = nodes[pick % len(nodes)]
    for lead in ("/", "//"):
        path = parse_xpath(lead + text)
        assert path.evaluate(document) == reference_evaluate(path, document), lead + text
        relative = PathExpr(path.steps, absolute=False)
        assert relative.match_from(context, document) == reference_match_from(
            relative, context, document
        ), (lead + text, context)
