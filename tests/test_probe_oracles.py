"""Probe ≡ scan: the ID-driven batch path against the passes it replaced.

Every per-batch pass over whole state (XPath subtree walks, the
per-row refresh bisects, the all-rows lattice filter, the relation
filter + re-sort of source reconstruction) was replaced by probes
driven from the IDs the batch touched.  The replaced implementations
live on in :mod:`tests.harness.reference_scans`; the properties here
hold each probe to its scan on random documents and mixed batches, and
two count-based tests pin the cost model: the work of a fixed batch
does not grow with the document, and neither does the document upkeep
of one insert (its subtree and ancestor chain).
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algebra.relation import Relation
from repro.algebra.structural import structural_join
from repro.maintenance import insert as insert_module
from repro.maintenance import terms as terms_module
from repro.maintenance.delta import BatchCandidates
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.insert import AffectedIDs, collect_attribute_refreshes
from repro.maintenance.plan import ViewPlan
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.pattern.xpath_parser import parse_xpath
from repro.updates.language import DeleteUpdate, ResolvedDeleteUpdate, ResolvedInsertUpdate
from repro.updates.pul import BatchApplication
from repro.views import lattice as lattice_module
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.workloads.churn import churn_batches
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import UPDATE_TEXTS, statement_stream
from repro.xmldom.index import KeyedRows, LabelRows, Overlay
from repro.xmldom.model import Document, ElementNode, TextNode, build_document
from repro.xmldom.parser import parse_fragment
from repro.xmldom.serializer import serialize_fragment
from repro.workloads.xmark import generate_document
from repro.xmldom.dewey import DeweyID
from tests.harness.reference_scans import (
    scan_attribute_refreshes,
    scan_drop_deleted,
    scan_dirty_removed_nodes,
    scan_drop_flipped,
    scan_evaluate,
    scan_spliced,
)

PROPERTY = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _ids(nodes):
    return [str(node.id) for node in nodes]


def _churned_xmark(seed: int, statements: int = 24):
    """A scale-1 XMark document after a mixed insert/delete batch, so
    relations carry dynamic ordinals and retired IDs."""
    document = generate_document(scale=1)
    stream = statement_stream(document, statements, seed=seed, insert_ratio=0.6)
    BatchApplication(document, stream).apply()
    return document


# -- (a) index-seeded XPath ≡ subtree walk ---------------------------------------

XMARK_PATHS = [
    "//*",
    "//text()",
    "//@id",
    "//site",  # the root matches the first step
    "/site",
    "//site//item",
    "//nosuchlabel",
    "//nosuchlabel/name",
    "//person/nosuchlabel",
    "/site//nosuchlabel",
    "//increase/text()",
    "//person[@id]/name",
    "//person[homepage]//text()",
    "//person[profile/@income]/name/text()",
    "/site/regions//item/name",
    "/site/regions//item[description or name]//text()",
    "//regions//item//text",  # nested // under context nodes
    "//open_auction[//increase = '4.50']/bidder//increase",
    "//open_auction[bidder and (reserve or privacy)]//@person",
    "//*/name",
    "//item//*",
    "/site/*//name/text()",
    "//parlist//listitem//text",
    "//listitem[//keyword]",
]


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_xpath_probe_matches_walk_on_xmark(seed):
    document = _churned_xmark(seed)
    for text in XMARK_PATHS:
        path = parse_xpath(text)
        assert _ids(path.evaluate(document)) == _ids(scan_evaluate(path, document)), text


_LABELS = ("a", "b", "c")


def _tree(children):
    label, attribute, text, kids = children
    element = ElementNode(label)
    if attribute is not None:
        element.set_attribute("k", attribute)
    if text is not None:
        element.append(TextNode(text))
    for kid in kids:
        element.append(kid)
    return element


_trees = st.recursive(
    st.tuples(
        st.sampled_from(_LABELS),
        st.one_of(st.none(), st.sampled_from("xy")),
        st.one_of(st.none(), st.sampled_from("xy")),
        st.just(()),
    ).map(_tree),
    lambda kids: st.tuples(
        st.sampled_from(_LABELS),
        st.one_of(st.none(), st.sampled_from("xy")),
        st.one_of(st.none(), st.sampled_from("xy")),
        st.lists(kids, max_size=3),
    ).map(_tree),
    max_leaves=14,
)

_tests = st.sampled_from(_LABELS + ("*", "@k", "text()", "zz"))
_more_steps = st.lists(
    st.tuples(st.sampled_from(("/", "//")), _tests), max_size=2
).map(lambda steps: "".join(axis + test for axis, test in steps))
# A predicate's relative path may start bare, with "/" or with "//".
_relative = st.tuples(st.sampled_from(("", "/", "//")), _tests, _more_steps).map("".join)
_predicates = st.one_of(
    _relative.map(lambda path: "[%s]" % path),
    st.tuples(_relative, st.sampled_from("xy")).map(lambda p: "[%s = '%s']" % p),
    st.tuples(_relative, st.sampled_from(("and", "or")), _relative).map(
        lambda p: "[%s %s %s]" % p
    ),
)
_paths = st.lists(
    st.tuples(
        st.sampled_from(("/", "//")), _tests, st.one_of(st.just(""), _predicates)
    ),
    min_size=1,
    max_size=4,
).map(lambda steps: "".join(axis + test + pred for axis, test, pred in steps))


@settings(max_examples=300, deadline=None)
@given(root=_trees, text=_paths)
def test_xpath_probe_matches_walk_on_random_trees(root, text):
    # Small alphabets nest a under a, put the same label at several
    # depths and leave zz absent: nested contexts, a matching root and
    # empty relations all occur.
    document = build_document(root)
    path = parse_xpath(text)
    assert _ids(path.evaluate(document)) == _ids(scan_evaluate(path, document)), text


# -- (b) probe refresh ≡ scan refresh, pair for pair ---------------------------------


def _refresh_checked(views, document, application) -> int:
    """Probe and scan refresh of each view over one applied batch;
    returns how many rewrite pairs they agreed on."""
    insert_targets = application.insert_target_ids
    delete_targets = application.delete_target_ids
    affected = AffectedIDs(insert_targets, delete_targets)
    pairs = 0
    for view in views:
        probed = collect_attribute_refreshes(
            ViewPlan(view.pattern), view, document, affected
        )
        assert probed == scan_attribute_refreshes(
            view, document, insert_targets, delete_targets
        ), view.name
        pairs += len(probed)
    return pairs


def _refresh_pairs_checked(seed: int, insert_ratio: float) -> int:
    """The seven XMark views over one mixed batch on a scale-1 document."""
    document = generate_document(scale=1)
    views = [
        MaterializedView.materialize(view_pattern(name), document, name=name)
        for name in sorted(VIEW_TEXTS)
    ]
    stream = statement_stream(document, 16, seed=seed, insert_ratio=insert_ratio)
    application = BatchApplication(document, stream).apply()
    return _refresh_checked(views, document, application)


@PROPERTY
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    insert_ratio=st.sampled_from((0.0, 0.5, 1.0)),
)
def test_refresh_probe_matches_scan(seed, insert_ratio):
    _refresh_pairs_checked(seed, insert_ratio)


def test_refresh_oracle_sees_rewrites():
    # The property above is not vacuous: these streams do rewrite
    # stored val/cont, through insert and through delete targets.
    assert _refresh_pairs_checked(seed=3, insert_ratio=1.0) > 0
    assert _refresh_pairs_checked(seed=3, insert_ratio=0.0) > 0


# Random trees and patterns: nested same-label elements (so the
# outermost anchor matters), content nodes beside the leading column
# (a meet at a branch node or the pattern root), ``*`` content nodes
# and meets, child- and desc-axis roots.  Both are nested-tuple specs.
_spec_trees = st.recursive(
    st.tuples(st.sampled_from(_LABELS), st.sampled_from((None, "x")), st.just(())),
    lambda kids: st.tuples(
        st.sampled_from(_LABELS),
        st.sampled_from((None, "x")),
        st.lists(kids, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=12,
)
_ANNOTATIONS = ((), ("ID",), ("ID", "val"), ("ID", "cont"), ("ID", "val", "cont"))
# Desc edges and content annotations drawn often, so most examples store
# the rows a batch rewrites.
_axes = st.sampled_from(("desc", "desc", "child"))
_pattern_labels = st.sampled_from(_LABELS + ("*", "*"))
_annotations = st.sampled_from(_ANNOTATIONS + (("ID", "val"), ("ID", "cont")))
_spec_patterns = st.recursive(
    st.tuples(_pattern_labels, _axes, _annotations, st.just(())),
    lambda kids: st.tuples(
        _pattern_labels,
        _axes,
        _annotations,
        st.lists(kids, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=3,
)
# A lead and a content node on sibling branches: the meet is their
# parent -- the pattern root, or a branch node one level down.
_lead_leaf = st.tuples(
    _pattern_labels, _axes, st.sampled_from((("ID",), ("ID", "val"))), st.just(())
)
_content_leaf = st.tuples(
    _pattern_labels, _axes, st.sampled_from((("ID", "val"), ("ID", "cont"))), st.just(())
)
_branch = st.tuples(
    _pattern_labels,
    _axes,
    st.sampled_from(((), ("ID",))),
    st.tuples(_lead_leaf, _content_leaf),
)
_branch_patterns = st.one_of(
    _branch, st.tuples(_pattern_labels, _axes, st.just(()), st.tuples(_branch))
)
_FRAGMENTS = ("<a>t</a>", "<b><c>u</c></b>", "<c/>")
#: (insert?, element index, fragment) -- indices wrap over the elements.
_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 30), st.integers(0, len(_FRAGMENTS) - 1)),
    min_size=1,
    max_size=4,
)


def _tree_from_spec(spec) -> ElementNode:
    label, text, kids = spec
    element = ElementNode(label)
    if text is not None:
        element.append(TextNode(text))
    for kid in kids:
        element.append(_tree_from_spec(kid))
    return element


def _pattern_from_spec(spec) -> Pattern:
    def build(item) -> PatternNode:
        label, axis, annotations, kids = item
        node = PatternNode(
            label,
            axis=axis,
            store_id="ID" in annotations,
            store_val="val" in annotations,
            store_cont="cont" in annotations,
        )
        for kid in kids:
            node.add_child(build(kid))
        return node

    pattern = Pattern(build(spec))
    if not pattern.content_nodes():
        last = pattern.nodes()[-1]
        last.store_id = last.store_val = True
    return pattern


# a1(b, a2(c(a3))) under //a[//b{ID}]//c{ID,val}: b leads, the meet is
# the root a, and only the *outermost* a above c holds the leading b.
_NESTED_MEET = (
    "a", None, (("b", None, ()), ("a", None, (("c", "x", (("a", "y", ()),)),)))
)
_ROOT_MEET = (
    "a", "desc", (), (("b", "desc", ("ID",), ()), ("c", "desc", ("ID", "val"), ()))
)
# a1(a2(b)) under //a{ID,cont}: both a's are affected, their runs nest.
_NESTED_RUNS = ("a", None, (("a", None, (("b", None, ()),)),))
_PINNED = (
    (_NESTED_MEET, _ROOT_MEET, [(True, 3, 0)]),
    (_NESTED_MEET, _ROOT_MEET, [(False, 4, 0)]),
    (_NESTED_RUNS, ("a", "desc", ("ID", "cont"), ()), [(True, 2, 2)]),
)


def _random_tree_refresh_checked(tree, pattern, ops) -> int:
    document = build_document(_tree_from_spec(tree))
    elements = [
        node for node in document.root.self_and_descendants() if node.kind == "element"
    ]
    stream = []
    for insert, index, fragment in ops:
        target = elements[index % len(elements)]
        if insert:
            forest = parse_fragment(_FRAGMENTS[fragment])
            stream.append(ResolvedInsertUpdate([target.id], forest))
        elif target is not document.root:
            stream.append(ResolvedDeleteUpdate([target.id]))
    view = MaterializedView.materialize(_pattern_from_spec(pattern), document, name="v")
    application = BatchApplication(document, stream).apply()
    return _refresh_checked([view], document, application)


@settings(max_examples=200, deadline=None)
@given(
    tree=_spec_trees,
    pattern=st.one_of(_spec_patterns, _branch_patterns),
    ops=_ops,
)
@example(tree=_PINNED[0][0], pattern=_PINNED[0][1], ops=_PINNED[0][2])
@example(tree=_PINNED[1][0], pattern=_PINNED[1][1], ops=_PINNED[1][2])
@example(tree=_PINNED[2][0], pattern=_PINNED[2][1], ops=_PINNED[2][2])
@example(
    tree=_NESTED_MEET,
    pattern=(
        "*", "desc", (), (("b", "desc", ("ID",), ()), ("*", "desc", ("ID", "val"), ()))
    ),
    ops=[(True, 3, 1)],
)
def test_refresh_probe_matches_scan_on_random_trees(tree, pattern, ops):
    _random_tree_refresh_checked(tree, pattern, ops)


def test_random_tree_refresh_oracle_sees_rewrites():
    # The pinned examples do rewrite rows, each only through an anchor
    # above the content node or through nested runs.
    for tree, pattern, ops in _PINNED:
        assert _random_tree_refresh_checked(tree, pattern, ops) > 0


# -- (d) indexed lattice upkeep ≡ all-rows filter --------------------------------------


def _assert_indexes_current(relation: Relation) -> None:
    """Every cached ``ID -> rows`` index equals a rebuild from the rows."""
    for column, index in relation._indexes.items():
        position = relation.column_index(column)
        rebuilt = {}
        for row in relation.rows:
            rebuilt.setdefault(row[position].id, []).append(row)
        assert {key: sorted(map(id, rows)) for key, rows in index.items()} == {
            key: sorted(map(id, rows)) for key, rows in rebuilt.items()
        }, column


@contextmanager
def _lattice_upkeep_checked(seen):
    """Run every lattice upkeep call against the all-rows filter on a
    snapshot taken just before it; ``seen`` counts the call kinds."""
    original_batch = SnowcapLattice.apply_batch
    original_flip = SnowcapLattice.apply_flip_repair

    def check(lattice, before, survivors, additions, removed):
        expected_removed = 0
        for subset, rows in before.items():
            relation = lattice.relation_for(subset)
            kept = survivors(relation.schema, rows)
            expected_removed += len(rows) - len(kept)
            extra = additions.get(subset)
            if extra:
                kept = kept + extra.reordered(relation.schema).rows
            # Multiset equality is the contract; survivor order plus
            # appended additions is what the durable delta relies on.
            assert relation.rows == kept, sorted(subset)
            # ... as it relies on an untouched relation keeping its
            # row list and a changed one getting a fresh list.
            assert (relation.rows is rows) == (len(kept) == len(rows) and not extra)
            _assert_indexes_current(relation)
        assert removed == expected_removed

    def snapshot(lattice):
        return {
            subset: lattice.relation_for(subset).rows
            for subset in lattice.materialized_sets()
        }

    def apply_batch(self, deleted_by_label, additions):
        deleted_ids = {
            node_id for ids in deleted_by_label.values() for node_id in ids
        }
        before = snapshot(self)
        removed = original_batch(self, deleted_by_label, additions)
        check(
            self,
            before,
            lambda _schema, rows: scan_drop_deleted(rows, deleted_ids),
            additions,
            removed,
        )
        if deleted_ids:
            seen["delete"] = seen.get("delete", 0) + removed
        if any(relation.rows for relation in additions.values()):
            seen["append"] = seen.get("append", 0) + 1
        return removed

    def apply_flip_repair(self, drops_by_name, additions):
        before = snapshot(self)
        removed = original_flip(self, drops_by_name, additions)
        check(
            self,
            before,
            lambda schema, rows: scan_drop_flipped(schema, rows, drops_by_name),
            additions,
            removed,
        )
        seen["flip"] = seen.get("flip", 0) + removed
        return removed

    SnowcapLattice.apply_batch = apply_batch
    SnowcapLattice.apply_flip_repair = apply_flip_repair
    try:
        yield
    finally:
        SnowcapLattice.apply_batch = original_batch
        SnowcapLattice.apply_flip_repair = original_flip


#: The Appendix-A inserts that grow a snowcap of the XMark views (an
#: increase under a bidder extends Q4's bidder/increase chain).
_SNOWCAP_INSERTS = sorted(
    name for name, (_target, xml) in UPDATE_TEXTS.items() if xml.startswith("<increase>")
)


def _pinned(*seeds):
    """One hypothesis ``@example`` per seed."""

    def decorate(test):
        for seed in seeds:
            test = example(seed=seed)(test)
        return test

    return decorate


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
# Seeds whose four mixed rounds alone append to no snowcap.
@_pinned(
    1708, 2003, 2258, 2809, 2999, 3956, 4592,
    5258, 5521, 5691, 7092, 8182, 8430, 9878,
)
def test_lattice_probe_matches_filter_on_mixed_batches(seed):
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document)
    registered = {
        name: engine.register_view(view_pattern(name), name, strategy="snowcaps")
        for name in sorted(VIEW_TEXTS)
    }
    seen = {}
    with _lattice_upkeep_checked(seen):
        for round_index in range(4):
            stream = statement_stream(
                document, 12, seed=seed * 7 + round_index, insert_ratio=0.5
            )
            engine.apply_batch(stream)
        # A mixed round can draw no surviving snowcap-growing insert, so
        # a closing insert-only batch drawn from those names makes every
        # example append.
        engine.apply_batch(
            statement_stream(document, 4, seed=seed, names=_SNOWCAP_INSERTS)
        )
    assert seen.get("delete") and seen.get("append"), seen
    for name, view in registered.items():
        assert view.view.equals_fresh_evaluation(document), name


#: σ constants of the churn streams below: one amount the generator
#: emits and two that only flips and Appendix-A inserts produce.
_CHURN_AMOUNTS = ("4.50", "100.00", "150.00")


def _q3_sigma_engine(document, amounts, **options):
    """An engine over one Q3 variant per σ amount (``options`` go to
    ``register_view``)."""
    engine = MaintenanceEngine(document)
    for amount in amounts:
        pattern = view_pattern("Q3")
        for node in pattern.nodes():
            if node.value_pred is not None:
                node.value_pred = amount
        engine.register_view(pattern, "Q3_%s" % amount, **options)
    return engine


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lattice_probe_matches_filter_on_sigma_flips(seed):
    document = generate_document(scale=1)
    batches = churn_batches(
        document, 6, batch_size=5, seed=seed, sigma_values=_CHURN_AMOUNTS
    )
    engine = _q3_sigma_engine(document, _CHURN_AMOUNTS, strategy="snowcaps")
    seen = {}
    with _lattice_upkeep_checked(seen):
        for batch in batches:
            engine.apply_batch(batch)
    assert "flip" in seen, seen


# -- (e) overlay ≡ filter + re-sort ≡ the pre-batch relation --------------------------


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spliced_label_reconstructs_the_pre_batch_relation(seed):
    document = generate_document(scale=1)
    before = {label: document.snapshot_label(label) for label in document.labels()}
    stream = statement_stream(document, 20, seed=seed, insert_ratio=0.5)
    application = BatchApplication(document, stream).apply()
    inserted_ids = {node.id for node in application.net_inserted_nodes()}
    removed = BatchCandidates(application.net_removed_nodes()).by_label
    inserted = {}
    for node_id in inserted_ids:
        inserted.setdefault(node_id.label, []).append(node_id)
    touched = set(inserted) | set(removed)
    assert touched
    for label in sorted(touched | {"nosuchlabel"}):
        overlay = Overlay(
            document.keyed_label(label),
            [node_id.sort_key for node_id in inserted.get(label, ())],
            removed.get(label, ()),
        )
        assert list(overlay) == scan_spliced(
            document.nodes_with_label(label), inserted_ids, removed.get(label, ())
        ), label
        assert overlay.nodes == before.get(label, []), label


@contextmanager
def _sigma_sources_checked(document, before, checked):
    """Hold every σ source ``MaintenanceEngine._sources`` builds with a
    Δ− merge or a flip rollback to ``before`` (σ constant -> the IDs
    whose ``val`` equaled it before the batch): a merged source is that
    set, a rollback-only one its members still in the document."""
    sources = MaintenanceEngine._sources

    def checked_sources(self, plan, cut_by_label, merge_by_label, cache, rollback=({}, {})):
        built = sources(self, plan, cut_by_label, merge_by_label, cache, rollback)
        kind = "merge" if merge_by_label else "rollback" if any(rollback) else None
        for node in plan.pattern.nodes():
            if kind is None or node.value_pred is None:
                continue
            rows = built[node.name]
            assert rows.keys == sorted(rows.keys) == [n.id.sort_key for n in rows]
            expected = before[node.value_pred]
            if kind == "rollback":
                expected = {i for i in expected if document.node_by_id(i) is not None}
            assert {n.id for n in rows} == expected, (kind, node.value_pred)
            checked[kind] += 1
        return built

    MaintenanceEngine._sources = checked_sources
    try:
        yield
    finally:
        MaintenanceEngine._sources = sources


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sigma_sources_rebuild_the_pre_batch_relation(seed):
    document = generate_document(scale=1)
    batches = churn_batches(
        document, 6, batch_size=5, seed=seed, sigma_values=_CHURN_AMOUNTS
    )
    # Churn rarely removes an increase, so each batch also deletes a
    # bidder: the Δ− side then merges increases of every amount.
    rng = random.Random(seed)
    bidders = document.nodes_with_label("bidder")
    engine = _q3_sigma_engine(document, _CHURN_AMOUNTS)
    before = {}
    checked = {"merge": 0, "rollback": 0}
    with _sigma_sources_checked(document, before, checked):
        for batch in batches:
            batch = batch + [ResolvedDeleteUpdate([rng.choice(bidders).id])]
            before.update(
                (amount, {n.id for n in document.nodes_with_label("increase") if n.val == amount})
                for amount in _CHURN_AMOUNTS
            )
            engine.apply_batch(batch)
    assert checked["merge"] and checked["rollback"], checked
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name


# -- (f) dirty detection: ancestor-chain probe ≡ bisect per removed node --------------

_ANCESTOR_DELETES = (
    "/site/people/person",
    "/site/people",
    "/site/open_auctions/open_auction",
    "/site/regions",
)


def _dirty_stream(seed: int):
    """Single-target statements with path deletes of whole ancestor
    subtrees mixed in, so earlier inserts and removals sit below later
    removals."""
    rng = random.Random(seed)
    document = generate_document(scale=1)
    stream = statement_stream(document, 16, seed=seed, insert_ratio=0.6)
    for _ in range(rng.randint(1, 3)):
        stream.insert(
            rng.randint(len(stream) // 2, len(stream)),
            DeleteUpdate(rng.choice(_ANCESTOR_DELETES)),
        )
    return document, stream


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dirty_probe_matches_bisect_scan(seed):
    document, stream = _dirty_stream(seed)
    application = BatchApplication(document, stream).apply()
    assert _ids(application.dirty_removed_nodes()) == _ids(
        scan_dirty_removed_nodes(application)
    )


def test_dirty_probe_oracle_is_not_vacuous():
    document, stream = _dirty_stream(3)
    application = BatchApplication(document, stream).apply()
    assert scan_dirty_removed_nodes(application)
    assert _ids(application.dirty_removed_nodes()) == _ids(
        scan_dirty_removed_nodes(application)
    )


# -- the cost model, counted: a fixed batch costs the same at any scale -------------


class _Counters:
    def __init__(self):
        self.walks = 0
        self.probed_ids = 0
        self.rows_hit = 0
        self.rows_rewritten = 0
        #: source rows read by the join operators of term evaluation:
        #: the whole right input of a hash join, the ancestors found
        #: and the subtree runs sliced by the two probes.
        self.join_rows_examined = 0
        #: view name -> extent rows the PIMT/PDMT refresh read.
        self.extent_rows_read = {}
        #: Dewey chain walks started at a batch's target IDs.
        self.target_chain_walks = 0
        #: child-list entries visited plus label-relation rows read
        #: while resolving a path.
        self.nodes_examined = 0


@contextmanager
def _counting(counters):
    walk, descend = ElementNode.self_and_descendants, ElementNode.descendants
    probe, delta = lattice_module._probe, Relation.apply_delta

    def counted_walk(self):
        counters.walks += 1
        return walk(self)

    def counted_descend(self):
        counters.walks += 1
        return descend(self)

    def counted_probe(index, ids, doomed):
        size = len(doomed)
        probe(index, ids, doomed)
        counters.probed_ids += len(ids)
        counters.rows_hit += len(doomed) - size

    def counted_delta(self, doomed, fresh):
        # The only rewrite of a stored row list: it must have a reason.
        assert doomed or fresh
        counters.rows_rewritten += len(doomed) + len(fresh)
        return delta(self, doomed, fresh)

    hash_join = structural_join
    #: every row source class, with its own find / below
    probes = {rows: (rows.find, rows.below) for rows in (KeyedRows, LabelRows, Overlay)}
    #: probe calls in progress: an overlay probes its base, and only
    #: the outermost call counts
    active = [0]

    def counted_hash_join(left, right, *args):
        counters.join_rows_examined += len(right.rows)
        return hash_join(left, right, *args)

    def outermost(probe, rows_found):
        def counted(self, arg):
            active[0] += 1
            try:
                result = probe(self, arg)
            finally:
                active[0] -= 1
            if not active[0]:
                counters.join_rows_examined += rows_found(result)
            return result

        return counted

    ElementNode.self_and_descendants = counted_walk
    ElementNode.descendants = counted_descend
    lattice_module._probe = counted_probe
    Relation.apply_delta = counted_delta
    terms_module.structural_join = insert_module.structural_join = counted_hash_join
    for rows, (find, below) in probes.items():
        rows.find = outermost(find, lambda node: node is not None)
        rows.below = outermost(below, len)
    try:
        yield
    finally:
        ElementNode.self_and_descendants = walk
        ElementNode.descendants = descend
        lattice_module._probe = probe
        Relation.apply_delta = delta
        terms_module.structural_join = insert_module.structural_join = hash_join
        for rows, (find, below) in probes.items():
            rows.find, rows.below = find, below


_PROBE_PERSON = (
    '<person id="probe%d"><name>Probe %d</name><homepage>h%d</homepage></person>'
)


def _fixed_batch_counts(scale: int):
    """Counters for one fixed 32-statement delete batch (the 32 probe
    persons a warm-up batch inserted) and for resolving
    ``//increase/<marker>`` on an XMark document of ``scale``."""
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document)
    for name in ("Q1", "Q2", "Q3", "Q17"):
        engine.register_view(view_pattern(name), name, strategy="snowcaps")
    (people,) = parse_xpath("/site/people").evaluate(document)
    increase = parse_xpath("//increase").evaluate(document)[0]
    # Two warm-up rounds: the second builds the deletion indexes, so
    # the measured batch sees them maintained, not built.
    for round_index in range(2):
        engine.apply_batch(
            [
                ResolvedInsertUpdate(
                    [people.id],
                    parse_fragment(_PROBE_PERSON % (k, k, k)),
                    name="probe+%d" % k,
                )
                for k in range(round_index * 32, round_index * 32 + 32)
            ]
            + [
                ResolvedInsertUpdate(
                    [increase.id], parse_fragment("<marker>x</marker>"), name="marker+"
                )
            ]
        )
        probes = [
            node
            for node in parse_xpath("/site/people/person").evaluate(document)
            if node.attribute("id") is not None
            and node.attribute("id").val.startswith("probe")
        ]
        if round_index == 0:
            engine.apply_batch([ResolvedDeleteUpdate([node.id]) for node in probes])
    assert len(probes) == 32
    counters = _Counters()
    with _counting(counters):
        assert len(parse_xpath("//increase/marker").evaluate(document)) == 2
        assert counters.walks == 0  # name-test steps never walk a subtree
        report = engine.apply_batch([ResolvedDeleteUpdate([node.id]) for node in probes])
    assert report.net_removed == 32 * 6  # person, @id, name, homepage, two texts
    return counters, len(document.nodes_with_label("person"))


class _SpliceCountingRow(list):
    """A label-index row block that counts how it is edited."""

    def __init__(self, rows, counts):
        super().__init__(rows)
        self.counts = counts

    def __setitem__(self, index, value):
        if isinstance(index, slice):
            self.counts["slice_inserts"] += 1
        super().__setitem__(index, value)

    def insert(self, index, value):
        self.counts["node_inserts"] += 1
        super().insert(index, value)


#: the generator's mail shape, so every label already has a row
_PROBE_MAIL = (
    "<mail><from>Probe</from><to>Probe</to><date>01/01/2001</date>"
    "<text>probe mail</text></mail>"
)


def _mail_insert_counts(scale: int):
    """Elements composed to re-read a warm item's ``cont`` after one
    ``mail`` lands in its mailbox, and the label-index edits made."""
    document = generate_document(scale=scale)
    mailbox = document.nodes_with_label("mailbox")[0]
    item = mailbox.parent
    assert item.label == "item"
    item.cont  # warm every cache in the item
    index = document._index
    counts = {"slice_inserts": 0, "node_inserts": 0, "composed": 0}
    for label in list(index.labels()):
        blocks = index.nodes(label).node_blocks
        blocks[:] = [_SpliceCountingRow(block, counts) for block in blocks]
    (mail,) = parse_fragment(_PROBE_MAIL)
    document.insert_subtree(mailbox, mail)
    cont = ElementNode.cont

    def counted_cont(self):
        counts["composed"] += self._cont_cache is None
        return cont.fget(self)

    ElementNode.cont = property(counted_cont)
    try:
        assert item.cont == serialize_fragment(item)
    finally:
        ElementNode.cont = cont
    return counts, len(document.nodes_with_label("item"))


def test_insert_recomposes_only_the_chain_and_the_new_subtree():
    """One inserted subtree costs its own elements plus the ancestor
    chain to re-derive ``cont``, and one label-index splice per
    distinct label -- at any document size."""
    small, small_items = _mail_insert_counts(8)
    large, large_items = _mail_insert_counts(32)
    assert large_items > 3 * small_items  # the state really grew
    mail = parse_fragment(_PROBE_MAIL)[0]
    new_elements = sum(1 for node in mail.self_and_descendants() if node.kind == "element")
    new_labels = {node.label for node in mail.self_and_descendants()}
    chain = 2  # the item and its mailbox
    assert small == large == {
        "composed": chain + new_elements,
        "slice_inserts": len(new_labels),
        "node_inserts": 0,
    }


def _mail_refresh_counts(scale: int):
    """Refresh reads and target-chain walks for one ``mail`` inserted
    under an item's mailbox, with all seven XMark views registered."""
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document)
    for name in sorted(VIEW_TEXTS):
        engine.register_view(view_pattern(name), name)
    mailbox = document.nodes_with_label("mailbox")[0]
    counters = _Counters()
    rows_led_by, ancestor_ids = MaterializedView.rows_led_by, DeweyID.ancestor_ids

    def counted_rows(self, anchors):
        rows = rows_led_by(self, anchors)
        counters.extent_rows_read[self.name] = (
            counters.extent_rows_read.get(self.name, 0) + len(rows)
        )
        return rows

    def counted_ancestors(self):
        counters.target_chain_walks += self == mailbox.id
        return ancestor_ids(self)

    MaterializedView.rows_led_by = counted_rows
    DeweyID.ancestor_ids = counted_ancestors
    try:
        report = engine.apply_batch(
            [ResolvedInsertUpdate([mailbox.id], parse_fragment(_PROBE_MAIL))]
        )
    finally:
        MaterializedView.rows_led_by = rows_led_by
        DeweyID.ancestor_ids = ancestor_ids
    assert report.report_for("Q6").tuples_modified == 1  # the item's cont
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name
    return counters, len(engine.views["Q6"].view)


def test_refresh_reads_the_rows_under_affected_nodes_at_any_scale():
    """The refresh reads the extent runs under the affected nodes, not
    the extents; the affected IDs are walked once per batch, not once
    per view."""
    small, small_items = _mail_refresh_counts(8)
    large, large_items = _mail_refresh_counts(32)
    assert large_items > 3 * small_items  # the state really grew
    assert small.extent_rows_read == large.extent_rows_read
    assert small.extent_rows_read["Q6"] == 1  # the one item's own row
    assert small.target_chain_walks == large.target_chain_walks == 1


def test_fixed_batch_examines_the_same_rows_at_any_scale():
    small, small_persons = _fixed_batch_counts(8)
    large, large_persons = _fixed_batch_counts(32)
    assert large_persons > 3 * small_persons  # the state really grew
    assert small.rows_hit > 0 and small.join_rows_examined > 0
    assert (
        small.probed_ids,
        small.rows_hit,
        small.rows_rewritten,
        small.join_rows_examined,
    ) == (
        large.probed_ids,
        large.rows_hit,
        large.rows_rewritten,
        large.join_rows_examined,
    )


#: generator amounts, one Q3 σ view each
_XMARK_AMOUNTS = ("4.50", "7.50", "12.00")


def _sigma_batch_val_reads(scale: int):
    """``val`` reads of one fixed batch over Q3 σ views: a marker under
    a 4.50 increase flips it false while a bidder holding a 7.50
    increase is deleted, so the Δ− side and the flip repair both read
    σ sources."""
    document = generate_document(scale=scale)
    engine = _q3_sigma_engine(document, _XMARK_AMOUNTS)
    increases = document.nodes_with_label("increase")
    flipped = next(node for node in increases if node.val == "4.50")
    doomed = next(node for node in increases if node.val == "7.50").parent
    document.root.val  # warm every cache
    reads = 0
    val = ElementNode.val

    def counted_val(self):
        nonlocal reads
        reads += 1
        return val.fget(self)

    ElementNode.val = property(counted_val)
    try:
        report = engine.apply_batch(
            [
                ResolvedInsertUpdate([flipped.id], parse_fragment("<flip>x</flip>")),
                ResolvedDeleteUpdate([doomed.id]),
            ]
        )
    finally:
        ElementNode.val = val
    assert report.repairs["Q3_4.50"]["evicted"] == 1
    assert report.report_for("Q3_7.50").derivations_removed == 1
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name
    return reads, len(increases)


def test_sigma_sources_read_the_same_vals_at_any_scale():
    """σ sources splice the value-index bucket by the batch's edits, so
    a fixed batch reads the same few ``val`` s at any document size --
    never one per node of the σ label."""
    small, small_increases = _sigma_batch_val_reads(8)
    large, large_increases = _sigma_batch_val_reads(32)
    assert large_increases > 3 * small_increases  # the state really grew
    assert small == large
    assert small < small_increases


class _ExaminedRows(list):
    """A copy of a child list or label relation that counts the entries
    read through it (lengths are free: they are what the size rules
    compare)."""

    def __init__(self, rows, counters):
        super().__init__(rows)
        self.counters = counters

    def __iter__(self):
        self.counters.nodes_examined += len(self)
        return super().__iter__()

    def __reversed__(self):
        self.counters.nodes_examined += len(self)
        return super().__reversed__()


@contextmanager
def _counting_examined(counters):
    """Count the nodes path resolution examines.  Child lists are handed
    out as copies, so the document must not change meanwhile."""
    slot = ElementNode.__dict__["children"]
    relation, run = Document.nodes_with_label, Document.descendants_with_label
    ElementNode.children = property(
        lambda self: _ExaminedRows(slot.__get__(self, ElementNode), counters), slot.__set__
    )
    Document.nodes_with_label = lambda self, label: _ExaminedRows(
        relation(self, label), counters
    )
    Document.descendants_with_label = lambda self, node, label: _ExaminedRows(
        run(self, node, label), counters
    )
    try:
        yield
    finally:
        ElementNode.children = slot
        Document.nodes_with_label = relation
        Document.descendants_with_label = run


def _examined(path_text, document):
    counters = _Counters()
    path = parse_xpath(path_text)
    with _counting_examined(counters):
        targets = path.evaluate(document)
    return counters.nodes_examined, len(targets)


def _marked_xmark(scale: int):
    """An XMark document with a churn flip marker under its first
    ``increase`` and a dirt marker under its first person's name."""
    document = generate_document(scale=scale)
    increase = document.nodes_with_label("increase")[0]
    name = next(n for n in document.nodes_with_label("name") if n.parent.label == "person")
    document.insert_subtree(increase, ElementNode("flip1", [TextNode("x")]))
    document.insert_subtree(name, ElementNode("dirt2", [TextNode("zz")]))
    return document


def test_rare_label_targets_examine_the_same_nodes_at_any_scale():
    """The churn generator's path deletes read the one-row relation of
    their marker, not every ``increase``'s or ``person``'s children."""
    small, large = _marked_xmark(8), _marked_xmark(32)
    grown = len(large.nodes_with_label("person")) > 3 * len(small.nodes_with_label("person"))
    assert grown  # the state really grew
    for text in ("//increase/flip1", "//person[name/dirt2]"):
        assert _examined(text, small) == _examined(text, large) == (1, 1), text


#: Nodes the per-context evaluator examined for each Appendix-A target
#: path on ``generate_document(scale=8)`` (children of every context,
#: once per step and once per predicate and context node): the
#: set-level evaluator may not exceed any of them.
_PER_CONTEXT_EXAMINED = {
    "A6_A": 1961,
    "A7_O": 1799,
    "A8_AO": 2973,
    "B1_A": 204,
    "B1_O": 18,
    "B3_L": 1223,
    "B3_LB": 1784,
    "B5_L": 1939,
    "B5_LB": 1939,
    "B7_LB": 1850,
    "E6_A": 3488,
    "E6_L": 204,
    "X16_A": 790,
    "X17_L": 198,
    "X1_L": 206,
    "X20_A": 3482,
    "X2_L": 1229,
    "X3_A": 2006,
    "X4_O": 2439,
    "X5_AO": 3586,
    "X7_O": 2119,
    "X8_AO": 3600,
}


def test_appendix_a_targets_examine_no_more_than_per_context():
    document = generate_document(scale=8)
    assert sorted(_PER_CONTEXT_EXAMINED) == sorted(UPDATE_TEXTS)
    for name, (target, _snippet) in UPDATE_TEXTS.items():
        examined, _found = _examined(target, document)
        assert examined <= _PER_CONTEXT_EXAMINED[name], (name, examined)
