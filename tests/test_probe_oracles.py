"""Probe ≡ scan: the ID-driven batch path against the passes it replaced.

Every per-batch pass over whole state (XPath subtree walks, the
per-row refresh bisects, the all-rows lattice filter, the relation
filter + re-sort of source reconstruction) was replaced by probes
driven from the IDs the batch touched.  The replaced implementations
live on in :mod:`tests.harness.reference_scans`; the properties here
hold each probe to its scan on random documents and mixed batches, and
one count-based test pins the cost model: the work of a fixed batch
does not grow with the document.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.relation import Relation
from repro.algebra.structural import structural_join
from repro.maintenance import insert as insert_module
from repro.maintenance import terms as terms_module
from repro.maintenance.delta import BatchCandidates
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.insert import collect_attribute_refreshes
from repro.pattern.xpath_parser import parse_xpath
from repro.updates.language import DeleteUpdate, ResolvedDeleteUpdate, ResolvedInsertUpdate
from repro.updates.pul import BatchApplication
from repro.views import lattice as lattice_module
from repro.views.lattice import SnowcapLattice
from repro.views.view import MaterializedView
from repro.workloads.churn import churn_batches
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.xmldom.index import KeyedRows
from repro.xmldom.model import ElementNode, TextNode, build_document
from repro.xmldom.parser import parse_fragment
from repro.workloads.xmark import generate_document
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


def _refresh_pairs_checked(seed: int, insert_ratio: float) -> int:
    """Probe and scan refresh over one mixed batch, view by view;
    returns how many rewrite pairs they agreed on."""
    document = generate_document(scale=1)
    views = [
        MaterializedView.materialize(view_pattern(name), document, name=name)
        for name in sorted(VIEW_TEXTS)
    ]
    stream = statement_stream(document, 16, seed=seed, insert_ratio=insert_ratio)
    application = BatchApplication(document, stream).apply()
    insert_targets = application.insert_target_ids
    delete_targets = application.delete_target_ids
    pairs = 0
    for view in views:
        probed = collect_attribute_refreshes(
            view, document, insert_targets, delete_targets
        )
        assert probed == scan_attribute_refreshes(
            view, document, insert_targets, delete_targets
        ), view.name
        pairs += len(probed)
    return pairs


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

    def apply_batch(self, deleted_ids, additions):
        before = snapshot(self)
        removed = original_batch(self, deleted_ids, additions)
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


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lattice_probe_matches_filter_on_mixed_batches(seed):
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document)
    registered = {
        name: engine.register_view(view_pattern(name), name)
        for name in sorted(VIEW_TEXTS)
    }
    seen = {}
    with _lattice_upkeep_checked(seen):
        for round_index in range(4):
            stream = statement_stream(
                document, 12, seed=seed * 7 + round_index, insert_ratio=0.5
            )
            engine.apply_batch(stream)
    assert seen.get("delete") and seen.get("append"), seen
    for name, view in registered.items():
        assert view.view.equals_fresh_evaluation(document), name


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lattice_probe_matches_filter_on_sigma_flips(seed):
    sigma_values = ("4.50", "100.00", "150.00")
    document = generate_document(scale=1)
    batches = churn_batches(
        document, 6, batch_size=5, seed=seed, sigma_values=sigma_values
    )
    engine = MaintenanceEngine(document)
    for amount in sigma_values:
        pattern = view_pattern("Q3")
        for node in pattern.nodes():
            if node.value_pred is not None:
                node.value_pred = amount
        engine.register_view(pattern, "Q3_%s" % amount)
    seen = {}
    with _lattice_upkeep_checked(seen):
        for batch in batches:
            engine.apply_batch(batch)
    assert "flip" in seen, seen


# -- (e) bisected splice ≡ filter + re-sort ≡ the pre-batch relation ------------------


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
        spliced = document.keyed_label(label).spliced(
            [node_id.sort_key for node_id in inserted.get(label, ())],
            removed.get(label, ()),
        )
        assert spliced.nodes == scan_spliced(
            document.nodes_with_label(label), inserted_ids, removed.get(label, ())
        ), label
        assert spliced.nodes == before.get(label, []), label
        # ... and the one edit list kept the key list parallel.
        assert spliced.keys == [node.id.sort_key for node in spliced.nodes], label


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
    import random

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

    hash_join, find, below = structural_join, KeyedRows.find, KeyedRows.below

    def counted_hash_join(left, right, *args):
        counters.join_rows_examined += len(right.rows)
        return hash_join(left, right, *args)

    def counted_find(self, key):
        node = find(self, key)
        counters.join_rows_examined += node is not None
        return node

    def counted_below(self, ancestor_id):
        run = below(self, ancestor_id)
        counters.join_rows_examined += len(run)
        return run

    ElementNode.self_and_descendants = counted_walk
    ElementNode.descendants = counted_descend
    lattice_module._probe = counted_probe
    Relation.apply_delta = counted_delta
    terms_module.structural_join = insert_module.structural_join = counted_hash_join
    KeyedRows.find = counted_find
    KeyedRows.below = counted_below
    try:
        yield
    finally:
        ElementNode.self_and_descendants = walk
        ElementNode.descendants = descend
        lattice_module._probe = probe
        Relation.apply_delta = delta
        terms_module.structural_join = insert_module.structural_join = hash_join
        KeyedRows.find = find
        KeyedRows.below = below


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
        engine.register_view(view_pattern(name), name)
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
