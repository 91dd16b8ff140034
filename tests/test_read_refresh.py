"""The val/cont refresh runs when an extent is read, and a read pays
only the refresh pending since the last read.

Bounds are counts, not times: document nodes touched by a read, ``cont``
compositions of one stored node over several batches, store entries
after a removal and re-derivation, pending anchors.  Held extent objects
read current, and neither a reader thread beside an ``ApplyQueue``
worker nor a session forked beside a reader changes a result.
"""

import threading
import time

import repro.maintenance.engine as engine_module
from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.updates import language as ul
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom.model import Document, ElementNode
from repro.xmldom.parser import parse_document, parse_fragment

_MAIL = "<mail><from>P</from><to>P</to><date>01/01/2001</date><text>m</text></mail>"


def _xmark_engine(names=None):
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document)
    for name in sorted(names or VIEW_TEXTS):
        engine.register_view(view_pattern(name), name)
    return document, engine


def _counted(monkeypatch, touched, cls, name):
    """Record every node ``cls.name`` (a property or method) is read on."""
    original = getattr(cls, name)
    if isinstance(original, property):
        counted = property(lambda node: touched.append(node) or original.fget(node))
    else:
        def counted(owner, node_id):
            touched.append(node_id)
            return original(owner, node_id)
    monkeypatch.setattr(cls, name, counted)


def test_a_read_with_no_batch_since_the_last_touches_no_node(monkeypatch):
    document, engine = _xmark_engine()
    engine.apply_batch(statement_stream(document, 16, seed=4, insert_ratio=0.75))
    touched = []
    for cls, name in ((Document, "node_by_id"), (ElementNode, "val"), (ElementNode, "cont")):
        _counted(monkeypatch, touched, cls, name)
    for registered in engine.views.values():
        registered.view.content()
    assert touched  # the pending refresh ran on this read
    touched.clear()
    for registered in engine.views.values():
        registered.view.content()
        registered.view.rows()
        assert registered.view.refresh() == 0
    assert touched == []


def test_k_batches_under_one_item_recompose_its_cont_once(monkeypatch):
    document, engine = _xmark_engine(["Q6"])
    mailbox = document.nodes_with_label("mailbox")[0]
    composed = []
    _counted(monkeypatch, composed, ElementNode, "cont")
    for _ in range(4):
        engine.apply_batch([ul.ResolvedInsertUpdate([mailbox.id], parse_fragment(_MAIL))])
    assert composed == []  # the batches only record anchors
    assert engine.views["Q6"].view.refresh() == 1  # the item's row
    assert composed.count(mailbox.parent) == 1  # one composition, 4 batches
    assert engine.views["Q6"].view.equals_fresh_evaluation(document)


def test_a_tuple_removed_and_rederived_with_changed_cont_nets_by_ids():
    # //a{ID, cont}//b: a's one derivation runs through its b; the batch
    # deletes that b and inserts another, so Δ− and Δ+ both carry a's
    # row -- with the post-batch cont, unlike the stored tuple.
    a = PatternNode("a", axis="desc", store_id=True, store_cont=True)
    a.add_child(PatternNode("b", axis="desc"))
    document = parse_document("<r><a><b>x</b></a></r>")
    engine = MaintenanceEngine(document)
    registered = engine.register_view(Pattern(a), "v")
    (old_row,) = registered.view.rows()
    report = engine.apply_batch([ul.DeleteUpdate("//b"), ul.InsertUpdate("//a", "<b>y</b>")])
    view_report = report.report_for("v")
    assert (view_report.derivations_added, view_report.derivations_removed) == (1, 1)
    assert view_report.tuples_removed == 0  # one entry, never absent
    assert registered.view.stored_size() == 1
    assert registered.view.content() == [((old_row[0], "<a><b>y</b></a>"), 1)]
    assert old_row not in registered.view
    assert registered.view.equals_fresh_evaluation(document)


def test_pending_anchors_never_outnumber_the_stored_tuples():
    # Anchors outliving their rows give way to the whole extent: a view
    # that is never read keeps at most one anchor per stored tuple.
    a = PatternNode("a", axis="desc", store_id=True, store_cont=True)
    document = parse_document("<r><a/><a/></r>")
    engine = MaintenanceEngine(document)
    view = engine.register_view(Pattern(a), "v").view
    engine.apply_batch([ul.InsertUpdate("//a", "<c/>")])
    assert len(view._stale) == view.stored_size() == 2
    engine.apply_batch([ul.ResolvedDeleteUpdate([document.root.children[1].id])])
    assert view._stale is None and view.stored_size() == 1
    assert view.refresh() == 1
    assert view.equals_fresh_evaluation(document)


def test_a_held_extent_reads_current_inline_and_through_a_session():
    document, engine = _xmark_engine(["Q1", "Q3", "Q6"])
    held = {name: registered.view for name, registered in engine.views.items()}
    stream = statement_stream(document, 48, seed=9, insert_ratio=0.7)

    def apply_and_check(apply, statements):
        before = {name: view.content() for name, view in held.items()}
        apply(statements)
        for view in held.values():
            assert view.equals_fresh_evaluation(document), view.name
            rows = view.rows()
            assert len(view) == len(rows)
            assert all(row in view and view.count(row) > 0 for row in rows)
        assert any(held[name].content() != before[name] for name in held)

    apply_and_check(engine.apply_batch, stream[:16])
    with engine.session(workers=2) as session:
        assert set(session.assignment.values()) == {0, 1}
        apply_and_check(session.apply_batch, stream[16:32])
        session.apply_batch(stream[32:])
    assert all(view.equals_fresh_evaluation(document) for view in held.values())


def test_a_checkpoint_does_not_settle_the_pending_refresh(tmp_path):
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document, backend=str(tmp_path / "v.db"))
    registered = engine.register_view(view_pattern("Q6"), "Q6")
    mailbox = document.nodes_with_label("mailbox")[0]
    engine.apply_batch([ul.ResolvedInsertUpdate([mailbox.id], parse_fragment(_MAIL))])
    engine.sync_durability()  # checkpoints ID projections only
    assert registered.view.refresh() == 1
    assert registered.view.equals_fresh_evaluation(document)
    engine.backend.close()


def test_a_reader_thread_beside_a_queue_worker_ends_equal_to_serial():
    names = ("Q1", "Q3", "Q6")
    serial_document, serial = _xmark_engine(names)
    stream = statement_stream(serial_document, 96, seed=17, insert_ratio=0.75)
    for start in range(0, len(stream), 8):
        serial.apply_batch(stream[start : start + 8])
    document, engine = _xmark_engine(names)
    done, reads, errors = threading.Event(), [], []

    def reader():
        try:
            while not done.is_set():
                reads.extend(len(r.view.content()) for r in engine.views.values())
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        with ApplyQueue(engine, max_batch_size=8) as queue:
            queue.extend_async(stream)
            queue.flush()
    finally:
        done.set()
        thread.join()
    assert not errors and reads
    for name in names:
        assert engine.views[name].view.content() == serial.views[name].view.content()
        assert engine.views[name].view.equals_fresh_evaluation(document), name


def test_a_session_forks_only_after_a_refresh_in_flight(monkeypatch):
    # A replica forked mid-refresh would inherit the engine lock held by
    # a thread it lacks, and a half-rewritten store: the fork waits.
    document, engine = _xmark_engine(["Q1", "Q6"])
    stream = statement_stream(document, 32, seed=5, insert_ratio=0.75)
    engine.apply_batch(stream[:16])
    inside, finished = threading.Event(), threading.Event()
    refresh = engine_module.collect_attribute_refreshes

    def slow_refresh(*args):
        if threading.current_thread() is reader:
            inside.set()
            time.sleep(0.2)
        pairs = refresh(*args)
        finished.set()
        return pairs

    monkeypatch.setattr(engine_module, "collect_attribute_refreshes", slow_refresh)
    reader = threading.Thread(target=engine.views["Q6"].view.content)
    reader.start()
    inside.wait()
    with engine.session(workers=2) as session:
        assert finished.is_set()
        session.apply_batch(stream[16:])
    reader.join()
    for name, registered in engine.views.items():
        assert registered.view.equals_fresh_evaluation(document), name
