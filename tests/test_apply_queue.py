"""Async apply queue semantics: ordering, flush, close, errors.

The queue's contract: statements are applied in submission order
(grouped into batches of at most ``max_batch_size``), ``flush``
returns only once everything submitted before it is applied, ``close``
drains then stops, and a failing statement poisons exactly its batch
while leaving the engine's views consistent.
"""

import time

import pytest

from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.updates.language import InsertUpdate
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom.serializer import serialize_fragment


def _stream(count, seed=5, insert_ratio=0.8):
    return statement_stream(
        generate_document(scale=1), count, seed=seed, insert_ratio=insert_ratio
    )


def _fresh_engine():
    engine = MaintenanceEngine(generate_document(scale=1))
    registered = engine.register_view(view_pattern("Q1"), "Q1")
    return engine, registered


class TestOrderingAndEquivalence:
    def test_queued_stream_matches_sequential(self):
        stream = _stream(18)
        sequential_doc = generate_document(scale=1)
        sequential = MaintenanceEngine(sequential_doc)
        sequential_view = sequential.register_view(view_pattern("Q1"), "Q1")
        for statement in stream:
            sequential.apply_update(statement)

        engine, registered = _fresh_engine()
        with ApplyQueue(engine, max_batch_size=4) as queue:
            tickets = queue.extend_async(stream)
            queue.flush()
            assert all(ticket.done() for ticket in tickets)
        assert serialize_fragment(sequential_doc.root) == serialize_fragment(
            engine.document.root
        )
        assert sequential_view.view.content() == registered.view.content()
        assert registered.view.equals_fresh_evaluation(engine.document)

    def test_batches_respect_max_size_and_order(self):
        stream = _stream(10, insert_ratio=1.0)
        engine, _ = _fresh_engine()
        with ApplyQueue(engine, max_batch_size=3) as queue:
            tickets = queue.extend_async(stream)
            queue.flush()
            reports = [ticket.result() for ticket in tickets]
        for report in reports:
            assert report.statements_applied <= 3
        # Tickets of one batch share the report; batch boundaries
        # preserve submission order.
        batch_ids = [id(report) for report in reports]
        seen = []
        for batch_id in batch_ids:
            if not seen or seen[-1] != batch_id:
                seen.append(batch_id)
        assert len(seen) == len(set(batch_ids))  # no interleaving


class TestFlushAndClose:
    def test_flush_interval_drains_without_flush(self):
        engine, registered = _fresh_engine()
        queue = ApplyQueue(engine, max_batch_size=100, flush_interval=0.01)
        try:
            ticket = queue.apply_async(_stream(1, insert_ratio=1.0)[0])
            report = ticket.result(timeout=5)
            assert report.statements_applied == 1
            assert registered.view.equals_fresh_evaluation(engine.document)
        finally:
            queue.close()

    def test_close_drains_pending(self):
        stream = _stream(8, insert_ratio=1.0)
        engine, registered = _fresh_engine()
        queue = ApplyQueue(engine, max_batch_size=4, flush_interval=5.0)
        tickets = queue.extend_async(stream)
        queue.close()
        assert all(ticket.done() for ticket in tickets)
        assert queue.pending_count == 0
        assert registered.view.equals_fresh_evaluation(engine.document)

    def test_apply_async_after_close_raises(self):
        engine, _ = _fresh_engine()
        queue = ApplyQueue(engine)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.apply_async(_stream(1)[0])
        queue.close()  # idempotent

    def test_flush_timeout(self):
        engine, _ = _fresh_engine()
        with ApplyQueue(engine) as queue:
            queue.flush(timeout=5)  # nothing pending: returns at once

    def test_result_timeout(self):
        engine, _ = _fresh_engine()
        queue = ApplyQueue(engine, flush_interval=5.0, max_batch_size=100)
        try:
            ticket = queue.apply_async(_stream(1)[0])
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)
        finally:
            queue.close()


class TestCloseWithPendingBatches:
    def test_close_flushes_multiple_pending_batches(self):
        # max_batch_size=3 over 10 statements: close() must drain at
        # least four batches that were all still pending, resolving
        # every ticket with the report of its own batch.
        stream = _stream(10, insert_ratio=1.0)
        engine, registered = _fresh_engine()
        queue = ApplyQueue(engine, max_batch_size=3, flush_interval=10.0)
        tickets = queue.extend_async(stream)
        assert queue.pending_count == 10
        queue.close()
        assert queue.pending_count == 0
        assert queue.batches_applied >= 4
        reports = [ticket.result(timeout=5) for ticket in tickets]
        assert sum(report.statements_applied for report in set(reports)) <= 10
        assert registered.view.equals_fresh_evaluation(engine.document)

    def test_close_with_pending_poison_batch(self):
        # A poison statement sitting in the *pending* backlog at close
        # time fails exactly its batch; close still drains the rest and
        # the views stay consistent (recomputed after the poison).
        engine, registered = _fresh_engine()
        good_before = _stream(2, insert_ratio=1.0)
        bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
        good_after = _stream(2, seed=6, insert_ratio=1.0)
        queue = ApplyQueue(engine, max_batch_size=1, flush_interval=10.0)
        ok_tickets = queue.extend_async(good_before)
        poisoned = queue.apply_async(bad)
        tail_tickets = queue.extend_async(good_after)
        queue.close()
        for ticket in ok_tickets + tail_tickets:
            assert ticket.result(timeout=5) is not None
        with pytest.raises(ValueError):
            poisoned.result(timeout=5)
        assert registered.view.equals_fresh_evaluation(engine.document)

    def test_poison_batch_shares_error_across_its_tickets(self):
        # With everything in ONE batch, the failure poisons every
        # statement of the batch -- all tickets carry the same error.
        engine, registered = _fresh_engine()
        statements = _stream(2, insert_ratio=1.0) + [
            InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
        ]
        queue = ApplyQueue(engine, max_batch_size=10, flush_interval=10.0)
        tickets = queue.extend_async(statements)
        queue.close()
        errors = []
        for ticket in tickets:
            with pytest.raises(ValueError):
                ticket.result(timeout=5)
            errors.append(ticket._error)
        assert len({id(error) for error in errors}) == 1
        assert registered.view.equals_fresh_evaluation(engine.document)


class TestErrorPropagation:
    def test_poison_statement_fails_its_batch_only(self):
        engine, registered = _fresh_engine()
        bad = InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
        good = _stream(2, insert_ratio=1.0)
        with ApplyQueue(engine, max_batch_size=10, flush_interval=0.0) as queue:
            poisoned = queue.apply_async(bad)
            with pytest.raises(ValueError):
                poisoned.result(timeout=5)
            # The worker survives; later statements still apply.
            tickets = queue.extend_async(good)
            queue.flush()
            for ticket in tickets:
                ticket.result(timeout=5)
        assert registered.view.equals_fresh_evaluation(engine.document)

    def test_engine_requirements_validated(self):
        with pytest.raises(TypeError):
            ApplyQueue(object())
        engine, _ = _fresh_engine()
        with pytest.raises(ValueError):
            ApplyQueue(engine, max_batch_size=0)
        with pytest.raises(ValueError):
            ApplyQueue(engine, flush_interval=-1)
