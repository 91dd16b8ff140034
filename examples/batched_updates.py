"""Batched + asynchronous maintenance on the auction-site workload.

Run with::

    python examples/batched_updates.py

The auction-site scenario again (XMark document, views Q1/Q3/Q6, a
stream of XPathMark-style updates) -- but instead of propagating one
statement at a time, writers hand statements to an
:class:`~repro.maintenance.queue.ApplyQueue` and continue immediately;
a background worker groups arrivals into
:class:`~repro.updates.language.UpdateBatch` units and runs **one**
maintenance round per group (one merged pending update list, one
label-bucketed Δ extraction, one extent snapshot, one store pass and
one lattice pass per view).  The demo then replays the same stream
statement-at-a-time and compares propagation time.
"""

import time

from repro.maintenance.engine import MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document, size_of

VIEWS = ("Q1", "Q3", "Q6")
STREAM_LENGTH = 48


def propagation_ms(reports):
    return sum(report.propagation_seconds() for report in reports) * 1000


def main():
    document = generate_document(scale=2)
    print("document: %d bytes, %d nodes" % (size_of(document), document.size_in_nodes()))
    stream = statement_stream(
        generate_document(scale=2), STREAM_LENGTH, seed=42, insert_ratio=0.8
    )
    print("stream: %d single-target statements (80%% inserts)\n" % len(stream))

    # -- async batched application -----------------------------------------
    engine = MaintenanceEngine(document)
    registered = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
    for name, view in registered.items():
        print("  %-4s %-60s %4d tuples" % (name, view.pattern.to_string(), len(view.view)))

    started = time.perf_counter()
    with ApplyQueue(engine, max_batch_size=16, flush_interval=0.002) as queue:
        tickets = [queue.apply_async(statement) for statement in stream]
        submit_ms = (time.perf_counter() - started) * 1000
        queue.flush()
        wall_ms = (time.perf_counter() - started) * 1000
        reports = []
        for ticket in tickets:
            report = ticket.result()
            if not reports or reports[-1] is not report:
                reports.append(report)
    print("\nasync queue: %d statements submitted in %.2fms (writers never block)"
          % (len(stream), submit_ms))
    print("             drained into %d batches, %.2fms wall, %.2fms propagation"
          % (len(reports), wall_ms, propagation_ms(reports)))
    for report in reports:
        print("             batch of %2d: +%d/-%d net nodes, %d cancelled%s"
              % (report.statements_applied, report.net_inserted, report.net_removed,
                 report.cancelled,
                 ", fallbacks %s" % sorted(report.fallbacks) if report.fallbacks else ""))
    for name, view in registered.items():
        assert view.view.equals_fresh_evaluation(document), name
    print("all views verified against fresh re-evaluation")

    # -- the same stream, statement at a time ------------------------------
    sequential_doc = generate_document(scale=2)
    sequential = MaintenanceEngine(sequential_doc)
    sequential_views = {
        name: sequential.register_view(view_pattern(name), name) for name in VIEWS
    }
    started = time.perf_counter()
    sequential_reports = [sequential.apply_update(statement) for statement in stream]
    sequential_wall_ms = (time.perf_counter() - started) * 1000
    for name, view in sequential_views.items():
        assert view.view.content() == registered[name].view.content(), name
    print("\nsequential replay: %.2fms wall, %.2fms propagation"
          % (sequential_wall_ms, propagation_ms(sequential_reports)))
    print("final extents byte-identical to the batched run")


if __name__ == "__main__":
    main()
