"""Shard pipeline gate: 4-worker sharded maintenance vs serial.

Streams the Appendix-A XMark update family (the workload behind the
Fig-18 experiments) as a sequence of batches -- the shape
``ApplyQueue`` produces -- through three tenants of the seven XMark
views, twice from the same starting document:

* ``workers=0``: each batch propagated by the serial shard plan;
* ``workers=4``: a resident :class:`~repro.sharding.ShardSession`
  of four parties -- the owner maintaining its share in-process plus
  three fork-once replicas, view-sharded, extent deltas shipped back
  to the owner).

The gate requires

* **byte-identical extents** -- after the whole stream, every view's
  stored content under the session must equal the serial run's and
  match fresh re-evaluation (always asserted, on any machine); and
* **>= MIN_SPEEDUP x propagation speedup at 4 workers.**  On hosts
  with at least 4 usable CPUs this is the measured ratio of summed
  per-batch propagation seconds.  On smaller hosts four CPU-bound
  workers only time-share one core, so the gate evaluates a
  *projected* ratio built from measured quantities only: the serial
  run's per-view propagation times (grouped by the session's actual
  view->worker assignment into a makespan), plus the payload-building
  and transport/store overhead of a ``workers=2`` session (the owner
  and one forked replica) run in sequential-send calibration mode,
  where owner and replica phases never overlap and every component is
  clean of time-slicing (see ``_projected_speedup`` and
  ``transport_seconds`` for the exact accounting).  Replica document
  application is excluded only because the owner's measured, identical
  apply runs concurrently with it.  The report says which mode
  produced the number.

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_shard_pipeline.py``.
"""

from __future__ import annotations

import gc
import os

from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import UpdateBatch
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

SCALE = 48
STREAM_LENGTH = 2048
BATCH_SIZE = 256
#: tenants x 7 XMark views = 21 registered views, the multi-view load
#: the session shards across workers.
TENANTS = 3
WORKERS = 4
MIN_SPEEDUP = 2.0
#: timing repeats; extents are asserted on every repeat, the speedup is
#: the best observed (as in the sibling gates' min-of-N).
REPEATS = 2
VIEW_NAMES = tuple(sorted(VIEW_TEXTS))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _build_engine():
    document = generate_document(scale=SCALE)
    engine = MaintenanceEngine(document)
    registered = {}
    for tenant in range(TENANTS):
        for name in VIEW_NAMES:
            view_name = name if tenant == 0 else "%s_t%d" % (name, tenant)
            registered[view_name] = engine.register_view(
                view_pattern(name), view_name
            )
    return document, engine, registered


def _batches(stream):
    return [
        UpdateBatch(stream[index : index + BATCH_SIZE])
        for index in range(0, len(stream), BATCH_SIZE)
    ]


def _run_serial(batches):
    document, engine, registered = _build_engine()
    gc.collect()
    propagation = 0.0
    view_propagation = {name: 0.0 for name in registered}
    for batch in batches:
        report = engine.apply_batch(batch)
        propagation += report.propagation_seconds()
        for name, view_report in report.view_reports.items():
            view_propagation[name] += (
                view_report.phases.total() - view_report.phases.find_target_nodes
            )
    return document, registered, propagation, view_propagation


def _run_session(batches, workers, sequential=False, weights=None):
    document, engine, registered = _build_engine()
    gc.collect()
    session = engine.session(workers=workers, weights=weights)
    session.sequential_send = sequential
    propagation = 0.0
    rounds = []
    try:
        for batch in batches:
            report = session.apply_batch(batch)
            if report.fallbacks:
                raise AssertionError("unexpected fallbacks: %r" % report.fallbacks)
            propagation += report.propagation_seconds()
            rounds.append(report.shard_rounds[0])
    finally:
        session.close()
    assignment = {
        name: index
        for index, owned in enumerate(session._assignment)
        for name in owned
    }
    return document, registered, propagation, rounds, assignment


def _assert_identical(serial_views, session_views, session_doc):
    for name in serial_views:
        if serial_views[name].view.content() != session_views[name].view.content():
            raise AssertionError("view %s extents diverge under sharding" % name)
    for name in (VIEW_NAMES[0], VIEW_NAMES[-1]):
        if not session_views[name].view.equals_fresh_evaluation(session_doc):
            raise AssertionError("sharded view %s != fresh evaluation" % name)


def transport_seconds(calibration_rounds, views_total, forked_parties):
    """Price of shipping every view's deltas, from a 2-party
    sequential-send calibration (the owner plus one forked replica).

    Party 0 maintains its views in-process and ships nothing, so only
    the forked party's round is read, in two measured parts:

    * **worker extra** -- payload building and result pickling inside
      the replica (its wall minus its document apply minus its
      maintenance); it runs on the replicas, so it divides by
      ``forked_parties``;
    * **overhead** -- everything left of the batch wall after the
      owner's own prep (its in-process round + the statement send) and
      the replica's wall are removed: pipe transit, result unpickling
      and the owner's store replay, all serial on the owner, charged in
      full.

    Both are scaled by (all views / views on the forked party): the
    calibration ships only that party's share, the price assumes every
    view crosses a pipe, so it can only go up.
    """
    worker_extra = 0.0
    overhead = 0.0
    for shard_round in calibration_rounds:
        (forked,) = [unit for unit in shard_round["unit_s"] if unit["shard"]]
        scale = views_total / max(1, forked["views"])
        worker_extra += scale * max(
            0.0, forked["seconds"] - forked["apply_s"] - forked["propagation_s"]
        )
        overhead += scale * max(
            0.0,
            shard_round["wall_s"] - forked["seconds"] - shard_round["owner_prep_s"],
        )
    return worker_extra / forked_parties + overhead


def _projected_speedup(serial_prop, view_prop, assignment, calibration_rounds):
    """>=4-CPU ratio from measured pieces (no concurrency on this host).

    The projected parallel propagation is the sum of two measured
    parts:

    * **makespan** -- the serial run's per-view propagation times,
      grouped by the session's real view->party assignment; the
      slowest party's sum bounds the concurrent maintenance wall;
    * **transport** -- :func:`transport_seconds` over the 2-party
      calibration, as if every view shipped from one of the
      ``WORKERS - 1`` forked replicas.

    Replica document application is *not* projected away: it appears
    inside the replica wall and cancels only against the owner prep the
    calibration shows it overlapping.
    """
    worker_load = {}
    for name, seconds in view_prop.items():
        worker_load[assignment[name]] = worker_load.get(assignment[name], 0.0) + seconds
    makespan = max(worker_load.values())
    transport = transport_seconds(calibration_rounds, len(view_prop), WORKERS - 1)
    return serial_prop / (makespan + transport), makespan, transport


def run_gate() -> dict:
    stream = statement_stream(
        generate_document(scale=SCALE),
        STREAM_LENGTH,
        seed=7,
        insert_ratio=1.0,
    )
    batches = _batches(stream)
    cpus = _usable_cpus()

    best = None
    for _ in range(REPEATS):
        serial_doc, serial_views, serial_prop, view_prop = _run_serial(batches)
        (
            session_doc,
            session_views,
            session_prop,
            session_rounds,
            assignment,
        ) = _run_session(batches, WORKERS, weights=view_prop)
        # Hard invariant, machine-independent: session == serial, exactly.
        _assert_identical(serial_views, session_views, session_doc)

        if cpus >= WORKERS:
            mode = "measured"
            speedup = serial_prop / session_prop
            makespan = overhead = None
        else:
            mode = "projected_%d_cpu_host" % cpus
            # The overhead measurement needs un-overlapped phases: run
            # the same stream through a two-party session whose owner
            # finishes its own round before the broadcast, so every
            # component is clean of time-slicing.
            (
                s2_doc,
                s2_views,
                _s2_prop,
                s2_rounds,
                _s2_assignment,
            ) = _run_session(batches, 2, sequential=True)
            _assert_identical(serial_views, s2_views, s2_doc)
            speedup, makespan, overhead = _projected_speedup(
                serial_prop, view_prop, assignment, s2_rounds
            )
        candidate = {
            "statements": STREAM_LENGTH,
            "batches": len(batches),
            "views": len(serial_views),
            "workers": WORKERS,
            "cpus": cpus,
            "mode": mode,
            "serial_propagation_s": round(serial_prop, 6),
            "session_propagation_s": round(session_prop, 6),
            "makespan_s": None if makespan is None else round(makespan, 6),
            "overhead_s": None if overhead is None else round(overhead, 6),
            "speedup": round(speedup, 3),
            "floor": MIN_SPEEDUP,
            "extents_identical": True,
        }
        if best is None or candidate["speedup"] > best["speedup"]:
            best = candidate
    return best


def _summary(row: dict) -> str:
    lines = [
        "sharded maintenance: %d statements in %d batches x %d views, "
        "%d resident workers:"
        % (row["statements"], row["batches"], row["views"], row["workers"]),
        "  serial (workers=0) propagation %8.2fms over the stream"
        % (row["serial_propagation_s"] * 1000),
        "  extents: byte-identical to serial, verified against fresh evaluation",
    ]
    if row["mode"] == "measured":
        lines.append(
            "  measured speedup %.2fx (session propagation %8.2fms; floor %.1fx)"
            % (
                row["speedup"],
                row["session_propagation_s"] * 1000,
                row["floor"],
            )
        )
    else:
        lines.append(
            "  host has %d usable CPU(s): speedup projected from the serial "
            "per-view times over the session's view->worker assignment "
            "(makespan %6.2fms) + measured 2-party-session transport/store "
            "overhead (%6.2fms) -> %.2fx (floor %.1fx)"
            % (
                row["cpus"],
                (row["makespan_s"] or 0.0) * 1000,
                (row["overhead_s"] or 0.0) * 1000,
                row["speedup"],
                row["floor"],
            )
        )
    return "\n".join(lines)


def test_shard_pipeline_speedup(save_table):
    row = run_gate()
    save_table("shard_pipeline.txt", _summary(row))
    assert row["speedup"] >= MIN_SPEEDUP, row


def main() -> int:
    row = run_gate()
    passed = row["speedup"] >= MIN_SPEEDUP
    print(_summary(row))
    print("-> %s" % ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
