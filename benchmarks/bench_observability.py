"""Observability overhead gate: tracing on must be (nearly) free.

Runs the ``bench_batch_pipeline`` workload -- a 64-statement
single-target XMark insert stream batched to the Fig-18 views at
``SCALE_MEDIUM`` -- twice per pair from identical starting documents:
once with the default null observability and once with a live
:class:`repro.obs.Observability` (metrics registry + tracer).  The
gate:

* enabled-vs-disabled ``apply_batch`` wall time must stay within
  ``OVERHEAD_CEILING`` (1.05x).  One batch takes a few milliseconds,
  too short for a min over a handful of repeats to resolve 5%, so the
  gate times the whole call over ``PAIRS`` interleaved pairs,
  alternating which side runs first, and compares the two medians
  (document generation and view registration stay outside the timed
  interval);
* the trace must reproduce ``BatchReport.propagation_seconds()``
  exactly -- phase/net-effects spans carry the *same* floats the
  report accumulated (the single-timing-source contract);
* under ``engine.session(workers=2)`` the instrumented run must leave
  extents byte-identical to the instrumented serial run (telemetry
  must never perturb propagation), and the trace must contain one
  ``replica_apply`` span per worker with the worker's stitched
  ``batch`` tree under it.

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_observability.py``.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.maintenance.engine import MaintenanceEngine
from repro.obs import Observability
from repro.obs.export import propagation_from_records, span_records
from repro.updates.language import UpdateBatch
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

SCALE = 2  # the bench_batch_pipeline configuration
VIEWS = ("Q1", "Q3", "Q6")
STREAM_LENGTH = 64
PAIRS = 64
OVERHEAD_CEILING = 1.05
#: names whose single-target inserts the stream draws from.
STREAM_NAMES = ("X1_L", "X2_L", "X3_A", "A6_A", "B3_LB", "E6_L")


def _engine(obs=None):
    document = generate_document(scale=SCALE)
    options = {} if obs is None else {"obs": obs}
    engine = MaintenanceEngine(document, **options)
    views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
    return document, engine, views


def _timed_apply(stream, obs=None):
    """``(apply_batch wall seconds, report)`` on a fresh engine."""
    _, engine, _ = _engine(obs)
    batch = UpdateBatch(stream)
    # Collect the previous engines first so neither side inherits the
    # other's garbage; collections the call itself triggers (the enabled
    # side allocates spans and records) stay in the interval.
    gc.collect()
    started = time.perf_counter()
    report = engine.apply_batch(batch)
    return time.perf_counter() - started, report


def _run_once(stream, obs=None, workers=0):
    document, engine, views = _engine(obs)
    if not workers:
        return document, views, engine.apply_batch(UpdateBatch(stream))
    with engine.session(workers=workers) as session:
        report = session.apply_batch(UpdateBatch(stream))
    return document, views, report


def _assert_trace_matches_report(obs, report) -> None:
    traced = propagation_from_records(span_records(obs.flush()))
    reported = report.propagation_seconds()
    if abs(traced - reported) > 1e-9 + 1e-6 * max(traced, reported):
        raise AssertionError(
            "trace propagation %.9fs != report propagation %.9fs"
            % (traced, reported)
        )


def run_gate() -> dict:
    stream = statement_stream(
        generate_document(scale=SCALE),
        STREAM_LENGTH,
        seed=7,
        insert_ratio=1.0,
        names=STREAM_NAMES,
    )
    disabled, enabled = [], []
    for index in range(PAIRS):
        # Interleaved so both variants see the same thermal/cache drift,
        # and the side that runs first alternates.
        for side in ("off", "on") if index % 2 == 0 else ("on", "off"):
            if side == "off":
                disabled.append(_timed_apply(stream)[0])
                continue
            obs = Observability()
            seconds, report = _timed_apply(stream, obs=obs)
            enabled.append(seconds)
            _assert_trace_matches_report(obs, report)
    disabled_s = statistics.median(disabled)
    enabled_s = statistics.median(enabled)
    return {
        "statements": STREAM_LENGTH,
        "views": list(VIEWS),
        "pairs": PAIRS,
        "disabled_apply_s": round(disabled_s, 6),
        "enabled_apply_s": round(enabled_s, 6),
        "overhead": round(enabled_s / disabled_s, 4),
        "ceiling": OVERHEAD_CEILING,
    }


def check_sharded_identity() -> dict:
    """Instrumented serial vs an instrumented 2-worker session:
    byte-identical extents, and per-worker replica_apply spans with the
    workers' batch trees stitched under them."""
    stream = statement_stream(
        generate_document(scale=SCALE),
        STREAM_LENGTH,
        seed=13,
        insert_ratio=1.0,
        names=STREAM_NAMES,
    )
    serial_obs = Observability()
    serial_doc, serial_views, serial_report = _run_once(stream, obs=serial_obs)
    _assert_trace_matches_report(serial_obs, serial_report)
    shard_obs = Observability()
    shard_doc, shard_views, shard_report = _run_once(stream, obs=shard_obs, workers=2)
    records = span_records(shard_obs.flush())
    for name in VIEWS:
        if serial_views[name].view.content() != shard_views[name].view.content():
            raise AssertionError("view %s extents diverge under telemetry" % name)
        if not shard_views[name].view.equals_fresh_evaluation(shard_doc):
            raise AssertionError("sharded view %s != fresh evaluation" % name)
    replica_rows = [row for row in records if row["name"] == "replica_apply"]
    if len(replica_rows) != shard_report.workers:
        raise AssertionError(
            "%d replica_apply span(s) for %d session workers"
            % (len(replica_rows), shard_report.workers)
        )
    replica_ids = {row["id"] for row in replica_rows}
    stitched = [
        row
        for row in records
        if row["name"] == "batch" and row["parent"] in replica_ids
    ]
    if len(stitched) != len(replica_rows):
        raise AssertionError("worker batch spans not stitched under replica_apply")
    return {"replica_spans": len(replica_rows), "stitched_batches": len(stitched)}


def _summary(row: dict, sharded: dict) -> str:
    return (
        "observability overhead on batch-of-%d (%s):\n"
        "  apply_batch median of %d pairs %8.2fms disabled vs %8.2fms enabled "
        "-> %.4fx (ceiling %.2fx)\n"
        "  2-worker session extents identical; %d replica_apply span(s), "
        "%d stitched worker batch tree(s)"
        % (
            row["statements"],
            "+".join(row["views"]),
            row["pairs"],
            row["disabled_apply_s"] * 1000,
            row["enabled_apply_s"] * 1000,
            row["overhead"],
            row["ceiling"],
            sharded["replica_spans"],
            sharded["stitched_batches"],
        )
    )


def test_observability_overhead(save_table):
    row = run_gate()
    sharded = check_sharded_identity()
    save_table("observability.txt", _summary(row, sharded))
    assert row["overhead"] <= OVERHEAD_CEILING, row


def main() -> int:
    row = run_gate()
    sharded = check_sharded_identity()
    passed = row["overhead"] <= OVERHEAD_CEILING
    print(_summary(row, sharded))
    print("-> %s" % ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
