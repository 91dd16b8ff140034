"""Observability overhead gate: tracing on must be (nearly) free.

Runs the ``bench_batch_pipeline`` workload -- a 64-statement
single-target XMark insert stream batched to the Fig-18 views at
``SCALE_MEDIUM`` -- twice per repeat from identical starting documents:
once with the default null observability and once with a live
:class:`repro.obs.Observability` (metrics registry + tracer).  The
gate:

* enabled-vs-disabled *propagation* time (min over interleaved
  repeats) must stay within ``OVERHEAD_CEILING`` (1.05x);
* the trace must reproduce ``BatchReport.propagation_seconds()``
  exactly -- phase/net-effects/shard-round spans carry the *same*
  floats the report accumulated (the single-timing-source contract);
* with ``workers=2`` the instrumented run must leave extents
  byte-identical to the instrumented serial run (telemetry must never
  perturb propagation), and the trace must contain the shard-round
  spans with their stitched per-unit children.

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_observability.py``.
"""

from __future__ import annotations

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
REPEATS = 5
OVERHEAD_CEILING = 1.05
#: names whose single-target inserts the stream draws from.
STREAM_NAMES = ("X1_L", "X2_L", "X3_A", "A6_A", "B3_LB", "E6_L")


def _run_once(stream, obs=None, workers=None):
    document = generate_document(scale=SCALE)
    options = {} if obs is None else {"obs": obs}
    engine = MaintenanceEngine(document, **options)
    views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
    report = engine.apply_batch(UpdateBatch(stream), workers=workers)
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
    disabled_s = enabled_s = float("inf")
    for _ in range(REPEATS):
        # Interleaved so both variants see the same thermal/cache drift.
        _, _, off_report = _run_once(stream)
        disabled_s = min(disabled_s, off_report.propagation_seconds())
        obs = Observability()
        _, _, on_report = _run_once(stream, obs=obs)
        enabled_s = min(enabled_s, on_report.propagation_seconds())
        _assert_trace_matches_report(obs, on_report)
    overhead = enabled_s / disabled_s
    return {
        "statements": STREAM_LENGTH,
        "views": list(VIEWS),
        "disabled_propagation_s": round(disabled_s, 6),
        "enabled_propagation_s": round(enabled_s, 6),
        "overhead": round(overhead, 4),
        "ceiling": OVERHEAD_CEILING,
    }


def check_sharded_identity() -> dict:
    """Instrumented serial vs instrumented workers=2: byte-identical
    extents, and shard-round spans present with stitched unit children."""
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
    round_rows = [row for row in records if row["name"] == "shard_round"]
    if not round_rows:
        raise AssertionError("no shard_round spans in the workers=2 trace")
    round_ids = {row["id"] for row in round_rows}
    stitched_units = [
        row
        for row in records
        if row["name"] == "unit" and row["parent"] in round_ids
    ]
    if not stitched_units:
        raise AssertionError("no stitched unit spans under shard_round")
    return {
        "shard_rounds": len(round_rows),
        "stitched_units": len(stitched_units),
        "modes": sorted({str(row["attrs"].get("mode")) for row in round_rows}),
    }


def _summary(row: dict, sharded: dict) -> str:
    return (
        "observability overhead on batch-of-%d (%s):\n"
        "  propagation %8.2fms disabled vs %8.2fms enabled -> %.4fx "
        "(ceiling %.2fx)\n"
        "  workers=2 extents identical; %d shard_round span(s), %d "
        "stitched unit span(s), modes %s"
        % (
            row["statements"],
            "+".join(row["views"]),
            row["disabled_propagation_s"] * 1000,
            row["enabled_propagation_s"] * 1000,
            row["overhead"],
            row["ceiling"],
            sharded["shard_rounds"],
            sharded["stitched_units"],
            ",".join(sharded["modes"]),
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
