"""Batch pipeline gate: batch-of-N propagation vs N sequential rounds.

Propagates a 64-statement single-target XMark insert stream (the
write-stream shape the async queue produces) to the Fig-18 views at the
figure's document scale (``SCALE_MEDIUM``), twice from the same
starting document: once statement-at-a-time through
``MaintenanceEngine.apply_update`` (a batch of one per statement) and
once as a single ``UpdateBatch`` through ``apply_batch``.  The batch
side must

* leave final view extents **byte-identical** to sequential
  application (the updated documents are identical by construction --
  the batch resolves and applies statements sequentially), and
* spend at least ``MIN_SPEEDUP``× less *propagation* time -- the
  five maintenance phases of Section 6, the same metric the smoke gate
  uses.  Target resolution and the document write are excluded: the
  batch performs them statement-at-a-time on purpose, so they are
  identical on both sides and would only dilute the ratio the
  refactor actually changes.  End-to-end wall clock is reported
  alongside.

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_batch_pipeline.py``.
"""

from __future__ import annotations

import time

from conftest import traced_propagation

from repro.maintenance.engine import MaintenanceEngine
from repro.obs import Observability
from repro.updates.language import UpdateBatch
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

SCALE = 2  # the Fig-18/19 configuration of the figure benchmarks
VIEWS = ("Q1", "Q3", "Q6")
STREAM_LENGTH = 64
MIN_SPEEDUP = 3.0
REPEATS = 3
#: names whose single-target inserts the stream draws from.
STREAM_NAMES = ("X1_L", "X2_L", "X3_A", "A6_A", "B3_LB", "E6_L")


def _run_sequential(stream):
    document = generate_document(scale=SCALE)
    obs = Observability()
    engine = MaintenanceEngine(document, obs=obs)
    registered = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
    started = time.perf_counter()
    for statement in stream:
        engine.apply_update(statement)
    wall = time.perf_counter() - started
    # Propagation comes from the tracer, not local re-timing: the phase
    # spans carry the same floats the reports accumulated.
    return document, registered, traced_propagation(obs), wall


def _run_batched(stream):
    document = generate_document(scale=SCALE)
    obs = Observability()
    engine = MaintenanceEngine(document, obs=obs)
    registered = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
    started = time.perf_counter()
    report = engine.apply_batch(UpdateBatch(stream))
    wall = time.perf_counter() - started
    return document, registered, traced_propagation(obs), wall, report


def run_gate() -> dict:
    stream = statement_stream(generate_document(scale=SCALE), STREAM_LENGTH, seed=7,
                              insert_ratio=1.0, names=STREAM_NAMES)
    sequential_s = batched_s = sequential_wall = batched_wall = float("inf")
    for _ in range(REPEATS):
        seq_doc, seq_views, seq_prop, seq_wall = _run_sequential(stream)
        batch_doc, batch_views, batch_prop, batch_wall, report = _run_batched(stream)
        for name in VIEWS:
            if seq_views[name].view.content() != batch_views[name].view.content():
                raise AssertionError("view %s extents diverge" % name)
            if not batch_views[name].view.equals_fresh_evaluation(batch_doc):
                raise AssertionError("batched view %s != fresh evaluation" % name)
        if report.fallbacks:
            raise AssertionError("unexpected fallbacks: %r" % report.fallbacks)
        sequential_s = min(sequential_s, seq_prop)
        batched_s = min(batched_s, batch_prop)
        sequential_wall = min(sequential_wall, seq_wall)
        batched_wall = min(batched_wall, batch_wall)
    return {
        "statements": STREAM_LENGTH,
        "views": list(VIEWS),
        "sequential_propagation_s": round(sequential_s, 6),
        "batched_propagation_s": round(batched_s, 6),
        "speedup": round(sequential_s / batched_s, 3),
        "sequential_wall_s": round(sequential_wall, 6),
        "batched_wall_s": round(batched_wall, 6),
        "wall_speedup": round(sequential_wall / batched_wall, 3),
        "floor": MIN_SPEEDUP,
    }


def _summary(row: dict) -> str:
    return (
        "batch-of-%d vs sequential on %s:\n"
        "  propagation %8.2fms vs %8.2fms -> %5.2fx (floor %.1fx)\n"
        "  wall clock  %8.2fms vs %8.2fms -> %5.2fx (includes identical "
        "per-statement target resolution + document writes)"
        % (
            row["statements"],
            "+".join(row["views"]),
            row["batched_propagation_s"] * 1000,
            row["sequential_propagation_s"] * 1000,
            row["speedup"],
            row["floor"],
            row["batched_wall_s"] * 1000,
            row["sequential_wall_s"] * 1000,
            row["wall_speedup"],
        )
    )


def test_batch_pipeline_speedup(save_table):
    row = run_gate()
    save_table("batch_pipeline.txt", _summary(row))
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
