"""Contract tests of the end-to-end benchmark: names, shapes, helpers.

Pure and fast (no real workload is run): BENCHMARK.json obeys the
driver's limits and agrees with ``spec.py``; every name is printed by
``run.py --list``; every per-layer metric sits in the interaction map;
the percentile helper, the open-loop scheduler and the queue proxy's
statement-to-batch bookkeeping are checked against fakes.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402  (also puts src/ on sys.path)
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK_JSON = os.path.join(run.REPO_ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def contract():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def test_benchmark_json_obeys_the_drivers_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert os.path.getsize(BENCHMARK_JSON) <= 64 * 1024
    assert 1 <= len(contract["paths"]) <= 16
    assert contract["paths"] == ["benchmarks/e2e"]
    assert len(contract["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/") for part in contract["command"])
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # setup_s carries the largest bound.
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    # The whole series the driver makes must fit its cap with room for
    # set-up, generation and the check around each timed region.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * contract["run_seconds"] * 2 <= 3420


def test_benchmark_json_agrees_with_spec(contract):
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert contract["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS
    ]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]


def test_list_prints_every_name(contract, capsys):
    assert run.main(["--list"]) == 0
    printed = capsys.readouterr().out.split()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in contract[section]:
            assert entry["name"] in printed, entry["name"]
    assert spec.OVERHEAD_RATIO in printed


def test_every_layer_metric_is_in_the_interaction_map():
    workloads = {w.name for w in spec.WORKLOADS}
    end_to_end = {m.name for m in spec.END_TO_END}
    # Validity checks and context rows move nothing by design.
    moves_nothing = {
        "maintenance.recompute_over_batch_x", "obs.traced_stmts_per_s",
        "unattributed_share", "loadgen.stale_share", "loadgen.late_p95_ms",
        "loadgen.gen_s", "loadgen.gc_s", "loadgen.doc_nodes_start",
    }
    for metric in spec.PER_LAYER:
        assert metric.on and set(metric.on) <= workloads, metric.name
        assert set(metric.moves) <= end_to_end, metric.name
        assert bool(metric.moves) != (metric.name in moves_nothing), metric.name
        assert metric.source in ("R", "T", "O", "G"), metric.name
    # Every workload and every end-to-end metric is reachable from a layer.
    assert {w for m in spec.PER_LAYER for w in m.on} == workloads
    assert {e for m in spec.PER_LAYER for e in m.moves} == end_to_end


def test_percentile_matches_the_inclusive_definition():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    assert loadgen.percentile(values, 0.0) == 1.0
    assert loadgen.percentile(values, 1.0) == 11.0
    assert loadgen.percentile(values, 0.5) == statistics.median(values)
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    assert loadgen.percentile(values, 0.95) == pytest.approx(cuts[18])
    assert loadgen.percentile([4.2], 0.95) == 4.2
    with pytest.raises(ValueError):
        loadgen.percentile([], 0.5)
    with pytest.raises(ValueError):
        loadgen.percentile(values, 1.5)


class FakeClock:
    """A clock only ``sleep`` and a slow ``submit`` move."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_open_loop_keeps_the_schedule_and_reports_lateness():
    clock = FakeClock()
    submitted = []

    def submit(statement):
        submitted.append((statement, clock.now))
        if statement == 3:  # a stall: the program blocks the generator
            clock.now += 0.35

    due, sent = loadgen.open_loop(
        submit, list(range(8)), rate=10.0, clock=clock, sleep=clock.sleep
    )
    # Nothing skipped or thinned, order kept, due times on the grid.
    assert [statement for statement, _ in submitted] == list(range(8))
    assert due == pytest.approx([100.0 + i / 10.0 for i in range(8)])
    late = [s - d for s, d in zip(sent, due)]
    assert late[:4] == pytest.approx([0.0] * 4)
    # After the stall the generator is late and catches up at once
    # rather than stretching the schedule: 0.25 s, then 0.15, 0.05, 0.
    assert late[4:] == pytest.approx([0.25, 0.15, 0.05, 0.0])
    with pytest.raises(ValueError):
        loadgen.open_loop(submit, [1], rate=0.0)


def test_stale_share():
    assert loadgen.stale_share(90, 100) == pytest.approx(0.10)
    assert loadgen.stale_share(130, 100) == 0.0  # multi-target path deletes
    assert loadgen.stale_share(0, 0) == 0.0


def test_segmented_stream_is_seeded_and_counts_batches():
    calls = []

    def kind(document, batches, batch_size, seed, flavour):
        calls.append((batches, batch_size, seed, flavour))
        return [["s%d.%d" % (seed, i)] * batch_size for i in range(batches)]

    stream = loadgen.SegmentedStream(object(), kind, 3, 2, 4, flavour="x")
    segments = list(stream.segments_for(10))
    assert [len(segment) for segment in segments] == [4, 4, 2]
    assert calls == [(4, 2, 3 * 7919, "x"), (4, 2, 3 * 7919 + 1, "x"), (2, 2, 3 * 7919 + 2, "x")]
    assert stream.gen_seconds >= 0.0
    again = loadgen.SegmentedStream(object(), kind, 3, 2, 4, flavour="x")
    assert list(again.segments_for(10)) == segments


def test_queue_drive_maps_statements_to_batches_against_a_fake_engine():
    import time
    from types import SimpleNamespace

    from repro.maintenance.queue import ApplyQueue

    import rigs

    class FakeEngine:
        obs = rigs.NULL_OBS

        def __init__(self):
            self.sizes = []

        def apply_batch(self, batch, **_options):
            self.sizes.append(len(batch))
            time.sleep(0.002)
            return SimpleNamespace(statements_applied=len(batch))

        def sync_durability(self):
            pass

    # A host running exactly at reference speed: factor 1, walls unchanged.
    clock = SimpleNamespace(sample=lambda: 1.0, factor=lambda *units: 1.0)
    engine = FakeEngine()
    proxy = rigs.TimedEngine(engine, probe=None, clock=clock)
    queue = ApplyQueue(proxy, max_batch_size=8, flush_interval=0.001)
    workload = rigs.WORKLOADS["durable_stream"]._replace(
        open_rate=2000.0, open_segment_batches=2, segment_batches=2, batch_size=8
    )
    rig = SimpleNamespace(workload=workload, queue=queue, proxy=proxy)
    stream = loadgen.SegmentedStream(
        object(), lambda d, batches, size, seed: [[object()] * size] * batches, 1, 8, 2
    )
    try:
        seen = rigs.drive_queue(rig, stream, open_batches=4, burst_batches=3, clock=clock)
    finally:
        queue.close()
    assert seen.submitted == (4 + 3) * 8
    assert sum(engine.sizes) == seen.submitted and seen.failed == 0
    # One latency and one wait per open-loop statement, wait <= commit.
    assert len(seen.commit_ms) == len(seen.wait_ms) == len(seen.late_ms) == 4 * 8
    assert all(w <= c for w, c in zip(seen.wait_ms, seen.commit_ms))
    assert all(c >= 2.0 for c in seen.commit_ms)  # the fake engine's 2 ms
    assert sum(seen.queue_batch_sizes) == 4 * 8
    assert 1 <= seen.depth_max <= 4 * 8
    # Burst: two segments (2 + 1 batches), each a throughput sample.
    assert [count for count, _wall in seen.segments] == [16, 8]
    assert len(seen.apply_walls) == len(engine.sizes)
    # The unit was sampled before each of the 2 + 2 segments and by the
    # proxy after every batch.
    assert len(seen.unit_seconds) == 4 + len(engine.sizes)


def test_reference_clock_scales_walls_by_the_unit():
    clock = hostclock.HostClock()
    assert clock.footprint_mb >= 0.0
    assert clock.sample() > 0.0
    unit = hostclock.REFERENCE_S
    # A unit taking twice its reference time halves the reported time.
    assert clock.factor(unit) == pytest.approx(1.0)
    assert clock.factor(2 * unit, 2 * unit) == pytest.approx(0.5)
    # The samples either side are averaged, not their factors.
    assert clock.factor(unit, 3 * unit) == pytest.approx(0.5)


def _fake_set_result():
    cell = {"value": 1.5, "unit": "s", "samples": 3}
    entry = {
        "correct": True, "attempted": 10, "failed": 0, "errors": [], "timed_s": 1.0,
        "host_factor": 1.0,
        "stale_share": 0.0, "doc_nodes": [1, 2],
        "end_to_end": {m.name: dict(cell, unit=m.unit) for m in spec.END_TO_END},
    }
    return {
        "host": {"nproc": 2, "python": "3.11", "platform": "x", "git_sha": "abc"},
        "seed": 1, "seconds": 12, "comparable": True,
        "workloads": {w.name: dict(entry) for w in spec.WORKLOADS},
    }


def test_result_schema_and_markdown():
    result = _fake_set_result()
    run.check_result(result)
    table = run.markdown(result)
    for workload in spec.WORKLOADS:
        assert "| %s |" % workload.name in table
    for metric in spec.END_TO_END:
        assert metric.name in table
    broken = _fake_set_result()
    del broken["workloads"]["insert_bulk"]["end_to_end"]["setup_s"]
    with pytest.raises(ValueError):
        run.check_result(broken)
    broken = _fake_set_result()
    del broken["host"]["nproc"]
    with pytest.raises(ValueError):
        run.check_result(broken)


def test_relative_spread_is_the_drivers_definition():
    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert run.relative_spread([10.0, 11.0]) == pytest.approx(1.0 / 10.5)
