"""``repro.obs``: registry, tracer, fragments, exporters, wiring.

Covers the metrics/tracing subsystem end to end: instrument semantics
(counters, high-water gauges, fixed-bucket histograms), span nesting
and thread-local stacks, the fork-boundary fragment round-trip
(property-tested: any span tree survives pickling and any shipment
order), the JSONL/Prometheus exporters and CLI, and the load-bearing
engine contracts -- report totals equal trace sums by construction,
telemetry never perturbs extents, queue and session telemetry record
what actually happened.
"""

from __future__ import annotations

import io
import json
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maintenance.engine import BatchReport, MaintenanceEngine
from repro.maintenance.queue import ApplyQueue
from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Span,
    SpanFragment,
    Tracer,
    fragments_to_spans,
    spans_to_fragments,
)
from repro.obs.cli import main as obs_cli
from repro.obs.export import (
    PROPAGATION_SPAN_NAMES,
    metric_records,
    propagation_from_records,
    prometheus_text,
    read_jsonl,
    render_summary,
    span_records,
    summarize,
    write_jsonl,
)
from repro.updates.language import InsertUpdate, UpdateBatch
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

VIEWS = ("Q1", "Q3")


def _stream(count, seed=5, insert_ratio=1.0):
    return statement_stream(
        generate_document(scale=1), count, seed=seed, insert_ratio=insert_ratio
    )


def _engine(obs=None, views=VIEWS):
    options = {} if obs is None else {"obs": obs}
    engine = MaintenanceEngine(generate_document(scale=1), **options)
    registered = {name: engine.register_view(view_pattern(name), name) for name in views}
    return engine, registered


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("kind",))
        counter.inc(labels=("a",))
        counter.inc(2.0, labels=("a",))
        counter.inc(labels=("b",))
        assert counter.value(("a",)) == 3.0
        assert counter.value(("b",)) == 1.0
        assert counter.samples() == [(("a",), 3.0), (("b",), 1.0)]
        with pytest.raises(ValueError):
            counter.inc(-1.0, labels=("a",))
        with pytest.raises(ValueError):
            counter.inc(labels=())  # wrong arity

    def test_gauge_tracks_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(1.0)
        gauge.add(0.5)
        assert gauge.value() == 1.5
        assert gauge.max_value() == 7.0

    def test_histogram_quantiles_and_counts(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 5
        assert histogram.sum() == pytest.approx(6.1)
        assert 0.0 < histogram.quantile(0.5) <= 1.0
        assert histogram.quantile(1.0) <= 10.0
        assert histogram.quantile(0.0) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_registration_idempotent_and_conflict_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "first")
        assert registry.counter("x_total", "second") is counter
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("kind",))

    def test_collect_sorted_and_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "bees").inc()
        registry.gauge("a_depth", "depth").set(2)
        registry.histogram("c_seconds", "secs", buckets=(0.1, 1.0)).observe(0.05)
        assert [i.name for i in registry.collect()] == ["a_depth", "b_total", "c_seconds"]
        text = prometheus_text(registry)
        assert "# TYPE a_depth gauge" in text
        assert "b_total 1" in text
        assert 'c_seconds_bucket{le="0.1"} 1' in text
        assert 'c_seconds_bucket{le="+Inf"} 1' in text
        assert "c_seconds_count 1" in text

    def test_null_registry_is_inert(self):
        counter = NULL_REGISTRY.counter("anything")
        counter.inc(5.0)
        gauge = NULL_REGISTRY.gauge("g")
        gauge.set(9.0)
        histogram = NULL_REGISTRY.histogram("h")
        histogram.observe(1.0)
        assert counter.value() == 0.0
        assert gauge.max_value() == 0.0
        assert histogram.count() == 0
        assert NULL_REGISTRY.collect() == []
        assert not NULL_REGISTRY.enabled


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_drain(self):
        tracer = Tracer()
        with tracer.span("batch", statements=2) as batch:
            tracer.record("phase", 0.25, phase="execute_update", view="Q1")
            with tracer.span("shard_round", mode="serial"):
                tracer.record("unit", 0.1, view="Q1", kind="insert", shard=0)
        roots = tracer.drain()
        assert [span.name for span in roots] == ["batch"]
        assert roots[0] is batch
        assert [child.name for child in roots[0].children] == ["phase", "shard_round"]
        assert roots[0].children[1].children[0].attrs["shard"] == 0
        assert roots[0].seconds >= 0.0
        assert tracer.drain() == []

    def test_name_attr_does_not_collide_with_span_name(self):
        tracer = Tracer()
        with tracer.span("statement", name="ins-1"):
            pass
        (root,) = tracer.drain()
        assert root.name == "statement"
        assert root.attrs["name"] == "ins-1"

    def test_thread_local_stacks(self):
        tracer = Tracer()
        seen = []

        def worker():
            with tracer.span("batch", who="worker"):
                tracer.record("phase", 0.1, phase="p", view="V")
            seen.append(True)

        with tracer.span("outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            # the worker's root must NOT have nested under "outer"
        roots = tracer.drain()
        names = sorted(span.name for span in roots)
        assert names == ["batch", "outer"]
        outer = next(span for span in roots if span.name == "outer")
        assert outer.children == []

    def test_adopt_grafts_children(self):
        tracer = Tracer()
        parent = tracer.record("shard_round", 1.0, mode="fork", units=2)
        tracer.adopt(parent, [Span("unit", {"shard": 0}, seconds=0.4)])
        assert [child.name for child in parent.children] == ["unit"]

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("batch") as span:
            inner = NULL_TRACER.record("phase", 1.0, phase="p", view="V")
        assert span is inner  # the shared husk
        assert NULL_TRACER.drain() == []
        assert not NULL_TRACER.enabled
        assert NULL_OBS.flush() == []
        assert not NULL_OBS.enabled


# -- fragments ----------------------------------------------------------------


def _span_trees() -> st.SearchStrategy:
    attrs = st.dictionaries(
        st.sampled_from(("view", "kind", "shard", "phase", "worker")),
        st.one_of(st.text(max_size=8), st.integers(-5, 5)),
        max_size=3,
    )
    leaf = st.builds(
        Span,
        st.sampled_from(("phase", "unit", "net_effects")),
        attrs,
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        def attach(span, kids):
            span.children = list(kids)
            return span

        return st.builds(
            attach,
            st.builds(
                Span,
                st.sampled_from(("batch", "shard_round", "session_batch")),
                attrs,
                st.floats(0, 10, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            st.lists(children, max_size=3),
        )

    return st.recursive(leaf, extend, max_leaves=8)


class TestFragments:
    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(_span_trees(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_fragments_survive_pickle_and_any_order(self, roots, data):
        fragments = spans_to_fragments(roots)
        shipped = pickle.loads(pickle.dumps(fragments))
        assert shipped == fragments
        shuffled = data.draw(st.permutations(shipped))
        rebuilt = fragments_to_spans(shuffled)
        assert [span.structure() for span in rebuilt] == [
            span.structure() for span in roots
        ]
        assert [span.seconds for span in rebuilt] == [span.seconds for span in roots]

    def test_start_offsets_are_root_relative(self):
        root = Span("batch", start=100.0, seconds=2.0)
        child = Span("phase", {"phase": "p"}, start=100.5, seconds=0.5)
        root.children.append(child)
        fragments = spans_to_fragments([root])
        by_name = {fragment.name: fragment for fragment in fragments}
        assert by_name["batch"].start_offset == 0.0
        assert by_name["phase"].start_offset == pytest.approx(0.5)
        (rebuilt,) = fragments_to_spans(fragments)
        assert rebuilt.children[0].start == pytest.approx(0.5)

    def test_torn_shipment_fails_loudly(self):
        orphan = SpanFragment((0, 1), "unit", {}, 0.0, 1.0)
        with pytest.raises(ValueError, match="no parent"):
            fragments_to_spans([orphan])


# -- exporters + CLI ----------------------------------------------------------


class TestExport:
    def _sample(self):
        tracer = Tracer()
        with tracer.span("batch", statements=1):
            tracer.record("phase", 0.002, phase="execute_update", view="Q1")
            tracer.record("phase", 0.001, phase="find_target_nodes", view="Q1")
            tracer.record("net_effects", 0.003)
            parent = tracer.record("shard_round", 0.004, mode="fork", units=1)
            tracer.adopt(parent, [Span("unit", {"worker": 1}, seconds=0.004)])
        registry = MetricsRegistry()
        registry.counter("repro_batches_total").inc()
        return tracer.drain(), registry

    def test_jsonl_roundtrip_and_propagation(self, tmp_path):
        spans, registry = self._sample()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, spans, registry)
        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        span_rows = [row for row in records if row["type"] == "span"]
        parents = {row["id"]: row["parent"] for row in span_rows}
        roots = [row for row in span_rows if row["parent"] is None]
        assert len(roots) == 1
        assert all(
            parent is None or parent in parents for parent in parents.values()
        )
        # find_target_nodes phases are excluded, like the reports do
        assert propagation_from_records(records) == pytest.approx(0.002 + 0.003 + 0.004)
        metric_rows = [row for row in records if row["type"] == "metric"]
        assert any(row["name"] == "repro_batches_total" for row in metric_rows)
        # append mode accretes instead of clobbering
        write_jsonl(path, spans, append=True)
        assert len(read_jsonl(path)) > len(records)

    def test_summarize_buckets_views_phases_workers(self):
        spans, _registry = self._sample()
        summary = summarize(span_records(spans))
        assert summary["views"]["Q1"]["execute_update"]["spans"] == 1
        assert summary["phases"]["find_target_nodes"]["seconds"] == pytest.approx(0.001)
        assert summary["workers"]["1"]["seconds"] == pytest.approx(0.004)
        text = render_summary(span_records(spans))
        assert "execute_update" in text and "Q1" in text

    def test_metric_records_include_gauge_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_queue_depth")
        gauge.set(9.0)
        gauge.set(2.0)
        (row,) = metric_records(registry)
        assert row["value"] == 2.0 and row["max"] == 9.0

    def test_cli_formats_and_errors(self, tmp_path, capsys):
        spans, registry = self._sample()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, spans, registry)
        assert obs_cli([path]) == 0
        assert "propagation" in capsys.readouterr().out
        assert obs_cli([path, "--format=json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["roots"] == 1
        assert obs_cli([path, "--format=markdown"]) == 0
        assert "| view | phase |" in capsys.readouterr().out
        assert obs_cli([str(tmp_path / "missing.jsonl")]) == 2


# -- single-timing-source contract --------------------------------------------


class TestReportTraceIdentity:
    def test_batch_report_equals_summed_phase_spans(self):
        obs = Observability()
        engine, registered = _engine(obs=obs)
        report = engine.apply_batch(UpdateBatch(_stream(8)))
        records = span_records(obs.flush())
        assert propagation_from_records(records) == pytest.approx(
            report.propagation_seconds(), rel=1e-9, abs=1e-12
        )
        # the identity is structural: only the declared span kinds sum
        names = {row["name"] for row in records}
        assert set(PROPAGATION_SPAN_NAMES) & names

    def test_statement_reports_equal_phase_spans(self):
        obs = Observability()
        engine = MaintenanceEngine(generate_document(scale=1), obs=obs)
        engine.register_view(view_pattern("Q1"), "Q1")
        reports = [engine.apply_update(statement) for statement in _stream(4)]
        assert all(isinstance(report, BatchReport) for report in reports)
        traced = propagation_from_records(span_records(obs.flush()))
        assert traced == pytest.approx(
            sum(report.propagation_seconds() for report in reports),
            rel=1e-9,
            abs=1e-12,
        )

    def test_sharded_run_identical_extents_and_stitched_spans(self):
        stream = _stream(8, seed=9)
        serial_engine, serial_views = _engine(obs=Observability())
        serial_engine.apply_batch(UpdateBatch(stream))
        obs = Observability()
        shard_engine, shard_views = _engine(obs=obs)
        with shard_engine.session(workers=2) as session:
            session.apply_batch(UpdateBatch(stream))
        for name in VIEWS:
            assert (
                serial_views[name].view.content() == shard_views[name].view.content()
            )
            assert shard_views[name].view.equals_fresh_evaluation(
                shard_engine.document
            )
        records = span_records(obs.flush())
        replica_ids = {row["id"] for row in records if row["name"] == "replica_apply"}
        assert len(replica_ids) == 2
        # each worker's batch tree is stitched under its replica_apply span
        stitched = [
            row for row in records
            if row["name"] == "batch" and row["parent"] in replica_ids
        ]
        assert len(stitched) == 2

    def test_disabled_engine_records_nothing(self):
        engine, _registered = _engine()  # default NULL_OBS
        engine.apply_batch(UpdateBatch(_stream(3)))
        assert engine.obs is NULL_OBS
        assert engine.obs.flush() == []


# -- session telemetry --------------------------------------------------------


class TestSessionTelemetry:
    def test_session_batch_span_tree_and_balance_metrics(self):
        from repro.sharding.session import ShardSession

        obs = Observability()
        engine = MaintenanceEngine(generate_document(scale=1), obs=obs)
        views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
        with ShardSession(engine, workers=2) as session:
            session.apply_batch(_stream(6, seed=7))
        for name in VIEWS:
            assert views[name].view.equals_fresh_evaluation(engine.document)
        roots = obs.flush()
        session_roots = [span for span in roots if span.name == "session_batch"]
        assert len(session_roots) == 1
        (root,) = session_roots
        child_names = [child.name for child in root.children]
        assert child_names.count("broadcast") == 1
        assert child_names.count("owner_apply") == 1
        assert child_names.count("replica_apply") == 2
        assert child_names.count("delta_replay") == 2
        replicas = [child for child in root.children if child.name == "replica_apply"]
        assert sorted(span.attrs["worker"] for span in replicas) == [0, 1]
        # worker-side trees shipped home as fragments and stitched in
        for replica in replicas:
            assert any(grand.name == "batch" for grand in replica.children)
        makespan = obs.metrics.get("repro_session_worker_makespan_seconds")
        assert makespan.value(("0",)) > 0.0
        assert makespan.value(("1",)) > 0.0
        assert obs.metrics.get("repro_session_skew_seconds").max_value() >= 0.0
        assert obs.metrics.get("repro_session_lpt_imbalance_ratio").value() >= 1.0

    def test_session_batches_count_in_engine_batch_metrics(self):
        # A session batch is a batch: the engine's batch counters and
        # propagation histogram count it like one apply_batch.
        obs = Observability()
        engine, _views = _engine(obs=obs)
        serial = engine.apply_batch(UpdateBatch(_stream(4, seed=2)))
        with engine.session(workers=2) as session:
            reports = [
                session.apply_batch(UpdateBatch(_stream(4, seed=seed)))
                for seed in (3, 4)
            ]
        reports.append(serial)
        metrics = obs.metrics
        assert metrics.get("repro_batches_total").value() == 3
        assert metrics.get("repro_statements_total").value() == sum(
            report.statements_applied for report in reports
        )
        assert metrics.get("repro_propagation_seconds").count() == 3

    def test_session_spans_lie_inside_their_parents(self):
        # Every span under session_batch sits on the owner's timeline,
        # worker trees grafted at their replica_apply's start.
        obs = Observability()
        engine, views = _engine(obs=obs)
        with engine.session(workers=2) as session:
            for seed in (3, 4):
                session.apply_batch(_stream(6, seed=seed, insert_ratio=0.5))
        batches = [span for span in obs.flush() if span.name == "session_batch"]
        assert len(batches) == 2

        def inside(child, parent):
            return (
                parent.start <= child.start
                and child.start + child.seconds <= parent.start + parent.seconds
            )

        for batch in batches:
            assert {child.name for child in batch.children} == {
                "broadcast", "replica_apply", "owner_apply", "delta_replay"
            }
            for child in batch.children:
                assert inside(child, batch), child.name
            for replica in batch.children:
                if replica.name == "replica_apply":
                    (grafted,) = replica.children
                    assert grafted.name == "batch"
                    assert inside(grafted, replica), replica.attrs


# -- queue telemetry ----------------------------------------------------------


class TestQueueTelemetry:
    def test_depth_gauge_rises_and_falls(self):
        obs = Observability()
        engine, _registered = _engine(obs=obs)
        queue = ApplyQueue(engine, max_batch_size=4, flush_interval=10.0)
        assert queue.obs is obs  # inherited from the engine
        tickets = queue.extend_async(_stream(6))
        depth = obs.metrics.get("repro_queue_depth")
        assert depth.max_value() == 6.0
        queue.flush()
        assert depth.value() == 0.0
        queue.close()
        for ticket in tickets:
            assert ticket.result(timeout=5) is not None
        assert obs.metrics.get("repro_queue_commit_seconds").count() == 6
        assert obs.metrics.get("repro_queue_flushes_total").value() >= 1.0
        assert obs.metrics.get("repro_queue_batches_total").value() >= 2.0

    def test_poison_counter_increments_exactly_once_per_poison_batch(self):
        obs = Observability()
        engine, registered = _engine(obs=obs, views=("Q1",))
        statements = _stream(2) + [
            InsertUpdate("/site/people/person/@id", "<x/>", name="bad")
        ]
        with ApplyQueue(engine, max_batch_size=10, flush_interval=0.5) as queue:
            tickets = queue.extend_async(statements)
            queue.flush()
            poison = obs.metrics.get("repro_queue_poison_batches_total")
            assert poison.value() == 1.0
            # a healthy follow-up batch leaves the poison count alone
            healthy = queue.extend_async(_stream(2, seed=6))
            queue.flush()
            assert poison.value() == 1.0
            for ticket in healthy:
                assert ticket.result(timeout=5) is not None
        with pytest.raises(ValueError):
            tickets[-1].result(timeout=5)
        assert registered["Q1"].view.equals_fresh_evaluation(engine.document)

    def test_close_flushes_pending_spans_to_trace_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs = Observability(trace_path=path)
        engine, _registered = _engine(obs=obs, views=("Q1",))
        queue = ApplyQueue(engine, max_batch_size=4)
        queue.extend_async(_stream(3))
        queue.close()
        records = read_jsonl(path)
        span_rows = [row for row in records if row["type"] == "span"]
        assert any(row["name"] == "batch" for row in span_rows)
        assert any(row["name"] == "phase" for row in span_rows)
        assert any(row["type"] == "metric" for row in records)

    def test_explicit_obs_wins_over_engine_obs(self):
        engine, _registered = _engine(obs=Observability())
        explicit = Observability()
        queue = ApplyQueue(engine, obs=explicit)
        assert queue.obs is explicit
        queue.close()


# -- observability facade -----------------------------------------------------


class TestObservabilityFacade:
    def test_flush_appends_across_calls(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs = Observability(trace_path=path)
        with obs.span("batch", statements=1):
            pass
        obs.flush()
        with obs.span("batch", statements=2):
            pass
        obs.flush()
        rows = read_jsonl(path)
        assert len([row for row in rows if row["type"] == "span"]) == 2
        assert len([row for row in rows if row["type"] == "meta"]) == 2

    def test_prometheus_text_stream(self):
        obs = Observability()
        obs.metrics.counter("repro_batches_total").inc()
        out = io.StringIO()
        out.write(prometheus_text(obs.metrics))
        assert "repro_batches_total 1" in out.getvalue()
