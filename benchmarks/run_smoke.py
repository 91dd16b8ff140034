"""Benchmark smoke gate: reduced Fig-18/19 configuration.

Runs a minimal insert/delete propagation matrix (views Q1 and Q3,
single-target statements derived from X1_L / X2_L at a small scale),
verifies every maintained extent against recomputation, compares
propagation time against the full-recompute baseline of Section 6.5,
and checks the batch pipeline invariant: a mixed statement stream
propagated as one ``UpdateBatch`` must leave extents byte-identical to
sequential per-statement application.

Also drives a mixed-churn stream (σ-value rewrites and round-trips,
:func:`repro.workloads.churn.churn_batches`) through the repair engine
and records the *fallback rate* -- fallback-bearing batches over
flip-bearing batches.  The σ-flip repair keeps it at 0.0; the gate
fails above ``FALLBACK_RATE_CEILING``.

Appends one run entry -- keyed by git SHA + timestamp -- to the
trajectory list in ``benchmarks/out/BENCH_hotpath.json`` (CI trend
tracking: the file accumulates across runs instead of being
overwritten).  Run entries are schema-checked against ``RUN_KEYS``
before writing, so stale metrics can never silently accrete in the
trajectory; unknown keys in *historical* entries are dropped on
migration.  Exits non-zero if the maintenance-vs-recompute speedup
falls below ``SPEEDUP_FLOOR``, the fallback rate exceeds its ceiling,
or the batch equivalence check fails.  When ``GITHUB_STEP_SUMMARY`` is
set (GitHub Actions), the gate metrics are appended there as a
markdown table.

The seed measured ~5x on this configuration; the floor is set well
below that so timing noise never trips the gate, while a genuine
asymptotic regression (maintenance going O(document) again) lands far
under it.

Usage::

    PYTHONPATH=src python benchmarks/run_smoke.py
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys

from repro.baselines.recompute import full_recompute
from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import ResolvedDeleteUpdate, ResolvedInsertUpdate, UpdateBatch
from repro.updates.pul import compute_pul
from repro.views.lattice import SnowcapLattice
from repro.workloads.queries import view_pattern
from repro.workloads.updates import insert_update, statement_stream
from repro.workloads.xmark import generate_document

SCALE = 3
REPEATS = 3
SPEEDUP_FLOOR = 2.0
BATCH_STREAM_LENGTH = 16
CHURN_BATCHES = 8
SESSION_BATCHES = 8
FALLBACK_RATE_CEILING = 0.05
OUT_PATH = os.path.join(os.path.dirname(__file__), "out", "BENCH_hotpath.json")
TRACE_PATH = os.path.join(os.path.dirname(__file__), "out", "trace.jsonl")

#: view -> the Appendix-A statement its single-target updates derive from.
CELLS = (("Q1", "X1_L"), ("Q3", "X2_L"))

#: the full schema of one trajectory run entry; _append_run rejects
#: anything else so retired metrics cannot silently accrete.
RUN_KEYS = frozenset(
    {
        "git_sha",
        "timestamp",
        "config",
        "trajectory",
        "propagation_s",
        "recompute_s",
        "speedup",
        "floor",
        "batch_equivalence",
        "fallback_rate",
        "durability",
        "metrics",
        "passed",
    }
)


def _measure_cell(view_name: str, base_update: str, kind: str) -> dict:
    """One (view, kind) cell: propagation vs recompute seconds (min of
    REPEATS fresh runs), with the maintained extent verified each run."""
    propagation = recompute = float("inf")
    for _ in range(REPEATS):
        document = generate_document(scale=SCALE)
        engine = MaintenanceEngine(document)
        registered = engine.register_view(view_pattern(view_name), view_name)
        base = insert_update(base_update)
        target_id = compute_pul(document, base).inserts()[0].target.id
        if kind == "insert":
            statement = ResolvedInsertUpdate([target_id], base.flat, name="smoke")
        else:
            statement = ResolvedDeleteUpdate([target_id], name="smoke")
        report = engine.apply_update(statement)
        view_report = report.report_for(view_name)
        if not registered.view.equals_fresh_evaluation(document):
            raise AssertionError(
                "maintained view %s diverged (%s)" % (view_name, kind)
            )
        propagation = min(
            propagation,
            view_report.phases.total() - view_report.phases.find_target_nodes,
        )
        _, recompute_seconds = full_recompute(
            registered.pattern,
            document,
            SnowcapLattice(registered.pattern, strategy=registered.lattice.strategy),
        )
        recompute = min(recompute, recompute_seconds)
    return {
        "view": view_name,
        "kind": kind,
        "base_update": base_update,
        "propagation_s": round(propagation, 6),
        "recompute_s": round(recompute, 6),
        "ratio": round(recompute / propagation, 3),
    }


def _git_sha() -> str:
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                stderr=subprocess.DEVNULL,
            )
            .decode()
            .strip()
        )
    except Exception:
        return "unknown"


def _check_batch_equivalence() -> dict:
    """Batch == sequential on a mixed stream (part of the smoke gate)."""
    views = ("Q1", "Q3")
    stream = statement_stream(
        generate_document(scale=SCALE), BATCH_STREAM_LENGTH, seed=11, insert_ratio=0.7
    )
    sequential_doc = generate_document(scale=SCALE)
    sequential = MaintenanceEngine(sequential_doc)
    sequential_views = {
        name: sequential.register_view(view_pattern(name), name) for name in views
    }
    for statement in stream:
        sequential.apply_update(statement)
    batch_doc = generate_document(scale=SCALE)
    batched = MaintenanceEngine(batch_doc)
    batched_views = {
        name: batched.register_view(view_pattern(name), name) for name in views
    }
    report = batched.apply_batch(UpdateBatch(stream))
    equal = all(
        sequential_views[name].view.content() == batched_views[name].view.content()
        and batched_views[name].view.equals_fresh_evaluation(batch_doc)
        for name in views
    )
    return {
        "statements": BATCH_STREAM_LENGTH,
        "views": list(views),
        "net_inserted": report.net_inserted,
        "net_removed": report.net_removed,
        "fallbacks": dict(report.fallbacks),
        "extents_identical": equal,
    }


def _measure_fallback_rate() -> dict:
    """Fallback rate of the repair engine on a mixed-churn stream.

    A batch is *flip-bearing* when it σ-flipped some view candidate
    (``report.repairs`` non-empty); the rate is fallback-bearing over
    flip-bearing batches.  The historical recompute fallback scored
    ~1.0 here by construction; the σ-flip repair keeps it at 0.0.
    """
    from repro.workloads.churn import churn_batches

    views = ("Q1", "Q3")
    batches = churn_batches(
        generate_document(scale=SCALE), CHURN_BATCHES, seed=17
    )
    document = generate_document(scale=SCALE)
    engine = MaintenanceEngine(document)
    registered = {
        name: engine.register_view(view_pattern(name), name) for name in views
    }
    flip_bearing = 0
    fallback_bearing = 0
    for batch in batches:
        report = engine.apply_batch(list(batch))
        if report.repairs:
            flip_bearing += 1
            if report.fallbacks:
                fallback_bearing += 1
    for name in views:
        if not registered[name].view.equals_fresh_evaluation(document):
            raise AssertionError("churn-maintained view %s diverged" % name)
    rate = (fallback_bearing / flip_bearing) if flip_bearing else 0.0
    return {
        "churn_batches": CHURN_BATCHES,
        "flip_bearing_batches": flip_bearing,
        "fallback_bearing_batches": fallback_bearing,
        "rate": round(rate, 3),
        "ceiling": FALLBACK_RATE_CEILING,
    }



def _check_durability() -> dict:
    """Smoke slice of the durability gate (the full crash matrix and
    the timing gates live in ``bench_durability.py``): one SIGKILLed
    crash point must recover to the uninterrupted run's digests, and a
    cleanly closed database must reopen by adoption -- every extent
    resolved from its stored IDs, every snowcap lattice rebuilt from
    the replayed document, both equal to the uninterrupted run."""
    import tempfile

    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
    )
    from harness import crashkit
    from repro.storage.recovery import reopen

    expected = crashkit.reference_digests()
    with tempfile.TemporaryDirectory() as tmp:
        crash_db = os.path.join(tmp, "smoke_crash.db")
        status = crashkit.run_crashing_fork(crash_db, "serial", "mid_bulk_apply", 2)
        sigkilled = crashkit.died_by_sigkill(status)
        engine, report = crashkit.recover_and_finish(crash_db)
        identical = (
            crashkit.extent_digest(engine.views),
            crashkit.lattice_digest(engine.views),
        ) == expected
        engine.backend.close()

        clean_db = os.path.join(tmp, "smoke_clean.db")
        crashkit.run_workload(clean_db, "serial").backend.close()
        recovered, clean_report = reopen(
            clean_db,
            crashkit.build_document(),
            crashkit.view_sources(),
            view_options=crashkit.view_options(),
        )
        adopted = (
            clean_report.lattices_rematerialized == len(crashkit.VIEWS)
            and crashkit.extent_digest(recovered.views) == expected[0]
            and crashkit.lattice_digest(recovered.views) == expected[1]
        )
        recovered.backend.close()
    return {
        "crash_point": "mid_bulk_apply",
        "sigkilled": sigkilled,
        "replayed_batches": report.replayed_batches,
        "recovered_identical": identical,
        "clean_reopen_adopted": adopted,
        "ok": sigkilled and identical and adopted,
    }


def _counter_total(counter) -> float:
    return sum(value for _labels, value in counter.samples())


def _collect_obs_metrics() -> dict:
    """Drive a queued stream over an instrumented engine; distill the
    registry into the run entry's ``metrics`` block and leave the full
    JSONL trace at ``TRACE_PATH`` (uploaded as a CI artifact).

    This is the rebalancing input ROADMAP item 2 asks for: per-batch
    propagation latency quantiles, queue backpressure and σ-repair
    counts, captured by ``repro.obs`` instead of ad-hoc
    re-timing.
    """
    from repro.maintenance.queue import ApplyQueue
    from repro.obs import Observability

    os.makedirs(os.path.dirname(TRACE_PATH), exist_ok=True)
    obs = Observability(trace_path=TRACE_PATH)
    engine = MaintenanceEngine(generate_document(scale=SCALE), obs=obs)
    for name in ("Q1", "Q3"):
        engine.register_view(view_pattern(name), name)
    stream = statement_stream(
        generate_document(scale=SCALE), BATCH_STREAM_LENGTH, seed=23, insert_ratio=0.7
    )
    with ApplyQueue(engine, max_batch_size=4) as queue:
        queue.extend_async(stream)
        queue.flush()
    # close() wrote every span the queue worker recorded to TRACE_PATH.
    propagation = obs.metrics.get("repro_propagation_seconds")
    depth = obs.metrics.get("repro_queue_depth")
    return {
        "propagation_p50_ms": round(propagation.quantile(0.5) * 1e3, 3),
        "propagation_p95_ms": round(propagation.quantile(0.95) * 1e3, 3),
        "propagation_batches": propagation.count(),
        "queue_depth_max": depth.max_value(),
        "queue_commit_p95_ms": round(
            obs.metrics.get("repro_queue_commit_seconds").quantile(0.95) * 1e3, 3
        ),
        "repairs_total": _counter_total(obs.metrics.get("repro_repairs_total")),
        "trace_path": os.path.relpath(TRACE_PATH, os.path.dirname(os.path.dirname(TRACE_PATH))),
    }


def _collect_session_metrics() -> dict:
    """Drive a short drift stream through a resident rebalancing
    session and distill its telemetry: per-batch makespan skew, the
    observed LPT imbalance high-water and the migrations the policy
    executed.  Fork weights deliberately strand every non-Q1 view on
    one worker (one heavy weight plus exact ties -- LPT parks
    indistinguishable views together), so the drift stream forces the
    policy to migrate within a few batches; extents are then verified
    against a serial engine, covering the migration protocol's
    identity in the smoke gate.
    """
    from repro.obs import Observability
    from repro.sharding.rebalance import RebalancePolicy
    from repro.workloads.drift import drift_batches, drift_phase_families

    views = ("Q1", "Q2", "Q3", "Q4", "Q6")
    _people, auctions, _regions = drift_phase_families()
    batches = [
        UpdateBatch(rows)
        for rows in drift_batches(
            generate_document(scale=SCALE),
            SESSION_BATCHES,
            batch_size=8,
            seed=29,
            families=[auctions],
        )
        if rows
    ]
    serial_doc = generate_document(scale=SCALE)
    serial = MaintenanceEngine(serial_doc)
    serial_views = {
        name: serial.register_view(view_pattern(name), name) for name in views
    }
    for batch in batches:
        serial.apply_batch(batch)

    obs = Observability()
    document = generate_document(scale=SCALE)
    engine = MaintenanceEngine(document, obs=obs)
    registered = {
        name: engine.register_view(view_pattern(name), name) for name in views
    }
    weights = {name: 1e-9 for name in views}
    weights["Q1"] = 1.0
    policy = RebalancePolicy(
        trigger_ratio=1.2,
        target_ratio=1.1,
        patience=1,
        cooldown=0,
        budget=4,
        alpha=0.5,
    )
    session = engine.session(workers=2, weights=weights, rebalance=policy)
    try:
        for batch in batches:
            session.apply_batch(batch)
    finally:
        session.close()
    for name in views:
        if serial_views[name].view.content() != registered[name].view.content():
            raise AssertionError(
                "rebalancing session view %s diverged from serial" % name
            )
        if not registered[name].view.equals_fresh_evaluation(document):
            raise AssertionError(
                "rebalancing session view %s != fresh evaluation" % name
            )
    metrics = obs.metrics
    return {
        "session_batches": len(batches),
        "session_skew_seconds": round(
            metrics.get("repro_session_skew_seconds").max_value(), 6
        ),
        "lpt_imbalance_ratio": round(
            metrics.get("repro_session_lpt_imbalance_ratio").value(), 4
        ),
        "lpt_imbalance_high_water": round(
            metrics.get("repro_session_lpt_imbalance_ratio").max_value(), 4
        ),
        "migrations_total": int(
            _counter_total(metrics.get("repro_session_migrations_total"))
        ),
        "extents_identical": True,
    }


def _write_step_summary(run: dict) -> None:
    """Append the gate metrics to the GitHub Actions job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    fallback = run["fallback_rate"]
    lines = [
        "### Benchmark smoke gate",
        "",
        "| metric | value | gate |",
        "| --- | --- | --- |",
        "| maintenance vs recompute speedup | %.2fx | >= %.1fx |"
        % (run["speedup"], run["floor"]),
        "| fallback rate (flip-bearing churn batches) | %.3f | <= %.2f |"
        % (fallback["rate"], fallback["ceiling"]),
        "| batch vs sequential extents | %s | identical |"
        % (
            "identical"
            if run["batch_equivalence"]["extents_identical"]
            else "DIVERGED"
        ),
        "| crash recovery (%s) + clean reopen | %s | identical + adopted |"
        % (
            run["durability"]["crash_point"],
            "OK" if run["durability"]["ok"] else "FAIL",
        ),
        "| propagation p50 / p95 | %.3f / %.3f ms | recorded |"
        % (
            run["metrics"]["propagation_p50_ms"],
            run["metrics"]["propagation_p95_ms"],
        ),
        "| queue depth max | %d | recorded |" % run["metrics"]["queue_depth_max"],
        "| session skew high-water | %.3f ms | recorded |"
        % (run["metrics"]["session_skew_seconds"] * 1e3),
        "| session imbalance ratio (last / high-water) | %.3f / %.3f | recorded |"
        % (
            run["metrics"]["lpt_imbalance_ratio"],
            run["metrics"]["lpt_imbalance_high_water"],
        ),
        "| session migrations | %d | recorded |"
        % run["metrics"]["migrations_total"],
        "| result | %s | |" % ("PASS" if run["passed"] else "FAIL"),
        "",
    ]
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")
        try:
            from repro.obs.cli import render_markdown
            from repro.obs.export import read_jsonl

            handle.write("\n### Observability trace\n\n")
            handle.write(render_markdown(read_jsonl(TRACE_PATH)) + "\n")
        except OSError:
            pass  # no trace captured; the gate table above still stands


def _append_run(run: dict) -> None:
    """Record one run entry in the trajectory file.

    Pre-trajectory files (a single run dict) are migrated into the
    first entry of the ``runs`` list.  One entry per commit: re-running
    at the same git SHA replaces the earlier entry for that SHA instead
    of appending a duplicate (unknown SHAs always append, so local
    tarball runs still accumulate).  The new entry must match
    ``RUN_KEYS`` exactly; unknown keys in historical entries (metrics
    since retired) are dropped rather than carried forward.
    """
    unknown = set(run) - RUN_KEYS
    if unknown:
        raise ValueError(
            "run entry carries unknown keys %s; update RUN_KEYS if the "
            "schema really grew" % sorted(unknown)
        )
    history: dict = {"runs": []}
    if os.path.exists(OUT_PATH):
        try:
            with open(OUT_PATH) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            if isinstance(existing.get("runs"), list):
                history = existing
            elif existing:
                existing.setdefault("git_sha", "pre-trajectory")
                history["runs"] = [existing]
    history["runs"] = [
        {key: value for key, value in entry.items() if key in RUN_KEYS}
        for entry in history["runs"]
    ]
    sha = run.get("git_sha")
    if sha and sha != "unknown":
        history["runs"] = [
            entry for entry in history["runs"] if entry.get("git_sha") != sha
        ]
    history["runs"].append(run)
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def main() -> int:
    rows = []
    total_propagation = total_recompute = 0.0
    for view_name, base_update in CELLS:
        for kind in ("insert", "delete"):
            row = _measure_cell(view_name, base_update, kind)
            rows.append(row)
            total_propagation += row["propagation_s"]
            total_recompute += row["recompute_s"]
            print(
                "%-4s %-6s  propagation %8.3fms  recompute %8.3fms  ratio %5.1fx"
                % (
                    row["view"],
                    row["kind"],
                    row["propagation_s"] * 1000,
                    row["recompute_s"] * 1000,
                    row["ratio"],
                )
            )
    speedup = total_recompute / total_propagation
    batch_check = _check_batch_equivalence()
    fallback = _measure_fallback_rate()
    durability = _check_durability()
    obs_metrics = _collect_obs_metrics()
    obs_metrics.update(_collect_session_metrics())
    passed = (
        speedup >= SPEEDUP_FLOOR
        and batch_check["extents_identical"]
        and fallback["rate"] <= FALLBACK_RATE_CEILING
        and durability["ok"]
    )
    run = {
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now().isoformat(timespec="seconds"),
        "config": {"scale": SCALE, "repeats": REPEATS, "cells": list(CELLS)},
        "trajectory": rows,
        "propagation_s": round(total_propagation, 6),
        "recompute_s": round(total_recompute, 6),
        "speedup": round(speedup, 3),
        "floor": SPEEDUP_FLOOR,
        "batch_equivalence": batch_check,
        "fallback_rate": fallback,
        "durability": durability,
        "metrics": obs_metrics,
        "passed": passed,
    }
    _append_run(run)
    _write_step_summary(run)
    print(
        "batch-vs-sequential extents on %d mixed statements -> %s"
        % (
            batch_check["statements"],
            "IDENTICAL" if batch_check["extents_identical"] else "DIVERGED",
        )
    )
    print(
        "fallback rate %.3f over %d flip-bearing churn batches (ceiling %.2f)"
        % (fallback["rate"], fallback["flip_bearing_batches"], fallback["ceiling"])
    )
    print(
        "durability: crash at %s sigkill=%s replayed=%d recovered=%s "
        "clean-reopen-adopted=%s -> %s"
        % (
            durability["crash_point"],
            durability["sigkilled"],
            durability["replayed_batches"],
            "IDENTICAL" if durability["recovered_identical"] else "DIVERGED",
            durability["clean_reopen_adopted"],
            "OK" if durability["ok"] else "FAIL",
        )
    )
    print(
        "queued propagation p50 %.3fms  p95 %.3fms  queue depth max %d  "
        "repairs %d  [%s]"
        % (
            obs_metrics["propagation_p50_ms"],
            obs_metrics["propagation_p95_ms"],
            obs_metrics["queue_depth_max"],
            obs_metrics["repairs_total"],
            obs_metrics["trace_path"],
        )
    )
    print(
        "rebalancing session over %d drift batches: skew high-water %.3fms  "
        "imbalance %.3f (high-water %.3f)  migrations %d  extents identical"
        % (
            obs_metrics["session_batches"],
            obs_metrics["session_skew_seconds"] * 1e3,
            obs_metrics["lpt_imbalance_ratio"],
            obs_metrics["lpt_imbalance_high_water"],
            obs_metrics["migrations_total"],
        )
    )
    print(
        "maintenance-vs-recompute speedup %.2fx (floor %.1fx) -> %s  [%s]"
        % (speedup, SPEEDUP_FLOOR, "PASS" if passed else "FAIL", OUT_PATH)
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
