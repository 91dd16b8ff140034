"""From one run's raw observations to named metrics.

End-to-end metrics come from the bench's own clock around public calls,
read in reference seconds (``hostclock``).
Per-layer metrics come from three places, none inside ``src/``: (R) the
``BatchReport`` / ``RecoveryReport`` fields the calls returned, (T)
bench-side timers (``rigs.Probe``, ``rigs.TimedEngine``), (O) spans the
program's existing ``repro.obs`` instrumentation recorded because the
traced run handed it an ``Observability``.
"""

from __future__ import annotations

import statistics
from typing import Dict

import loadgen
import spec

#: per-view ``PhaseTimes`` slots, as ``ViewReport.phases`` spells them
#: (``find_target_nodes`` is not here: target resolution is shared, and
#: the engine credits the same seconds to every view's report).
_PHASES = {
    "maintenance.delta_tables_s": "compute_delta_tables",
    "maintenance.update_expr_s": "get_update_expression",
    "views.store_pass_s": "execute_update",
    "views.lattice_pass_s": "update_lattice",
}


def end_to_end(result) -> Dict[str, dict]:
    """Every end-to-end metric of ``spec.END_TO_END`` for one run."""
    seen = result["seen"]
    values = {
        "setup_s": (statistics.median(result["setup_seconds"]), len(result["setup_seconds"])),
        "stmts_per_s": (stmts_per_s(seen), len(seen.segments)),
        "commit_p50_ms": (loadgen.percentile(seen.commit_ms, 0.50), len(seen.commit_ms)),
        "commit_p95_ms": (loadgen.percentile(seen.commit_ms, 0.95), len(seen.commit_ms)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    return {
        metric.name: {
            "value": values[metric.name][0],
            "unit": metric.unit,
            "samples": values[metric.name][1],
        }
        for metric in spec.END_TO_END
    }


def stmts_per_s(seen) -> float:
    """Statements over the reference seconds (``hostclock``) the
    closed-loop segments took: a slow stretch of the host is already
    taken out batch by batch, so every batch counts."""
    return sum(count for count, _ in seen.segments) / sum(
        seconds for _, seconds in seen.segments
    )


def _span_seconds(spans) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for root in spans:
        for span, _depth in root.walk():
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    return totals


def _slowest_share(report) -> float:
    """Share of one batch's per-unit maintenance seconds spent in its
    slowest unit: a view (serial) or a resident worker (session)."""
    session_rounds = [r for r in report.shard_rounds if r["mode"] == "session"]
    if session_rounds:
        units = [unit["seconds"] for unit in session_rounds[0]["unit_s"]]
    else:
        units = [view.phases.total() for view in report.view_reports.values()]
    total = sum(units)
    return max(units) / total if total > 0 else 0.0


def per_layer(result) -> Dict[str, dict]:
    """Every per-layer metric of ``spec.PER_LAYER`` for one run."""
    seen = result["seen"]
    reports = seen.reports
    probe = result["probe"]
    timers = probe.seconds if probe is not None else {}
    spans = _span_seconds(result["spans"])
    storage = result["storage"]
    batches = max(1, len(reports))
    busy = sum(seen.apply_walls)

    submitted = sum(r.statements_submitted for r in reports)
    applied = sum(r.statements_applied for r in reports)
    pul_ops = sum(r.pul_size for r in reports)
    phase = {
        name: sum(getattr(v.phases, slot) for r in reports for v in r.view_reports.values())
        for name, slot in _PHASES.items()
    }
    phase["maintenance.find_targets_s"] = sum(
        max((v.phases.find_target_nodes for v in r.view_reports.values()), default=0.0)
        for r in reports
    )
    fallbacks = sum(len(r.fallbacks) for r in reports)
    session_rounds = [
        entry for r in reports for entry in r.shard_rounds if entry["mode"] == "session"
    ]
    worker_walls = [[u["seconds"] for u in entry["unit_s"]] for entry in session_rounds]
    ratios = [e["imbalance_ratio"] for e in session_rounds if e["imbalance_ratio"] is not None]
    db_bytes = storage.get("wal", 0) + storage.get("sqlite", 0)
    commit_p50_s = loadgen.percentile(seen.commit_ms, 0.50) / 1e3

    values: Dict[str, float] = {
        "updates.coalesce_s": timers.get("coalesce", 0.0),
        "updates.coalesced_ratio": applied / submitted if submitted else 1.0,
        "updates.cancelled": sum(r.cancelled for r in reports),
        "updates.pul_ops": pul_ops,
        "xmldom.apply_s": sum(r.apply_document_seconds for r in reports),
        "xmldom.net_nodes": sum(r.net_inserted + r.net_removed for r in reports),
        "xmldom.doc_nodes_end": result["doc_nodes_end"],
        "maintenance.net_effects_s": sum(r.net_effects_seconds for r in reports),
        "maintenance.propagation_s": sum(r.propagation_seconds() for r in reports),
        "maintenance.slowest_view_share": statistics.fmean(
            [_slowest_share(r) for r in reports] or [0.0]
        ),
        "maintenance.rounds_per_batch": sum(len(r.shard_rounds) for r in reports) / batches,
        "maintenance.sigma_repairs": sum(len(r.repairs) for r in reports),
        "maintenance.dirty_restored": sum(r.dirty_restored for r in reports),
        "maintenance.fallbacks": fallbacks,
        "maintenance.fallback_share": fallbacks / (batches * max(1, result["views"])),
        "maintenance.recompute_over_batch_x": (
            result["recompute_s"] / commit_p50_s if commit_p50_s else 0.0
        ),
        "views.extent_rows_end": result["extent_rows_end"],
        "storage.wal_append_s": timers.get("wal_append", 0.0),
        "storage.commit_s": timers.get("commit", 0.0),
        "storage.sync_s": timers.get("sync", 0.0),
        "storage.wal_bytes": storage.get("wal", 0),
        "storage.sqlite_bytes": storage.get("sqlite", 0),
        "storage.db_bytes_per_stmt": db_bytes / seen.submitted if seen.submitted else 0.0,
        "storage.reopen_s": storage.get("reopen_s", 0.0),
        "storage.reopen_replayed_batches": storage.get("replayed_batches", 0),
        "storage.reopen_wal_records": storage.get("wal_records", 0),
        "storage.lattices_rematerialized": storage.get("lattices_rematerialized", 0),
        "queue.wait_p50_ms": loadgen.percentile(seen.wait_ms, 0.50) if seen.wait_ms else 0.0,
        "queue.batch_size_mean": (
            statistics.fmean(seen.queue_batch_sizes) if seen.queue_batch_sizes else 0.0
        ),
        "queue.batches": len(seen.queue_batch_sizes),
        "queue.depth_max": seen.depth_max,
        "queue.backlog_end": seen.backlog_end,
        "sharding.broadcast_s": spans.get("broadcast", 0.0),
        "sharding.owner_apply_s": spans.get("owner_apply", 0.0),
        "sharding.replica_apply_s": spans.get("replica_apply", 0.0),
        "sharding.delta_replay_s": spans.get("delta_replay", 0.0),
        "sharding.shard_s": sum(r.shard_seconds for r in reports),
        "sharding.worker_makespan_s": sum(max(walls) for walls in worker_walls if walls),
        "sharding.skew_s": sum(
            max(walls + [entry["owner_prep_s"]]) - min(walls + [entry["owner_prep_s"]])
            for walls, entry in zip(worker_walls, session_rounds)
        ),
        "sharding.imbalance_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "sharding.migrations": sum(len(entry["migrations"]) for entry in session_rounds),
        "sharding.broadcast_bytes": probe.broadcast_bytes if probe is not None else 0,
        "sharding.worker_rss_mb": result["worker_rss_mb"],
        "sharding.speedup_vs_serial": (
            result["serial_baseline_s"] / busy if busy else 0.0
        ),
        "obs.traced_stmts_per_s": stmts_per_s(seen),
        "loadgen.stale_share": loadgen.stale_share(pul_ops, applied),
        "loadgen.late_p95_ms": loadgen.percentile(seen.late_ms, 0.95) if seen.late_ms else 0.0,
        "loadgen.gen_s": result["gen_s"],
        "loadgen.gc_s": seen.gc_seconds,
        "loadgen.doc_nodes_start": result["doc_nodes_start"],
    }
    values.update(phase)
    # Seconds some layer owns, against the seconds apply_batch was busy.
    # Under a session the per-view phases run on the workers, overlapped
    # with the owner, so the owner-side wall is what is attributable:
    # its document apply plus shard_seconds (wait + replay + migration).
    attributed = (
        values["updates.coalesce_s"]
        + values["xmldom.apply_s"]
        + values["maintenance.net_effects_s"]
        + sum(phase.values())
        + values["sharding.shard_s"]
        + values["storage.wal_append_s"]
        + values["storage.commit_s"]
    )
    values["unattributed_share"] = max(0.0, 1.0 - attributed / busy) if busy else 0.0
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in spec.PER_LAYER
    }
