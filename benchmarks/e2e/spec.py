"""What the benchmark measures, by name: workloads, end-to-end metrics,
per-layer metrics and the interaction map between them.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the same information as Python plus the parts the
contract has no room for (meanings, sources, which end-to-end metric
each layer metric should move and on which workload).
``test_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

#: seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10


class WorkloadSpec(NamedTuple):
    name: str
    shape: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the parent's median it may worsen by
    meaning: str


class Layer(NamedTuple):
    name: str  # "<module>.<metric>"
    unit: str
    better: str
    source: str  # R report field, T bench-side timer, O repro.obs span, G load generator
    moves: Tuple[str, ...]  # end-to-end metrics it should move ...
    on: Tuple[str, ...]  # ... on these workloads (zero / flat elsewhere)
    meaning: str


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "insert_bulk",
        "closed loop, in-memory serial engine, 7 XMark views, scale 16, batches of 64, inserts only",
        "xmldom apply, delta+ terms and the views store/lattice pass do the work in one shard "
        "round; storage, sharding and queue idle (the paper's fig 18/20/26 regime)",
    ),
    WorkloadSpec(
        "delete_mix",
        "closed loop, in-memory serial, 7 XMark views, scale 32, batches of 32, 25% deletes, "
        "segments of 8 batches regenerated on the live document",
        "the maintenance layer used the other way: two rounds, pre-batch source "
        "reconstruction, delta-, cancellation; a delta+ win that taxes delta- shows here",
    ),
    WorkloadSpec(
        "churn_sigma",
        "closed loop, in-memory serial, 8 σ views, scale 16, churn batches of 16 "
        "(σ flips, round-trips, dirty pairs, skewed names)",
        "sigma watchlists, flip repair, dirty-snapshot restore and coalescing; small batches "
        "expose per-batch fixed cost; fallbacks must stay 0",
    ),
    WorkloadSpec(
        "durable_stream",
        "open loop 150 stmts per reference second through ApplyQueue(64, 10 ms) into a "
        "sqlite+WAL engine, scale 16, inserts only, then closed-loop drain bursts of 512, "
        "close, reopen",
        "queue linger/batching plus WAL append and sqlite commit on the commit path; log "
        "bloat or deferred work shows in reopen time and bytes per statement",
    ),
    WorkloadSpec(
        "session_drift",
        "closed loop, engine.session(workers=2), 28 views (7 x 4 tenants), scale 16, drift "
        "batches of 32, rebalance on",
        "sharding: broadcast, pickle/IPC, replica apply, delta replay, migration; measured "
        "at 2 real workers, never projected, with a serial baseline row when traced",
    ),
)

#: Every time below is in reference seconds (see ``hostclock``): wall
#: time read against a unit of benchmark-owned work sampled beside it.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of 3 set-ups: document build + register_view of every view + backend open "
        "/ session fork / queue start (stream generation excluded)",
    ),
    EndToEnd(
        "stmts_per_s", "1/s", "higher", 0.25,
        "statements / summed apply_batch time over the run (closed loop); on "
        "durable_stream, over the closed-loop drain bursts",
    ),
    EndToEnd(
        "commit_p50_ms", "ms", "lower", 0.25,
        "median time a submitted statement stays invisible to the views: closed loop = "
        "duration of its apply_batch call (incl. WAL + sqlite commit where durable); open "
        "loop = due time to batch applied, per statement",
    ),
    EndToEnd(
        "commit_p95_ms", "ms", "lower", 0.25,
        "same, 95th percentile (sample count is printed beside it)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the workload's own process at the end of the timed region, less "
        "the reference clock's own tree",
    ),
)


_ALL = tuple(w.name for w in WORKLOADS)
_TPUT = ("stmts_per_s", "commit_p50_ms")

PER_LAYER: Tuple[Layer, ...] = (
    # -- updates ------------------------------------------------------------
    Layer("updates.coalesce_s", "s", "lower", "T", _TPUT, ("churn_sigma", "delete_mix"),
          "bench-side timer on UpdateBatch.coalesced() (O1/O3 reduction + insert merging)"),
    Layer("updates.coalesced_ratio", "ratio", "lower", "R", ("stmts_per_s",), ("churn_sigma", "delete_mix"),
          "statements applied / statements submitted (1.0 = nothing merged or voided)"),
    Layer("updates.cancelled", "count", "higher", "R", ("stmts_per_s",), ("churn_sigma", "delete_mix"),
          "nodes inserted and deleted inside one batch (net no-ops); ~0 on insert_bulk"),
    Layer("updates.pul_ops", "count", "higher", "R", ("stmts_per_s",), _ALL,
          "pending-update-list operations resolved (the real work submitted)"),
    # -- xmldom -------------------------------------------------------------
    Layer("xmldom.apply_s", "s", "lower", "R", _TPUT, ("insert_bulk",),
          "sequential document apply (BatchReport.apply_document_seconds)"),
    Layer("xmldom.net_nodes", "count", "higher", "R", ("stmts_per_s",), ("insert_bulk",),
          "net Δ+ plus net Δ− nodes over all batches"),
    Layer("xmldom.doc_nodes_end", "count", "lower", "G", ("peak_rss_mb",), _ALL,
          "element nodes in the document when the run ends (start is loadgen.doc_nodes_start)"),
    # -- maintenance ----------------------------------------------------------
    Layer("maintenance.net_effects_s", "s", "lower", "R", ("commit_p50_ms",), ("insert_bulk", "delete_mix"),
          "building the batch's net Δ candidate sets, once per batch"),
    Layer("maintenance.find_targets_s", "s", "lower", "R", ("commit_p50_ms",), ("insert_bulk", "delete_mix"),
          "target resolution (compute_pul) per batch: shared by all views, counted once"),
    Layer("maintenance.delta_tables_s", "s", "lower", "R", ("commit_p50_ms",), ("insert_bulk", "delete_mix"),
          "compute_delta_tables phase summed over views"),
    Layer("maintenance.update_expr_s", "s", "lower", "R", ("commit_p50_ms",), ("insert_bulk", "delete_mix"),
          "get_update_expression phase (term development + evaluation) summed over views"),
    Layer("maintenance.propagation_s", "s", "lower", "R", ("commit_p95_ms", "stmts_per_s"), ("delete_mix", "session_drift"),
          "BatchReport.propagation_seconds() summed over batches"),
    Layer("maintenance.slowest_view_share", "ratio", "lower", "R", ("commit_p95_ms",), ("delete_mix", "session_drift"),
          "mean share of a batch's maintenance seconds spent in its slowest unit (view; "
          "worker under a session): the straggler"),
    Layer("maintenance.rounds_per_batch", "ratio", "lower", "R", ("commit_p95_ms",), ("delete_mix",),
          "shard rounds per batch (1 insert-only, 2 delete-bearing)"),
    Layer("maintenance.sigma_repairs", "count", "higher", "R", ("stmts_per_s",), ("churn_sigma",),
          "views repaired in place after a σ flip, summed over batches"),
    Layer("maintenance.dirty_restored", "count", "higher", "R", ("stmts_per_s",), ("churn_sigma",),
          "dirty removed nodes whose val/cont snapshot was restored"),
    Layer("maintenance.fallbacks", "count", "lower", "R", ("stmts_per_s",), ("churn_sigma",),
          "whole-view recompute fallbacks (must stay 0)"),
    Layer("maintenance.fallback_share", "ratio", "lower", "R", ("stmts_per_s",), ("churn_sigma",),
          "fallbacks / (batches x views): the wasted-work ratio (must stay 0)"),
    Layer("maintenance.recompute_over_batch_x", "ratio", "higher", "T", (), _ALL,
          "seconds to evaluate every view from scratch (taken from the check) / "
          "commit_p50: the paper's headline ratio; context, gates nothing"),
    # -- views ----------------------------------------------------------------
    Layer("views.store_pass_s", "s", "lower", "R", ("commit_p50_ms",), ("insert_bulk",),
          "execute_update phase (one bulk_apply per view) summed over views"),
    Layer("views.lattice_pass_s", "s", "lower", "R", ("commit_p50_ms",), ("insert_bulk",),
          "update_lattice phase summed over views"),
    Layer("views.extent_rows_end", "count", "lower", "R", ("peak_rss_mb",), _ALL,
          "stored extent rows over all views when the run ends"),
    # -- storage ----------------------------------------------------------------
    Layer("storage.wal_append_s", "s", "lower", "T", ("commit_p50_ms", "stmts_per_s"), ("durable_stream",),
          "bench-side timer on backend.begin_batch (pickle + WAL DATA record)"),
    Layer("storage.commit_s", "s", "lower", "T", ("commit_p50_ms", "stmts_per_s"), ("durable_stream",),
          "bench-side timer on backend.commit_batch (COMMIT marker + one sqlite txn)"),
    Layer("storage.sync_s", "s", "lower", "T", ("setup_s",), ("durable_stream",),
          "bench-side timer on backend.sync (registration and close checkpoints)"),
    Layer("storage.wal_bytes", "B", "lower", "T", ("commit_p50_ms",), ("durable_stream",),
          "batch WAL bytes after a clean close"),
    Layer("storage.sqlite_bytes", "B", "lower", "T", ("commit_p50_ms",), ("durable_stream",),
          "sqlite database + its journal bytes after a clean close"),
    Layer("storage.db_bytes_per_stmt", "B", "lower", "T", ("commit_p50_ms",), ("durable_stream",),
          "(sqlite + WAL bytes) / statements committed: space cost of a write"),
    Layer("storage.reopen_s", "s", "lower", "T", ("setup_s",), ("durable_stream",),
          "recovery.reopen on the closed database onto a fresh base document (median of 3 "
          "when traced)"),
    Layer("storage.reopen_replayed_batches", "count", "lower", "R", ("setup_s",), ("durable_stream",),
          "RecoveryReport.replayed_batches (0 after a clean close)"),
    Layer("storage.reopen_wal_records", "count", "lower", "R", ("setup_s",), ("durable_stream",),
          "RecoveryReport.wal_records scanned: reopen grows with history through this"),
    Layer("storage.lattices_rematerialized", "count", "lower", "R", ("setup_s",), ("durable_stream",),
          "RecoveryReport.lattices_rematerialized (0 when snapshots are fresh)"),
    # -- queue ------------------------------------------------------------------
    Layer("queue.wait_p50_ms", "ms", "lower", "T", ("commit_p50_ms", "commit_p95_ms"), ("durable_stream",),
          "open loop: due time to batch taken off the queue (linger + waiting behind the "
          "previous batch); latency rises here before throughput stops rising"),
    Layer("queue.batch_size_mean", "count", "higher", "T", ("commit_p50_ms",), ("durable_stream",),
          "mean statements per batch the queue formed in the open-loop phase"),
    Layer("queue.batches", "count", "lower", "T", ("commit_p50_ms",), ("durable_stream",),
          "batches the queue formed in the open-loop phase"),
    Layer("queue.depth_max", "count", "lower", "T", ("commit_p95_ms",), ("durable_stream",),
          "most statements submitted but not yet applied, at any submission"),
    Layer("queue.backlog_end", "count", "lower", "T", ("commit_p95_ms",), ("durable_stream",),
          "statements still pending when a segment's generator finished (max over segments)"),
    # -- sharding ---------------------------------------------------------------
    Layer("sharding.broadcast_s", "s", "lower", "O", _TPUT, ("session_drift",),
          "'broadcast' spans: pickling + sending the batch to every worker"),
    Layer("sharding.owner_apply_s", "s", "lower", "O", _TPUT, ("session_drift",),
          "'owner_apply' spans: the owner's own document apply"),
    Layer("sharding.replica_apply_s", "s", "lower", "O", ("stmts_per_s", "commit_p95_ms"), ("session_drift",),
          "'replica_apply' spans: worker wall seconds, summed over workers"),
    Layer("sharding.delta_replay_s", "s", "lower", "O", _TPUT, ("session_drift",),
          "'delta_replay' spans: folding shipped deltas into the owner's extents"),
    Layer("sharding.shard_s", "s", "lower", "R", _TPUT, ("session_drift",),
          "BatchReport.shard_seconds: wait + replay + migration, per batch, summed"),
    Layer("sharding.worker_makespan_s", "s", "lower", "R", ("commit_p95_ms",), ("session_drift",),
          "slowest worker's wall per batch, summed (it sets the batch time)"),
    Layer("sharding.skew_s", "s", "lower", "R", ("commit_p95_ms",), ("session_drift",),
          "slowest minus fastest party (owner apply and each worker) per batch, summed"),
    Layer("sharding.imbalance_ratio", "ratio", "lower", "R", ("commit_p95_ms",), ("session_drift",),
          "mean observed max/mean worker load"),
    Layer("sharding.migrations", "count", "lower", "R", ("commit_p95_ms",), ("session_drift",),
          "view ownership moves executed by the rebalancer"),
    Layer("sharding.broadcast_bytes", "B", "lower", "T", ("stmts_per_s",), ("session_drift",),
          "bench-side len(pickle.dumps(statements)) x workers, summed"),
    Layer("sharding.worker_rss_mb", "MB", "lower", "T", ("peak_rss_mb",), ("session_drift",),
          "largest ru_maxrss among the reaped session workers"),
    Layer("sharding.speedup_vs_serial", "ratio", "higher", "T", ("stmts_per_s",), ("session_drift",),
          "serial in-memory engine's seconds on the same batches / the session's: "
          "measured at 2 workers, never projected"),
    # -- validity of the traced run and of the load ---------------------------------
    Layer("obs.traced_stmts_per_s", "1/s", "higher", "T", (), _ALL,
          "stmts_per_s of the traced run; over the untraced run's it is obs.overhead_ratio"),
    Layer("unattributed_share", "ratio", "lower", "T", (), _ALL,
          "1 - (summed layer seconds / summed apply_batch wall): time no layer owns yet"),
    Layer("loadgen.stale_share", "ratio", "lower", "G", (), _ALL,
          "applied statements that resolved no target any more (run invalid above 0.10)"),
    Layer("loadgen.late_p95_ms", "ms", "lower", "G", (), ("durable_stream",),
          "open loop: how late the generator submitted, p95 (counted inside commit_* "
          "because latency starts at the due time)"),
    Layer("loadgen.gen_s", "s", "lower", "G", (), _ALL,
          "seconds spent generating statements (outside every timed interval)"),
    Layer("loadgen.gc_s", "s", "lower", "G", (), _ALL,
          "seconds in the explicit gc.collect() between segments (automatic collection is "
          "off inside timed intervals): the collector's cost on the object graph"),
    Layer("loadgen.doc_nodes_start", "count", "lower", "G", (), _ALL,
          "element nodes in the document before the first statement"),
)

#: suite-only ratio (needs an untraced and a traced run of one workload).
OVERHEAD_RATIO = "obs.overhead_ratio"
